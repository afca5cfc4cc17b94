//! The one-shot reply slot between a queued [`Job`](crate::Job) and the
//! [`Ticket`] its submitter holds.
//!
//! One allocation is shared by the two halves: the job's [`Filler`]
//! settles the slot exactly once, the ticket reads it. The slot is
//! *empty* until it settles as *filled* (a reply is waiting) or
//! *abandoned* (no reply will ever come: the job was dropped unanswered,
//! or the reply has already been handed out). A waiter that has to block
//! — having first run, on a live shard, the batches its idle worker owed
//! it (`docs/scheduling.md` §7.5) — registers its thread in the empty
//! slot and parks; whoever settles the slot gets that thread back and
//! owes it the wake — and nobody else is ever woken, because
//! `Thread::unpark` is only called for a waiter that registered itself.
//! The worker collects the waiters of a whole batch and wakes them
//! together (`docs/scheduling.md`, "Hand-over protocol").

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::thread::{self, Thread};
use std::time::Duration;

use rqfa_core::QosClass;
use rqfa_telemetry::{Clock, MonotonicClock};

use crate::shard::Shared;
use crate::Reply;

#[derive(Debug)]
enum State {
    /// No reply yet; holds the waiter parked on the slot, if any.
    Empty(Option<Thread>),
    /// The reply, not yet collected.
    Filled(Reply),
    /// Nothing more will come out of this slot.
    Abandoned,
}

#[derive(Debug)]
struct ReplySlot(Mutex<State>);

impl ReplySlot {
    /// Every update leaves the state valid at every step, and both
    /// halves' `Drop`s come through here: a poisoned lock is recovered.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Settles an empty slot as `settled`, handing back the waiter that
    /// must now be woken.
    fn settle(&self, settled: State) -> Option<Thread> {
        let mut state = self.lock();
        match std::mem::replace(&mut *state, settled) {
            State::Empty(waiter) => waiter,
            State::Filled(_) | State::Abandoned => unreachable!("a slot settles once"),
        }
    }
}

/// The job's half of a reply slot: fills it once, or abandons it by
/// being dropped.
#[derive(Debug)]
pub(crate) struct Filler(Option<Arc<ReplySlot>>);

impl Filler {
    /// Stores the reply. Returns the waiter parked on the slot, which
    /// the caller must `unpark` — at once, or together with the rest of
    /// its batch. A reply whose ticket is gone is freed with the slot.
    #[must_use = "the registered waiter is parked until it is unparked"]
    pub(crate) fn fill(mut self, reply: Reply) -> Option<Thread> {
        let slot = self.0.take().expect("a filler fills once");
        slot.settle(State::Filled(reply))
    }
}

impl Drop for Filler {
    fn drop(&mut self) {
        // Dropped unanswered (queue aborted, worker died): the ticket
        // must wake with nothing instead of waiting forever.
        if let Some(waiter) = self.0.take().and_then(|slot| slot.settle(State::Abandoned)) {
            waiter.unpark();
        }
    }
}

/// Waiters handed back by [`Filler::fill`], collected so that one batch
/// pass wakes them together. Their replies are already in their slots,
/// so a worker that unwinds mid-batch still wakes them on its way out
/// instead of stranding them.
#[derive(Debug, Default)]
pub(crate) struct Waiters(Vec<Thread>);

impl Waiters {
    pub(crate) fn with_capacity(waiters: usize) -> Waiters {
        Waiters(Vec::with_capacity(waiters))
    }

    pub(crate) fn extend(&mut self, released: Option<Thread>) {
        self.0.extend(released);
    }

    pub(crate) fn wake(&mut self) {
        for waiter in self.0.drain(..) {
            waiter.unpark();
        }
    }
}

impl Drop for Waiters {
    fn drop(&mut self) {
        self.wake();
    }
}

/// A handle to one in-flight request.
///
/// `Send` but not `Sync`: a slot holds one registered waiter, so a
/// ticket is waited on by one thread at a time.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    class: QosClass,
    slot: Arc<ReplySlot>,
    /// The live shard that admitted the request, whose idle worker's
    /// batch [`Ticket::wait`] may run — held only if the push left a
    /// queue that a waiter's pop takes from; none from the replay or the
    /// harness, whose batches only their own loop runs.
    shard: Option<Weak<Shared>>,
    _one_waiter: PhantomData<Cell<()>>,
}

/// A connected filler/ticket pair for request `id` of `class`.
pub(crate) fn reply_slot(id: u64, class: QosClass) -> (Filler, Ticket) {
    let slot = Arc::new(ReplySlot(Mutex::new(State::Empty(None))));
    let ticket = Ticket {
        id,
        class,
        slot: Arc::clone(&slot),
        shard: None,
        _one_waiter: PhantomData,
    };
    (Filler(Some(slot)), ticket)
}

impl Ticket {
    /// The request id (matches [`Reply::id`]).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The request's QoS class.
    pub fn class(&self) -> QosClass {
        self.class
    }

    /// Ties the ticket to the live shard that admitted its request.
    pub(crate) fn driven_by(mut self, shard: &Arc<Shared>) -> Ticket {
        self.shard = Some(Arc::downgrade(shard));
        self
    }

    /// Blocks until the reply arrives. `None` only if the service was torn
    /// down without answering (worker panic, or a store lock found
    /// poisoned) — a drained shutdown replies to everything first.
    ///
    /// The wait does not always park at once. While the reply is
    /// outstanding, the shard's worker is empty-handed and at most one
    /// batch is queued, the waiting thread runs that batch itself — the
    /// other jobs in it too, answered as the worker would answer them —
    /// and parks only once it cannot (`docs/scheduling.md` §7.5). A store
    /// lock found poisoned meanwhile makes it shut the shard's queue, as
    /// a dying worker does, and return `None`; a panic inside such a
    /// batch unwinds the waiting thread, as it unwinds a blocking
    /// caller's.
    pub fn wait(self) -> Option<Reply> {
        if let Some(shard) = self.shard.as_ref().and_then(Weak::upgrade) {
            while self.is_pending() && shard.run_owed_batch() {}
        }
        self.wait_until(None)
    }

    /// Non-blocking poll.
    pub fn try_wait(&self) -> Option<Reply> {
        take_settled(&mut self.slot.lock()).flatten()
    }

    /// Blocks up to `timeout` for the reply. Unlike [`Ticket::wait`] it
    /// never runs a batch: one can outlast a short timeout.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<Reply> {
        // Rounded up to the clock's µs; a deadline past the end of the
        // time axis is no deadline.
        let timeout_us = u64::try_from(timeout.as_nanos().div_ceil(1_000)).unwrap_or(u64::MAX);
        self.wait_until(MonotonicClock.now_us().checked_add(timeout_us))
    }

    /// Parks until the slot settles or the monotonic clock passes
    /// `deadline_us`.
    fn wait_until(&self, deadline_us: Option<u64>) -> Option<Reply> {
        loop {
            let mut state = self.slot.lock();
            if let Some(settled) = take_settled(&mut state) {
                return settled;
            }
            let remaining_us = deadline_us.map(|d| d.saturating_sub(MonotonicClock.now_us()));
            if remaining_us == Some(0) {
                // Timed out: deregister, so a later fill wakes nobody.
                *state = State::Empty(None);
                return None;
            }
            if matches!(*state, State::Empty(None)) {
                *state = State::Empty(Some(thread::current()));
            }
            drop(state);
            // A wake-up proves nothing (stale tokens, spurious returns):
            // the slot is re-read either way.
            match remaining_us {
                Some(us) => thread::park_timeout(Duration::from_micros(us)),
                None => thread::park(),
            }
        }
    }

    /// Whether the slot is still empty: no reply yet, none abandoned.
    fn is_pending(&self) -> bool {
        matches!(*self.slot.lock(), State::Empty(_))
    }

    /// Whether the slot was abandoned or already emptied by a take.
    #[cfg(test)]
    pub(crate) fn is_abandoned(&self) -> bool {
        matches!(*self.slot.lock(), State::Abandoned)
    }
}

/// Takes what a settled slot holds — `Some(reply)` once, `None` ever
/// after — or `None` while the slot is still empty.
fn take_settled(state: &mut State) -> Option<Option<Reply>> {
    match std::mem::replace(state, State::Abandoned) {
        State::Filled(reply) => Some(Some(reply)),
        State::Abandoned => Some(None),
        empty @ State::Empty(_) => {
            *state = empty;
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Outcome;

    fn slot() -> (Filler, Ticket) {
        reply_slot(7, QosClass::High)
    }

    fn reply() -> Reply {
        Reply {
            id: 7,
            class: QosClass::High,
            outcome: Outcome::ShedDeadline,
            latency_us: 3,
        }
    }

    #[test]
    fn a_reply_filled_before_the_wait_is_returned_without_parking() {
        let (filler, ticket) = slot();
        assert_eq!((ticket.id(), ticket.class()), (7, QosClass::High));
        assert_eq!(ticket.try_wait(), None, "empty");
        assert!(
            filler.fill(reply()).is_none(),
            "nobody registered, nobody to wake"
        );
        // Were `wait` to park here, nothing would ever unpark it.
        assert_eq!(ticket.wait(), Some(reply()));
    }

    /// Spins until a waiter has registered itself in `slot`, so that the
    /// wake — not the check before the park — is what releases it.
    fn await_registration(slot: &ReplySlot) {
        while !matches!(*slot.lock(), State::Empty(Some(_))) {
            thread::yield_now();
        }
    }

    #[test]
    fn the_filler_hands_back_exactly_the_registered_waiter() {
        let (filler, ticket) = slot();
        let slot = Arc::clone(&ticket.slot);
        let waiter = thread::spawn(move || (thread::current().id(), ticket.wait()));
        await_registration(&slot);
        let thread = filler.fill(reply()).expect("the registered waiter");
        thread.unpark();
        assert_eq!(waiter.join().unwrap(), (thread.id(), Some(reply())));
    }

    #[test]
    fn collected_waiters_are_woken_even_if_the_collector_unwinds() {
        let (filler, ticket) = slot();
        let slot = Arc::clone(&ticket.slot);
        let waiter = thread::spawn(move || ticket.wait());
        await_registration(&slot);
        let mut waiters = Waiters::default();
        waiters.extend(filler.fill(reply()));
        drop(waiters);
        assert_eq!(waiter.join().unwrap(), Some(reply()));
    }

    #[test]
    fn a_dropped_filler_wakes_a_parked_waiter_with_nothing() {
        let (filler, ticket) = slot();
        let slot = Arc::clone(&ticket.slot);
        let waiter = thread::spawn(move || ticket.wait());
        await_registration(&slot);
        drop(filler);
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn try_wait_after_abandoned_keeps_yielding_none() {
        let (filler, ticket) = slot();
        drop(filler);
        assert!(ticket.is_abandoned());
        assert_eq!(ticket.try_wait(), None);
        assert_eq!(ticket.try_wait(), None);
        assert_eq!(
            ticket.wait_timeout(Duration::from_secs(30)),
            None,
            "does not sit out the timeout"
        );
        // A collected reply leaves the slot in the same terminal state.
        let (filler, ticket) = slot();
        assert!(filler.fill(reply()).is_none());
        assert_eq!(ticket.try_wait(), Some(reply()));
        assert_eq!(ticket.try_wait(), None);
        assert_eq!(ticket.wait(), None);
    }

    #[test]
    fn a_ticket_dropped_first_makes_the_fill_a_silent_discard() {
        let (filler, ticket) = slot();
        let freed = Arc::downgrade(&ticket.slot);
        drop(ticket);
        assert!(filler.fill(reply()).is_none());
        assert!(
            freed.upgrade().is_none(),
            "slot and reply freed with the last half"
        );
    }

    #[test]
    fn wait_timeout_survives_a_deadline_past_the_end_of_time() {
        let (filler, ticket) = slot();
        let slot = Arc::clone(&ticket.slot);
        let waiter = thread::spawn(move || ticket.wait_timeout(Duration::MAX));
        await_registration(&slot);
        filler
            .fill(reply())
            .expect("the registered waiter")
            .unpark();
        assert_eq!(
            waiter.join().unwrap(),
            Some(reply()),
            "fell back to a plain wait"
        );
    }

    #[test]
    fn a_timed_out_wait_deregisters_and_the_ticket_stays_usable() {
        let (filler, ticket) = slot();
        assert_eq!(ticket.wait_timeout(Duration::ZERO), None);
        assert_eq!(ticket.wait_timeout(Duration::from_millis(2)), None);
        assert!(
            filler.fill(reply()).is_none(),
            "the timed-out waiter is gone"
        );
        assert_eq!(ticket.wait_timeout(Duration::ZERO), Some(reply()));
    }

    #[test]
    fn ticket_is_send_but_not_sync() {
        fn is_send<T: Send>() {}
        is_send::<Ticket>();
        // Resolves only while exactly one impl applies: were `Ticket`
        // `Sync`, both would, and this would stop compiling.
        trait AmbiguousIfSync<A> {
            fn check() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}
        <Ticket as AmbiguousIfSync<_>>::check();
    }
}
