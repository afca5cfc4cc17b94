//! Injectable time sources.
//!
//! Everything on the request path that needs "now" asks a [`Clock`] for
//! a `u64` microsecond tick — the paper's retrieval unit is stepped by
//! one cycle counter, and the service around it reads one too. Arrival
//! stamps, effective deadlines, EDF lane keys, dispatch-time deadline
//! checks, the service-time estimator, lease arithmetic and
//! flight-recorder stamps are all the same integer on the same axis, so
//! comparing any two of them is one subtraction and no conversion.
//!
//! The production implementation ([`MonotonicClock`]) counts wall-clock
//! µs from one process-wide origin (fixed at the first read), so every
//! handle — and therefore every recorder in the process, client- or
//! node-side — shares a timeline. The test/bench implementation
//! ([`ManualClock`]) *is* its counter, advanced explicitly by the
//! driver, which makes deadline expiry, EDF ordering, the
//! estimator-capped batch fill and latency histograms exactly
//! reproducible.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A source of monotonic "now" ticks, in µs since the clock's origin.
///
/// Implementations must be monotone: successive `now_us()` calls never
/// go backwards. `Send + Sync` because one clock is shared by every
/// shard worker and the submitting threads.
pub trait Clock: Send + Sync + fmt::Debug {
    /// The current tick, µs since this clock's origin.
    fn now_us(&self) -> u64;
}

/// A shareable clock handle, as carried by service configuration.
pub type SharedClock = Arc<dyn Clock>;

/// The production clock: wall-clock µs since a process-wide origin.
#[derive(Debug, Default, Clone, Copy)]
pub struct MonotonicClock;

impl Clock for MonotonicClock {
    fn now_us(&self) -> u64 {
        static ORIGIN: OnceLock<Instant> = OnceLock::new();
        let elapsed = ORIGIN.get_or_init(Instant::now).elapsed();
        u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
    }
}

/// The default production clock as a [`SharedClock`].
pub fn monotonic() -> SharedClock {
    Arc::new(MonotonicClock)
}

/// A manually driven clock for tests and deterministic replay.
///
/// Time is a microsecond counter starting at 0; it only moves when the
/// owner calls [`ManualClock::advance_us`] or [`ManualClock::set_us`].
/// Both are monotone (`set_us` to a past time is a no-op), so the
/// [`Clock`] contract holds even with concurrent drivers.
#[derive(Debug, Default)]
pub struct ManualClock {
    offset_us: AtomicU64,
}

impl ManualClock {
    /// A manual clock starting at tick 0.
    pub fn new() -> ManualClock {
        ManualClock::default()
    }

    /// Moves time forward by `us` microseconds.
    pub fn advance_us(&self, us: u64) {
        self.offset_us.fetch_add(us, Ordering::SeqCst);
    }

    /// Jumps time to tick `us`. Monotone: a target earlier than the
    /// current tick leaves the clock where it is (time never goes
    /// backwards).
    pub fn set_us(&self, us: u64) {
        self.offset_us.fetch_max(us, Ordering::SeqCst);
    }

    /// Microseconds elapsed since construction (the current tick).
    pub fn elapsed_us(&self) -> u64 {
        self.offset_us.load(Ordering::SeqCst)
    }
}

impl Clock for ManualClock {
    fn now_us(&self) -> u64 {
        self.elapsed_us()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_is_monotone_and_handles_share_one_origin() {
        // Two handles bracket each other's reads: were their origins
        // distinct (say, one per handle), the later-built handle would
        // read *less* than the earlier one.
        let first = MonotonicClock;
        let a = first.now_us();
        let second = monotonic();
        let b = second.now_us();
        let c = first.now_us();
        assert!(a <= b && b <= c, "{a} <= {b} <= {c}");
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(second.now_us() >= c + 2_000, "ticks are wall-clock µs");
    }

    #[test]
    fn manual_clock_moves_only_when_driven() {
        let clock = ManualClock::new();
        assert_eq!(clock.now_us(), 0, "time is frozen until advanced");
        clock.advance_us(250);
        assert_eq!(clock.now_us(), 250);
        clock.set_us(1_000);
        assert_eq!(clock.now_us(), clock.elapsed_us());
        assert_eq!(clock.elapsed_us(), 1_000);
        // Monotone: setting a past time is a no-op.
        clock.set_us(10);
        assert_eq!(clock.now_us(), 1_000);
    }

    #[test]
    fn manual_clock_is_shareable_as_dyn_clock() {
        let manual = Arc::new(ManualClock::new());
        let shared: SharedClock = Arc::clone(&manual) as SharedClock;
        let before = shared.now_us();
        manual.advance_us(42);
        assert_eq!(shared.now_us() - before, 42);
    }
}
