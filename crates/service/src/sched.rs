//! QoS scheduling policy: the arbiter over the four class lanes, plus
//! the measured service-time estimator that closes the control loop.
//!
//! The shard worker asks the scheduler which class to serve next each
//! time it moves one job into a dispatch batch. The arbiter is credit
//! **weighted round-robin with bounded slack promotion** — the software
//! analogue of an AXI interconnect's weighted QoS arbiter (the full
//! model, with its invariants, is spelled out in
//! [`docs/scheduling.md`](https://github.com/rqfa/rqfa/blob/main/docs/scheduling.md)):
//!
//! * **Credits.** Each class holds a credit counter refilled to
//!   [`QosClass::weight`]; picking a job costs one credit; the most
//!   urgent class with both work and credit wins; when every backlogged
//!   class is out of credit, all counters refill (a new *round*). LOW
//!   traffic therefore keeps forward progress (no starvation) while
//!   CRITICAL gets an 8:4:2:1 share under saturation.
//! * **Bounded slack promotion.** The queue flags a lane *urgent* when
//!   its head job's remaining slack (deadline − now) has shrunk to the
//!   promotion margin. An urgent lane may be served ahead of the weighted
//!   order: if it still has credit the promotion merely reorders work
//!   inside the round (free — round totals are unchanged); if it is out
//!   of credit it consumes one of the round's
//!   [`WeightedArbiter::DEFAULT_PROMOTIONS`] tokens. The token bound is
//!   the anti-starvation guarantee: a round can grow by at most that
//!   many extra picks, so CRITICAL's share never drops below
//!   `weight / (Σ weights + tokens)` no matter how many lower-class
//!   deadlines are about to burst.
//!
//! Within a lane, ordering is the queue's business
//! ([earliest-deadline-first](crate::queue::ClassQueue)); the arbiter
//! only ever decides *which lane* yields the next job.

use std::sync::atomic::{AtomicU64, Ordering};

use rqfa_core::QosClass;

/// One scheduling decision of [`WeightedArbiter::pick_urgent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// The lane to serve.
    pub class: QosClass,
    /// Whether deadline urgency overrode the plain weighted order (the
    /// pick jumped ahead of a more urgent class's credits).
    pub promoted: bool,
}

/// Per-shard EWMA estimator of per-job service time, fed by the worker
/// with *measured* batch durations (or by the replay driver with
/// cost-model durations) and read by the scheduler to stop batch fill
/// before a picked job is made late and to predict doomed arrivals.
///
/// Single writer (the shard's worker), many readers; state is plain
/// relaxed atomics in ×16 fixed point, so readers never block the worker
/// and a torn read is impossible (each field is one word). Cold (no
/// samples yet) the estimator reports 0 and changes nothing.
#[derive(Debug, Default)]
pub struct ServiceTimeEstimator {
    /// EWMA of per-job marginal service time, µs × 16.
    per_job_q4: AtomicU64,
    /// Batches observed.
    samples: AtomicU64,
}

impl ServiceTimeEstimator {
    /// EWMA smoothing: `new = old + (sample - old) / 8`.
    const ALPHA_SHIFT: u32 = 3;

    /// A cold estimator (no samples; every query reports 0).
    pub fn new() -> ServiceTimeEstimator {
        ServiceTimeEstimator::default()
    }

    /// Feeds one served batch: its total service time in µs and how many
    /// jobs it carried. Zero-job batches are ignored. The first sample
    /// seeds the EWMA directly (no slow warm-up from zero).
    pub fn observe(&self, batch_us: u64, jobs: usize) {
        if jobs == 0 {
            return;
        }
        let sample = (batch_us / jobs as u64) << 4;
        if self.samples.fetch_add(1, Ordering::Relaxed) == 0 {
            self.per_job_q4.store(sample, Ordering::Relaxed);
            return;
        }
        let old = self.per_job_q4.load(Ordering::Relaxed);
        let new = old + (sample >> Self::ALPHA_SHIFT) - (old >> Self::ALPHA_SHIFT);
        self.per_job_q4.store(new, Ordering::Relaxed);
    }

    /// Smoothed marginal service time of one job, µs (0 while cold).
    pub fn per_job_us(&self) -> u64 {
        self.per_job_q4.load(Ordering::Relaxed) >> 4
    }

    /// Batches observed so far.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }
}

/// Credit-based weighted round-robin arbiter over the four QoS classes,
/// with a bounded per-round budget of deadline-slack promotions.
#[derive(Debug, Clone)]
pub struct WeightedArbiter {
    credits: [u32; QosClass::COUNT],
    promotions_left: u32,
}

impl WeightedArbiter {
    /// Out-of-credit promotions allowed per scheduling round.
    pub const DEFAULT_PROMOTIONS: u32 = 2;

    /// An arbiter at the start of a round: every class holds its
    /// [`QosClass::weight`] in credits (8:4:2:1) and the promotion
    /// budget is full.
    pub fn new() -> WeightedArbiter {
        WeightedArbiter {
            credits: QosClass::ALL.map(QosClass::weight),
            promotions_left: WeightedArbiter::DEFAULT_PROMOTIONS,
        }
    }

    /// Picks the class to serve next given which classes have queued work.
    /// Returns `None` when no class has work; consumes one credit
    /// otherwise. Equivalent to [`WeightedArbiter::pick_urgent`] with no
    /// lane urgent.
    pub fn pick(&mut self, backlogged: [bool; QosClass::COUNT]) -> Option<QosClass> {
        self.pick_urgent(backlogged, [false; QosClass::COUNT])
            .map(|p| p.class)
    }

    /// Picks the class to serve next, honouring deadline urgency.
    ///
    /// `backlogged[i]` says lane `i` has queued work; `urgent[i]` says
    /// its *head* job is within the promotion margin of missing its
    /// deadline. The most urgent backlogged class with credit wins,
    /// unless a different backlogged lane is urgent: that lane is served
    /// instead — on its own credit if it has one (reordering inside the
    /// round, totals unchanged), else on one of the round's promotion
    /// tokens (an extra pick, bounded per round), else not at all.
    /// Returns `None` when no lane has work.
    pub fn pick_urgent(
        &mut self,
        backlogged: [bool; QosClass::COUNT],
        urgent: [bool; QosClass::COUNT],
    ) -> Option<Pick> {
        if !backlogged.iter().any(|&b| b) {
            return None;
        }
        let creditable = |credits: &[u32; QosClass::COUNT]| {
            QosClass::ALL
                .into_iter()
                .find(|c| backlogged[c.index()] && credits[c.index()] > 0)
        };
        let normal = creditable(&self.credits).unwrap_or_else(|| {
            // Refill = new round (also restores the promotion budget).
            *self = WeightedArbiter::new();
            creditable(&self.credits).expect("a backlogged lane has credit after a refill")
        });
        let urgent_lane = QosClass::ALL
            .into_iter()
            .find(|c| backlogged[c.index()] && urgent[c.index()]);
        if let Some(u) = urgent_lane.filter(|&u| u != normal) {
            if self.credits[u.index()] > 0 {
                // Credit-covered promotion: reorders inside the round
                // without changing its totals.
                self.credits[u.index()] -= 1;
                return Some(Pick { class: u, promoted: true });
            }
            if self.promotions_left > 0 {
                // Token promotion: an extra pick beyond the lane's
                // weight, bounded per round.
                self.promotions_left -= 1;
                return Some(Pick { class: u, promoted: true });
            }
            // Budget exhausted: fall through to the weighted order.
        }
        self.credits[normal.index()] -= 1;
        Some(Pick {
            class: normal,
            promoted: false,
        })
    }
}

impl Default for WeightedArbiter {
    fn default() -> WeightedArbiter {
        WeightedArbiter::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_backlog_yields_none() {
        let mut arb = WeightedArbiter::new();
        assert_eq!(arb.pick([false; 4]), None);
    }

    #[test]
    fn single_backlogged_class_always_wins() {
        let mut arb = WeightedArbiter::new();
        let only_low = [false, false, false, true];
        for _ in 0..100 {
            assert_eq!(arb.pick(only_low), Some(QosClass::Low));
        }
    }

    #[test]
    fn saturation_share_follows_weights() {
        let mut arb = WeightedArbiter::new();
        let mut counts = [0u32; 4];
        for _ in 0..1500 {
            let class = arb.pick([true; 4]).unwrap();
            counts[class.index()] += 1;
        }
        // 1500 picks = 100 full rounds of 15 credits → exactly 8:4:2:1.
        assert_eq!(counts, [800, 400, 200, 100]);
    }

    #[test]
    fn low_is_not_starved_by_critical() {
        let mut arb = WeightedArbiter::new();
        let crit_and_low = [true, false, false, true];
        let mut low = 0;
        for _ in 0..900 {
            if arb.pick(crit_and_low) == Some(QosClass::Low) {
                low += 1;
            }
        }
        assert_eq!(low, 100, "LOW must get its 1/9 share");
    }

    #[test]
    fn urgent_lane_with_credit_jumps_the_weighted_order_for_free() {
        // CRITICAL and LOW backlogged; LOW urgent for one pick only, so
        // only the credit-covered mechanism is in play. LOW's single
        // credit serves it *first* instead of ninth, but the round still
        // totals 8 + 1 and no promotion token is spent.
        let mut arb = WeightedArbiter::new();
        let backlogged = [true, false, false, true];
        let first = arb
            .pick_urgent(backlogged, [false, false, false, true])
            .unwrap();
        assert_eq!(first, Pick { class: QosClass::Low, promoted: true });
        for _ in 0..8 {
            assert_eq!(arb.pick(backlogged), Some(QosClass::Critical));
        }
        assert_eq!(arb.promotions_left, WeightedArbiter::DEFAULT_PROMOTIONS);
        // The ninth pick finds no creditable lane: a new round begins.
        assert_eq!(arb.pick(backlogged), Some(QosClass::Critical));
        assert_eq!(arb.credits, [7, 4, 2, 1], "round totals unchanged");
    }

    #[test]
    fn token_promotions_are_bounded_per_round() {
        // MEDIUM permanently urgent against a CRITICAL flood: each round
        // is 8 CRITICAL + 2 MEDIUM credits + at most 2 MEDIUM tokens.
        let mut arb = WeightedArbiter::new();
        let backlogged = [true, false, true, false];
        let urgent = [false, false, true, false];
        let mut counts = [0u32; 4];
        let mut promoted = 0u32;
        for _ in 0..1200 {
            let p = arb.pick_urgent(backlogged, urgent).unwrap();
            counts[p.class.index()] += 1;
            promoted += u32::from(p.promoted);
        }
        // 1200 picks = 100 rounds of (8 + 2 + 2): CRITICAL keeps exactly
        // its 8/12 share — the anti-starvation bound.
        assert_eq!(counts, [800, 0, 400, 0]);
        assert_eq!(promoted, 400, "2 credit + 2 token promotions per round");
    }

    #[test]
    fn most_urgent_class_wins_among_urgent_lanes() {
        let mut arb = WeightedArbiter::new();
        // HIGH and LOW both urgent: HIGH (more urgent class) is served.
        let p = arb
            .pick_urgent([true, true, false, true], [false, true, false, true])
            .unwrap();
        assert_eq!(p.class, QosClass::High);
        assert!(p.promoted);
    }

    #[test]
    fn estimator_tracks_a_steady_signal() {
        let est = ServiceTimeEstimator::new();
        assert_eq!(est.per_job_us(), 0, "cold estimator reports 0");
        for _ in 0..64 {
            est.observe(400, 8);
        }
        assert_eq!(est.per_job_us(), 50, "EWMA locks onto a constant");
        assert_eq!(est.samples(), 64);
    }

    #[test]
    fn estimator_converges_toward_a_level_shift() {
        let est = ServiceTimeEstimator::new();
        est.observe(100, 1);
        for _ in 0..64 {
            est.observe(900, 1);
        }
        let per_job = est.per_job_us();
        assert!(
            (850..=900).contains(&per_job),
            "EWMA {per_job} should have converged near 900"
        );
        est.observe(0, 0);
        assert_eq!(est.samples(), 65, "zero-job batches are ignored");
    }
}
