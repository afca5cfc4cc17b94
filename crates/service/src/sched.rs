//! QoS scheduling policy: the arbiter over the four class lanes, plus
//! the measured service-time estimator that caps a batch fill.
//!
//! The shard worker asks the scheduler which class to serve next each
//! time it moves one job into a dispatch batch. The arbiter is credit
//! **weighted round-robin** — the software analogue of an AXI
//! interconnect's weighted QoS arbiter (the full model, with its
//! invariants, is spelled out in
//! [`docs/scheduling.md`](https://github.com/rqfa/rqfa/blob/main/docs/scheduling.md)):
//! each class holds a credit counter refilled to [`QosClass::weight`];
//! picking a job costs one credit; the most urgent class with both work
//! and credit wins; when every backlogged class is out of credit, all
//! counters refill (a new *round*). LOW traffic therefore keeps forward
//! progress (no starvation) while CRITICAL gets an 8:4:2:1 share under
//! saturation.
//!
//! Within a lane, ordering is the queue's business
//! ([earliest-deadline-first](crate::queue::ClassQueue)); the arbiter
//! only ever decides *which lane* yields the next job.

use std::sync::atomic::{AtomicU64, Ordering};

use rqfa_core::QosClass;

/// Per-shard EWMA estimator of per-job service time, fed by the worker
/// with *measured* batch durations (or by the replay driver with
/// cost-model durations) and read by the scheduler to stop batch fill
/// before a picked job is made late.
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

/// Credit-based weighted round-robin arbiter over the four QoS classes.
#[derive(Debug, Clone)]
pub struct WeightedArbiter {
    credits: [u32; QosClass::COUNT],
}

impl WeightedArbiter {
    /// An arbiter at the start of a round: every class holds its
    /// [`QosClass::weight`] in credits (8:4:2:1).
    pub fn new() -> WeightedArbiter {
        WeightedArbiter {
            credits: QosClass::ALL.map(QosClass::weight),
        }
    }

    /// Picks the class to serve next given which classes have queued work:
    /// the most urgent backlogged class with credit, after a refill (a new
    /// round) if none has any. Returns `None` when no class has work;
    /// consumes one credit otherwise.
    pub fn pick(&mut self, backlogged: [bool; QosClass::COUNT]) -> Option<QosClass> {
        if !backlogged.iter().any(|&b| b) {
            return None;
        }
        let creditable = |credits: &[u32; QosClass::COUNT]| {
            QosClass::ALL
                .into_iter()
                .find(|c| backlogged[c.index()] && credits[c.index()] > 0)
        };
        let class = creditable(&self.credits).unwrap_or_else(|| {
            *self = WeightedArbiter::new();
            creditable(&self.credits).expect("a backlogged lane has credit after a refill")
        });
        self.credits[class.index()] -= 1;
        Some(class)
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
