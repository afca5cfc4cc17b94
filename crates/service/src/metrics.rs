//! Service metrics: per-class counters and latency histograms.
//!
//! Built on the shared [`rqfa_telemetry`] primitives (the same ones
//! `rqfa_rsoc::metrics` uses): relaxed atomic counters plus the
//! power-of-two [`LatencyHistogram`], read without any per-request
//! allocation on the hot path.
//!
//! ## Snapshot consistency
//!
//! The worker-side outcome counters — `completed`, `failed`,
//! `cache_hits`, `cache_misses`, `cache_stale`, `shed_deadline`,
//! `missed_deadline`, and the kernel [`OpCounts`] — are not incremented
//! one by one. Each worker accumulates a batch's deltas locally
//! (`BatchDeltas`) and commits them in one critical section
//! (`ServiceMetrics::commit`); `ServiceMetrics::snapshot` takes the
//! same gate. A snapshot therefore always sees whole batches: the cache
//! accounting identity `cache_hits + cache_misses == completed + failed`
//! holds at **every** snapshot point, not only after a drained shutdown
//! (the observability suite samples it under live load). Front-end
//! counters (`submitted`, `shed_queue_full`, `picks`) and the latency
//! histogram are written outside the gate — they are not part of the
//! identity and must not serialize the submit path.

use core::fmt;
use core::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rqfa_core::{OpCounts, QosClass};
use rqfa_telemetry::{ratio, MetricSource, Sample};

/// The shared power-of-two latency histogram (µs). Bucket 0 holds
/// exactly 0 µs and reports 0 — not 1 — as its quantile upper bound.
pub use rqfa_telemetry::Histogram as LatencyHistogram;

/// Atomic counters for one QoS class.
#[derive(Debug, Default)]
pub struct ClassMetrics {
    /// Requests submitted in this class.
    pub submitted: AtomicU64,
    /// Requests answered with an allocation.
    pub completed: AtomicU64,
    /// Requests refused at admission because the queue was full.
    pub shed_queue_full: AtomicU64,
    /// Requests dropped at dispatch because their deadline expired.
    pub shed_deadline: AtomicU64,
    /// Completions served from the retrieval result cache.
    pub cache_hits: AtomicU64,
    /// Dispatched requests the cache could not answer (cold, stale, or
    /// insufficient coverage). Every dispatched request probes the cache
    /// exactly once, so `cache_hits + cache_misses == completed + failed`
    /// at every (gate-consistent) snapshot.
    pub cache_misses: AtomicU64,
    /// The subset of `cache_misses` that invalidated a stale entry
    /// (type stamp mismatch) — stale results are *never* served.
    pub cache_stale: AtomicU64,
    /// Requests that failed retrieval (e.g. unknown function type).
    pub failed: AtomicU64,
    /// Arbiter grants: every batch slot drawn from this class's lane.
    /// The measured *served share* is this class's picks over the total
    /// across classes ([`ClassSnapshot::served_share`]).
    pub picks: AtomicU64,
    /// Requests that completed *after* their deadline (served, but late
    /// — the signal the EDF scheduler minimizes).
    pub missed_deadline: AtomicU64,
    /// End-to-end latency (submit → reply) histogram of *served* traffic
    /// (completed and failed requests; shed requests are excluded so
    /// their near-zero turnaround cannot mask the p50/p99 of real work).
    pub latency: LatencyHistogram,
}

/// One batch's worth of per-class outcome deltas, accumulated locally by
/// a worker and committed atomically (see the module docs).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct ClassDeltas {
    pub completed: u64,
    pub shed_deadline: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_stale: u64,
    pub failed: u64,
    pub missed_deadline: u64,
}

/// Everything one dispatched batch changes about the outcome counters.
#[derive(Debug, Default)]
pub(crate) struct BatchDeltas {
    pub classes: [ClassDeltas; QosClass::COUNT],
    pub ops: OpCounts,
}

impl BatchDeltas {
    pub(crate) fn class(&mut self, class: QosClass) -> &mut ClassDeltas {
        &mut self.classes[class.index()]
    }

    pub(crate) fn clear(&mut self) {
        *self = BatchDeltas::default();
    }

    /// Accumulates one retrieval's kernel effort into the batch total.
    pub(crate) fn add_ops(&mut self, ops: &OpCounts) {
        self.ops.search_steps += ops.search_steps;
        self.ops.distances += ops.distances;
        self.ops.multiplies += ops.multiplies;
        self.ops.additions += ops.additions;
        self.ops.comparisons += ops.comparisons;
    }
}

/// Kernel operation counters aggregated across every dispatched batch.
#[derive(Debug, Default)]
pub struct OpsMetrics {
    /// Attribute-list words visited while searching.
    pub search_steps: AtomicU64,
    /// Absolute-difference computations.
    pub distances: AtomicU64,
    /// Multiplications.
    pub multiplies: AtomicU64,
    /// Additions/subtractions.
    pub additions: AtomicU64,
    /// Best-score comparisons.
    pub comparisons: AtomicU64,
}

impl OpsMetrics {
    fn add(&self, ops: &OpCounts) {
        self.search_steps.fetch_add(ops.search_steps, Ordering::Relaxed);
        self.distances.fetch_add(ops.distances, Ordering::Relaxed);
        self.multiplies.fetch_add(ops.multiplies, Ordering::Relaxed);
        self.additions.fetch_add(ops.additions, Ordering::Relaxed);
        self.comparisons.fetch_add(ops.comparisons, Ordering::Relaxed);
    }

    fn snapshot(&self) -> OpCounts {
        OpCounts {
            search_steps: self.search_steps.load(Ordering::Relaxed),
            distances: self.distances.load(Ordering::Relaxed),
            multiplies: self.multiplies.load(Ordering::Relaxed),
            additions: self.additions.load(Ordering::Relaxed),
            comparisons: self.comparisons.load(Ordering::Relaxed),
        }
    }
}

/// Shared metrics for a whole service (all shards write here).
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    /// One counter block per QoS class, indexed by [`QosClass::index`].
    pub classes: [ClassMetrics; QosClass::COUNT],
    /// Batches dispatched by shard workers.
    pub batches: AtomicU64,
    /// Requests dispatched inside those batches.
    pub batched_requests: AtomicU64,
    /// Kernel effort aggregated over every scored batch.
    pub ops: OpsMetrics,
    /// Times a shard worker found its queue empty and parked.
    pub worker_parks: AtomicU64,
    /// Wakes submitters issued to parked workers: at most one per park
    /// (`worker_wakes <= worker_parks` at every snapshot), whatever the
    /// number of submits in between.
    pub worker_wakes: AtomicU64,
    /// Batches run inline instead of by the shard worker: by a blocking
    /// caller that found the shard idle (`docs/scheduling.md` §7.4), or
    /// by a thread blocked on a ticket whose idle shard owed it at most
    /// one batch (§7.5). The shard workers ran the other
    /// `batches - inline_runs` (`inline_runs <= batches` at every
    /// snapshot).
    pub inline_runs: AtomicU64,
    /// The batch-commit gate (see the module docs).
    gate: Mutex<()>,
}

impl ServiceMetrics {
    /// The counter block of one class.
    pub fn class(&self, class: QosClass) -> &ClassMetrics {
        &self.classes[class.index()]
    }

    /// The batch-commit gate, held. It guards no data of its own — the
    /// counters are atomics, each whole after every add — so a gate
    /// poisoned by a panic under it is recovered, rather than turning
    /// every later commit and snapshot into a panic.
    fn gate(&self) -> MutexGuard<'_, ()> {
        self.gate.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Commits one batch's outcome deltas in a single critical section,
    /// so no snapshot can observe a half-applied batch.
    pub(crate) fn commit(&self, deltas: &BatchDeltas) {
        let _gate = self.gate();
        for (class, d) in QosClass::ALL.into_iter().zip(deltas.classes) {
            let m = self.class(class);
            m.completed.fetch_add(d.completed, Ordering::Relaxed);
            m.shed_deadline.fetch_add(d.shed_deadline, Ordering::Relaxed);
            m.cache_hits.fetch_add(d.cache_hits, Ordering::Relaxed);
            m.cache_misses.fetch_add(d.cache_misses, Ordering::Relaxed);
            m.cache_stale.fetch_add(d.cache_stale, Ordering::Relaxed);
            m.failed.fetch_add(d.failed, Ordering::Relaxed);
            m.missed_deadline.fetch_add(d.missed_deadline, Ordering::Relaxed);
        }
        self.ops.add(&deltas.ops);
    }

    /// Immutable snapshot for reporting, taken under the commit gate so
    /// it never observes a torn batch.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let _gate = self.gate();
        let classes = QosClass::ALL.map(|class| {
            let m = self.class(class);
            ClassSnapshot {
                class,
                submitted: m.submitted.load(Ordering::Relaxed),
                completed: m.completed.load(Ordering::Relaxed),
                shed_queue_full: m.shed_queue_full.load(Ordering::Relaxed),
                shed_deadline: m.shed_deadline.load(Ordering::Relaxed),
                shed_predicted: 0,
                cache_hits: m.cache_hits.load(Ordering::Relaxed),
                cache_misses: m.cache_misses.load(Ordering::Relaxed),
                cache_stale: m.cache_stale.load(Ordering::Relaxed),
                failed: m.failed.load(Ordering::Relaxed),
                promoted: 0,
                picks: m.picks.load(Ordering::Relaxed),
                missed_deadline: m.missed_deadline.load(Ordering::Relaxed),
                p50_us: m.latency.quantile(0.50),
                p99_us: m.latency.quantile(0.99),
            }
        });
        // A wake is counted (Release) after the park it answers, so
        // reading wakes first (Acquire) sees every park they answered:
        // `worker_wakes <= worker_parks` in every snapshot.
        let worker_wakes = self.worker_wakes.load(Ordering::Acquire);
        let worker_parks = self.worker_parks.load(Ordering::Relaxed);
        // Likewise an inline run is counted (Release) after its batch.
        let inline_runs = self.inline_runs.load(Ordering::Acquire);
        MetricsSnapshot {
            classes,
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            ops: self.ops.snapshot(),
            worker_parks,
            worker_wakes,
            inline_runs,
        }
    }
}

impl MetricSource for ServiceMetrics {
    /// The snapshot's samples plus the three hand-over counters, which
    /// only a live, threaded service moves.
    fn collect(&self, out: &mut Vec<Sample>) {
        let snapshot = self.snapshot();
        snapshot.collect(out);
        out.push(Sample::count("queue/worker_parks", snapshot.worker_parks));
        out.push(Sample::count("queue/worker_wakes", snapshot.worker_wakes));
        out.push(Sample::count("queue/inline_runs", snapshot.inline_runs));
    }
}

/// Point-in-time counters of one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassSnapshot {
    /// The class these counters describe.
    pub class: QosClass,
    /// Requests submitted.
    pub submitted: u64,
    /// Requests answered with an allocation.
    pub completed: u64,
    /// Requests shed at admission (queue full).
    pub shed_queue_full: u64,
    /// Requests shed at dispatch (deadline expired).
    pub shed_deadline: u64,
    /// Always 0: nothing in this build produces it. It stays only
    /// because the `benchmark/` harness still names it, and goes once
    /// that harness stops naming it.
    pub shed_predicted: u64,
    /// Completions served from cache.
    pub cache_hits: u64,
    /// Dispatched requests the cache missed (cold or stale).
    pub cache_misses: u64,
    /// Misses that invalidated a stale entry (type stamp mismatch).
    pub cache_stale: u64,
    /// Failed retrievals.
    pub failed: u64,
    /// Always 0: nothing in this build promotes a pick. It stays only
    /// because the `benchmark/` harness still names it, and goes once
    /// that harness stops naming it.
    pub promoted: u64,
    /// Arbiter grants: batch slots drawn from this class's lane.
    pub picks: u64,
    /// Requests served after their effective deadline expired.
    pub missed_deadline: u64,
    /// Median end-to-end latency (bucket upper bound), µs.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency (bucket upper bound), µs.
    pub p99_us: u64,
}

impl ClassSnapshot {
    /// Total requests shed, for any reason.
    pub fn shed(&self) -> u64 {
        self.shed_queue_full + self.shed_deadline + self.shed_predicted
    }

    /// Cache hit rate against probes (`cache_hits / cache_lookups()`),
    /// in `[0, 1]`. Failed retrievals probe the cache too, so this stays
    /// honest when a class's misses mostly fail (hits-over-completions
    /// would read 100% for a class that almost never hit).
    pub fn hit_rate(&self) -> f64 {
        ratio(self.cache_hits, self.cache_lookups())
    }

    /// Cache probes this class issued (each dispatched request probes
    /// exactly once): `cache_hits + cache_misses`.
    pub fn cache_lookups(&self) -> u64 {
        self.cache_hits + self.cache_misses
    }

    /// This class's measured share of all arbiter grants, in `[0, 1]`
    /// (`picks / total_picks`); under saturation the arbiter holds it
    /// near `weight / Σ weights`.
    pub fn served_share(&self, total_picks: u64) -> f64 {
        ratio(self.picks, total_picks)
    }
}

/// Point-in-time counters of the whole service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Per-class counters, most urgent first.
    pub classes: [ClassSnapshot; QosClass::COUNT],
    /// Batches dispatched.
    pub batches: u64,
    /// Requests dispatched inside batches.
    pub batched_requests: u64,
    /// Kernel effort aggregated over every scored batch.
    pub ops: OpCounts,
    /// Times a shard worker parked on an empty queue.
    pub worker_parks: u64,
    /// Wakes issued to parked workers (never more than `worker_parks`).
    pub worker_wakes: u64,
    /// Batches run inline instead of by a shard worker — by a blocking
    /// caller (`docs/scheduling.md` §7.4) or by a thread blocked on a
    /// ticket (§7.5); never more than `batches`.
    pub inline_runs: u64,
}

impl MetricsSnapshot {
    /// The snapshot of one class.
    pub fn class(&self, class: QosClass) -> &ClassSnapshot {
        &self.classes[class.index()]
    }

    /// Total completions across classes.
    pub fn completed(&self) -> u64 {
        self.classes.iter().map(|c| c.completed).sum()
    }

    /// Total sheds across classes.
    pub fn shed(&self) -> u64 {
        self.classes.iter().map(ClassSnapshot::shed).sum()
    }

    /// Mean batch occupancy (requests per dispatched batch).
    pub fn mean_batch_len(&self) -> f64 {
        ratio(self.batched_requests, self.batches)
    }

    /// Total arbiter grants across classes.
    pub fn picks(&self) -> u64 {
        self.classes.iter().map(|c| c.picks).sum()
    }

    /// Flattens the snapshot into registry samples: per-class counters
    /// under `<class>/`, service-wide batch and kernel-effort counters at
    /// the top level. These are exactly the names the `service_trace`
    /// trajectory (`BENCH_14.json`) publishes — a replay has no worker
    /// thread to park, so the hand-over counters are published by the
    /// live [`ServiceMetrics`] source only.
    pub fn collect(&self, out: &mut Vec<Sample>) {
        let total_picks = self.picks();
        for c in &self.classes {
            let class = c.class.to_string();
            out.push(Sample::count(format!("{class}/submitted"), c.submitted));
            out.push(Sample::count(format!("{class}/completed"), c.completed));
            out.push(Sample::count(format!("{class}/shed_queue_full"), c.shed_queue_full));
            out.push(Sample::count(format!("{class}/shed_deadline"), c.shed_deadline));
            out.push(Sample::count(format!("{class}/shed_predicted"), c.shed_predicted));
            out.push(Sample::count(format!("{class}/cache_hits"), c.cache_hits));
            out.push(Sample::count(format!("{class}/cache_misses"), c.cache_misses));
            out.push(Sample::count(format!("{class}/cache_stale"), c.cache_stale));
            out.push(Sample::count(format!("{class}/failed"), c.failed));
            out.push(Sample::count(format!("{class}/promoted"), c.promoted));
            out.push(Sample::count(format!("{class}/picks"), c.picks));
            out.push(Sample::ratio(
                format!("{class}/served_share"),
                c.served_share(total_picks),
            ));
            out.push(Sample::count(format!("{class}/missed_deadline"), c.missed_deadline));
            out.push(Sample::ratio(format!("{class}/hit_rate"), c.hit_rate()));
            out.push(Sample::us(format!("{class}/p50"), c.p50_us));
            out.push(Sample::us(format!("{class}/p99"), c.p99_us));
        }
        out.push(Sample::count("batches", self.batches));
        out.push(Sample::count("batched_requests", self.batched_requests));
        out.push(Sample::new("mean_batch_len", "ratio", self.mean_batch_len()));
        out.push(Sample::count("ops/search_steps", self.ops.search_steps));
        out.push(Sample::count("ops/distances", self.ops.distances));
        out.push(Sample::count("ops/multiplies", self.ops.multiplies));
        out.push(Sample::count("ops/additions", self.ops.additions));
        out.push(Sample::count("ops/comparisons", self.ops.comparisons));
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<9} {:>9} {:>9} {:>6} {:>9} {:>7} {:>6} {:>6} {:>9} {:>9}",
            "class", "submitted", "completed", "shed", "hits", "hit %", "stale", "miss", "p50 µs",
            "p99 µs"
        )?;
        for c in &self.classes {
            writeln!(
                f,
                "{:<9} {:>9} {:>9} {:>6} {:>9} {:>6.1}% {:>6} {:>6} {:>9} {:>9}",
                c.class.to_string(),
                c.submitted,
                c.completed,
                c.shed(),
                c.cache_hits,
                c.hit_rate() * 100.0,
                c.cache_stale,
                c.missed_deadline,
                c.p50_us,
                c.p99_us,
            )?;
        }
        writeln!(
            f,
            "batches: {} ({} run inline by a blocking caller or a waiter; mean occupancy {:.1}, \
             kernel ops {})",
            self.batches,
            self.inline_runs,
            self.mean_batch_len(),
            self.ops.arithmetic(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::default();
        for us in [1u64, 2, 3, 100, 100, 100, 100, 100, 100, 5000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile(0.5);
        assert!((64..=128).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= 4096, "p99 {p99}");
        assert_eq!(LatencyHistogram::default().quantile(0.5), 0);
    }

    #[test]
    fn zero_latency_quantile_reports_zero() {
        // Bucket 0 holds exactly 0 µs; its quantile upper bound must be
        // 0, not 1 (the historical off-by-one this pins).
        let h = LatencyHistogram::default();
        h.record(0);
        h.record(0);
        h.record(0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn snapshot_aggregates() {
        let m = ServiceMetrics::default();
        m.class(QosClass::Low).submitted.fetch_add(4, Ordering::Relaxed);
        m.class(QosClass::Low).shed_queue_full.fetch_add(2, Ordering::Relaxed);
        let mut deltas = BatchDeltas::default();
        deltas.class(QosClass::Low).completed = 2;
        deltas.class(QosClass::Low).cache_hits = 1;
        deltas.class(QosClass::Low).cache_misses = 1;
        deltas.ops.distances = 7;
        m.commit(&deltas);
        let snap = m.snapshot();
        assert_eq!(snap.class(QosClass::Low).shed(), 2);
        assert!((snap.class(QosClass::Low).hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(snap.completed(), 2);
        assert_eq!(snap.shed(), 2);
        assert_eq!(snap.ops.distances, 7);
        let text = snap.to_string();
        assert!(text.contains("CRITICAL") && text.contains("LOW"));
    }

    #[test]
    fn snapshot_collects_registry_samples() {
        let m = ServiceMetrics::default();
        let mut deltas = BatchDeltas::default();
        deltas.class(QosClass::High).completed = 3;
        deltas.class(QosClass::High).cache_misses = 3;
        m.commit(&deltas);
        let mut samples = Vec::new();
        MetricSource::collect(&m, &mut samples);
        let completed = samples.iter().find(|s| s.name == "HIGH/completed").unwrap();
        assert_eq!(completed.value, 3.0);
        assert!(samples.iter().any(|s| s.name == "batches"));
        assert!(samples.iter().any(|s| s.name == "ops/distances"));
    }
}
