//! Persistence-side observability counters.
//!
//! A [`DurableCaseBase`](crate::DurableCaseBase) owns one
//! [`PersistStats`] block (shared via `Arc`, so a service layer can read
//! it without taking the store lock the writer holds). The block answers
//! the three operator questions the write path raises: *how slow are my
//! fsyncs* (append latency histogram), *is group commit actually
//! batching* (flush-window occupancy histogram), and *how much replay
//! would a crash cost right now* (WAL bytes since the last checkpoint).

use std::sync::Arc;

use rqfa_telemetry::{Counter, Gauge, Histogram, MetricSource, Sample};

/// Counters and histograms of one durable case base's write path.
#[derive(Debug, Default)]
pub struct PersistStats {
    /// WAL append calls — one per group commit (one fsync on a file
    /// store), however many mutations the window carried.
    pub appends: Counter,
    /// Mutations acknowledged across all appends.
    pub appended_mutations: Counter,
    /// Appends that had to enlarge the log file: their flush committed a
    /// new size (a filesystem journal commit), every other append's
    /// flushed a data block and nothing else.
    pub reserve_grows: Counter,
    /// Latency of one WAL append (µs) — the fsync cost on a file store.
    pub append_us: Histogram,
    /// Mutations per group-commit window (an `apply` records 1; a
    /// well-fed `apply_batch` records its batch length).
    pub flush_window: Histogram,
    /// Bytes in the WAL that a recovery would replay — grows with every
    /// append, resets when a checkpoint compacts the log.
    pub wal_bytes_since_checkpoint: Gauge,
    /// Completed checkpoints (snapshot + compaction).
    pub checkpoints: Counter,
}

impl PersistStats {
    /// A fresh, shareable stats block.
    pub fn shared() -> Arc<PersistStats> {
        Arc::new(PersistStats::default())
    }
}

impl MetricSource for PersistStats {
    fn collect(&self, out: &mut Vec<Sample>) {
        out.push(Sample::count("appends", self.appends.get()));
        out.push(Sample::count(
            "appended_mutations",
            self.appended_mutations.get(),
        ));
        out.push(Sample::count("reserve_grows", self.reserve_grows.get()));
        out.push(Sample::us("fsync_p50", self.append_us.quantile(0.50)));
        out.push(Sample::us("fsync_p99", self.append_us.quantile(0.99)));
        out.push(Sample::ratio(
            "mean_flush_window",
            rqfa_telemetry::ratio(self.appended_mutations.get(), self.appends.get()),
        ));
        out.push(Sample::new(
            "wal_bytes_since_checkpoint",
            "bytes",
            self.wal_bytes_since_checkpoint.get() as f64,
        ));
        out.push(Sample::count("checkpoints", self.checkpoints.get()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_reports_the_flush_window_mean() {
        let stats = PersistStats::default();
        stats.appends.add(2);
        stats.appended_mutations.add(6);
        stats.reserve_grows.incr();
        stats.append_us.record(100);
        stats.flush_window.record(3);
        stats.wal_bytes_since_checkpoint.set(512);
        let mut samples = Vec::new();
        stats.collect(&mut samples);
        let value = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name}"))
                .value
        };
        assert_eq!(value("appends"), 2.0);
        assert_eq!(value("reserve_grows"), 1.0);
        assert_eq!(value("mean_flush_window"), 3.0);
        assert_eq!(value("wal_bytes_since_checkpoint"), 512.0);
    }
}
