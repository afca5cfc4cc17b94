//! The unified metrics registry: named sources, prefixed samples, one
//! consistent snapshot.
//!
//! Any subsystem that owns counters implements [`MetricSource`] and
//! registers itself under a prefix; [`Registry::snapshot`] then collects
//! every source into one flat, point-in-time [`RegistrySnapshot`] of
//! `prefix/name` [`Sample`]s. Consistency is per source: each source's
//! `collect` must present an internally consistent view (e.g. the
//! service's batch-atomic commit gate), and the registry never interleaves
//! two collections of the same source.
//!
//! The snapshot renders as an aligned text table ([`fmt::Display`]) and
//! converts 1:1 into `rqfa-bench/v1` JSON metrics via `rqfa-bench` —
//! the same numbers an operator reads are the numbers the regression gate
//! compares.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One named, unit-tagged observation.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (within the source; the registry adds `prefix/`).
    pub name: String,
    /// Unit tag (e.g. `"us"`, `"count"`, `"ratio"`, `"bytes"`).
    pub unit: &'static str,
    /// The observed value.
    pub value: f64,
}

impl Sample {
    /// A sample from any numeric value.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Sample {
        Sample {
            name: name.into(),
            unit,
            value,
        }
    }

    /// A counter-valued sample.
    #[allow(clippy::cast_precision_loss)]
    pub fn count(name: impl Into<String>, value: u64) -> Sample {
        Sample::new(name, "count", value as f64)
    }

    /// A microsecond-valued sample.
    #[allow(clippy::cast_precision_loss)]
    pub fn us(name: impl Into<String>, value: u64) -> Sample {
        Sample::new(name, "us", value as f64)
    }

    /// A dimensionless rate in `[0, 1]`.
    pub fn ratio(name: impl Into<String>, value: f64) -> Sample {
        Sample::new(name, "ratio", value)
    }
}

/// A subsystem that can report its current metrics.
pub trait MetricSource: Send + Sync {
    /// Appends one sample per metric to `out`. The samples must form an
    /// internally consistent view (collect under whatever gate the
    /// source's writers use).
    fn collect(&self, out: &mut Vec<Sample>);
}

type Sources = Vec<(String, Arc<dyn MetricSource>)>;

/// A set of registered metric sources.
#[derive(Default)]
pub struct Registry {
    sources: Mutex<Sources>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The sources, locked. A source whose `collect` panicked poisons
    /// the lock mid-snapshot; the vector is whole at every step (a
    /// snapshot only reads it, a registration is one push), so the lock
    /// is recovered and the registry keeps working.
    fn sources(&self) -> MutexGuard<'_, Sources> {
        self.sources.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers `source` under `prefix`; its samples appear in
    /// snapshots as `prefix/name`. Prefixes need not be unique (e.g. one
    /// per shard under the same prefix is fine, if name collisions are
    /// acceptable to the consumer).
    pub fn register(&self, prefix: impl Into<String>, source: Arc<dyn MetricSource>) {
        self.sources().push((prefix.into(), source));
    }

    /// Collects every source into one point-in-time snapshot, in
    /// registration order.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let sources = self.sources();
        let mut samples = Vec::new();
        let mut scratch = Vec::new();
        for (prefix, source) in sources.iter() {
            scratch.clear();
            source.collect(&mut scratch);
            for sample in scratch.drain(..) {
                samples.push(Sample {
                    name: format!("{prefix}/{}", sample.name),
                    ..sample
                });
            }
        }
        RegistrySnapshot { samples }
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sources = self.sources();
        f.debug_struct("Registry")
            .field("sources", &sources.iter().map(|(p, _)| p).collect::<Vec<_>>())
            .finish()
    }
}

/// A flat, point-in-time view of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// All samples, `prefix/name`-qualified, in registration order.
    pub samples: Vec<Sample>,
}

impl RegistrySnapshot {
    /// The value of the sample named `name`, if present.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.samples.iter().find(|s| s.name == name).map(|s| s.value)
    }
}

impl fmt::Display for RegistrySnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_table(f, &self.samples)
    }
}

/// Renders samples as an aligned `name  value unit` table — the one
/// shared metrics renderer (used by the registry snapshot and by crate
/// `Display` impls that predate it).
pub fn write_table(f: &mut fmt::Formatter<'_>, samples: &[Sample]) -> fmt::Result {
    let width = samples.iter().map(|s| s.name.len()).max().unwrap_or(0);
    for sample in samples {
        writeln!(
            f,
            "{:<width$}  {} {}",
            sample.name,
            format_value(sample.value),
            sample.unit,
        )?;
    }
    Ok(())
}

/// Integer-valued samples print without a fraction; everything else with
/// three decimals.
fn format_value(value: f64) -> String {
    if value.fract() == 0.0 && value.abs() < 9e15 {
        format!("{value:.0}")
    } else {
        format!("{value:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fixed(Vec<Sample>);

    impl MetricSource for Fixed {
        fn collect(&self, out: &mut Vec<Sample>) {
            out.extend(self.0.iter().cloned());
        }
    }

    #[test]
    fn snapshot_prefixes_and_preserves_order() {
        let registry = Registry::new();
        registry.register(
            "service",
            Arc::new(Fixed(vec![
                Sample::count("completed", 10),
                Sample::ratio("hit_rate", 0.5),
            ])),
        );
        registry.register("persist", Arc::new(Fixed(vec![Sample::us("fsync_p99", 850)])));
        let snap = registry.snapshot();
        let names: Vec<&str> = snap.samples.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["service/completed", "service/hit_rate", "persist/fsync_p99"]
        );
        assert_eq!(snap.value("persist/fsync_p99"), Some(850.0));
        assert_eq!(snap.value("absent"), None);
    }

    /// Panics on its first `collect`, then reports one sample.
    struct PanicsOnce(std::sync::atomic::AtomicBool);

    impl MetricSource for PanicsOnce {
        fn collect(&self, out: &mut Vec<Sample>) {
            if !self.0.swap(true, std::sync::atomic::Ordering::Relaxed) {
                panic!("a source fails mid-collect");
            }
            out.push(Sample::count("recovered", 1));
        }
    }

    #[test]
    fn a_panicking_source_does_not_poison_the_registry() {
        let registry = Registry::new();
        registry.register("a", Arc::new(Fixed(vec![Sample::count("before", 1)])));
        registry.register("b", Arc::new(PanicsOnce(Default::default())));
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| registry.snapshot()));
        assert!(failed.is_err(), "the first snapshot meets the panic");
        registry.register("c", Arc::new(Fixed(vec![Sample::count("after", 2)])));
        let snap = registry.snapshot();
        assert_eq!(snap.value("a/before"), Some(1.0));
        assert_eq!(snap.value("b/recovered"), Some(1.0));
        assert_eq!(snap.value("c/after"), Some(2.0));
        assert!(format!("{registry:?}").contains("\"c\""));
    }

    #[test]
    fn display_renders_aligned_rows() {
        let registry = Registry::new();
        registry.register(
            "m",
            Arc::new(Fixed(vec![
                Sample::count("a", 3),
                Sample::ratio("long_name", 0.25),
            ])),
        );
        let text = registry.snapshot().to_string();
        assert!(text.contains("m/a          3 count"), "got:\n{text}");
        assert!(text.contains("m/long_name  0.250 ratio"), "got:\n{text}");
    }
}
