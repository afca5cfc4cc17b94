//! Open-loop traffic generation for the allocation service.
//!
//! Models independent requester populations per QoS class — an open-loop
//! arrival process: each class emits a Poisson stream (exponential
//! inter-arrival gaps) at its configured rate, regardless of how fast the
//! service drains them. That is the right model for overload experiments:
//! a closed loop would politely slow down exactly when the shed/deadline
//! machinery should be stressed.
//!
//! Request payloads come from [`RequestGen`], so the similarity profile
//! and repeat-fraction (cache-hit traffic) knobs carry over unchanged.

use rqfa_core::{CaseBase, QosClass, Request};

use crate::requestgen::RequestGen;
use crate::rng::SmallRng;

/// One class-tagged arrival of the open-loop stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassedArrival {
    /// Arrival time in microseconds from stream start.
    pub at_us: u64,
    /// The QoS class of the requester population.
    pub class: QosClass,
    /// Per-request completion deadline in µs *from arrival*, when the
    /// class was given a deadline range — the deadline-skewed traffic
    /// the EDF scheduler exists for. `None` leaves the service's class
    /// budget in charge.
    pub deadline_us: Option<u64>,
    /// The allocation request.
    pub request: Request,
}

/// How request payloads repeat across the stream — the shape the
/// service-layer result cache sees.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// The historical model: each arrival is either a fresh perturbed
    /// request or an exact repeat of a uniformly chosen earlier arrival
    /// (a preferential-attachment mix, see [`RequestGen`]).
    Mixed,
    /// Zipf-ranked popularity over a fixed pool of `universe` distinct
    /// requests: payload *i* (0-based rank) is drawn with weight
    /// `(i + 1)^-exponent`. A small hot head plus a long one-hit-wonder
    /// tail — the skew under which a cache much smaller than the
    /// universe churns.
    Zipf {
        /// Number of distinct request payloads in the pool.
        universe: usize,
        /// Skew exponent (≈ 1.0 for classic zipf; larger is hotter).
        exponent: f64,
    },
    /// Runs of identical requests: each fresh payload repeats for a
    /// geometrically distributed run (mean `mean_run`) before the next —
    /// the §3 bypass-token burst traffic FIFO already serves well.
    Burst {
        /// Mean run length (≥ 1).
        mean_run: u64,
    },
}

/// Open-loop Poisson traffic generator with per-class rates.
#[derive(Debug, Clone)]
pub struct TrafficGen<'a> {
    case_base: &'a CaseBase,
    seed: u64,
    duration_us: u64,
    rates_per_sec: [f64; QosClass::COUNT],
    deadline_range_us: [Option<(u64, u64)>; QosClass::COUNT],
    popularity: Popularity,
    repeat_fraction: f64,
    perturbation: u16,
}

impl<'a> TrafficGen<'a> {
    /// Starts a generator over `case_base` with a default mix: mostly
    /// background and interactive traffic, a thin stream of CRITICAL.
    pub fn new(case_base: &'a CaseBase) -> TrafficGen<'a> {
        TrafficGen {
            case_base,
            seed: 0,
            duration_us: 100_000,
            rates_per_sec: [200.0, 1_000.0, 2_000.0, 4_000.0],
            deadline_range_us: [None; QosClass::COUNT],
            popularity: Popularity::Mixed,
            repeat_fraction: 0.3,
            perturbation: 8,
        }
    }

    /// A zipf-skewed mix over `case_base`: the same per-class rates as
    /// [`TrafficGen::new`], but payloads come from a fixed 2048-request
    /// pool under rank-weighted zipf popularity (exponent 1.1) — a hot
    /// head every class keeps re-requesting and a long tail of one-hit
    /// wonders. `retrieval_kernel` and the wall-clock benchmark's hot
    /// workloads run on it.
    pub fn zipf_skewed(case_base: &'a CaseBase) -> TrafficGen<'a> {
        TrafficGen::new(case_base).popularity(Popularity::Zipf {
            universe: 2048,
            exponent: 1.1,
        })
    }

    /// A saturating deadline-skewed zipf mix over `case_base`: the shared
    /// zipf payload pool of [`TrafficGen::zipf_skewed`], the per-class
    /// deadline skew of [`TrafficGen::deadline_skewed`], and arrival
    /// rates pushed well past the service rate so **every class stays
    /// backlogged** for essentially the whole stream. Under saturation
    /// the arbiter — not the arrival process — decides who is served:
    /// this is the trace behind the `modes/*` rows of `BENCH_9.json`,
    /// the four-arbiter A/B that left WRR as the one arbiter. CRITICAL
    /// stays deadline-free, as in
    /// [`TrafficGen::deadline_skewed`].
    pub fn saturating_skewed(case_base: &'a CaseBase) -> TrafficGen<'a> {
        TrafficGen::zipf_skewed(case_base)
            .rate_per_sec(QosClass::Critical, 2_000.0)
            .rate_per_sec(QosClass::High, 4_000.0)
            .rate_per_sec(QosClass::Medium, 6_000.0)
            .rate_per_sec(QosClass::Low, 8_000.0)
            .deadline_range_us(QosClass::High, 2_000, 40_000)
            .deadline_range_us(QosClass::Medium, 5_000, 80_000)
            .deadline_range_us(QosClass::Low, 10_000, 160_000)
    }

    /// A deadline-skewed mix over `case_base`: the same per-class rates
    /// as [`TrafficGen::new`], but every sheddable arrival carries a
    /// per-request deadline drawn from a wide range — tight and loose
    /// deadlines interleave *within* each class, which is exactly the
    /// shape where earliest-deadline-first beats arrival order. CRITICAL
    /// stays deadline-free (it is never shed; ordering it by arrival is
    /// already optimal for a class that must all complete).
    pub fn deadline_skewed(case_base: &'a CaseBase) -> TrafficGen<'a> {
        TrafficGen::new(case_base)
            .deadline_range_us(QosClass::High, 2_000, 40_000)
            .deadline_range_us(QosClass::Medium, 5_000, 80_000)
            .deadline_range_us(QosClass::Low, 10_000, 160_000)
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> TrafficGen<'a> {
        self.seed = seed;
        self
    }

    /// Sets the stream duration in µs.
    pub fn duration_us(mut self, duration_us: u64) -> TrafficGen<'a> {
        self.duration_us = duration_us.max(1);
        self
    }

    /// Sets one class's arrival rate in requests per second (0 silences
    /// the class).
    pub fn rate_per_sec(mut self, class: QosClass, rate: f64) -> TrafficGen<'a> {
        self.rates_per_sec[class.index()] = rate.max(0.0);
        self
    }

    /// Gives one class per-request deadlines drawn uniformly from
    /// `[lo_us, hi_us]` (relative to each arrival). A wide range makes
    /// the stream *deadline-skewed*: urgent and relaxed requests
    /// interleave within the class, so FIFO dispatch order and deadline
    /// order diverge.
    pub fn deadline_range_us(mut self, class: QosClass, lo_us: u64, hi_us: u64) -> TrafficGen<'a> {
        self.deadline_range_us[class.index()] = Some((lo_us.min(hi_us), lo_us.max(hi_us)));
        self
    }

    /// Sets the payload popularity model.
    pub fn popularity(mut self, popularity: Popularity) -> TrafficGen<'a> {
        self.popularity = popularity;
        self
    }

    /// Sets the fraction of exact-repeat requests (cache-hit traffic;
    /// [`Popularity::Mixed`] only).
    pub fn repeat_fraction(mut self, fraction: f64) -> TrafficGen<'a> {
        self.repeat_fraction = fraction.clamp(0.0, 1.0);
        self
    }

    /// Sets the per-attribute perturbation of fresh requests.
    pub fn perturbation(mut self, delta: u16) -> TrafficGen<'a> {
        self.perturbation = delta;
        self
    }

    /// Generates the merged, time-sorted arrival stream.
    ///
    /// # Panics
    ///
    /// Never for a validated case base.
    pub fn generate(&self) -> Vec<ClassedArrival> {
        // The zipf pool and its weight table are class-independent (the
        // hot head is hot service-wide) — build them once, not per class.
        let zipf = self.zipf_context();
        let mut all = Vec::new();
        for class in QosClass::ALL {
            let rate = self.rates_per_sec[class.index()];
            if rate <= 0.0 {
                continue;
            }
            let mean_gap_us = 1.0e6 / rate;
            let mut rng =
                SmallRng::seed_from_u64(self.seed ^ (0xC1A5_5000 + class.index() as u64));
            // Draw the Poisson arrival times first…
            let mut times = Vec::new();
            let mut clock = 0.0f64;
            loop {
                clock += exponential(&mut rng, mean_gap_us);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let at_us = clock as u64;
                if at_us >= self.duration_us {
                    break;
                }
                times.push(at_us);
            }
            // …then one payload per arrival from the popularity model,
            // and (for deadline-skewed classes) one deadline per arrival
            // from a dedicated stream so existing arrival-time/payload
            // determinism is untouched.
            let requests = self.payloads(class, times.len(), zipf.as_ref());
            let mut deadline_rng =
                SmallRng::seed_from_u64(self.seed ^ (0xDEAD_11E5 + class.index() as u64));
            let range = self.deadline_range_us[class.index()];
            all.extend(
                times
                    .into_iter()
                    .zip(requests)
                    .map(|(at_us, request)| ClassedArrival {
                        at_us,
                        class,
                        deadline_us: range.map(|(lo, hi)| deadline_rng.gen_range(lo..=hi)),
                        request,
                    }),
            );
        }
        all.sort_by_key(|a| a.at_us);
        all
    }

    /// The shared zipf pool + cumulative weight table, when configured.
    fn zipf_context(&self) -> Option<ZipfContext> {
        let Popularity::Zipf { universe, exponent } = self.popularity else {
            return None;
        };
        // One pool for *all* classes (class-independent seed), so the
        // hot head is hot service-wide; only the draw stream is per
        // class.
        let pool = self.fresh_pool(0x51BF_3A17, universe.max(1));
        let mut cumulative = Vec::with_capacity(pool.len());
        let mut total = 0.0f64;
        for rank in 0..pool.len() {
            #[allow(clippy::cast_precision_loss)]
            let weight = ((rank + 1) as f64).powf(-exponent);
            total += weight;
            cumulative.push(total);
        }
        Some(ZipfContext {
            pool,
            cumulative,
            total,
        })
    }

    /// One class's payload sequence under the configured popularity model.
    fn payloads(&self, class: QosClass, count: usize, zipf: Option<&ZipfContext>) -> Vec<Request> {
        match self.popularity {
            Popularity::Mixed => RequestGen::new(self.case_base)
                .seed(self.seed ^ (u64::from(class.to_axi()) << 32))
                .count(count)
                .repeat_fraction(self.repeat_fraction)
                .perturbation(self.perturbation)
                .generate(),
            Popularity::Zipf { .. } => {
                let zipf = zipf.expect("zipf context built for zipf popularity");
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ (0x21BF_0000 + class.index() as u64),
                );
                (0..count)
                    .map(|_| {
                        let u = rng.gen_range(0.0..zipf.total);
                        let rank = zipf.cumulative.partition_point(|&c| c <= u);
                        zipf.pool[rank.min(zipf.pool.len() - 1)].clone()
                    })
                    .collect()
            }
            Popularity::Burst { mean_run } => {
                // Worst case every run has length 1, so `count` distinct
                // payloads suffice; runs are geometric with the given mean.
                let pool =
                    self.fresh_pool(0xB0B5_0000 + class.index() as u64, count.max(1));
                let mut rng = SmallRng::seed_from_u64(
                    self.seed ^ (0xB57A_0000 + class.index() as u64),
                );
                let mut out = Vec::with_capacity(count);
                let mut next_fresh = 0;
                let mut run_left = 0u64;
                for _ in 0..count {
                    if run_left == 0 {
                        next_fresh += 1;
                        run_left = geometric_run(&mut rng, mean_run.max(1));
                    }
                    out.push(pool[next_fresh - 1].clone());
                    run_left -= 1;
                }
                out
            }
        }
    }

    /// `count` fresh (non-repeating) payloads from a salted seed.
    fn fresh_pool(&self, salt: u64, count: usize) -> Vec<Request> {
        RequestGen::new(self.case_base)
            .seed(self.seed ^ salt)
            .count(count)
            .repeat_fraction(0.0)
            .perturbation(self.perturbation)
            .generate()
    }
}

/// The class-shared zipf payload pool with its cumulative weight table.
#[derive(Debug, Clone)]
struct ZipfContext {
    pool: Vec<Request>,
    cumulative: Vec<f64>,
    total: f64,
}

/// Geometric run length with the given mean (≥ 1).
fn geometric_run(rng: &mut SmallRng, mean: u64) -> u64 {
    if mean <= 1 {
        return 1;
    }
    #[allow(clippy::cast_precision_loss)]
    let p = 1.0 / mean as f64;
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let run = (u.ln() / (1.0 - p).ln()).ceil() as u64;
    run.max(1)
}

/// Exponential inter-arrival gap with the given mean (µs).
fn exponential(rng: &mut SmallRng, mean_us: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -u.ln() * mean_us
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::casegen::CaseGen;

    fn case_base() -> CaseBase {
        CaseGen::new(4, 5, 4, 6).seed(9).build()
    }

    #[test]
    fn deterministic_per_seed() {
        let cb = case_base();
        let a = TrafficGen::new(&cb).seed(3).generate();
        let b = TrafficGen::new(&cb).seed(3).generate();
        assert_eq!(a, b);
        assert_ne!(a, TrafficGen::new(&cb).seed(4).generate());
    }

    #[test]
    fn stream_is_sorted_and_bounded() {
        let cb = case_base();
        let arrivals = TrafficGen::new(&cb).seed(1).duration_us(50_000).generate();
        assert!(!arrivals.is_empty());
        for w in arrivals.windows(2) {
            assert!(w[0].at_us <= w[1].at_us);
        }
        assert!(arrivals.last().unwrap().at_us < 50_000);
    }

    #[test]
    fn rates_scale_arrival_counts() {
        let cb = case_base();
        let arrivals = TrafficGen::new(&cb)
            .seed(7)
            .duration_us(1_000_000)
            .generate();
        let count = |class: QosClass| arrivals.iter().filter(|a| a.class == class).count();
        let critical = count(QosClass::Critical);
        let low = count(QosClass::Low);
        // 200/s vs 4000/s over one second, Poisson noise is ~√n.
        assert!((100..400).contains(&critical), "critical: {critical}");
        assert!((3_400..4_600).contains(&low), "low: {low}");
    }

    #[test]
    fn silenced_class_emits_nothing() {
        let cb = case_base();
        let arrivals = TrafficGen::new(&cb)
            .rate_per_sec(QosClass::Critical, 0.0)
            .rate_per_sec(QosClass::High, 0.0)
            .rate_per_sec(QosClass::Medium, 0.0)
            .generate();
        assert!(arrivals.iter().all(|a| a.class == QosClass::Low));
        assert!(!arrivals.is_empty());
    }

    #[test]
    fn deadline_skew_is_wide_deterministic_and_class_scoped() {
        let cb = case_base();
        let a = TrafficGen::deadline_skewed(&cb).seed(11).generate();
        let b = TrafficGen::deadline_skewed(&cb).seed(11).generate();
        assert_eq!(a, b, "deadlines are part of the deterministic stream");
        // CRITICAL stays deadline-free; sheddable classes are covered.
        for arrival in &a {
            match arrival.class {
                QosClass::Critical => assert_eq!(arrival.deadline_us, None),
                class => {
                    let d = arrival.deadline_us.expect("sheddable arrivals get deadlines");
                    let (lo, hi) = match class {
                        QosClass::High => (2_000, 40_000),
                        QosClass::Medium => (5_000, 80_000),
                        QosClass::Low => (10_000, 160_000),
                        QosClass::Critical => unreachable!(),
                    };
                    assert!((lo..=hi).contains(&d), "{class}: {d}");
                }
            }
        }
        // The skew is real: HIGH deadlines differ within the class.
        let highs: Vec<u64> = a
            .iter()
            .filter(|x| x.class == QosClass::High)
            .filter_map(|x| x.deadline_us)
            .collect();
        assert!(highs.len() > 10);
        assert!(highs.iter().max() > highs.iter().min());
        // Default streams carry no deadlines at all.
        assert!(TrafficGen::new(&cb)
            .seed(11)
            .generate()
            .iter()
            .all(|x| x.deadline_us.is_none()));
    }

    #[test]
    fn saturating_skew_is_deterministic_dense_and_deadline_covered() {
        let cb = case_base();
        let gen = TrafficGen::saturating_skewed(&cb).seed(17).duration_us(100_000);
        let a = gen.generate();
        assert_eq!(a, gen.generate(), "the A/B trace is seed-deterministic");
        // Dense in every class: ≥ 20k/s aggregate over 100 ms.
        let count = |class: QosClass| a.iter().filter(|x| x.class == class).count();
        for class in QosClass::ALL {
            assert!(count(class) > 100, "{class}: {} arrivals", count(class));
        }
        // Deadline skew applies to sheddable classes only; payloads are
        // the shared zipf pool (repeats present).
        for arrival in &a {
            assert_eq!(arrival.deadline_us.is_none(), arrival.class == QosClass::Critical);
        }
        let mut fingerprints: Vec<u64> = a.iter().map(|x| x.request.fingerprint()).collect();
        let total = fingerprints.len();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert!(fingerprints.len() < total / 2, "zipf repeats missing");
    }

    #[test]
    fn zipf_popularity_is_skewed_and_deterministic() {
        let cb = case_base();
        let gen = TrafficGen::zipf_skewed(&cb).seed(13).duration_us(500_000);
        let a = gen.generate();
        assert_eq!(a, gen.generate(), "zipf streams are seed-deterministic");
        // Popularity is heavily skewed: the most popular fingerprint
        // covers far more than a uniform share of the traffic.
        let mut counts = std::collections::HashMap::new();
        for arrival in &a {
            *counts.entry(arrival.request.fingerprint()).or_insert(0usize) += 1;
        }
        let top = counts.values().max().copied().unwrap_or(0);
        assert!(
            top * 20 > a.len(),
            "hot head too cold: top {top} of {}",
            a.len()
        );
        // …and long-tailed: many fingerprints appear exactly once.
        let singletons = counts.values().filter(|&&c| c == 1).count();
        assert!(singletons > counts.len() / 4, "tail missing: {singletons}");
        // The hot head is shared across classes (one pool, one ranking).
        let hot = *counts
            .iter()
            .max_by_key(|(_, &c)| c)
            .map(|(fp, _)| fp)
            .unwrap();
        for class in [QosClass::Low, QosClass::Medium] {
            assert!(
                a.iter()
                    .any(|x| x.class == class && x.request.fingerprint() == hot),
                "{class} never touches the shared hot key"
            );
        }
    }

    #[test]
    fn burst_popularity_produces_runs_of_identical_requests() {
        let cb = case_base();
        let arrivals = TrafficGen::new(&cb)
            .popularity(Popularity::Burst { mean_run: 8 })
            .rate_per_sec(QosClass::Critical, 0.0)
            .rate_per_sec(QosClass::High, 0.0)
            .rate_per_sec(QosClass::Medium, 0.0)
            .seed(3)
            .duration_us(500_000)
            .generate();
        assert!(arrivals.len() > 200);
        // With a single class the arrival order is the payload order:
        // adjacent repeats should dominate (mean run 8 → ~7/8 repeats).
        let repeats = arrivals
            .windows(2)
            .filter(|w| w[0].request.fingerprint() == w[1].request.fingerprint())
            .count();
        assert!(
            repeats * 2 > arrivals.len(),
            "bursts missing: {repeats} adjacent repeats of {}",
            arrivals.len()
        );
    }

    #[test]
    fn repeats_appear_for_cache_traffic() {
        let cb = case_base();
        let arrivals = TrafficGen::new(&cb)
            .seed(5)
            .duration_us(200_000)
            .repeat_fraction(0.8)
            .generate();
        let mut fingerprints: Vec<u64> =
            arrivals.iter().map(|a| a.request.fingerprint()).collect();
        let total = fingerprints.len();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert!(
            fingerprints.len() < total,
            "expected repeats in {total} arrivals"
        );
    }
}
