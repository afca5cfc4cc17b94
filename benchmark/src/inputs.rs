//! A workload's inputs, made from the seed before any clock starts: the
//! case base, the arrivals (payload, class, deadline, due time), and the
//! answers the `FixedEngine` reference gives, which replies are compared
//! with after the clock stops. The program under test receives only
//! these generated values; nothing in `crates/` learns a workload's name.

use std::collections::HashMap;

use rqfa_core::{CaseBase, FixedEngine, QosClass, Request};
use rqfa_workloads::rng::SmallRng;
use rqfa_workloads::{CaseGen, Popularity, RequestGen, TrafficGen};

use crate::spec::{Spec, Traffic, CLASS_MIX};

/// One request to offer.
#[derive(Debug, Clone)]
pub struct Arrival {
    pub request: Request,
    pub class: QosClass,
    /// Completion deadline relative to the submit call, µs.
    pub deadline_us: Option<u64>,
}

/// Everything a workload is driven with.
#[derive(Debug)]
pub struct Inputs {
    pub base: CaseBase,
    pub arrivals: Vec<Arrival>,
}

/// The reference answer to one arrival: winning variant and its Q15
/// similarity, as raw words.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Expected {
    pub impl_id: u16,
    pub similarity: u16,
}

impl Inputs {
    /// Generates `spec`'s inputs from `seed`. Equal seeds give equal
    /// inputs (see [`Inputs::digest`]).
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let (types, variants, attrs, attr_types) = spec.case_shape;
        let base = CaseGen::new(types, variants, attrs, attr_types)
            .seed(seed)
            .build();
        // `TrafficGen` is an arrival process; the loops here use its
        // order, classes and deadlines and ignore its times. Rates sum to
        // 1e6/s, so one µs of schedule is one arrival.
        let arrivals = match spec.traffic {
            Traffic::Zipf { arrivals } => classed(
                with_class_rates(TrafficGen::zipf_skewed(&base))
                    .seed(seed)
                    .duration_us(arrivals as u64),
            ),
            Traffic::Unique { count } => {
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x0C1A_55E5);
                RequestGen::new(&base)
                    .seed(seed)
                    .count(count)
                    .repeat_fraction(0.0)
                    .generate()
                    .into_iter()
                    .map(|request| Arrival {
                        request,
                        class: draw_class(&mut rng),
                        deadline_us: None,
                    })
                    .collect()
            }
            Traffic::Deadlined { arrivals } => classed(
                with_class_rates(TrafficGen::new(&base))
                    .seed(seed)
                    .duration_us(arrivals as u64)
                    .popularity(Popularity::Mixed)
                    .repeat_fraction(0.3)
                    .deadline_range_us(QosClass::High, 2_000, 40_000)
                    .deadline_range_us(QosClass::Medium, 5_000, 80_000)
                    .deadline_range_us(QosClass::Low, 10_000, 160_000),
            ),
        };
        assert!(!arrivals.is_empty(), "a workload needs arrivals");
        Inputs { base, arrivals }
    }

    /// FNV-1a over everything generated: equal for equal seeds.
    /// Truncated to 48 bits so it survives a trip through a JSON number.
    pub fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.base.variant_count() as u64);
        for ty in self.base.function_types() {
            eat(u64::from(ty.id().raw()));
            for variant in ty.variants() {
                eat(u64::from(variant.id().raw()));
            }
        }
        for arrival in &self.arrivals {
            eat(arrival.request.fingerprint());
            eat(arrival.class.index() as u64);
            eat(arrival.deadline_us.unwrap_or(u64::MAX));
        }
        hash & ((1 << 48) - 1)
    }

    /// Estimated heap size of the arrivals, MB.
    pub fn trace_mb(&self) -> f64 {
        let bytes: usize = self
            .arrivals
            .iter()
            .map(|a| {
                std::mem::size_of::<Arrival>() + std::mem::size_of_val(a.request.constraints())
            })
            .sum();
        bytes as f64 / 1.0e6
    }

    /// The reference answers, one per arrival, from `FixedEngine` over
    /// the generated case base, split over `threads` threads. Exact
    /// repeats of an earlier arrival share its computation.
    pub fn oracle(&self, threads: usize) -> Vec<Expected> {
        let mut first_seen: HashMap<u64, usize> = HashMap::new();
        let source: Vec<usize> = self
            .arrivals
            .iter()
            .enumerate()
            .map(|(index, arrival)| {
                let first = *first_seen
                    .entry(arrival.request.fingerprint())
                    .or_insert(index);
                // Equal fingerprints are trusted only with equal requests.
                if self.arrivals[first].request == arrival.request {
                    first
                } else {
                    index
                }
            })
            .collect();
        let distinct: Vec<usize> = (0..source.len()).filter(|&i| source[i] == i).collect();
        let chunk = distinct.len().div_ceil(threads.max(1));
        let computed: Vec<Expected> = std::thread::scope(|scope| {
            let handles: Vec<_> = distinct
                .chunks(chunk)
                .map(|part| {
                    scope.spawn(|| {
                        let engine = FixedEngine::new();
                        part.iter()
                            .map(|&i| expected(&engine, &self.base, &self.arrivals[i].request))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        let mut answers = vec![Expected::default(); source.len()];
        for (&index, answer) in distinct.iter().zip(computed) {
            answers[index] = answer;
        }
        for (index, &first) in source.iter().enumerate() {
            answers[index] = answers[first];
        }
        answers
    }
}

/// The reference answer to `request` over `base`.
///
/// # Panics
///
/// If the reference engine cannot answer a generated request: generated
/// requests always name a type of the case base they were made from.
pub fn expected(engine: &FixedEngine, base: &CaseBase, request: &Request) -> Expected {
    let best = engine
        .retrieve(base, request)
        .expect("generated request is valid for its case base")
        .best
        .expect("a validated type holds a variant");
    Expected {
        impl_id: best.impl_id.raw(),
        similarity: best.similarity.raw(),
    }
}

fn with_class_rates(mut gen: TrafficGen<'_>) -> TrafficGen<'_> {
    for class in QosClass::ALL {
        gen = gen.rate_per_sec(class, 1.0e6 * CLASS_MIX[class.index()]);
    }
    gen
}

fn classed(gen: TrafficGen<'_>) -> Vec<Arrival> {
    gen.generate()
        .into_iter()
        .map(|a| Arrival {
            request: a.request,
            class: a.class,
            deadline_us: a.deadline_us,
        })
        .collect()
}

fn draw_class(rng: &mut SmallRng) -> QosClass {
    let u = rng.gen_range(0.0..1.0);
    let mut edge = 0.0;
    for class in QosClass::ALL {
        edge += CLASS_MIX[class.index()];
        if u < edge {
            return class;
        }
    }
    QosClass::Low
}
