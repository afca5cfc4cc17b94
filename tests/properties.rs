//! The workspace's property suites, one module per crate, on the seeded
//! checker `rqfa::workloads::check`: the paper's "Matlab float ≡ VHDL
//! fixed" equivalence claim in `core`, `hwsim` and `softcore`, the Q15
//! kernel's algebra in `fixed`, image round trips and validator soundness
//! in `memlist`, run-time system invariants in `rsoc` and the timing
//! estimator's totality in `synth`.
//!
//! Every case is drawn from a generator seeded by the property's name and
//! the case's index, so a run is the same on every host. A failing case
//! prints its seed; see `rqfa_workloads::check` for how to replay it.

use std::ops::RangeInclusive;

use rqfa::core::{
    AttrBinding, AttrDecl, AttrId, BoundsTable, CaseBase, ExecutionTarget, FunctionType, ImplId,
    ImplVariant, Request, TypeId,
};
use rqfa::workloads::rng::SmallRng;

/// Declares one `#[test]` per property: `check` runs its body on `cases`
/// seeded generators under the property's own name, the generator bound
/// to the name in parentheses.
macro_rules! properties {
    (cases = $cases:expr; $($(#[$attr:meta])* fn $name:ident($rng:ident) $body:block)*) => {$(
        $(#[$attr])*
        #[test]
        fn $name() {
            rqfa::workloads::check::check(stringify!($name), $cases, |$rng| $body);
        }
    )*};
}

/// A small random case base and a request on one of its types.
#[derive(Debug)]
struct Universe {
    case_base: CaseBase,
    request: Request,
}

/// The bounds a suite draws its [`Universe`]s from.
struct Shape {
    attrs: RangeInclusive<usize>,
    types: RangeInclusive<usize>,
    variants: RangeInclusive<usize>,
    /// An attribute's lower bound, and its upper bound's distance above it.
    lower: RangeInclusive<u16>,
    span: RangeInclusive<u16>,
    /// Values are drawn here, then clamped into their attribute's bounds.
    values: RangeInclusive<u16>,
    weights: RangeInclusive<u32>,
    target: ExecutionTarget,
}

impl Shape {
    /// Draws a universe. Every attribute of every variant and of the
    /// request is bound with probability ½; a request without any
    /// constraint is drawn again.
    fn draw(&self, rng: &mut SmallRng) -> Universe {
        let attrs = rng.gen_range(self.attrs.clone());
        let decls: Vec<AttrDecl> = (1..=attrs as u16)
            .map(|a| {
                let lower = rng.gen_range(self.lower.clone());
                let upper = lower + rng.gen_range(self.span.clone());
                AttrDecl::new(AttrId::new(a).unwrap(), format!("a{a}"), lower, upper).unwrap()
            })
            .collect();
        let value = |rng: &mut SmallRng, decl: &AttrDecl| {
            rng.gen_bool(0.5).then(|| {
                rng.gen_range(self.values.clone())
                    .clamp(decl.lower(), decl.upper())
            })
        };
        let types = rng.gen_range(self.types.clone());
        let function_types: Vec<FunctionType> = (1..=types as u16)
            .map(|t| {
                let variants = (1..=rng.gen_range(self.variants.clone()) as u16)
                    .map(|v| {
                        let bindings = decls
                            .iter()
                            .filter_map(|d| value(rng, d).map(|x| AttrBinding::new(d.id(), x)))
                            .collect();
                        ImplVariant::new(ImplId::new(v).unwrap(), self.target, bindings).unwrap()
                    })
                    .collect();
                FunctionType::new(TypeId::new(t).unwrap(), format!("t{t}"), variants).unwrap()
            })
            .collect();
        let bounds = BoundsTable::from_decls(decls.clone()).unwrap();
        let case_base = CaseBase::new(bounds, function_types).unwrap();
        let type_id = TypeId::new(rng.gen_range(1..=types as u16)).unwrap();
        loop {
            let mut builder = Request::builder(type_id);
            let mut any = false;
            for d in &decls {
                if let Some(x) = value(rng, d) {
                    let weight = f64::from(rng.gen_range(self.weights.clone()));
                    builder = builder.weighted_constraint(d.id(), x, weight);
                    any = true;
                }
            }
            if any {
                let request = builder.build().unwrap();
                return Universe { case_base, request };
            }
        }
    }
}

/// Retrieval invariants of the reference engines over random universes:
/// the paper's "Matlab float ≡ VHDL fixed" equivalence claim, n-best
/// consistency and request canonicalisation.
mod core {
    use rqfa::core::nbest::rank;
    use rqfa::core::{ExecutionTarget, FixedEngine, FloatEngine, Request};

    use super::Shape;

    /// Up to 6 attributes with random bounds inside [0, 118] and values in
    /// [0, 100], up to 8 variants of one type, a weighted request
    /// constraining a subset.
    const SHAPE: Shape = Shape {
        attrs: 1..=6,
        types: 1..=1,
        variants: 1..=8,
        lower: 0..=79,
        span: 1..=39,
        values: 0..=100,
        weights: 1..=8,
        target: ExecutionTarget::Fpga,
    };

    properties! {
        cases = 256;

        /// The paper's equivalence claim: the fixed-point engine ranks like the
        /// float engine, up to quantization ties. Where the float winner and the
        /// fixed winner differ, their float similarities must be within the
        /// worst-case quantization error of each other.
        fn fixed_matches_float_ranking(rng) {
            let u = SHAPE.draw(rng);
            let float = FloatEngine::new().retrieve(&u.case_base, &u.request).unwrap();
            let fixed = FixedEngine::new().retrieve(&u.case_base, &u.request).unwrap();
            let (f_scores, _) = FloatEngine::new().score_all(&u.case_base, &u.request).unwrap();
            let f_best = float.best.unwrap();
            let q_best = fixed.best.unwrap();
            if f_best.impl_id != q_best.impl_id {
                let f_of_q = f_scores.iter().find(|s| s.impl_id == q_best.impl_id).unwrap();
                // Worst-case quantization: one ulp per constraint per term, plus
                // reciprocal rounding ≤ d_max·ulp/2 — bounded well below 1e-2 for
                // this universe (values ≤ 100).
                assert!(
                    (f_best.similarity - f_of_q.similarity).abs() < 8e-3,
                    "divergent winners not explained by quantization: float {}={} vs fixed {}={}",
                    f_best.impl_id, f_best.similarity, q_best.impl_id, f_of_q.similarity
                );
            }
        }

        /// Per-variant similarity of the two engines never diverges by more
        /// than the accumulated quantization bound.
        fn fixed_score_tracks_float_score(rng) {
            let u = SHAPE.draw(rng);
            let (f_scores, _) = FloatEngine::new().score_all(&u.case_base, &u.request).unwrap();
            let (q_scores, _) = FixedEngine::new().score_all(&u.case_base, &u.request).unwrap();
            for (f, q) in f_scores.iter().zip(&q_scores) {
                assert_eq!(f.impl_id, q.impl_id);
                assert!(
                    (f.similarity - q.similarity.to_f64()).abs() < 8e-3,
                    "{}: float {} vs fixed {}", f.impl_id, f.similarity, q.similarity
                );
            }
        }

        /// Global similarity is 1.0 iff every constraint matches exactly.
        fn perfect_match_iff_similarity_one(rng) {
            let u = SHAPE.draw(rng);
            let (q_scores, _) = FixedEngine::new().score_all(&u.case_base, &u.request).unwrap();
            let ty = u.case_base.require_type(u.request.type_id()).unwrap();
            for (scored, variant) in q_scores.iter().zip(ty.variants()) {
                let perfect = u.request.constraints().iter().all(|c| {
                    variant.attr(c.attr) == Some(c.value)
                });
                if perfect {
                    assert!(scored.similarity.is_one(),
                        "exact match must score 1.0, got {}", scored.similarity);
                }
            }
        }

        /// Retrieval winner equals rank()'s first entry (n-best consistency).
        fn nbest_head_is_retrieval_winner(rng) {
            let u = SHAPE.draw(rng);
            let engine = FixedEngine::new();
            let single = engine.retrieve(&u.case_base, &u.request).unwrap().best.unwrap();
            let (scores, _) = engine.score_all(&u.case_base, &u.request).unwrap();
            let ranked = rank(&scores, 1);
            assert_eq!(ranked[0].impl_id, single.impl_id);
            assert_eq!(ranked[0].similarity, single.similarity);
        }

        /// The n-best list is sorted non-increasing and within bounds.
        fn nbest_is_sorted(rng) {
            let u = SHAPE.draw(rng);
            let n = rng.gen_range(1..10usize);
            let nbest = FixedEngine::new().retrieve_n_best(&u.case_base, &u.request, n).unwrap();
            assert!(nbest.ranked.len() <= n);
            for pair in nbest.ranked.windows(2) {
                assert!(pair[0].similarity >= pair[1].similarity);
            }
        }

        /// Scores are invariant under request constraint insertion order: two
        /// requests built from the same (attr, value, weight) triples in forward
        /// and reverse order are indistinguishable to the engines.
        fn request_order_does_not_matter(rng) {
            let u = SHAPE.draw(rng);
            let mut fwd = Request::builder(u.request.type_id());
            let mut rev = Request::builder(u.request.type_id());
            for c in u.request.constraints() {
                fwd = fwd.weighted_constraint(c.attr, c.value, c.weight);
            }
            for c in u.request.constraints().iter().rev() {
                rev = rev.weighted_constraint(c.attr, c.value, c.weight);
            }
            let fwd = fwd.build().unwrap();
            let rev = rev.build().unwrap();
            assert_eq!(fwd.fingerprint(), rev.fingerprint());
            let (a, _) = FixedEngine::new().score_all(&u.case_base, &fwd).unwrap();
            let (b, _) = FixedEngine::new().score_all(&u.case_base, &rev).unwrap();
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.similarity, y.similarity);
            }
        }

        /// Fingerprints are stable across clones and sensitive to values.
        fn fingerprint_stability(rng) {
            let u = SHAPE.draw(rng);
            assert_eq!(u.request.fingerprint(), u.request.clone().fingerprint());
        }
    }
}

/// The fixed-point kernel's algebra.
mod fixed {
    use rqfa::fixed::{local_similarity, recip_plus_one, Q15};
    use rqfa::workloads::rng::SmallRng;

    fn any_q15(rng: &mut SmallRng) -> Q15 {
        Q15::new(rng.gen_range(0u16..=0x8000)).expect("in range")
    }

    fn any_u16(rng: &mut SmallRng) -> u16 {
        rng.gen_range(0..=u16::MAX)
    }

    properties! {
        cases = 256;

        fn add_is_commutative(rng) {
            let (a, b) = (any_q15(rng), any_q15(rng));
            assert_eq!(a + b, b + a);
        }

        fn mul_is_bounded_by_operands(rng) {
            let (a, b) = (any_q15(rng), any_q15(rng));
            let p = a * b;
            assert!(p <= a || b == Q15::ONE);
            assert!(p <= b || a == Q15::ONE);
        }

        fn mul_truncation_error_below_one_ulp(rng) {
            let (a, b) = (any_q15(rng), any_q15(rng));
            let exact = a.to_f64() * b.to_f64();
            let got = (a * b).to_f64();
            assert!(got <= exact + 1e-12);
            assert!(exact - got < 1.0 / 32768.0 + 1e-12);
        }

        fn roundtrip_f64(rng) {
            let raw = rng.gen_range(0u16..=0x8000);
            let q = Q15::new(raw).unwrap();
            let back = Q15::from_f64(q.to_f64()).unwrap();
            assert_eq!(q, back);
        }

        fn sub_then_add_never_exceeds_original(rng) {
            let (a, b) = (any_q15(rng), any_q15(rng));
            // (a − b) + b == max(a, b) when saturation clips, else a.
            let r = (a - b) + b;
            assert!(r == a || r == b.max(a.min(b)) || r >= a);
        }

        fn local_similarity_in_unit_range(rng) {
            let (d, d_max) = (any_u16(rng), any_u16(rng));
            let s = local_similarity(d, recip_plus_one(d_max));
            assert!(s <= Q15::ONE);
        }

        fn local_similarity_identity_at_zero_distance(rng) {
            let d_max = any_u16(rng);
            assert_eq!(local_similarity(0, recip_plus_one(d_max)), Q15::ONE);
        }

        fn local_similarity_tracks_float_model(rng) {
            // Within the design range the fixed similarity stays within ~2 ulp of
            // the float value of equation (1). Pairs with d > d_max are drawn again.
            let (d, d_max) = loop {
                let (d, d_max) = (rng.gen_range(0u16..1000), rng.gen_range(1u16..1000));
                if d <= d_max {
                    break (d, d_max);
                }
            };
            let s = local_similarity(d, recip_plus_one(d_max)).to_f64();
            let want = 1.0 - f64::from(d) / (1.0 + f64::from(d_max));
            assert!((s - want).abs() < 3.0 / 32768.0 + f64::from(d) * 0.5 / 32768.0,
                "d={}, d_max={}: fixed {} vs float {}", d, d_max, s, want);
        }

        fn scale_int_monotone_in_n(rng) {
            let (r, n) = (any_q15(rng), rng.gen_range(0..u16::MAX));
            assert!(r.scale_int(n) <= r.scale_int(n + 1));
        }
    }
}

/// The hardware simulator is bit-exact with the software fixed-point
/// engine (the paper's Matlab ≡ ModelSim equivalence, experiment E5), and
/// its cycle counts behave monotonically.
mod hwsim {
    use rqfa::core::{AttrBinding, AttrId, ExecutionTarget, FixedEngine, ImplId, ImplVariant};
    use rqfa::hwsim::{ImageLayout, PortWidth, RetrievalUnit, UnitConfig};
    use rqfa::memlist::{
        encode_case_base, encode_compact_case_base, encode_request, is_compactible,
    };

    use super::Shape;

    /// Up to 5 attributes in [0, 50], up to 3 types of up to 6 variants.
    const SHAPE: Shape = Shape {
        attrs: 1..=5,
        types: 1..=3,
        variants: 1..=6,
        lower: 0..=0,
        span: 50..=50,
        values: 0..=50,
        weights: 1..=1,
        target: ExecutionTarget::Fpga,
    };

    properties! {
        cases = 192;

        /// Bit-exactness: hardware best == FixedEngine best, including the
        /// similarity word, across all memory organizations.
        fn hw_matches_fixed_engine(rng) {
            let s = SHAPE.draw(rng);
            let sw = FixedEngine::new().retrieve(&s.case_base, &s.request).unwrap();
            let sw_best = sw.best.unwrap();

            let cb_img = encode_case_base(&s.case_base).unwrap();
            let req_img = encode_request(&s.request).unwrap();

            for layout in [
                ImageLayout::Classic(PortWidth::Narrow),
                ImageLayout::Classic(PortWidth::Wide),
            ] {
                let config = UnitConfig { layout, ..UnitConfig::default() };
                let mut unit = RetrievalUnit::new(&cb_img, config).unwrap();
                let hw = unit.retrieve(&req_img).unwrap();
                let (id, sim) = hw.best.unwrap();
                assert_eq!(id, sw_best.impl_id.raw(), "layout {:?}", layout);
                assert_eq!(sim, sw_best.similarity, "layout {:?}", layout);
            }

            if is_compactible(&s.case_base) {
                let compact_img = encode_compact_case_base(&s.case_base).unwrap();
                let mut unit =
                    RetrievalUnit::new_compact(&compact_img, UnitConfig::default()).unwrap();
                let hw = unit.retrieve(&req_img).unwrap();
                let (id, sim) = hw.best.unwrap();
                assert_eq!(id, sw_best.impl_id.raw());
                assert_eq!(sim, sw_best.similarity);
            }
        }

        /// Full score vectors agree with the software engine (scan order too).
        fn hw_scores_match_fixed_engine(rng) {
            let s = SHAPE.draw(rng);
            let (sw_scores, _) = FixedEngine::new().score_all(&s.case_base, &s.request).unwrap();
            let cb_img = encode_case_base(&s.case_base).unwrap();
            let req_img = encode_request(&s.request).unwrap();
            let mut unit = RetrievalUnit::new(&cb_img, UnitConfig::default()).unwrap();
            let hw = unit.retrieve(&req_img).unwrap();
            assert_eq!(hw.scores.len(), sw_scores.len());
            for ((hid, hsim), sws) in hw.scores.iter().zip(&sw_scores) {
                assert_eq!(*hid, sws.impl_id.raw());
                assert_eq!(*hsim, sws.similarity);
            }
        }

        /// The n-best register bank reproduces the software ranking.
        fn hw_nbest_matches_software_rank(rng) {
            let s = SHAPE.draw(rng);
            let n = rng.gen_range(1..6usize);
            let sw = FixedEngine::new().retrieve_n_best(&s.case_base, &s.request, n).unwrap();
            let cb_img = encode_case_base(&s.case_base).unwrap();
            let req_img = encode_request(&s.request).unwrap();
            let mut unit = RetrievalUnit::new(
                &cb_img,
                UnitConfig { n_best: n, ..UnitConfig::default() },
            ).unwrap();
            let hw = unit.retrieve(&req_img).unwrap();
            assert_eq!(hw.ranked.len(), sw.ranked.len().min(n));
            for ((hid, hsim), sws) in hw.ranked.iter().zip(&sw.ranked) {
                assert_eq!(*hid, sws.impl_id.raw());
                assert_eq!(*hsim, sws.similarity);
            }
        }

        /// Resume vs naive restart: identical results, naive never cheaper.
        fn naive_search_never_cheaper(rng) {
            let s = SHAPE.draw(rng);
            let cb_img = encode_case_base(&s.case_base).unwrap();
            let req_img = encode_request(&s.request).unwrap();
            let mut fast = RetrievalUnit::new(&cb_img, UnitConfig::default()).unwrap();
            let mut slow = RetrievalUnit::new(
                &cb_img,
                UnitConfig { resume: false, ..UnitConfig::default() },
            ).unwrap();
            let a = fast.retrieve(&req_img).unwrap();
            let b = slow.retrieve(&req_img).unwrap();
            assert_eq!(a.best, b.best);
            assert!(b.cycles >= a.cycles);
        }

        /// Cycle counts grow when a variant is added (monotone in case-base
        /// size for the same request).
        fn cycles_monotone_in_variants(rng) {
            let s = SHAPE.draw(rng);
            let cb_img = encode_case_base(&s.case_base).unwrap();
            let req_img = encode_request(&s.request).unwrap();
            let mut unit = RetrievalUnit::new(&cb_img, UnitConfig::default()).unwrap();
            let before = unit.retrieve(&req_img).unwrap();

            let mut grown = s.case_base.clone();
            let ty = grown.require_type(s.request.type_id()).unwrap();
            let next_id = ty.variants().iter().map(|v| v.id().raw()).max().unwrap() + 1;
            grown
                .retain_variant(
                    s.request.type_id(),
                    ImplVariant::new(
                        ImplId::new(next_id).unwrap(),
                        ExecutionTarget::Dsp,
                        vec![AttrBinding::new(AttrId::new(1).unwrap(), 25)],
                    )
                    .unwrap(),
                )
                .unwrap();
            let grown_img = encode_case_base(&grown).unwrap();
            let mut unit2 = RetrievalUnit::new(&grown_img, UnitConfig::default()).unwrap();
            let after = unit2.retrieve(&req_img).unwrap();
            assert!(after.cycles > before.cycles);
            assert_eq!(after.evaluated, before.evaluated + 1);
        }
    }
}

/// Encode/decode round trips and validator soundness.
mod memlist {
    use rqfa::core::{AttrId, ExecutionTarget, Request, TypeId};
    use rqfa::memlist::{
        decode_case_base, decode_request, encode_case_base, encode_request, validate_case_base,
        validate_request, CaseBaseImage, MemImage,
    };

    use super::{Shape, Universe};

    /// Up to 5 attributes in [0, 50], up to 4 types of up to 4 variants, a
    /// request weighted 1 to 9 per constraint.
    const SHAPE: Shape = Shape {
        attrs: 1..=5,
        types: 1..=4,
        variants: 1..=4,
        lower: 0..=0,
        span: 50..=50,
        values: 0..=50,
        weights: 1..=9,
        target: ExecutionTarget::Fpga,
    };

    properties! {
        cases = 128;

        fn case_base_roundtrip(rng) {
            let cb = SHAPE.draw(rng).case_base;
            let image = encode_case_base(&cb).unwrap();
            let decoded = decode_case_base(&image).unwrap();
            assert_eq!(decoded.type_count(), cb.type_count());
            assert_eq!(decoded.variant_count(), cb.variant_count());
            for (orig, back) in cb.function_types().iter().zip(decoded.function_types()) {
                assert_eq!(orig.id(), back.id());
                for (v1, v2) in orig.variants().iter().zip(back.variants()) {
                    assert_eq!(v1.id(), v2.id());
                    assert_eq!(v1.attrs(), v2.attrs());
                }
            }
        }

        fn encoded_case_base_validates(rng) {
            let cb = SHAPE.draw(rng).case_base;
            let image = encode_case_base(&cb).unwrap();
            let summary = validate_case_base(&image).unwrap();
            assert_eq!(summary.types, cb.type_count());
            assert_eq!(summary.variants, cb.variant_count());
        }

        fn request_roundtrip(rng) {
            let request = SHAPE.draw(rng).request;
            let image = encode_request(&request).unwrap();
            let decoded = decode_request(&image).unwrap();
            assert_eq!(request.fingerprint(), decoded.fingerprint());
        }

        fn encoded_request_validates(rng) {
            let Universe { case_base: cb, request } = SHAPE.draw(rng);
            // The request constrains only attributes this case base declares.
            let cb_image = encode_case_base(&cb).unwrap();
            let req_image = encode_request(&request).unwrap();
            let n = validate_request(&req_image, &cb_image).unwrap();
            assert_eq!(n, request.constraints().len());
        }

        /// Requests constraining undeclared attributes are rejected.
        fn foreign_attr_request_rejected(rng) {
            let cb = SHAPE.draw(rng).case_base;
            let foreign = Request::builder(TypeId::new(1).unwrap())
                .constraint(AttrId::new(999).unwrap(), 1)
                .build()
                .unwrap();
            let cb_image = encode_case_base(&cb).unwrap();
            let req_image = encode_request(&foreign).unwrap();
            assert!(validate_request(&req_image, &cb_image).is_err());
        }

        /// Single-word corruption of an id or pointer word is either caught by
        /// the validator or leaves a still-decodable image (never a panic).
        fn corruption_never_panics(rng) {
            let cb = SHAPE.draw(rng).case_base;
            let (pos, bits) = (rng.gen_range(0..4096usize), rng.gen_range(1..=u16::MAX));
            let image = encode_case_base(&cb).unwrap();
            let mut words = image.image().words().to_vec();
            let idx = pos % words.len();
            words[idx] ^= bits;
            if let Ok(img) = MemImage::from_words(words) {
                let corrupted = CaseBaseImage::from_image(img);
                // Must not panic; outcome may be Ok (benign flip) or Err.
                let _ = validate_case_base(&corrupted);
                let _ = decode_case_base(&corrupted);
            }
        }
    }
}

/// Run-time system invariants under random request streams.
mod rsoc {
    use rqfa::core::{paper, Request};
    use rqfa::rsoc::{
        AllocPolicy, AppId, ArrivalSpec, Device, DeviceId, SimTime, SystemBuilder, TaskState,
    };
    use rqfa::workloads::rng::SmallRng;

    fn arb_request(rng: &mut SmallRng) -> Request {
        Request::builder(paper::FIR_EQUALIZER)
            .constraint(paper::ATTR_BITWIDTH, rng.gen_range(8u16..=16))
            .constraint(paper::ATTR_OUTPUT, rng.gen_range(0u16..=2))
            .constraint(paper::ATTR_RATE, rng.gen_range(8u16..=44))
            .build()
            .unwrap()
    }

    /// 1 to 23 arrivals: (at µs, priority, duration µs, request).
    fn arb_stream(rng: &mut SmallRng) -> Vec<(u64, u8, u64, Request)> {
        (0..rng.gen_range(1..24usize))
            .map(|_| {
                let at = rng.gen_range(0u64..50_000);
                let priority = rng.gen_range(0u8..10);
                let duration = rng.gen_range(100u64..20_000);
                (at, priority, duration, arb_request(rng))
            })
            .collect()
    }

    properties! {
        cases = 64;

        /// Every request resolves (accepted + rejected = requests), devices
        /// drain completely, energy is positive and capacity never goes
        /// negative (claim() debug-asserts internally).
        fn conservation_invariants(rng) {
            let (stream, preempt) = (arb_stream(rng), rng.gen_bool(0.5));
            let mut sys = SystemBuilder::new(paper::table1_case_base())
                .device(Device::fpga(DeviceId(0), "fpga0", 1700, 150))
                .device(Device::dsp(DeviceId(1), "dsp0", 900, 90))
                .device(Device::cpu(DeviceId(2), "cpu0", 1000, 200))
                .policy(AllocPolicy { allow_preemption: preempt, ..AllocPolicy::default() })
                .build()
                .unwrap();
            let n = stream.len() as u64;
            for (at, priority, duration, request) in stream {
                sys.submit(SimTime::from_us(at), ArrivalSpec {
                    app: AppId(u16::from(priority)),
                    request,
                    priority,
                    duration_us: duration,
                    relaxed: None,
                });
            }
            let metrics = sys.run().unwrap();
            assert_eq!(metrics.requests, n);
            assert_eq!(metrics.accepted + metrics.rejected, metrics.requests);
            assert!(metrics.energy_nj > 0);
            for d in [DeviceId(0), DeviceId(1), DeviceId(2)] {
                assert!(sys.device(d).unwrap().utilization().abs() < 1e-12);
            }
            // Every task ended terminally.
            for task in sys.tasks() {
                assert!(matches!(task.state, TaskState::Completed | TaskState::Preempted));
            }
        }

        /// Preemption never evicts an equal-or-higher-priority task.
        fn preemption_respects_priority(rng) {
            let stream = arb_stream(rng);
            let mut sys = SystemBuilder::new(paper::table1_case_base())
                .device(Device::fpga(DeviceId(0), "fpga0", 900, 150))
                .device(Device::dsp(DeviceId(1), "dsp0", 500, 90))
                .build()
                .unwrap();
            for (at, priority, duration, request) in &stream {
                sys.submit(SimTime::from_us(*at), ArrivalSpec {
                    app: AppId(0),
                    request: request.clone(),
                    priority: *priority,
                    duration_us: *duration,
                    relaxed: None,
                });
            }
            sys.run().unwrap();
            // Reconstruct: for every preempted task there was a later, strictly
            // higher-priority task on the same device.
            for victim in sys.tasks().filter(|t| t.state == TaskState::Preempted) {
                let exists = sys.tasks().any(|t| {
                    t.device == victim.device
                        && t.priority > victim.priority
                        && t.requested_at >= victim.requested_at
                });
                assert!(exists, "preempted {} without a higher-priority cause", victim.id);
            }
        }

        /// Identical request streams produce identical metrics (determinism).
        fn runs_are_deterministic(rng) {
            let stream = arb_stream(rng);
            let run = |s: &[(u64, u8, u64, Request)]| {
                let mut sys = SystemBuilder::new(paper::table1_case_base())
                    .device(Device::fpga(DeviceId(0), "fpga0", 1700, 150))
                    .device(Device::dsp(DeviceId(1), "dsp0", 900, 90))
                    .build()
                    .unwrap();
                for (at, priority, duration, request) in s {
                    sys.submit(SimTime::from_us(*at), ArrivalSpec {
                        app: AppId(0),
                        request: request.clone(),
                        priority: *priority,
                        duration_us: *duration,
                        relaxed: None,
                    });
                }
                sys.run().unwrap()
            };
            assert_eq!(run(&stream), run(&stream));
        }
    }
}

/// The soft-core retrieval routine is bit-exact with the fixed-point
/// reference engine, and the assembler's binary round trip holds.
mod softcore {
    use rqfa::core::{ExecutionTarget, FixedEngine};
    use rqfa::memlist::{encode_case_base, encode_request};
    use rqfa::softcore::{run_retrieval, CpuCostModel, Instr};

    use super::Shape;

    /// Up to 5 attributes in [0, 50], up to 3 types of up to 5 variants.
    const SHAPE: Shape = Shape {
        attrs: 1..=5,
        types: 1..=3,
        variants: 1..=5,
        lower: 0..=0,
        span: 50..=50,
        values: 0..=50,
        weights: 1..=1,
        target: ExecutionTarget::GpProcessor,
    };

    properties! {
        cases = 96;

        /// Bit-exactness of the software routine against the reference engine.
        fn software_matches_fixed_engine(rng) {
            let s = SHAPE.draw(rng);
            let reference = FixedEngine::new()
                .retrieve(&s.case_base, &s.request)
                .unwrap()
                .best
                .unwrap();
            let cb = encode_case_base(&s.case_base).unwrap();
            let req = encode_request(&s.request).unwrap();
            let sw = run_retrieval(&cb, &req, CpuCostModel::default()).unwrap();
            let (id, sim) = sw.best.unwrap();
            assert_eq!(id, reference.impl_id.raw());
            assert_eq!(sim, reference.similarity);
        }

        /// Software cycles are deterministic for a given scenario.
        fn software_cycles_deterministic(rng) {
            let s = SHAPE.draw(rng);
            let cb = encode_case_base(&s.case_base).unwrap();
            let req = encode_request(&s.request).unwrap();
            let a = run_retrieval(&cb, &req, CpuCostModel::default()).unwrap();
            let b = run_retrieval(&cb, &req, CpuCostModel::default()).unwrap();
            assert_eq!(a.stats.cycles, b.stats.cycles);
            assert_eq!(a.best, b.best);
        }

        /// Instruction encode/decode is a bijection on generated instructions.
        fn isa_roundtrip(rng) {
            let op = rng.gen_range(0..12usize);
            let rd = rng.gen_range(0u8..32);
            let ra = rng.gen_range(0u8..32);
            let rb = rng.gen_range(0u8..32);
            let imm = rng.gen_range(0..=u16::MAX) as i16;
            let disp = rng.gen_range(0u16..=2047) as i16 - 1024;
            let instr = match op {
                0 => Instr::Add(rd, ra, rb),
                1 => Instr::Sub(rd, ra, rb),
                2 => Instr::Mul(rd, ra, rb),
                3 => Instr::Addi(rd, ra, imm),
                4 => Instr::Lhu(rd, ra, imm),
                5 => Instr::Sh(rd, ra, imm),
                6 => Instr::Beq(ra, rb, disp),
                7 => Instr::Blt(ra, rb, disp),
                8 => Instr::Ori(rd, ra, imm as u16),
                9 => Instr::Lui(rd, imm as u16),
                10 => Instr::Slli(rd, ra, (imm as u8) & 31),
                _ => Instr::J(imm as u16),
            };
            assert_eq!(Instr::decode(instr.encode()).unwrap(), instr);
        }
    }
}

/// The timing and area estimators never panic on arbitrary netlists and
/// behave monotonically.
mod synth {
    use rqfa::synth::{analyze, estimate_area, Netlist, Primitive, SynthError, TechLibrary};
    use rqfa::workloads::rng::SmallRng;

    /// One of the eleven primitive kinds, each as likely as the others.
    fn arb_primitive(rng: &mut SmallRng) -> Primitive {
        let bits = rng.gen_range(1u32..=32);
        match rng.gen_range(0..11u32) {
            0 => Primitive::Register { bits },
            1 => Primitive::Adder { bits },
            2 => Primitive::AbsDiff { bits },
            3 => Primitive::Comparator { bits },
            4 => Primitive::Saturator { bits },
            5 => Primitive::Mux {
                bits,
                inputs: rng.gen_range(2u32..=8),
            },
            6 => Primitive::Counter { bits },
            7 => Primitive::Mult18x18,
            8 => Primitive::Bram18,
            9 => Primitive::Fsm {
                states: rng.gen_range(2u32..=32),
                outputs: rng.gen_range(1u32..=40),
            },
            _ => Primitive::Glue {
                luts: rng.gen_range(1u32..=64),
            },
        }
    }

    /// A combinational primitive: sequential kinds are drawn again.
    fn arb_combinational(rng: &mut SmallRng) -> Primitive {
        loop {
            let p = arb_primitive(rng);
            if !matches!(
                p,
                Primitive::Register { .. }
                    | Primitive::Bram18
                    | Primitive::Counter { .. }
                    | Primitive::Fsm { .. }
            ) {
                return p;
            }
        }
    }

    properties! {
        cases = 128;

        /// Arbitrary graphs (cycles allowed) never panic the analyzer: the
        /// result is a report or a structured error.
        fn analysis_is_total(rng) {
            let prims: Vec<Primitive> =
                (0..rng.gen_range(2..16usize)).map(|_| arb_primitive(rng)).collect();
            let edges: Vec<(usize, usize)> = (0..rng.gen_range(0..40usize))
                .map(|_| (rng.gen_range(0..16usize), rng.gen_range(0..16usize)))
                .collect();
            let mut n = Netlist::new("random");
            let ids: Vec<_> = prims
                .iter()
                .enumerate()
                .map(|(i, &p)| n.add(format!("c{i}"), p).unwrap())
                .collect();
            for (a, b) in edges {
                let from = ids[a % ids.len()];
                let to = ids[b % ids.len()];
                n.connect(from, to).unwrap();
            }
            let lib = TechLibrary::default();
            match analyze(&n, &lib) {
                Ok(report) => {
                    assert!(report.critical_ns > 0.0);
                    assert!(report.fmax_mhz > 0.0);
                    assert!(!report.path.is_empty());
                }
                Err(SynthError::CombinationalLoop { .. } | SynthError::NoPaths) => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
            let area = estimate_area(&n, &lib);
            assert!(area.slices > 0 || (area.luts == 0 && area.ffs == 0));
        }

        /// Layered DAGs (edges strictly forward through a reg/comb/reg
        /// sandwich) always analyze successfully, and inserting an extra
        /// combinational stage on the path never decreases the delay.
        fn extra_stage_never_speeds_up(rng) {
            let stages: Vec<Primitive> =
                (0..rng.gen_range(1..6usize)).map(|_| arb_combinational(rng)).collect();
            let lib = TechLibrary::default();
            let build = |count: usize| {
                let mut n = Netlist::new("chain");
                let src = n.add("src", Primitive::Register { bits: 16 }).unwrap();
                let dst = n.add("dst", Primitive::Register { bits: 16 }).unwrap();
                let mut prev = src;
                for (i, p) in stages.iter().take(count).enumerate() {
                    let c = n.add(format!("s{i}"), *p).unwrap();
                    n.connect(prev, c).unwrap();
                    prev = c;
                }
                n.connect(prev, dst).unwrap();
                analyze(&n, &lib).unwrap()
            };
            let short = build(stages.len() - 1);
            let long = build(stages.len());
            assert!(long.critical_ns >= short.critical_ns,
                "{} < {}", long.critical_ns, short.critical_ns);
        }

        /// Area roll-up is additive: splitting glue across components changes
        /// nothing.
        fn area_is_additive(rng) {
            let luts = rng.gen_range(1u32..200);
            let lib = TechLibrary::default();
            let mut one = Netlist::new("one");
            one.add("g", Primitive::Glue { luts }).unwrap();
            let mut many = Netlist::new("many");
            for i in 0..luts {
                many.add(format!("g{i}"), Primitive::Glue { luts: 1 }).unwrap();
            }
            assert_eq!(estimate_area(&one, &lib).luts, estimate_area(&many, &lib).luts);
            assert_eq!(estimate_area(&one, &lib).slices, estimate_area(&many, &lib).slices);
        }
    }
}
