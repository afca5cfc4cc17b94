//! The plane proof: differential testing of the compiled columnar
//! retrieval plane (`rqfa_core::plane` + `rqfa_core::kernel`) against the
//! naive scan engine.
//!
//! Seeded random case bases × request streams × **mid-stream mutations**
//! drive one long-lived [`PlaneEngine`] and the reference [`FixedEngine`]
//! in lockstep. After *every* operation the two must agree **bit-
//! identically** on
//!
//! * winners (`retrieve`): the first-achieving-max variant — its id,
//!   execution target and `Q15` score word — including tie handling, plus
//!   the evaluated count;
//! * batch answers in input order with per-slot errors isolated;
//! * error values (`UnknownType` / `UndeclaredAttr`);
//! * the arithmetic operation counters (`distances`, `multiplies`,
//!   `additions`, `comparisons`) of every answer — the plane changes
//!   *where* the work happens, and its walk skips lane-steps, but neither
//!   changes how much arithmetic the datapath model performs. Only
//!   `search_steps` follows the plane cost model (one per constraint;
//!   see `docs/retrieval.md`), which is asserted exactly too.
//!
//! Mutations (retain / revise / evict through `CaseBase::apply_mutation`)
//! land mid-stream, so the harness also proves the stamp-driven
//! invalidation: the plane engine brings its plane up to date once per
//! observed generation change, recompiles one type plane per mutated type
//! and never serves a stale plane.
//!
//! A second, hand-shaped family aims at what a 16-lane fused kernel can
//! get wrong and a random stream rarely hits: variant counts around the
//! lane and unroll boundaries, padded tail lanes that would win if they
//! were read, ties across lanes and steps, presence bitmaps that change
//! mid-step, empty and very long plans.

use rqfa::core::{
    AttrBinding, AttrDecl, AttrId, BoundsTable, CaseBase, CaseMutation, ExecutionTarget,
    FixedEngine, FunctionType, ImplId, ImplVariant, KernelPath, PlaneEngine, Request, TypeId,
};
use rqfa::memlist::{decode_request, RequestImage, END_MARKER};
use rqfa::workloads::rng::SmallRng;
use rqfa::workloads::{CaseGen, RequestGen};

const SEEDS: u64 = 10;
const OPS_PER_SEED: usize = 10_000;

/// Compares one request through both engines — and holds the
/// pinned-scalar plane engine to the exact same answers as the auto-path
/// one (the wide kernel, where the host has it).
fn check_request(cb: &CaseBase, plane: &mut PlaneEngine, scalar: &mut PlaneEngine, request: &Request) {
    // Winner (strict-> update rule incl. ties) + op model.
    match (FixedEngine::new().retrieve(cb, request), plane.retrieve(cb, request)) {
        (Ok(n), Ok(p)) => {
            assert_eq!(n.best, p.best, "winner must be bit-identical");
            assert_eq!(n.evaluated, p.evaluated);
            let (nops, pops) = (n.ops, p.ops);
            assert_eq!(nops.distances, pops.distances, "distances");
            assert_eq!(nops.multiplies, pops.multiplies, "multiplies");
            assert_eq!(nops.additions, pops.additions, "additions");
            assert_eq!(nops.comparisons, pops.comparisons, "comparisons");
            assert_eq!(
                pops.search_steps,
                request.constraints().len() as u64,
                "plane cost model: one search step per constraint"
            );
        }
        (Err(ne), Err(pe)) => assert_eq!(ne, pe, "error values must match"),
        other => panic!("one engine failed, the other did not: {other:?}"),
    }
    // Wide vs scalar: the pinned-scalar engine must agree with the auto
    // path, ops included (path-independent model).
    match (plane.retrieve(cb, request), scalar.retrieve(cb, request)) {
        (Ok(p), Ok(s)) => {
            assert_eq!(p.best, s.best, "winner must be path-independent");
            assert_eq!(p.evaluated, s.evaluated);
            assert_eq!(p.ops, s.ops, "ops must be path-independent");
        }
        (Err(pe), Err(se)) => assert_eq!(pe, se),
        other => panic!("retrieve paths diverged: {other:?}"),
    }
}

/// Builds a fresh variant for a retain/revise mutation, binding a random
/// subset of the declared attributes with in-bounds values.
fn random_variant(cb: &CaseBase, rng: &mut SmallRng, impl_id: ImplId) -> ImplVariant {
    let decls: Vec<_> = cb.bounds().iter().collect();
    let count = rng.gen_range(1..=decls.len());
    let mut picked: Vec<usize> = (0..decls.len()).collect();
    for i in (1..picked.len()).rev() {
        let j = rng.gen_range(0..=i);
        picked.swap(i, j);
    }
    picked.truncate(count);
    let attrs = picked
        .into_iter()
        .map(|i| {
            let decl = decls[i];
            AttrBinding::new(decl.id(), rng.gen_range(decl.lower()..=decl.upper()))
        })
        .collect();
    ImplVariant::new(impl_id, rqfa::core::ExecutionTarget::Dsp, attrs)
        .expect("random variant is valid")
}

/// One random mutation against a random type; returns whether it applied.
fn random_mutation(cb: &mut CaseBase, rng: &mut SmallRng, fresh_impl: &mut u16) -> bool {
    let types: Vec<TypeId> = cb.function_types().iter().map(|t| t.id()).collect();
    let type_id = types[rng.gen_range(0..types.len())];
    let mutation = match rng.gen_range(0..3u32) {
        0 => {
            *fresh_impl += 1;
            CaseMutation::Retain {
                type_id,
                variant: random_variant(cb, rng, ImplId::new(*fresh_impl).unwrap()),
            }
        }
        1 => {
            let ty = cb.function_type(type_id).unwrap();
            let victim = ty.variants()[rng.gen_range(0..ty.variant_count())].id();
            CaseMutation::Revise {
                type_id,
                variant: random_variant(cb, rng, victim),
            }
        }
        _ => {
            let ty = cb.function_type(type_id).unwrap();
            if ty.variant_count() < 2 {
                return false; // eviction would empty the type
            }
            let victim = ty.variants()[rng.gen_range(0..ty.variant_count())].id();
            CaseMutation::Evict {
                type_id,
                impl_id: victim,
            }
        }
    };
    cb.apply_mutation(&mutation).expect("generated mutation is valid");
    true
}

#[test]
fn plane_kernel_is_bit_identical_to_the_naive_engine() {
    for seed in 0..SEEDS {
        let mut cb = CaseGen::new(6, 6, 4, 8)
            .seed(seed)
            .value_span(200)
            .without_footprints()
            .build();
        let pool = RequestGen::new(&cb)
            .seed(seed.wrapping_mul(0x9E37) + 1)
            .count(512)
            .repeat_fraction(0.3)
            .generate();
        // Requests that exercise the error paths.
        let unknown_type = Request::builder(TypeId::new(999).unwrap())
            .constraint(rqfa::core::AttrId::new(1).unwrap(), 1)
            .build()
            .unwrap();
        let undeclared_attr = Request::builder(cb.function_types()[0].id())
            .constraint(rqfa::core::AttrId::new(99).unwrap(), 1)
            .build()
            .unwrap();

        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD1FF);
        let mut plane = PlaneEngine::new();
        let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
        let mut fresh_impl = 1000u16;
        let mut mutations = 0u64;
        let mut ops = 0usize;
        while ops < OPS_PER_SEED {
            match rng.gen_range(0..100u32) {
                // Mid-stream mutation: invalidates the compiled plane.
                0..=4 => {
                    if random_mutation(&mut cb, &mut rng, &mut fresh_impl) {
                        mutations += 1;
                    }
                    ops += 1;
                }
                // Batch call over a random slice of the pool.
                5..=14 => {
                    let len = rng.gen_range(1..=16usize);
                    let start = rng.gen_range(0..pool.len() - len);
                    let batch: Vec<&Request> = pool[start..start + len].iter().collect();
                    let naive = FixedEngine::new().retrieve_batch(&cb, &batch);
                    let fast = plane.retrieve_batch(&cb, &batch);
                    let slow = scalar.retrieve_batch(&cb, &batch);
                    assert_eq!(naive.len(), fast.len());
                    assert_eq!(fast.len(), slow.len());
                    for ((n, p), s) in naive.iter().zip(&fast).zip(&slow) {
                        match (n, p) {
                            (Ok(n), Ok(p)) => {
                                assert_eq!(n.best, p.best);
                                assert_eq!(n.evaluated, p.evaluated);
                            }
                            (Err(ne), Err(pe)) => assert_eq!(ne, pe),
                            other => panic!("batch slot diverged: {other:?}"),
                        }
                        // Register-blocked wide vs scalar: identical
                        // slot-for-slot, ops included.
                        match (p, s) {
                            (Ok(p), Ok(s)) => {
                                assert_eq!(p.best, s.best);
                                assert_eq!(p.ops, s.ops);
                            }
                            (Err(pe), Err(se)) => assert_eq!(pe, se),
                            other => panic!("batch kernel paths diverged: {other:?}"),
                        }
                    }
                    ops += len;
                }
                // Error paths.
                15..=16 => {
                    let request = if rng.gen_bool(0.5) {
                        &unknown_type
                    } else {
                        &undeclared_attr
                    };
                    check_request(&cb, &mut plane, &mut scalar, request);
                    ops += 1;
                }
                // Single-request comparison across both engines and paths.
                _ => {
                    let request = &pool[rng.gen_range(0..pool.len())];
                    check_request(&cb, &mut plane, &mut scalar, request);
                    ops += 1;
                }
            }
        }
        assert!(mutations > 0, "seed {seed}: stream must include mutations");
        // Invalidation economy: exactly one compile per observed
        // generation change (first use + one per mutation at most — a
        // mutation directly followed by another mutation coalesces).
        assert!(
            plane.recompiles() <= mutations + 1,
            "seed {seed}: {} recompiles for {mutations} mutations",
            plane.recompiles()
        );
        assert!(plane.recompiles() >= 2, "mutations must force recompiles");
        // Type-scoped: every type once at first use, then at most one
        // type plane per mutation — never the whole base again.
        let types = cb.type_count() as u64;
        assert!(
            plane.types_recompiled() <= mutations + types,
            "seed {seed}: {} type planes compiled for {mutations} mutations over {types} types",
            plane.types_recompiled()
        );
        assert!(plane.types_recompiled() > types, "mutations must recompile type planes");
    }
}

#[test]
fn scratch_arena_stops_growing_after_warmup() {
    // The scratch-reuse counter: after one pass over the workload shapes,
    // a second identical pass must not grow any buffer.
    let cb = CaseGen::new(8, 12, 6, 10).seed(7).build();
    let pool = RequestGen::new(&cb).seed(8).count(256).generate();
    let mut plane = PlaneEngine::new();
    let mut out = Vec::new();
    let pass = |plane: &mut PlaneEngine, out: &mut Vec<_>| {
        for chunk in pool.chunks(32) {
            let batch: Vec<&Request> = chunk.iter().collect();
            plane.retrieve_batch_into(&cb, &batch, out);
        }
        for request in &pool {
            plane.retrieve(&cb, request).unwrap();
        }
    };
    pass(&mut plane, &mut out);
    let warm = plane.scratch_grows();
    pass(&mut plane, &mut out);
    assert_eq!(
        plane.scratch_grows(),
        warm,
        "steady state must not grow the scratch arena"
    );
}

/// Declared attributes of the hand-shaped bases: 1 and 2 dense and far
/// from 0, 3 and 4 sparse, 5 ..= 44 dense filler for long plans, the
/// last one bound by no variant.
const EDGE_ATTRS: u16 = 45;
const EDGE_TYPE: u16 = 1;
const OTHER_TYPE: u16 = 2;

fn attr(raw: u16) -> AttrId {
    AttrId::new(raw).unwrap()
}

/// A base whose type [`EDGE_TYPE`] has `variants` variants bound as
/// `value_of(variant index, attribute)` says, plus a small second type
/// for mutations that must leave the first type's plane alone.
fn edge_base(variants: usize, value_of: impl Fn(usize, u16) -> Option<u16>) -> CaseBase {
    let bounds = BoundsTable::from_decls(
        (1..=EDGE_ATTRS).map(|raw| AttrDecl::new(attr(raw), "edge", 0, 1000).unwrap()),
    )
    .unwrap();
    let variant = |index: usize, bindings| {
        let id = ImplId::new(u16::try_from(index + 1).unwrap()).unwrap();
        ImplVariant::new(id, ExecutionTarget::Dsp, bindings).unwrap()
    };
    let edge = (0..variants)
        .map(|index| {
            let bindings = (1..=EDGE_ATTRS)
                .filter_map(|raw| Some(AttrBinding::new(attr(raw), value_of(index, raw)?)))
                .collect();
            variant(index, bindings)
        })
        .collect();
    let other = (0..3)
        .map(|index| variant(index, vec![AttrBinding::new(attr(1), 10 * index as u16)]))
        .collect();
    CaseBase::new(
        bounds,
        vec![
            FunctionType::new(TypeId::new(EDGE_TYPE).unwrap(), "edge", edge).unwrap(),
            FunctionType::new(TypeId::new(OTHER_TYPE).unwrap(), "other", other).unwrap(),
        ],
    )
    .unwrap()
}

fn edge_request(constraints: &[(u16, u16, f64)]) -> Request {
    constraints
        .iter()
        .fold(
            Request::builder(TypeId::new(EDGE_TYPE).unwrap()),
            |builder, &(raw, value, weight)| builder.weighted_constraint(attr(raw), value, weight),
        )
        .build()
        .unwrap()
}

/// Batch answers of the auto, pinned-scalar and naive engines, slot for
/// slot (ops included between the two plane paths).
fn check_batch(cb: &CaseBase, plane: &mut PlaneEngine, scalar: &mut PlaneEngine, pool: &[Request]) {
    let batch: Vec<&Request> = pool.iter().collect();
    let naive = FixedEngine::new().retrieve_batch(cb, &batch);
    let fast = plane.retrieve_batch(cb, &batch);
    let slow = scalar.retrieve_batch(cb, &batch);
    assert_eq!((naive.len(), slow.len()), (fast.len(), fast.len()));
    for ((n, p), s) in naive.iter().zip(&fast).zip(&slow) {
        let (n, p, s) = (
            n.as_ref().unwrap(),
            p.as_ref().unwrap(),
            s.as_ref().unwrap(),
        );
        assert_eq!((n.best, n.evaluated), (p.best, p.evaluated));
        assert_eq!((p.best, p.evaluated, p.ops), (s.best, s.evaluated, s.ops));
    }
}

#[test]
fn lane_tail_and_plan_edge_cases_are_bit_identical() {
    for variants in [1usize, 15, 16, 17, 31, 32, 33, 63, 64, 65, 512, 1000] {
        let mut rng = SmallRng::seed_from_u64(0xED6E ^ variants as u64);
        let noise: Vec<u16> = (0..variants * usize::from(EDGE_ATTRS))
            .map(|_| rng.gen_range(0..=1000u16))
            .collect();
        let mut cb = edge_base(variants, |index, raw| {
            let random = noise[index * usize::from(EDGE_ATTRS) + usize::from(raw - 1)];
            match raw {
                // Dense, every real value far from the padding's 0.
                1 | 2 => Some(500 + random / 2),
                // Sparse: presence flips every 11 and every 5 variants,
                // so it changes inside lane-steps and bitmap words.
                3 => ((index / 11) % 2 == 0).then_some(random),
                4 => (index % 5 != 0 && index != variants - 1).then_some(random),
                EDGE_ATTRS => None,
                _ => Some(random),
            }
        });
        let everything: Vec<(u16, u16, f64)> = (1..=EDGE_ATTRS)
            .map(|raw| (raw, rng.gen_range(0..=1000u16), f64::from(1 + raw % 7)))
            .collect();
        // Weight words as they can arrive off the wire: each a valid
        // UQ1.15 word, their sum well above 0x8000. (The decoder rebuilds
        // through the normalizing builder; un-normalized plans are the
        // kernel unit tests' business.)
        let heavy = decode_request(
            &RequestImage::from_words(vec![
                EDGE_TYPE, 1, 600, 0x8000, 3, 300, 0x8000, 4, 900, 0x6000, END_MARKER,
            ])
            .unwrap(),
        )
        .unwrap();
        let mut pool = vec![
            // Padding would win if read: padded slots hold value 0.
            edge_request(&[(1, 0, 1.0), (2, 0, 1.0)]),
            // An empty plan: the one constraint has no column.
            edge_request(&[(EDGE_ATTRS, 7, 1.0)]),
            // One planned constraint: dense (weight 1.0), then sparse.
            edge_request(&[(2, 777, 1.0)]),
            edge_request(&[(3, 500, 1.0)]),
            // A zero weight word next to a full one.
            edge_request(&[(1, 640, 0.0), (4, 500, 1.0)]),
            // Far more constraints than lanes, unroll factor or registers.
            edge_request(&everything),
            heavy,
            // Requested values far outside the declared 0 ..= 1000 (a
            // request's values are not bounds-checked): distances past
            // `d_cap`, where the 16-bit lane product must saturate.
            edge_request(&[(1, u16::MAX, 1.0), (2, 5000, 2.0), (3, 2100, 1.0)]),
        ];
        for _ in 0..24 {
            let anchor = rng.gen_range(1..=EDGE_ATTRS);
            let mut picked = Vec::new();
            for raw in 1..=EDGE_ATTRS {
                if raw == anchor || rng.gen_bool(0.2) {
                    picked.push((
                        raw,
                        rng.gen_range(0..=1000u16),
                        rng.gen_range(1..=9u32).into(),
                    ));
                }
            }
            pool.push(edge_request(&picked));
        }

        let mut plane = PlaneEngine::new();
        let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
        let check_pool = |cb: &CaseBase, plane: &mut PlaneEngine, scalar: &mut PlaneEngine| {
            for request in &pool {
                check_request(cb, plane, scalar, request);
            }
            check_batch(cb, plane, scalar, &pool);
        };
        check_pool(&cb, &mut plane, &mut scalar);

        // A mutation between two batches recompiles one type plane; the
        // scale constants image the bounds table and do not move.
        let recips: Vec<_> = (1..=EDGE_ATTRS)
            .map(|raw| plane.plane(&cb).recip(attr(raw)))
            .collect();
        let compiled = plane.types_recompiled();
        cb.apply_mutation(&CaseMutation::Evict {
            type_id: TypeId::new(OTHER_TYPE).unwrap(),
            impl_id: ImplId::new(2).unwrap(),
        })
        .unwrap();
        check_pool(&cb, &mut plane, &mut scalar);
        assert_eq!(
            plane.types_recompiled(),
            compiled + 1,
            "{variants} variants"
        );
        // … and one that moves this type's tail: the winner-to-be lands
        // in a new last lane.
        let last = ImplId::new(u16::try_from(variants + 1).unwrap()).unwrap();
        cb.apply_mutation(&CaseMutation::Retain {
            type_id: TypeId::new(EDGE_TYPE).unwrap(),
            variant: ImplVariant::new(
                last,
                ExecutionTarget::Fpga,
                vec![AttrBinding::new(attr(1), 0), AttrBinding::new(attr(2), 0)],
            )
            .unwrap(),
        })
        .unwrap();
        check_pool(&cb, &mut plane, &mut scalar);
        assert_eq!(plane.types_recompiled(), compiled + 2);
        let tail_winner = plane.retrieve(&cb, &pool[0]).unwrap().best.unwrap();
        assert_eq!(
            (tail_winner.impl_id, tail_winner.similarity.raw()),
            (last, 0x8000)
        );
        let after: Vec<_> = (1..=EDGE_ATTRS)
            .map(|raw| plane.plane(&cb).recip(attr(raw)))
            .collect();
        assert_eq!(recips, after);
    }
}

#[test]
fn ties_resolve_to_the_first_variant_across_lanes_and_steps() {
    let exact = edge_request(&[(1, 700, 1.0), (2, 700, 3.0)]);
    let winner = |cb: &CaseBase| {
        let mut plane = PlaneEngine::new();
        let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
        check_request(cb, &mut plane, &mut scalar, &exact);
        plane.retrieve(cb, &exact).unwrap().best.unwrap()
    };
    for variants in [1usize, 16, 17, 40, 64, 100] {
        // Every variant ties: the first one wins.
        let all_tie = edge_base(variants, |_, raw| (raw <= 2).then_some(650));
        assert_eq!(winner(&all_tie).impl_id, ImplId::new(1).unwrap());
        // The only maximum sits in the last real lane of the tail.
        let last_wins = edge_base(variants, |index, raw| {
            (raw <= 2).then_some(if index == variants - 1 { 700 } else { 100 })
        });
        let best = winner(&last_wins);
        assert_eq!(usize::from(best.impl_id.raw()), variants);
        assert_eq!(best.similarity.raw(), 0x8000);
    }
    // Equal maxima in lane 3 of step 0, lanes 0 and 3 of step 1, lane 3
    // of step 2: within a lane the earlier step wins, across lanes the
    // smaller index does. Then the same with index 3 out of the race.
    for (maxima, first) in [([3usize, 16, 19, 35], 3usize), ([99, 16, 19, 35], 16)] {
        let tied = edge_base(40, |index, raw| {
            (raw <= 2).then_some(if maxima.contains(&index) { 700 } else { 400 })
        });
        assert_eq!(usize::from(winner(&tied).impl_id.raw()), first + 1);
    }
}

/// Winners, `evaluated` and lane-steps scored of one top-1 request on
/// both kernel paths, after the full [`check_request`] comparison.
fn walk_once(
    cb: &CaseBase,
    plane: &mut PlaneEngine,
    scalar: &mut PlaneEngine,
    request: &Request,
) -> (ImplId, u16, u64) {
    check_request(cb, plane, scalar, request);
    let (auto_before, scalar_before) = (plane.steps_scored(), scalar.steps_scored());
    let best = plane.retrieve(cb, request).unwrap().best.unwrap();
    scalar.retrieve(cb, request).unwrap();
    let steps = plane.steps_scored() - auto_before;
    assert_eq!(
        scalar.steps_scored() - scalar_before,
        steps,
        "pruning is path-independent"
    );
    (best.impl_id, best.similarity.raw(), steps)
}

#[test]
fn the_walk_is_exact_where_its_bound_is_tight_or_useless() {
    let id = |index: usize| ImplId::new(u16::try_from(index + 1).unwrap()).unwrap();
    for variants in [1usize, 16, 17, 37] {
        let steps = variants.div_ceil(16) as u64;
        // Fresh engines per base: one engine serves one lineage.
        let run = |cb: &CaseBase, request: &Request| {
            let mut plane = PlaneEngine::new();
            let mut scalar = PlaneEngine::with_kernel(KernelPath::ForceScalar);
            walk_once(cb, &mut plane, &mut scalar, request)
        };
        let mut rng = SmallRng::seed_from_u64(0x5041_4C4B ^ variants as u64);
        let noise: Vec<u16> = (0..variants * 4)
            .map(|_| rng.gen_range(0..=1000u16))
            .collect();
        let random = edge_base(variants, |index, raw| match raw {
            1 | 2 | 4 => Some(noise[index * 4 + usize::from(raw - 1)]),
            3 => (!index.is_multiple_of(3)).then_some(noise[index * 4 + 2]),
            _ => None,
        });
        // Two constraints tie for the heaviest weight: the first is the
        // pivot, and the other's full weight is in the bound.
        run(
            &random,
            &edge_request(&[(1, 420, 2.0), (2, 610, 2.0), (4, 90, 1.0)]),
        );
        // One constraint: nothing but the pivot is in the bound.
        run(&random, &edge_request(&[(2, 333, 1.0)]));
        // The heaviest constraint binds no variant: it is charged, never
        // planned, and the heaviest planned one is the pivot.
        run(
            &random,
            &edge_request(&[(1, 700, 1.0), (3, 250, 2.0), (EDGE_ATTRS, 7, 5.0)]),
        );

        // A sparse pivot whose absent rows win: the rows that bind
        // attribute 3 sit far from the request on both constraints, the
        // rest come close on attribute 1, and the last variant matches
        // it exactly. The absent rows fill the trailing steps in tree
        // order, bounded by the other weight alone — which the last one
        // reaches from the last step, so that step must be scored.
        let last = variants - 1;
        let absent = |index: usize| index.is_multiple_of(3) || index == last;
        let absent_wins = edge_base(variants, |index, raw| match raw {
            1 if index == last => Some(600),
            1 => Some(if absent(index) { 580 } else { 0 }),
            3 => (!absent(index)).then_some(950),
            _ => None,
        });
        let (winner, _, _) = run(&absent_wins, &edge_request(&[(3, 100, 3.0), (1, 600, 1.0)]));
        assert_eq!(winner, id(last), "{variants} variants");

        // An exact tie whose tree-first half sits in a step the walk
        // reaches second: index 0 is at 490 and sorts last in step 0,
        // index 16 is at 510 and opens step 1, where the walk starts for
        // a request of 500. Step 0's bound equals the best score.
        let tie_later = edge_base(variants, |index, raw| match (raw, index) {
            (1, 0) => Some(490),
            (1, 16) => Some(510),
            (1, _) if index < 16 => Some(100 + u16::try_from(index).unwrap()),
            (1, _) => Some(900 + u16::try_from(index).unwrap()),
            (2, _) => Some(300),
            _ => None,
        });
        for request in [
            edge_request(&[(1, 500, 1.0)]),
            edge_request(&[(1, 500, 3.0), (2, 300, 1.0)]),
        ] {
            let (winner, _, _) = run(&tie_later, &request);
            assert_eq!(winner, id(0), "{variants} variants");
        }

        // A request far from every variant, which all look alike: every
        // step's bound is the best score, so nothing prunes, and the
        // first variant wins the tie.
        let alike = edge_base(variants, |_, raw| (raw <= 2).then_some(0));
        let (winner, _, scored) = run(&alike, &edge_request(&[(1, 1000, 2.0), (2, 990, 1.0)]));
        assert_eq!((winner, scored), (id(0), steps), "{variants} variants");
    }
}

#[test]
fn the_walk_scores_few_lane_steps_on_the_scan_shape() {
    // `local_scan`'s shape: 16 types × 512 variants, 32 lane-steps each,
    // under the benchmark's request generator. The walk scores about
    // 10 % of them; a full scan scores all of them.
    let cb = CaseGen::new(16, 512, 10, 10).seed(0x5CA7).build();
    let pool = RequestGen::new(&cb)
        .seed(0x5CA8)
        .count(2048)
        .repeat_fraction(0.0)
        .generate();
    let naive = FixedEngine::new();
    let mut scored = Vec::new();
    for path in [KernelPath::Auto, KernelPath::ForceScalar] {
        let mut engine = PlaneEngine::with_kernel(path);
        for request in &pool {
            let fast = engine.retrieve(&cb, request).unwrap();
            assert_eq!(fast.best, naive.retrieve(&cb, request).unwrap().best);
        }
        scored.push(engine.steps_scored());
    }
    assert_eq!(scored[0], scored[1], "pruning is path-independent");
    let all = pool.len() as u64 * 32;
    assert!(
        scored[0] * 100 <= all * 15,
        "the walk scored {} of {all} lane-steps",
        scored[0]
    );
}
