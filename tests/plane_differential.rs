//! The plane proof: differential testing of the compiled columnar
//! retrieval plane (`rqfa_core::plane` + `rqfa_core::kernel`) against the
//! naive scan engine.
//!
//! Seeded random case bases × request streams × **mid-stream mutations**
//! drive one long-lived [`PlaneEngine`] and the reference [`FixedEngine`]
//! in lockstep. After *every* operation the two must agree **bit-
//! identically** on
//!
//! * full score vectors (`score_all`): every `Q15` word, every id, every
//!   execution target, in tree order;
//! * winners (`retrieve`): the first-achieving-max variant including tie
//!   handling, plus the evaluated count;
//! * n-best rankings for every n (including 0 and over-long): order,
//!   truncation and tie-breaks;
//! * batch answers in input order with per-slot errors isolated;
//! * error values (`UnknownType` / `UndeclaredAttr`);
//! * the arithmetic operation counters (`distances`, `multiplies`,
//!   `additions`, `comparisons`) — the plane changes *where* the work
//!   happens, not how much arithmetic the datapath model performs. Only
//!   `search_steps` follows the plane cost model (one per constraint;
//!   see `docs/retrieval.md`), which is asserted exactly too.
//!
//! Mutations (retain / revise / evict through `CaseBase::apply_mutation`)
//! land mid-stream, so the harness also proves the stamp-driven
//! invalidation: the plane engine brings its plane up to date once per
//! observed generation change, recompiles one type plane per mutated type
//! and never serves a stale plane.

use rqfa::core::{
    AttrBinding, CaseBase, CaseMutation, FixedEngine, ImplId, ImplVariant, KernelPath,
    PlaneEngine, Request, TypeId,
};
use rqfa::workloads::rng::SmallRng;
use rqfa::workloads::{CaseGen, RequestGen};

const SEEDS: u64 = 10;
const OPS_PER_SEED: usize = 10_000;

/// Compares one request through every entry point of both engines — and
/// holds the pinned-scalar plane engine to the exact same answers as the
/// auto-path one (the wide kernel, where the host has it).
fn check_request(
    cb: &CaseBase,
    plane: &mut PlaneEngine,
    scalar: &mut PlaneEngine,
    request: &Request,
    n: usize,
) {
    let naive = FixedEngine::new();
    // Full score vectors + op model.
    let naive_scores = naive.score_all(cb, request);
    let plane_scores = plane.score_all(cb, request);
    match (&naive_scores, &plane_scores) {
        (Ok((ns, nops)), Ok((ps, pops))) => {
            assert_eq!(ns, ps, "score vectors must be bit-identical");
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
    // Winner (strict-> update rule incl. ties).
    match (naive.retrieve(cb, request), plane.retrieve(cb, request)) {
        (Ok(n), Ok(p)) => {
            assert_eq!(n.best, p.best, "winner must be bit-identical");
            assert_eq!(n.evaluated, p.evaluated);
        }
        (Err(ne), Err(pe)) => assert_eq!(ne, pe),
        other => panic!("retrieve diverged: {other:?}"),
    }
    // n-best ranking.
    match (
        naive.retrieve_n_best(cb, request, n),
        plane.retrieve_n_best(cb, request, n),
    ) {
        (Ok(nb), Ok(pb)) => {
            assert_eq!(nb.ranked, pb.ranked, "n-best (n = {n}) must match");
            assert_eq!(nb.evaluated, pb.evaluated);
        }
        (Err(ne), Err(pe)) => assert_eq!(ne, pe),
        other => panic!("n-best diverged: {other:?}"),
    }
    // Wide vs scalar: the pinned-scalar engine must agree with the auto
    // path on every entry point, ops included (path-independent model).
    match (plane_scores, scalar.score_all(cb, request)) {
        (Ok((ps, pops)), Ok((ss, sops))) => {
            assert_eq!(ps, ss, "scalar path must be bit-identical to wide");
            assert_eq!(pops, sops, "ops must be path-independent");
        }
        (Err(pe), Err(se)) => assert_eq!(pe, se),
        other => panic!("kernel paths diverged: {other:?}"),
    }
    match (plane.retrieve(cb, request), scalar.retrieve(cb, request)) {
        (Ok(p), Ok(s)) => {
            assert_eq!(p.best, s.best, "winner must be path-independent");
            assert_eq!(p.ops, s.ops);
        }
        (Err(pe), Err(se)) => assert_eq!(pe, se),
        other => panic!("retrieve paths diverged: {other:?}"),
    }
    match (
        plane.retrieve_n_best(cb, request, n),
        scalar.retrieve_n_best(cb, request, n),
    ) {
        (Ok(pb), Ok(sb)) => assert_eq!(pb.ranked, sb.ranked, "n-best paths (n = {n})"),
        (Err(pe), Err(se)) => assert_eq!(pe, se),
        other => panic!("n-best paths diverged: {other:?}"),
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
                    let n = rng.gen_range(0..=8usize);
                    check_request(&cb, &mut plane, &mut scalar, request, n);
                    ops += 1;
                }
                // Single-request comparison across all entry points.
                _ => {
                    let request = &pool[rng.gen_range(0..pool.len())];
                    let n = rng.gen_range(0..=8usize);
                    check_request(&cb, &mut plane, &mut scalar, request, n);
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
    let mut ranked = Vec::new();
    let pass = |plane: &mut PlaneEngine, out: &mut Vec<_>, ranked: &mut Vec<_>| {
        for chunk in pool.chunks(32) {
            let batch: Vec<&Request> = chunk.iter().collect();
            plane.retrieve_batch_into(&cb, &batch, out);
        }
        for request in &pool {
            plane.retrieve(&cb, request).unwrap();
            plane.retrieve_n_best_into(&cb, request, 4, ranked).unwrap();
        }
    };
    pass(&mut plane, &mut out, &mut ranked);
    let warm = plane.scratch_grows();
    pass(&mut plane, &mut out, &mut ranked);
    assert_eq!(
        plane.scratch_grows(),
        warm,
        "steady state must not grow the scratch arena"
    );
}
