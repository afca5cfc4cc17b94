//! Experiment E12: memory-image integrity across the toolchain — encode,
//! validate, decode, and survive corruption without undefined behaviour in
//! any consumer (validator, decoder, hardware simulator, soft core).
//!
//! Two suites:
//!
//! * [`golden`] — always on: a seeded case base snapshotted to a
//!   checked-in `memlist` fixture, asserted byte-for-byte stable across
//!   encode/decode (and across the `rqfa-persist` snapshot container).
//!   Any change to the word layout or the generators breaks this suite
//!   *loudly* — which is the point: the on-disk format is a compatibility
//!   promise now that WALs and snapshots persist it.
//! * [`properties`] — seeded corruption drills on the property checker
//!   `rqfa::workloads::check`: a flipped word never panics a consumer,
//!   and an image the validator accepts always executes.

/// Golden-image byte-stability suite (fixture:
/// `tests/fixtures/seeded_case_base.memh`).
mod golden {
    use rqfa::core::CaseBase;
    use rqfa::memlist::{
        decode_case_base, encode_case_base, from_memh, to_memh, CaseBaseImage,
    };
    use rqfa::workloads::CaseGen;

    const FIXTURE: &str = include_str!("fixtures/seeded_case_base.memh");
    const FIXTURE_TITLE: &str = "golden seeded case base (CaseGen 4x3, seed 0x901D)";

    /// The seeded case base the fixture snapshots. The generator promises
    /// bit-identical output per seed across platforms, so this is stable.
    fn seeded_case_base() -> CaseBase {
        CaseGen::new(4, 3, 4, 5).seed(0x901D).build()
    }

    #[test]
    fn encoding_the_seeded_case_base_matches_the_checked_in_fixture() {
        let image = encode_case_base(&seeded_case_base()).unwrap();
        let text = to_memh(image.image(), FIXTURE_TITLE);
        assert_eq!(
            text, FIXTURE,
            "memlist encoding drifted from the golden fixture — if the \
             format change is intentional, regenerate with \
             `cargo test --test memimage -- --ignored regenerate`"
        );
    }

    #[test]
    fn fixture_decodes_and_reencodes_to_identical_bytes() {
        let image = from_memh(FIXTURE).unwrap();
        let decoded = decode_case_base(&CaseBaseImage::from_image(image.clone())).unwrap();
        let reencoded = encode_case_base(&decoded).unwrap();
        assert_eq!(
            reencoded.image().words(),
            image.words(),
            "decode → encode must be the identity on canonical images"
        );
    }

    #[test]
    fn fixture_matches_live_retrieval_bit_for_bit() {
        use rqfa::core::FixedEngine;
        use rqfa::workloads::RequestGen;
        let original = seeded_case_base();
        let image = from_memh(FIXTURE).unwrap();
        let decoded = decode_case_base(&CaseBaseImage::from_image(image)).unwrap();
        let engine = FixedEngine::new();
        for request in RequestGen::new(&original).seed(9).count(25).generate() {
            let a = engine.retrieve(&original, &request).unwrap().best.unwrap();
            let b = engine.retrieve(&decoded, &request).unwrap().best.unwrap();
            // The raw CB-MEM image carries no execution targets (the
            // persist snapshot container adds them as a sidecar section),
            // so compare the hardware-visible decision: winner + bits.
            assert_eq!((a.impl_id, a.similarity), (b.impl_id, b.similarity));
        }
    }

    #[test]
    fn persist_snapshot_container_roundtrips_byte_identically() {
        let cb = seeded_case_base();
        let bytes = rqfa::persist::encode_snapshot(&cb).unwrap();
        let snapshot = rqfa::persist::decode_snapshot(&bytes).unwrap();
        let reencoded = rqfa::persist::encode_snapshot(&snapshot.case_base).unwrap();
        assert_eq!(
            reencoded, bytes,
            "snapshot containers must be byte-stable across decode/encode"
        );
    }

    /// Deterministic multi-seed round trip: encode → validate → decode →
    /// bit-identical retrieval, across generated shapes.
    #[test]
    fn generated_images_validate_and_roundtrip() {
        use rqfa::core::FixedEngine;
        use rqfa::memlist::{validate_case_base, validate_request};
        use rqfa::memlist::{decode_request, encode_request};
        use rqfa::workloads::RequestGen;
        for seed in 0..10 {
            let case_base = CaseGen::new(5, 4, 6, 8).seed(seed).build();
            let image = encode_case_base(&case_base).unwrap();
            let summary = validate_case_base(&image).unwrap();
            assert_eq!(summary.types, 5);
            assert_eq!(summary.variants, 20);
            let decoded = decode_case_base(&image).unwrap();
            assert_eq!(decoded.variant_count(), case_base.variant_count());

            let requests = RequestGen::new(&case_base).seed(seed).count(3).generate();
            for request in &requests {
                let req_image = encode_request(request).unwrap();
                validate_request(&req_image, &image).unwrap();
                let back = decode_request(&req_image).unwrap();
                assert_eq!(back.fingerprint(), request.fingerprint());

                // Retrieval over the decoded case base is bit-identical.
                let engine = FixedEngine::new();
                let a = engine.retrieve(&case_base, request).unwrap().best.unwrap();
                let b = engine.retrieve(&decoded, request).unwrap().best.unwrap();
                assert_eq!((a.impl_id, a.similarity), (b.impl_id, b.similarity));
            }
        }
    }

    /// Maintenance hook, not a test of record: regenerates the fixture
    /// after an *intentional* format change.
    /// `cargo test --test memimage -- --ignored regenerate`
    #[test]
    #[ignore = "maintenance hook: rewrites the golden fixture"]
    fn regenerate_golden_fixture() {
        let image = encode_case_base(&seeded_case_base()).unwrap();
        let text = to_memh(image.image(), FIXTURE_TITLE);
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/seeded_case_base.memh"
        );
        std::fs::write(path, text).unwrap();
    }
}

/// Seeded corruption drills over generated images.
mod properties {
    use rqfa::hwsim::{RetrievalUnit, UnitConfig};
    use rqfa::memlist::{
        decode_case_base, encode_case_base, encode_request, validate_case_base, CaseBaseImage,
        MemImage,
    };
    use rqfa::softcore::{run_retrieval, CpuCostModel};
    use rqfa::workloads::check::check;
    use rqfa::workloads::{CaseGen, RequestGen};

    const CASES: u32 = 48;

    /// Corrupted images never panic any consumer: they either still parse
    /// (benign flip) or fail with a structured error.
    #[test]
    fn corruption_is_contained() {
        check("corruption_is_contained", CASES, |rng| {
            let seed = rng.gen_range(0u64..1000);
            let (word, flip) = (rng.gen_range(0..4096usize), rng.gen_range(1..=u16::MAX));
            let case_base = CaseGen::new(3, 3, 4, 5).seed(seed).build();
            let image = encode_case_base(&case_base).unwrap();
            let request = &RequestGen::new(&case_base).seed(seed).count(1).generate()[0];
            let req_image = encode_request(request).unwrap();

            let mut words = image.image().words().to_vec();
            let idx = word % words.len();
            words[idx] ^= flip;
            let corrupted = CaseBaseImage::from_image(MemImage::from_words(words).unwrap());

            // Validator: Ok or Err, never panic.
            let _ = validate_case_base(&corrupted);
            // Decoder: same.
            let _ = decode_case_base(&corrupted);
            // Hardware simulator: runs to a result or faults cleanly
            // (including the watchdog for scan loops).
            if let Ok(mut unit) = RetrievalUnit::new(&corrupted, UnitConfig::default()) {
                let _ = unit.retrieve(&req_image);
            }
            // Soft core: same containment.
            let _ = run_retrieval(&corrupted, &req_image, CpuCostModel::default());
        });
    }

    /// When the validator accepts an image, the hardware simulator must
    /// complete without memory faults (validation soundness).
    #[test]
    fn validated_images_execute() {
        check("validated_images_execute", CASES, |rng| {
            let seed = rng.gen_range(0u64..500);
            let case_base = CaseGen::new(2, 4, 3, 4).seed(seed).build();
            let image = encode_case_base(&case_base).unwrap();
            assert!(validate_case_base(&image).is_ok());
            let request = &RequestGen::new(&case_base).seed(seed).count(1).generate()[0];
            let req_image = encode_request(request).unwrap();
            let mut unit = RetrievalUnit::new(&image, UnitConfig::default()).unwrap();
            let result = unit.retrieve(&req_image);
            assert!(result.is_ok(), "validated image faulted: {result:?}");
        });
    }
}
