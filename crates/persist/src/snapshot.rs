//! Full case-base snapshots as `memlist` memory images.
//!
//! A snapshot is the canonical CB-MEM image produced by
//! [`rqfa_memlist::encode_case_base`] — the exact word layout the
//! hardware retrieval unit consumes (fig. 4/5) — in a [`seal`]ed
//! envelope that additionally records the case-base generation and the
//! per-variant execution targets (which the hardware layout does not
//! carry, but [`Scored`](rqfa_core::Scored) results do). Its words are
//! written and read by `rqfa_memlist`'s one little-endian codec
//! ([`WordSink`], [`LeWords`]):
//!
//! ```text
//! offset     size  field
//! 0          2     magic           0xCB55, little-endian
//! 2          8     generation      u64 LE
//! 10         4     image words     m (u32 LE)
//! 14         2m    CB-MEM image    m × u16 LE words
//! 14+2m      4     target words    t (u32 LE) — one per variant
//! 18+2m      2t    targets         variants in tree order
//! 18+2m+2t   4     crc32           over bytes [2, 18+2m+2t)
//! ```
//!
//! Like `rqfa_memlist::decode_case_base`, restoring a snapshot regenerates
//! type names (`"type-<id>"`) and zeroes resource footprints — neither is
//! part of the persisted state, and neither influences retrieval results.

use std::convert::Infallible;

use rqfa_core::{CaseBase, ExecutionTarget, FunctionType, Generation, ImplVariant};
use rqfa_memlist::{
    decode_case_base, encode_case_base, CaseBaseImage, LeWords, MemImage, WordSink,
};

use crate::crc::{open, seal, Unsealed};
use crate::error::PersistError;
use crate::store::Store;

/// The snapshot magic word.
pub const SNAPSHOT_MAGIC: u16 = 0xCB55;

/// A restored snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The restored case base, generation already set to
    /// [`Snapshot::generation`].
    pub case_base: CaseBase,
    /// The generation the snapshot captured.
    pub generation: Generation,
}

fn corrupt(reason: &'static str) -> PersistError {
    PersistError::CorruptSnapshot { reason }
}

/// Serializes a case base into snapshot container bytes.
///
/// # Errors
///
/// [`PersistError::Mem`] if the case base does not fit a 16-bit-addressed
/// memory image.
pub fn encode_snapshot(case_base: &CaseBase) -> Result<Vec<u8>, PersistError> {
    let image = encode_case_base(case_base)?;
    let image_words = image.image().words();
    let variants = || {
        case_base
            .function_types()
            .iter()
            .flat_map(FunctionType::variants)
    };
    let targets = variants().count();

    let mut out = Vec::with_capacity(2 + 8 + 4 + image_words.len() * 2 + 4 + targets * 2 + 4);
    let Ok(()) = seal(&mut out, SNAPSHOT_MAGIC, |body| {
        body.extend_from_slice(&case_base.generation().raw().to_le_bytes());
        body.extend_from_slice(&(image_words.len() as u32).to_le_bytes());
        body.put_words(image_words);
        body.extend_from_slice(&(targets as u32).to_le_bytes());
        variants().for_each(|v| body.put_word(v.target().word()));
        Ok::<_, Infallible>(())
    });
    Ok(out)
}

/// Restores a case base from snapshot container bytes.
///
/// # Errors
///
/// [`PersistError::CorruptSnapshot`] for any structural defect (short
/// buffer, bad magic, CRC mismatch, inconsistent counts), and decoding
/// errors from `rqfa-memlist` / `rqfa-core` if the embedded image is
/// malformed despite a clean CRC (possible only for images that were
/// invalid when written).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    if bytes.len() < 2 + 8 + 4 + 4 + 4 {
        return Err(corrupt("short container"));
    }
    let body = open(bytes, SNAPSHOT_MAGIC).map_err(|unsealed| match unsealed {
        Unsealed::Short => corrupt("short container"),
        Unsealed::BadMagic { .. } => corrupt("bad magic"),
        Unsealed::BadCrc { .. } => corrupt("crc mismatch"),
    })?;
    let generation = Generation::from_raw(u64::from_le_bytes(
        body[..8].try_into().expect("8 bytes"),
    ));
    let image_words = u32::from_le_bytes(body[8..12].try_into().expect("4 bytes")) as usize;
    let image_end = 12 + image_words * 2;
    if body.len() < image_end + 4 {
        return Err(corrupt("image section overruns container"));
    }
    let words = |section: &[u8]| LeWords::new(section).expect("an even span").to_words();
    let image = MemImage::from_words(words(&body[12..image_end]))?;
    let target_words =
        u32::from_le_bytes(body[image_end..image_end + 4].try_into().expect("4 bytes")) as usize;
    let targets_end = image_end + 4 + target_words * 2;
    if body.len() != targets_end {
        return Err(corrupt("target section size mismatch"));
    }
    let targets = words(&body[image_end + 4..targets_end]);

    let decoded = decode_case_base(&CaseBaseImage::from_image(image))?;
    if decoded.variant_count() != targets.len() {
        return Err(corrupt("one target word per variant required"));
    }

    // Re-dress the decoded tree with the persisted execution targets.
    let bounds = decoded.bounds().clone();
    let mut target_iter = targets.iter();
    let mut types = Vec::with_capacity(decoded.type_count());
    for ty in decoded.function_types() {
        let mut variants = Vec::with_capacity(ty.variant_count());
        for variant in ty.variants() {
            let word = *target_iter.next().expect("counts checked above");
            let target =
                ExecutionTarget::from_word(word).ok_or(corrupt("unknown execution target word"))?;
            variants.push(
                ImplVariant::new(variant.id(), target, variant.attrs().to_vec())
                    .map_err(PersistError::Core)?,
            );
        }
        types.push(
            FunctionType::new(ty.id(), ty.name(), variants).map_err(PersistError::Core)?,
        );
    }
    let mut case_base = CaseBase::new(bounds, types).map_err(PersistError::Core)?;
    case_base.restore_generation(generation);
    Ok(Snapshot {
        case_base,
        generation,
    })
}

/// Writes a snapshot of `case_base` into `store` (atomic replace).
///
/// # Errors
///
/// Encoding errors as in [`encode_snapshot`]; store failures leave the
/// previous snapshot intact (atomicity contract of [`Store::replace`]).
pub fn write_snapshot<S: Store>(store: &mut S, case_base: &CaseBase) -> Result<(), PersistError> {
    let bytes = encode_snapshot(case_base)?;
    store.replace(&bytes)
}

/// Reads the snapshot in `store`, if any.
///
/// Returns `Ok(None)` for an empty (never-written) store.
///
/// # Errors
///
/// [`PersistError::CorruptSnapshot`] for a non-empty store whose content
/// does not decode — recovery treats such a slot as unusable and falls
/// back to the other slot.
pub fn read_snapshot<S: Store>(store: &S) -> Result<Option<Snapshot>, PersistError> {
    let bytes = store.read_all()?;
    if bytes.is_empty() {
        return Ok(None);
    }
    decode_snapshot(&bytes).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;
    use rqfa_core::{paper, CaseMutation, ExecutionTarget, FixedEngine};

    #[test]
    fn snapshot_roundtrip_preserves_retrieval_and_targets() {
        let mut cb = paper::table1_case_base();
        // Advance the generation so the stamp is non-trivial.
        cb.apply_mutation(&CaseMutation::Evict {
            type_id: paper::FIR_EQUALIZER,
            impl_id: paper::IMPL_GP,
        })
        .unwrap();
        let mut store = MemStore::new();
        write_snapshot(&mut store, &cb).unwrap();
        let snap = read_snapshot(&store).unwrap().unwrap();
        assert_eq!(snap.generation, cb.generation());
        assert_eq!(snap.case_base.generation(), cb.generation());
        assert_eq!(snap.case_base.variant_count(), cb.variant_count());

        let request = paper::table1_request().unwrap();
        let engine = FixedEngine::new();
        let a = engine.retrieve(&cb, &request).unwrap().best.unwrap();
        let b = engine.retrieve(&snap.case_base, &request).unwrap().best.unwrap();
        assert_eq!(a.impl_id, b.impl_id);
        assert_eq!(a.similarity, b.similarity);
        assert_eq!(a.target, b.target, "targets survive via the sidecar section");
        assert_eq!(a.target, ExecutionTarget::Dsp);
    }

    #[test]
    fn empty_store_reads_as_no_snapshot() {
        assert_eq!(read_snapshot(&MemStore::new()).unwrap(), None);
    }

    #[test]
    fn every_truncation_is_detected() {
        let bytes = encode_snapshot(&paper::table1_case_base()).unwrap();
        for keep in 0..bytes.len() {
            let store = MemStore::from_bytes(bytes[..keep].to_vec());
            match read_snapshot(&store) {
                Ok(None) => assert_eq!(keep, 0, "only the empty store is None"),
                Ok(Some(_)) => panic!("truncated snapshot ({keep} bytes) accepted"),
                Err(PersistError::CorruptSnapshot { .. }) => {}
                Err(other) => panic!("unexpected error kind: {other}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_snapshot(&paper::table1_case_base()).unwrap();
        for byte in (0..bytes.len()).step_by(7) {
            for bit in 0..8u8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_snapshot(&bad).is_err(),
                    "flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    /// Table 1's case base plus a dedicated-hardware variant: every
    /// execution-target kind, at generation 1.
    fn every_target_kind() -> CaseBase {
        let mut cb = paper::table1_case_base();
        cb.apply_mutation(&CaseMutation::Retain {
            type_id: paper::FIR_EQUALIZER,
            variant: ImplVariant::new(
                rqfa_core::ImplId::new(9).unwrap(),
                ExecutionTarget::Dedicated(7),
                vec![
                    rqfa_core::AttrBinding::new(paper::ATTR_BITWIDTH, 12),
                    rqfa_core::AttrBinding::new(paper::ATTR_RATE, 30),
                ],
            )
            .unwrap(),
        })
        .unwrap();
        cb
    }

    // The container as snapshots have always been written: recovery
    // reads slots written by every earlier build, so these bytes never
    // change.
    const SNAPSHOT: &[u8] = &[
        0x55, 0xcb, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x54, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x13, 0x00, 0x01, 0x00, 0x08, 0x00, 0x10, 0x00,
        0x39, 0x0e, 0x02, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x40, 0x03, 0x00,
        0x00, 0x00, 0x02, 0x00, 0xab, 0x2a, 0x04, 0x00, 0x08, 0x00, 0x2c, 0x00,
        0x76, 0x03, 0xff, 0xff, 0x01, 0x00, 0x18, 0x00, 0x02, 0x00, 0x21, 0x00,
        0xff, 0xff, 0x01, 0x00, 0x26, 0x00, 0x02, 0x00, 0x2f, 0x00, 0x03, 0x00,
        0x38, 0x00, 0x09, 0x00, 0x41, 0x00, 0xff, 0xff, 0x01, 0x00, 0x46, 0x00,
        0x02, 0x00, 0x4d, 0x00, 0xff, 0xff, 0x01, 0x00, 0x10, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x03, 0x00, 0x02, 0x00, 0x04, 0x00, 0x2c, 0x00, 0xff, 0xff,
        0x01, 0x00, 0x10, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x01, 0x00,
        0x04, 0x00, 0x2c, 0x00, 0xff, 0xff, 0x01, 0x00, 0x08, 0x00, 0x02, 0x00,
        0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x04, 0x00, 0x16, 0x00, 0xff, 0xff,
        0x01, 0x00, 0x0c, 0x00, 0x04, 0x00, 0x1e, 0x00, 0xff, 0xff, 0x01, 0x00,
        0x10, 0x00, 0x02, 0x00, 0x00, 0x00, 0x04, 0x00, 0x2c, 0x00, 0xff, 0xff,
        0x01, 0x00, 0x10, 0x00, 0x02, 0x00, 0x01, 0x00, 0x04, 0x00, 0x16, 0x00,
        0xff, 0xff, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00,
        0x07, 0x01, 0x00, 0x00, 0x02, 0x00, 0xd0, 0x1c, 0x1e, 0x83,
    ];

    #[test]
    fn a_base_of_every_target_kind_is_its_golden_container() {
        let cb = every_target_kind();
        assert_eq!(encode_snapshot(&cb).unwrap(), SNAPSHOT);
        let snap = decode_snapshot(SNAPSHOT).unwrap();
        assert_eq!(snap.generation, Generation::from_raw(1));
        let targets = |cb: &CaseBase| -> Vec<ExecutionTarget> {
            cb.function_types()
                .iter()
                .flat_map(FunctionType::variants)
                .map(ImplVariant::target)
                .collect()
        };
        assert_eq!(targets(&snap.case_base), targets(&cb));
        for kind in [
            ExecutionTarget::Fpga,
            ExecutionTarget::Dsp,
            ExecutionTarget::GpProcessor,
            ExecutionTarget::Dedicated(7),
        ] {
            assert!(targets(&cb).contains(&kind), "{kind:?}");
        }
        assert_eq!(encode_snapshot(&snap.case_base).unwrap(), SNAPSHOT);
    }
}
