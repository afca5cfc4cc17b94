//! Durable bring-up: turns a directory into per-shard stores.
//! `dir/MANIFEST` records the shard count and *which* shards hold
//! durable state; each of those owns a write-ahead log and snapshot pair
//! under `dir/shard-<i>/`.

use std::path::Path;

use rqfa_core::CaseBase;
use rqfa_persist::{
    encode_snapshot, DurableCaseBase, FileStore, PersistPolicy, RecoveryReport, Store, StoreSet,
};

use crate::error::ServiceError;
use crate::shard::{partition, ShardStore};

/// First line of the durable-state manifest file.
const MANIFEST_HEADER: &str = "rqfa-durable-service v1";
/// Manifest file name inside a durable-state directory.
const MANIFEST_FILE: &str = "MANIFEST";

/// Discards any previous durable state in `dir`, then seeds one durable
/// store per non-empty slice of `case_base` and writes the manifest.
/// A `case_base` that cannot be made durable is refused before `dir` is
/// touched.
pub(crate) fn create(
    case_base: &CaseBase,
    dir: &Path,
    shards: usize,
    snapshot_every: u64,
) -> Result<Vec<ShardStore>, ServiceError> {
    // Validate before destroying anything: a slice whose genesis snapshot
    // does not encode (the image outgrows the 16-bit address space) must
    // fail while the previous state in `dir` is still recoverable.
    let slices = partition(case_base, shards);
    for slice in slices.iter().flatten() {
        encode_snapshot(slice)?;
    }
    // Discard previous durable state up front: a stale `shard-<i>`
    // directory from an older layout would otherwise resurrect on
    // the next recover (e.g. a shard whose slice is empty now writes
    // nothing, so the old directory would win).
    if dir.is_dir() {
        let _ = std::fs::remove_file(dir.join(MANIFEST_FILE));
        let entries = std::fs::read_dir(dir)
            .map_err(|e| ServiceError::Manifest(format!("scan {}: {e}", dir.display())))?;
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with("shard-") {
                std::fs::remove_dir_all(entry.path()).map_err(|e| {
                    ServiceError::Manifest(format!("purge stale shard state: {e}"))
                })?;
            }
        }
    }
    let mut stores = Vec::with_capacity(slices.len());
    for (index, slice) in slices.into_iter().enumerate() {
        match slice {
            Some(cb) => {
                let set = StoreSet::in_dir(&dir.join(format!("shard-{index}")))?;
                let durable = DurableCaseBase::create(&cb, set, PersistPolicy { snapshot_every })?;
                stores.push(ShardStore::Durable(Box::new(durable)));
            }
            None => stores.push(ShardStore::Empty),
        }
    }
    // The manifest records *which* shards hold durable state, so a
    // lost shard directory is a loud recovery error, never a silent
    // empty shard. Written with the same durability discipline as
    // every other persistent file (atomic replace + fsync via
    // FileStore) — it is the one file recovery cannot do without.
    let durable_shards: Vec<String> = stores
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s, ShardStore::Durable(_)))
        .map(|(i, _)| i.to_string())
        .collect();
    let manifest = format!(
        "{MANIFEST_HEADER}\nshards={}\ndurable={}\n",
        stores.len(),
        durable_shards.join(",")
    );
    std::fs::create_dir_all(dir).map_err(|e| ServiceError::Manifest(e.to_string()))?;
    FileStore::new(dir.join(MANIFEST_FILE))
        .replace(manifest.as_bytes())
        .map_err(|e| ServiceError::Manifest(format!("write {MANIFEST_FILE}: {e}")))?;
    Ok(stores)
}

/// Reads the manifest and recovers every shard it lists as durable
/// (newest valid snapshot + WAL replay), one report per shard.
pub(crate) fn recover(
    dir: &Path,
    snapshot_every: u64,
) -> Result<(Vec<ShardStore>, Vec<Option<RecoveryReport>>), ServiceError> {
    let manifest = std::fs::read_to_string(dir.join(MANIFEST_FILE))
        .map_err(|e| ServiceError::Manifest(format!("read {MANIFEST_FILE}: {e}")))?;
    let mut lines = manifest.lines();
    if lines.next() != Some(MANIFEST_HEADER) {
        return Err(ServiceError::Manifest("unknown header".into()));
    }
    let shards: usize = lines
        .next()
        .and_then(|l| l.strip_prefix("shards="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| ServiceError::Manifest("missing shards= line".into()))?;
    if shards == 0 {
        return Err(ServiceError::Manifest("zero shards".into()));
    }
    let durable_set: Vec<usize> = match lines.next().and_then(|l| l.strip_prefix("durable=")) {
        Some("") => Vec::new(),
        Some(list) => list
            .split(',')
            .map(|n| {
                let index: usize = n
                    .parse()
                    .map_err(|_| ServiceError::Manifest(format!("bad durable index {n:?}")))?;
                if index >= shards {
                    return Err(ServiceError::Manifest(format!(
                        "durable index {index} out of range for {shards} shard(s)"
                    )));
                }
                Ok(index)
            })
            .collect::<Result<_, _>>()?,
        None => return Err(ServiceError::Manifest("missing durable= line".into())),
    };
    let mut stores = Vec::with_capacity(shards);
    let mut reports = Vec::with_capacity(shards);
    for index in 0..shards {
        if !durable_set.contains(&index) {
            stores.push(ShardStore::Empty);
            reports.push(None);
            continue;
        }
        let shard_dir = dir.join(format!("shard-{index}"));
        if !shard_dir.is_dir() {
            // Losing a shard's state must be a loud error, not a
            // silent UnknownType degradation for its types.
            return Err(ServiceError::Manifest(format!(
                "manifest lists shard-{index} as durable but its directory is missing"
            )));
        }
        let set = StoreSet::in_dir(&shard_dir)?;
        let (durable, report) = DurableCaseBase::recover(set, PersistPolicy { snapshot_every })?;
        stores.push(ShardStore::Durable(Box::new(durable)));
        reports.push(Some(report));
    }
    Ok((stores, reports))
}
