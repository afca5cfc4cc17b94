//! Storage media behind the WAL and snapshot codecs.
//!
//! The persistence layer is generic over a byte-level [`Store`] so the
//! crash-recovery test harness can operate on the exact same code paths
//! production uses:
//!
//! * [`FileStore`] — a file on disk. Full replacements are atomic
//!   (`write to temp` + `rename`); appends go **in place** through one
//!   kept read-write handle into a reserve of real zeros behind the
//!   content (see below).
//! * [`MemStore`] — an in-memory medium, for tests and benches; it
//!   appends in place at its content end too, so bytes handed to
//!   [`MemStore::from_bytes`] may carry a zero reserve like a file does.
//! * [`FailingStore`] — a decorator that lets a test *tear* a write: it
//!   forwards writes until an injected budget is exhausted, persists
//!   only part of the write that crossed the budget — a byte prefix, or
//!   any subset of the 512-byte sectors the write touches — and fails
//!   every operation afterwards. Recovering from the bytes it did
//!   persist is exactly recovering from a machine that lost power
//!   mid-`write()`.
//!
//! ## Content and reserve
//!
//! A medium is *content* followed by a *reserve* that reads all zero.
//! [`Store::len`] and [`Store::read_all`] speak of the content; only an
//! append touches the reserve, by turning its first bytes into content.
//! A [`FileStore`] grows the reserve lazily: the append that does not
//! fit carries a chunk of zeros behind its own bytes in the same write,
//! and its own `fdatasync` commits the new file size. Every append up to
//! the next growth then overwrites allocated, already-written blocks and
//! changes no metadata, so its `fdatasync` flushes a data block and
//! nothing else — no filesystem journal commit, no `stat`, `open` or
//! `close`. [`Store::replace`] writes the content byte-exact and no
//! reserve, so snapshot slots and manifests are what they always were.
//!
//! Where the content ends is **found, not stored**: a store opened over
//! existing bytes takes all of them for content until its owner says
//! otherwise ([`Store::mark_end`]). The log's owner does — a scan stops
//! at the first bytes that are no clean frame, and zeros never are one
//! (see [`Wal::replay`](crate::Wal::replay)).
//!
//! ## Atomicity contract
//!
//! [`Store::append`] may tear: a crash can leave the medium's old bytes
//! — the reserve's zeros — in any subset of the 512-byte sectors the
//! write touches, a byte prefix being the special case "the first *k*
//! sectors". [`Store::replace`] is all-or-nothing: it either installs
//! the full new content or leaves the old content intact (file stores
//! get this from `rename(2)`; [`FailingStore`] models it by refusing the
//! whole replacement when the budget does not cover it). The WAL format
//! is designed around exactly this contract — whatever a torn append
//! left behind the clean frames is detected and scrubbed, while
//! compaction and snapshot promotion rely on atomic replacement.

use std::fs;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::PersistError;

/// The unit in which an in-place write reaches a medium: each aligned
/// sector the write touches lands whole or not at all, in any order.
pub const SECTOR_BYTES: u64 = 512;

/// Zeros a [`FileStore`] append puts behind the file when it does not
/// fit: the file's size is the next multiple of this past the append.
const RESERVE_CHUNK: u64 = 8 * 1024;

/// A byte-addressed, append-plus-replace storage medium: content,
/// followed by a reserve that reads all zero (possibly empty).
pub trait Store {
    /// Reads the entire content. A store that was never written is empty.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on operating-system failures.
    fn read_all(&self) -> Result<Vec<u8>, PersistError>;

    /// Writes `bytes` at the content end, making them content. May tear
    /// on a crash (any sector subset of the write persisted). After an
    /// error the bytes behind the content end are unknown: the owner
    /// rewrites the content ([`Store::replace`]) before it appends again.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on OS failures, [`PersistError::Crashed`] from
    /// a [`FailingStore`] whose budget ran out.
    fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError>;

    /// Atomically replaces the entire medium with exactly `bytes`
    /// (all-or-nothing, no reserve).
    ///
    /// # Errors
    ///
    /// As for [`Store::append`]; on error the previous content survives.
    fn replace(&mut self, bytes: &[u8]) -> Result<(), PersistError>;

    /// Current content length in bytes.
    ///
    /// # Errors
    ///
    /// [`PersistError::Io`] on OS failures.
    fn len(&self) -> Result<u64, PersistError>;

    /// Tells a store opened over existing bytes that its content ends at
    /// `len`. The caller vouches that every byte behind `len` is zero:
    /// the next append lands there.
    fn mark_end(&mut self, len: u64);

    /// Appends so far that had to enlarge the medium — on a file, the
    /// ones whose flush also committed a new size.
    fn reserve_grows(&self) -> u64 {
        0
    }

    /// Whether the store holds no content.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Store::len`].
    fn is_empty(&self) -> Result<bool, PersistError> {
        Ok(self.len()? == 0)
    }
}

/// An in-memory store (tests, benches, recovery drills).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStore {
    bytes: Vec<u8>,
    /// Content end; `bytes[end..]` is the reserve.
    end: usize,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> MemStore {
        MemStore::default()
    }

    /// Wraps captured bytes (e.g. the surviving media of a crashed run).
    /// All of them count as content until [`Store::mark_end`] says less.
    pub fn from_bytes(bytes: Vec<u8>) -> MemStore {
        let end = bytes.len();
        MemStore { bytes, end }
    }

    /// The raw medium, reserve included.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the store, returning the raw medium.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Drops all bytes after `keep` — the test harness's "power was cut
    /// after byte `keep` reached the platter" primitive.
    pub fn truncate(&mut self, keep: usize) {
        self.bytes.truncate(keep);
        self.end = self.end.min(keep);
    }
}

impl Store for MemStore {
    fn read_all(&self) -> Result<Vec<u8>, PersistError> {
        Ok(self.bytes[..self.end].to_vec())
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let stop = self.end + bytes.len();
        if self.bytes.len() < stop {
            self.bytes.resize(stop, 0);
        }
        self.bytes[self.end..stop].copy_from_slice(bytes);
        self.end = stop;
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        *self = MemStore::from_bytes(bytes.to_vec());
        Ok(())
    }

    fn len(&self) -> Result<u64, PersistError> {
        Ok(self.end as u64)
    }

    fn mark_end(&mut self, len: u64) {
        self.end = usize::try_from(len).unwrap_or(usize::MAX).min(self.bytes.len());
    }
}

/// A file-backed store. The file is created lazily on first write; a
/// missing file reads as empty.
///
/// The first append opens the file read-write and keeps the handle;
/// [`Store::replace`] renames a new file into place and drops it. A
/// store over a file that already exists takes the whole file for
/// content until [`Store::mark_end`] — appending to a log that carries a
/// reserve without scanning it first would land behind the zeros.
#[derive(Debug)]
pub struct FileStore {
    path: PathBuf,
    /// Where the content ends, once an append, a replace or the owner's
    /// scan has established it; until then it is the file's size.
    end: Option<u64>,
    /// The kept handle and the file's size behind it.
    open: Option<(fs::File, u64)>,
    grows: u64,
}

impl FileStore {
    /// A store over `path` (the file need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> FileStore {
        FileStore {
            path: path.into(),
            end: None,
            open: None,
            grows: 0,
        }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn io(op: &'static str, err: &std::io::Error) -> PersistError {
        PersistError::Io {
            op,
            message: err.to_string(),
        }
    }

    /// Fsyncs the parent directory so a rename / file creation survives
    /// power loss (on ext4-family filesystems the rename itself is only
    /// durable once the directory is). Best-effort no-op where
    /// directories cannot be opened as files (non-unix).
    fn sync_dir(&self) -> Result<(), PersistError> {
        #[cfg(unix)]
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::File::open(parent)
                    .and_then(|dir| dir.sync_all())
                    .map_err(|e| FileStore::io("dir-sync", &e))?;
            }
        }
        Ok(())
    }
}

impl Store for FileStore {
    fn read_all(&self) -> Result<Vec<u8>, PersistError> {
        let mut bytes = Vec::new();
        let read = fs::File::open(&self.path).and_then(|mut file| match self.end {
            Some(end) => file.take(end).read_to_end(&mut bytes),
            None => file.read_to_end(&mut bytes),
        });
        match read {
            Ok(_) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(FileStore::io("read", &e)),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.open.is_none() {
            let fresh_file = !self.path.exists();
            let file = fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(&self.path)
                .map_err(|e| FileStore::io("append-open", &e))?;
            if fresh_file {
                // The file's directory entry must be durable too.
                self.sync_dir()?;
            }
            let size = file
                .metadata()
                .map_err(|e| FileStore::io("append-open", &e))?
                .len();
            self.open = Some((file, size));
        }
        let (file, size) = self.open.as_mut().expect("opened above");
        let end = *self.end.get_or_insert(*size);
        let stop = end + bytes.len() as u64;
        let grown = (stop > *size).then(|| stop.next_multiple_of(RESERVE_CHUNK));
        file.seek(SeekFrom::Start(end))
            .map_err(|e| FileStore::io("append-seek", &e))?;
        let wrote = match grown {
            // The common case: allocated, zero-filled blocks are
            // overwritten and the flush below has no metadata to commit.
            None => file.write_all(bytes),
            // One write carries the frame and the zeros behind it, so
            // the frame's own flush commits the new size. Real zeros,
            // not `set_len`: a hole would make every later append
            // allocate, which is the journal commit this avoids.
            Some(new_size) => {
                let mut padded = bytes.to_vec();
                padded.resize((new_size - end) as usize, 0);
                file.write_all(&padded)
            }
        };
        wrote.map_err(|e| FileStore::io("append", &e))?;
        file.sync_data()
            .map_err(|e| FileStore::io("append-sync", &e))?;
        self.end = Some(stop);
        if let Some(new_size) = grown {
            *size = new_size;
            self.grows += 1;
        }
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        let mut tmp = self.path.clone();
        tmp.set_extension("tmp");
        let install = || {
            let mut file =
                fs::File::create(&tmp).map_err(|e| FileStore::io("replace-create", &e))?;
            file.write_all(bytes)
                .map_err(|e| FileStore::io("replace-write", &e))?;
            file.sync_data()
                .map_err(|e| FileStore::io("replace-sync", &e))?;
            fs::rename(&tmp, &self.path).map_err(|e| FileStore::io("replace-rename", &e))
        };
        if let Err(e) = install() {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // The kept handle is the file the rename just unlinked.
        self.open = None;
        self.end = Some(bytes.len() as u64);
        // The rename is only crash-durable once the directory is synced.
        self.sync_dir()
    }

    fn len(&self) -> Result<u64, PersistError> {
        if let Some(end) = self.end {
            return Ok(end);
        }
        match fs::metadata(&self.path) {
            Ok(meta) => Ok(meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(FileStore::io("stat", &e)),
        }
    }

    fn mark_end(&mut self, len: u64) {
        self.end = Some(len);
    }

    fn reserve_grows(&self) -> u64 {
        self.grows
    }
}

/// Crash-injection decorator: persists writes only up to a byte budget,
/// tearing the write that crosses it.
///
/// * `append` that fits the budget → forwarded whole.
/// * `append` that crosses the budget → torn, then the store is
///   *crashed*: this call and every later write fail with
///   [`PersistError::Crashed`]. [`FailingStore::new`] tears by prefix:
///   only the first `remaining` bytes reach the inner store.
///   [`FailingStore::tearing_sectors`] tears the way an in-place write
///   can: of the [`SECTOR_BYTES`]-sized sectors of the medium the write
///   touches, a chosen subset lands and the others keep the reserve's
///   zeros — so an intact frame can sit behind a hole.
/// * `replace` is atomic by contract, so crossing the budget forwards
///   *nothing* — the old content survives, and the store crashes.
///
/// Reads keep working after the crash so a test can hand the surviving
/// bytes to recovery.
///
/// ```
/// use rqfa_persist::{FailingStore, MemStore, PersistError, Store};
///
/// let mut store = FailingStore::new(MemStore::new(), 5);
/// store.append(b"abc").unwrap();                   // 3 of 5 budget
/// let torn = store.append(b"defgh");               // crosses: 2 bytes land
/// assert!(matches!(torn, Err(PersistError::Crashed { written: 2 })));
/// assert_eq!(store.into_inner().bytes(), b"abcde");
/// ```
#[derive(Debug, Clone)]
pub struct FailingStore<S> {
    inner: S,
    remaining: u64,
    crashed: bool,
    /// Bit `i` set: the `i`-th sector the crossing write touches lands.
    /// `None` tears by byte prefix instead.
    landing: Option<u64>,
}

impl<S: Store> FailingStore<S> {
    /// Wraps `inner`, allowing `budget` more bytes to be written; the
    /// write that crosses the budget keeps its first `remaining` bytes.
    pub fn new(inner: S, budget: u64) -> FailingStore<S> {
        FailingStore {
            inner,
            remaining: budget,
            crashed: false,
            landing: None,
        }
    }

    /// Like [`FailingStore::new`], but the write that crosses the budget
    /// lands by sector subset: bit `i` of `landing` decides the `i`-th
    /// sector of the medium the write touches (sectors are aligned to
    /// the medium, not to the write). What does not land reads zero.
    pub fn tearing_sectors(inner: S, budget: u64, landing: u64) -> FailingStore<S> {
        FailingStore {
            landing: Some(landing),
            ..FailingStore::new(inner, budget)
        }
    }

    /// Whether the injected crash has happened.
    pub fn has_crashed(&self) -> bool {
        self.crashed
    }

    /// Unwraps the surviving medium (what a machine would find on disk
    /// after the crash).
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: Store> Store for FailingStore<S> {
    fn read_all(&self) -> Result<Vec<u8>, PersistError> {
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.crashed {
            return Err(PersistError::Crashed { written: 0 });
        }
        let len = bytes.len() as u64;
        if len <= self.remaining {
            self.remaining -= len;
            return self.inner.append(bytes);
        }
        // Tear: persist exactly what the model says survives.
        let (survivors, written) = match self.landing {
            None => {
                let keep = usize::try_from(self.remaining).unwrap_or(usize::MAX);
                (bytes[..keep].to_vec(), self.remaining)
            }
            Some(landing) => {
                let start = self.inner.len()?;
                let mut torn = bytes.to_vec();
                let mut written = 0;
                for (byte, at) in torn.iter_mut().zip(0u64..) {
                    let sector = (start + at) / SECTOR_BYTES - start / SECTOR_BYTES;
                    if sector < 64 && landing >> sector & 1 == 1 {
                        written += 1;
                    } else {
                        *byte = 0;
                    }
                }
                (torn, written)
            }
        };
        self.crashed = true;
        self.remaining = 0;
        if written > 0 {
            self.inner.append(&survivors)?;
        }
        Err(PersistError::Crashed { written })
    }

    fn replace(&mut self, bytes: &[u8]) -> Result<(), PersistError> {
        if self.crashed {
            return Err(PersistError::Crashed { written: 0 });
        }
        let len = bytes.len() as u64;
        if len <= self.remaining {
            self.remaining -= len;
            return self.inner.replace(bytes);
        }
        // Atomic contract: nothing of the new content lands.
        self.crashed = true;
        self.remaining = 0;
        Err(PersistError::Crashed { written: 0 })
    }

    fn len(&self) -> Result<u64, PersistError> {
        self.inner.len()
    }

    fn mark_end(&mut self, len: u64) {
        self.inner.mark_end(len);
    }

    fn reserve_grows(&self) -> u64 {
        self.inner.reserve_grows()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_store_append_and_replace() {
        let mut s = MemStore::new();
        assert!(s.is_empty().unwrap());
        s.append(b"ab").unwrap();
        s.append(b"cd").unwrap();
        assert_eq!(s.read_all().unwrap(), b"abcd");
        s.replace(b"xy").unwrap();
        assert_eq!(s.read_all().unwrap(), b"xy");
        assert_eq!(s.len().unwrap(), 2);
        s.truncate(1);
        assert_eq!(s.clone().into_bytes(), b"x");
    }

    #[test]
    fn mem_store_appends_in_place_into_a_marked_reserve() {
        let mut s = MemStore::from_bytes(b"ab\0\0\0".to_vec());
        assert_eq!(s.len().unwrap(), 5, "unmarked: every byte is content");
        s.mark_end(2);
        assert_eq!(s.read_all().unwrap(), b"ab");
        s.append(b"cd").unwrap();
        assert_eq!(s.read_all().unwrap(), b"abcd");
        assert_eq!(s.bytes(), b"abcd\0", "the reserve shrank, the medium did not grow");
        s.append(b"efg").unwrap();
        assert_eq!(s.bytes(), b"abcdefg", "an append past the reserve extends the medium");
    }

    #[test]
    fn failing_store_tears_at_exact_byte() {
        let mut s = FailingStore::new(MemStore::new(), 4);
        s.append(b"ab").unwrap();
        let err = s.append(b"cdef").unwrap_err();
        assert_eq!(err, PersistError::Crashed { written: 2 });
        assert!(s.has_crashed());
        // Everything after the crash fails, reads still work.
        assert!(s.append(b"x").is_err());
        assert_eq!(s.read_all().unwrap(), b"abcd");
        assert_eq!(s.into_inner().bytes(), b"abcd");
    }

    #[test]
    fn failing_store_tears_by_sector_subset_of_the_medium() {
        // 500 bytes of content, then a 600-byte write: it touches the
        // medium's sectors 0 (12 bytes), 1 (512 bytes) and 2 (76 bytes).
        let content = vec![7u8; 500];
        let write = vec![9u8; 600];
        for landing in 0..8u64 {
            let mut s = FailingStore::tearing_sectors(MemStore::from_bytes(content.clone()), 0, landing);
            assert!(matches!(s.append(&write), Err(PersistError::Crashed { .. })));
            let medium = s.into_inner().into_bytes();
            assert_eq!(&medium[..500], &content[..], "landing {landing:03b}");
            let expect = |mut range: std::ops::Range<usize>, bit: u64| {
                let want = if landing >> bit & 1 == 1 { 9 } else { 0 };
                range.all(|at| medium.get(at).copied().unwrap_or(0) == want)
            };
            assert!(expect(500..512, 0), "landing {landing:03b}: sector 0");
            assert!(expect(512..1024, 1), "landing {landing:03b}: sector 1");
            assert!(expect(1024..1100, 2), "landing {landing:03b}: sector 2");
        }
    }

    #[test]
    fn failing_store_replace_is_all_or_nothing() {
        let mut s = FailingStore::new(MemStore::from_bytes(b"old".to_vec()), 2);
        let err = s.replace(b"new content").unwrap_err();
        assert_eq!(err, PersistError::Crashed { written: 0 });
        assert_eq!(s.read_all().unwrap(), b"old", "old content survives");
    }

    #[test]
    fn failing_store_zero_budget_crashes_first_write() {
        let mut s = FailingStore::new(MemStore::new(), 0);
        assert!(matches!(
            s.append(b"a"),
            Err(PersistError::Crashed { written: 0 })
        ));
        assert!(s.into_inner().bytes().is_empty());
    }

    /// A fresh directory for one test (tests run on parallel threads).
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "rqfa-persist-store-{name}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_store_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "rqfa-persist-store-test-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.log");
        let mut s = FileStore::new(&path);
        assert!(s.is_empty().unwrap(), "missing file reads as empty");
        s.append(b"one").unwrap();
        s.append(b"two").unwrap();
        assert_eq!(s.read_all().unwrap(), b"onetwo");
        s.replace(b"reset").unwrap();
        assert_eq!(s.read_all().unwrap(), b"reset");
        assert_eq!(s.len().unwrap(), 5);
        assert_eq!(s.path(), path.as_path());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_appends_change_no_size_until_the_reserve_is_used_up() {
        // The observable property behind the data-only flush: between
        // two growths an append changes neither the file's size nor
        // anything but its own bytes, and what follows the content is
        // written zeros.
        let dir = test_dir("reserve");
        let path = dir.join("wal.log");
        let mut s = FileStore::new(&path);
        let record = [0xA5u8; 100];
        s.append(&record).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), RESERVE_CHUNK);
        assert_eq!(s.reserve_grows(), 1);
        let fit = (RESERVE_CHUNK / 100) as usize;
        for n in 2..=fit {
            s.append(&record).unwrap();
            assert_eq!(fs::metadata(&path).unwrap().len(), RESERVE_CHUNK, "append {n}");
            assert_eq!(s.len().unwrap(), n as u64 * 100, "len is content, not file size");
            let raw = fs::read(&path).unwrap();
            assert!(raw[..n * 100].iter().all(|&b| b == 0xA5), "append {n}: content");
            assert!(raw[n * 100..].iter().all(|&b| b == 0), "append {n}: reserve is zeros");
        }
        assert_eq!(s.reserve_grows(), 1, "{fit} appends, one growth");
        s.append(&record).unwrap();
        assert_eq!(fs::metadata(&path).unwrap().len(), 2 * RESERVE_CHUNK);
        assert_eq!(s.reserve_grows(), 2);
        assert_eq!(s.read_all().unwrap().len(), (fit + 1) * 100);
        // A write larger than a chunk still lands whole, zeros behind it.
        s.append(&vec![0x5A; 3 * RESERVE_CHUNK as usize]).unwrap();
        let raw = fs::read(&path).unwrap();
        assert_eq!(raw.len() as u64 % RESERVE_CHUNK, 0);
        let content = s.len().unwrap() as usize;
        assert!(raw[content..].iter().all(|&b| b == 0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_replace_drops_the_handle_and_the_reserve() {
        let dir = test_dir("replace");
        let path = dir.join("wal.log");
        let mut s = FileStore::new(&path);
        s.append(b"old").unwrap();
        s.replace(b"new").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"new", "replace writes no reserve");
        // The append must land in the renamed-in file, not in the
        // unlinked one the old handle still names.
        s.append(b"er").unwrap();
        assert_eq!(s.read_all().unwrap(), b"newer");
        let raw = fs::read(&path).unwrap();
        assert_eq!(&raw[..5], b"newer");
        assert_eq!(raw.len() as u64, RESERVE_CHUNK, "the reserve regrows lazily");
        assert!(!dir.join("wal.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_reopened_and_marked_continues_at_the_content_end() {
        let dir = test_dir("reopen");
        let path = dir.join("wal.log");
        let mut s = FileStore::new(&path);
        s.append(b"abc").unwrap();
        drop(s);
        let mut s = FileStore::new(&path);
        assert_eq!(s.len().unwrap(), RESERVE_CHUNK, "unmarked: the whole file");
        assert_eq!(s.read_all().unwrap().len() as u64, RESERVE_CHUNK);
        s.mark_end(3);
        assert_eq!(s.read_all().unwrap(), b"abc");
        s.append(b"def").unwrap();
        assert_eq!(s.reserve_grows(), 0, "the reserve outlives the process");
        assert_eq!(&fs::read(&path).unwrap()[..8], b"abcdef\0\0");
        // A file without a reserve (what the parent commit wrote) is all
        // content; the first append grows it.
        fs::write(&path, b"frames").unwrap();
        let mut s = FileStore::new(&path);
        s.append(b"+1").unwrap();
        assert_eq!(s.read_all().unwrap(), b"frames+1");
        assert_eq!(fs::metadata(&path).unwrap().len(), RESERVE_CHUNK);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn file_replace_that_fails_leaves_no_temp_file() {
        if !Path::new("/dev/full").exists() {
            return;
        }
        let dir = test_dir("tmp");
        let path = dir.join("wal.log");
        let mut s = FileStore::new(&path);
        s.replace(b"kept").unwrap();
        // The temp file's write fails with ENOSPC.
        std::os::unix::fs::symlink("/dev/full", dir.join("wal.tmp")).unwrap();
        assert!(matches!(s.replace(b"lost"), Err(PersistError::Io { .. })));
        assert!(fs::symlink_metadata(dir.join("wal.tmp")).is_err(), "temp file removed");
        assert_eq!(s.read_all().unwrap(), b"kept", "old content survives");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
