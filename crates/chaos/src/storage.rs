//! The injectable storage seam.
//!
//! Every durable artifact the workspace writes — journal step blocks,
//! checkpoints, repro files, campaign logs — goes through the
//! [`Storage`] trait, so the same writer code runs against the real
//! filesystem in production and against the deterministic in-memory
//! fault injector ([`crate::fault::ChaosStorage`]) under test.
//!
//! The trait deliberately has exactly two mutating primitives:
//!
//! * [`Storage::append`] — extend a file by a byte run. The crash model
//!   for an append is *prefix durability*: after a mid-append power
//!   loss, some prefix (possibly empty) of the appended bytes survives.
//! * [`Storage::write_atomic`] — replace a file's contents whole. The
//!   contract is all-or-nothing: after a crash the file holds either
//!   the complete old bytes or the complete new bytes, never a mix.
//!   [`DiskStorage`] implements it as write-temp-then-rename, the
//!   POSIX idiom whose commit point is the rename.
//!
//! Writers that keep to these two primitives inherit a well-defined
//! crash state at every point, which is what the recovery code in
//! `rfly-replay::store` and `rfly-ops::persist` salvages from.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Why a storage operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// The simulated process died at this operation (power loss). No
    /// later operation on the same storage can succeed.
    Crashed,
    /// The named file does not exist.
    NotFound(String),
    /// A real I/O error from the filesystem backend.
    Io(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Crashed => write!(f, "storage crashed (simulated power loss)"),
            StorageError::NotFound(p) => write!(f, "no such file {p:?}"),
            StorageError::Io(e) => write!(f, "storage I/O error: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

/// The storage seam durable writers are written against.
pub trait Storage {
    /// Appends `bytes` to the end of `path`, creating it if absent.
    /// Crash semantics: a prefix of `bytes` (possibly empty, possibly
    /// all) survives a power loss during the append.
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Replaces `path`'s contents with `bytes`, all-or-nothing: a crash
    /// leaves either the complete old contents or the complete new
    /// contents, never a torn mix.
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError>;

    /// Reads the full contents of `path`.
    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError>;

    /// Whether `path` exists.
    fn exists(&self, path: &str) -> bool;

    /// Removes `path` (ok if absent — removal is idempotent).
    fn remove(&mut self, path: &str) -> Result<(), StorageError>;

    /// All stored paths, sorted (deterministic iteration order).
    fn list(&self) -> Vec<String>;
}

/// The deterministic in-memory backend: a sorted map of byte files.
/// Equality is byte equality over every file, which is what the
/// crash-matrix driver's "bit-identical to the reference run" check
/// compares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStorage {
    files: BTreeMap<String, Vec<u8>>,
}

impl MemStorage {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The raw file map (salvage code reads surviving bytes directly).
    pub fn files(&self) -> &BTreeMap<String, Vec<u8>> {
        &self.files
    }

    /// A human-readable diff of the first mismatching file against
    /// `other`, or `None` when bit-identical — the crash matrix's
    /// failure detail.
    pub fn first_difference(&self, other: &MemStorage) -> Option<String> {
        for path in self.files.keys().chain(other.files.keys()) {
            match (self.files.get(path), other.files.get(path)) {
                (Some(a), Some(b)) if a == b => {}
                (Some(a), Some(b)) => {
                    let at = a.iter().zip(b.iter()).position(|(x, y)| x != y);
                    return Some(format!(
                        "{path:?}: {} vs {} bytes, first mismatch at {:?}",
                        a.len(),
                        b.len(),
                        at
                    ));
                }
                (Some(_), None) => return Some(format!("{path:?}: present vs absent")),
                (None, Some(_)) => return Some(format!("{path:?}: absent vs present")),
                (None, None) => {}
            }
        }
        None
    }
}

impl Storage for MemStorage {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.files
            .entry(path.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        self.files.insert(path.to_string(), bytes.to_vec());
        Ok(())
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        self.files
            .get(path)
            .cloned()
            .ok_or_else(|| StorageError::NotFound(path.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        self.files.remove(path);
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }
}

/// Writes `bytes` to `path` with write-temp-then-rename commit
/// semantics: the bytes land in `<path>.tmp` first (flushed), then a
/// single `rename` publishes them. An interrupted write can leave a
/// stale `.tmp` behind but never a truncated `path`.
pub fn atomic_write_file(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)
}

/// The real filesystem backend, rooted at a directory. Paths handed to
/// the trait are interpreted relative to the root.
#[derive(Debug, Clone)]
pub struct DiskStorage {
    root: PathBuf,
}

impl DiskStorage {
    /// A store rooted at `root` (created if absent).
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| StorageError::Io(e.to_string()))?;
        Ok(Self { root })
    }

    fn full(&self, path: &str) -> PathBuf {
        self.root.join(path)
    }

    fn ensure_parent(&self, full: &Path) -> Result<(), StorageError> {
        if let Some(parent) = full.parent() {
            fs::create_dir_all(parent).map_err(|e| StorageError::Io(e.to_string()))?;
        }
        Ok(())
    }
}

impl Storage for DiskStorage {
    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let full = self.full(path);
        self.ensure_parent(&full)?;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&full)
            .map_err(|e| StorageError::Io(e.to_string()))?;
        f.write_all(bytes)
            .map_err(|e| StorageError::Io(e.to_string()))
    }

    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StorageError> {
        let full = self.full(path);
        self.ensure_parent(&full)?;
        atomic_write_file(&full, bytes).map_err(|e| StorageError::Io(e.to_string()))
    }

    fn read(&self, path: &str) -> Result<Vec<u8>, StorageError> {
        let full = self.full(path);
        if !full.exists() {
            return Err(StorageError::NotFound(path.to_string()));
        }
        fs::read(&full).map_err(|e| StorageError::Io(e.to_string()))
    }

    fn exists(&self, path: &str) -> bool {
        self.full(path).exists()
    }

    fn remove(&mut self, path: &str) -> Result<(), StorageError> {
        let full = self.full(path);
        if full.exists() {
            fs::remove_file(&full).map_err(|e| StorageError::Io(e.to_string()))?;
        }
        Ok(())
    }

    fn list(&self) -> Vec<String> {
        // Shallow walk, deterministic order; nested dirs are listed by
        // their relative path with `/` separators.
        fn walk(dir: &Path, root: &Path, out: &mut Vec<String>) {
            let Ok(entries) = fs::read_dir(dir) else {
                return;
            };
            let mut paths: Vec<PathBuf> =
                entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
            paths.sort();
            for p in paths {
                if p.is_dir() {
                    walk(&p, root, out);
                } else if let Ok(rel) = p.strip_prefix(root) {
                    out.push(rel.to_string_lossy().replace('\\', "/"));
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &self.root, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_appends_and_replaces() {
        let mut s = MemStorage::new();
        s.append("j", b"one\n").unwrap();
        s.append("j", b"two\n").unwrap();
        assert_eq!(s.read("j").unwrap(), b"one\ntwo\n");
        s.write_atomic("c", b"v1").unwrap();
        s.write_atomic("c", b"v2").unwrap();
        assert_eq!(s.read("c").unwrap(), b"v2");
        assert_eq!(s.list(), vec!["c".to_string(), "j".to_string()]);
        assert!(matches!(s.read("nope"), Err(StorageError::NotFound(_))));
        s.remove("c").unwrap();
        s.remove("c").unwrap();
        assert!(!s.exists("c"));
    }

    #[test]
    fn mem_storage_equality_is_bytewise() {
        let mut a = MemStorage::new();
        let mut b = MemStorage::new();
        a.append("f", b"abc").unwrap();
        b.append("f", b"ab").unwrap();
        assert_ne!(a, b);
        assert!(a.first_difference(&b).is_some());
        b.append("f", b"c").unwrap();
        assert_eq!(a, b);
        assert_eq!(a.first_difference(&b), None);
    }

    #[test]
    fn disk_storage_round_trips_and_atomic_write_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("rfly-chaos-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut s = DiskStorage::new(&dir).unwrap();
        s.append("log/a.txt", b"x").unwrap();
        s.append("log/a.txt", b"y").unwrap();
        s.write_atomic("ck.txt", b"state").unwrap();
        assert_eq!(s.read("log/a.txt").unwrap(), b"xy");
        assert_eq!(s.read("ck.txt").unwrap(), b"state");
        assert!(!dir.join("ck.txt.tmp").exists(), "temp committed away");
        assert_eq!(
            s.list(),
            vec!["ck.txt".to_string(), "log/a.txt".to_string()]
        );
        s.remove("ck.txt").unwrap();
        assert!(!s.exists("ck.txt"));
        let _ = fs::remove_dir_all(&dir);
    }
}
