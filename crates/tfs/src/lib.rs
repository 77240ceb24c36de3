//! The Trinity File System (TFS).
//!
//! Trinity backs its memory trunks up in "a shared distributed file system
//! called TFS (Trinity File System), which is similar to HDFS" (paper §3).
//! TFS is what makes the memory cloud fault tolerant:
//!
//! * every memory trunk has a persistent image in TFS, reloaded onto a
//!   surviving machine when its host fails;
//! * the primary addressing table is persisted in TFS before any update
//!   commits (§6.2);
//! * BSP checkpoints and asynchronous-computation snapshots are TFS files;
//! * leader election "marks a flag on the shared distributed fault-tolerant
//!   file system" to prevent split-brain (§6.2).
//!
//! The paper treats TFS as a given substrate; this crate implements the
//! closest equivalent that exercises the same code paths: a named blob
//! store replicated across `n` storage nodes with failure injection.
//! Files are placed on `replication` nodes chosen deterministically from
//! the file name; writes go to every live replica, reads return the
//! freshest live copy, and a heal pass re-replicates under-replicated
//! files — so any data written while at least one of its replicas survives
//! is durable, which is the property the recovery protocols in
//! `trinity-core` rely on.
//!
//! # Example
//!
//! ```
//! use trinity_tfs::{Tfs, TfsConfig};
//!
//! let tfs = Tfs::new(TfsConfig { nodes: 4, replication: 2 });
//! tfs.write("trunks/00000007", b"snapshot bytes").unwrap();
//! tfs.kill_node(0); // any single node may die
//! assert_eq!(*tfs.read("trunks/00000007").unwrap(), b"snapshot bytes");
//! assert!(tfs.try_acquire_flag("leader", "machine-3"));
//! assert!(!tfs.try_acquire_flag("leader", "machine-5"));
//! ```

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use parking_lot::Mutex;
use trinity_memstore::hash::mix64;

/// Errors returned by TFS operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TfsError {
    /// No such file (or all replicas are on dead nodes).
    NotFound(String),
    /// Every replica node for this file is currently dead, so the write
    /// cannot be made durable.
    NoLiveReplica(String),
    /// Node index out of range.
    NoSuchNode(usize),
    /// A conditional write lost its race: the file's current version is
    /// not the one the writer read (see [`Tfs::write_if_version`]).
    VersionMismatch {
        name: String,
        expected: u64,
        found: u64,
    },
}

impl fmt::Display for TfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TfsError::NotFound(n) => write!(f, "TFS file not found: {n}"),
            TfsError::NoLiveReplica(n) => write!(f, "no live replica node for TFS file: {n}"),
            TfsError::NoSuchNode(i) => write!(f, "no such TFS node: {i}"),
            TfsError::VersionMismatch {
                name,
                expected,
                found,
            } => write!(
                f,
                "TFS conditional write of {name} lost: expected version {expected}, found {found}"
            ),
        }
    }
}

impl std::error::Error for TfsError {}

/// TFS deployment shape.
#[derive(Debug, Clone, Copy)]
pub struct TfsConfig {
    /// Number of storage nodes.
    pub nodes: usize,
    /// Copies kept of every file (HDFS default is 3; tests often use 2).
    pub replication: usize,
}

impl Default for TfsConfig {
    fn default() -> Self {
        TfsConfig {
            nodes: 3,
            replication: 3,
        }
    }
}

/// A file's bytes as reads hand them out: shared with the replica that
/// stores them, never copied.
pub type Blob = Arc<Vec<u8>>;

#[derive(Debug, Default)]
struct Node {
    alive: bool,
    files: HashMap<String, (u64, Blob)>,
}

#[derive(Debug)]
struct Inner {
    nodes: Vec<Node>,
    replication: usize,
    /// Monotonic version stamp so revived nodes' stale copies lose.
    clock: u64,
    /// Election flags: flag name → owner.
    flags: HashMap<String, String>,
}

/// Handle to a TFS deployment. Cheap to clone; all clones address the same
/// file system (it is *shared* storage, like the HDFS cluster the paper
/// assumes).
#[derive(Debug, Clone)]
pub struct Tfs {
    inner: Arc<Mutex<Inner>>,
}

impl Tfs {
    /// Bring up a TFS deployment with all nodes alive.
    pub fn new(cfg: TfsConfig) -> Self {
        assert!(cfg.nodes >= 1, "TFS needs at least one node");
        let replication = cfg.replication.clamp(1, cfg.nodes);
        let nodes = (0..cfg.nodes)
            .map(|_| Node {
                alive: true,
                files: HashMap::new(),
            })
            .collect();
        Tfs {
            inner: Arc::new(Mutex::new(Inner {
                nodes,
                replication,
                clock: 0,
                flags: HashMap::new(),
            })),
        }
    }

    /// The replica node indices for `name` (deterministic placement:
    /// `replication` consecutive nodes starting at the name hash).
    pub fn placement(&self, name: &str) -> Vec<usize> {
        let inner = self.inner.lock();
        Self::placement_inner(&inner, name)
    }

    fn placement_inner(inner: &Inner, name: &str) -> Vec<usize> {
        let n = inner.nodes.len();
        let start = (mix64(fnv1a(name)) % n as u64) as usize;
        (0..inner.replication).map(|i| (start + i) % n).collect()
    }

    /// Write (create or replace) a file. The write is applied to every
    /// *live* replica node; it fails only if all replicas are dead.
    pub fn write(&self, name: &str, bytes: &[u8]) -> Result<(), TfsError> {
        let mut inner = self.inner.lock();
        let placement = Self::placement_inner(&inner, name);
        inner.clock += 1;
        let version = inner.clock;
        let blob = Arc::new(bytes.to_vec());
        let mut wrote = false;
        for i in placement {
            if inner.nodes[i].alive {
                inner.nodes[i]
                    .files
                    .insert(name.to_string(), (version, Arc::clone(&blob)));
                wrote = true;
            }
        }
        if wrote {
            Ok(())
        } else {
            Err(TfsError::NoLiveReplica(name.to_string()))
        }
    }

    /// Read the freshest live copy of a file. The result shares the
    /// replica's blob: a trunk-sized image is handed out without copying
    /// it under the file system's lock.
    pub fn read(&self, name: &str) -> Result<Blob, TfsError> {
        self.read_versioned(name).map(|(_, bytes)| bytes)
    }

    /// Freshest live version stamp of a file, if any replica survives.
    fn freshest_inner<'a>(inner: &'a Inner, name: &str) -> Option<&'a (u64, Blob)> {
        let mut best: Option<&(u64, Blob)> = None;
        for i in Self::placement_inner(inner, name) {
            if inner.nodes[i].alive {
                if let Some(entry) = inner.nodes[i].files.get(name) {
                    if best.is_none_or(|b| entry.0 > b.0) {
                        best = Some(entry);
                    }
                }
            }
        }
        best
    }

    /// Read the freshest live copy of a file along with its version
    /// stamp, for a later [`Tfs::write_if_version`]. Every write of a
    /// file (same bytes or not) advances its stamp.
    pub fn read_versioned(&self, name: &str) -> Result<(u64, Blob), TfsError> {
        let inner = self.inner.lock();
        Self::freshest_inner(&inner, name)
            .map(|(v, blob)| (*v, Arc::clone(blob)))
            .ok_or_else(|| TfsError::NotFound(name.to_string()))
    }

    /// The version stamp [`Tfs::read_versioned`] would return, without
    /// touching the file's bytes — the stat a writer needs before a
    /// [`Tfs::write_if_version`], or to learn whether a file changed.
    pub fn version_of(&self, name: &str) -> Result<u64, TfsError> {
        let inner = self.inner.lock();
        Self::freshest_inner(&inner, name)
            .map(|(v, _)| *v)
            .ok_or_else(|| TfsError::NotFound(name.to_string()))
    }

    /// Batched [`Tfs::read_versioned`]: resolve many files under one
    /// lock acquisition, one result per name in order. The bulk primitive
    /// for trunk-image prefetch — a BSP bucket fetcher resolving the next
    /// bucket's spilled trunks pays one lock round instead of one per
    /// trunk.
    pub fn read_versioned_many(&self, names: &[String]) -> Vec<Result<(u64, Blob), TfsError>> {
        let inner = self.inner.lock();
        names
            .iter()
            .map(|name| {
                Self::freshest_inner(&inner, name)
                    .map(|(v, blob)| (*v, Arc::clone(blob)))
                    .ok_or_else(|| TfsError::NotFound(name.clone()))
            })
            .collect()
    }

    /// Conditional write: replace the file only if its freshest live
    /// version is still `expected` (`0` = the file must not exist yet).
    /// Fails with [`TfsError::VersionMismatch`] when another writer got
    /// there first — the read-modify-write must be retried from a fresh
    /// read. This is the fencing primitive for the addressing-table
    /// updates: concurrent recoveries, migration flips, and a donor's
    /// seal-lease release all serialize through it, so no table write
    /// can silently clobber another. Returns the new version stamp.
    pub fn write_if_version(
        &self,
        name: &str,
        bytes: &[u8],
        expected: u64,
    ) -> Result<u64, TfsError> {
        let mut inner = self.inner.lock();
        let found = Self::freshest_inner(&inner, name).map_or(0, |(v, _)| *v);
        if found != expected {
            return Err(TfsError::VersionMismatch {
                name: name.to_string(),
                expected,
                found,
            });
        }
        let placement = Self::placement_inner(&inner, name);
        inner.clock += 1;
        let version = inner.clock;
        let blob = Arc::new(bytes.to_vec());
        let mut wrote = false;
        for i in placement {
            if inner.nodes[i].alive {
                inner.nodes[i]
                    .files
                    .insert(name.to_string(), (version, Arc::clone(&blob)));
                wrote = true;
            }
        }
        if wrote {
            Ok(version)
        } else {
            Err(TfsError::NoLiveReplica(name.to_string()))
        }
    }

    /// Whether a live replica of the file exists.
    pub fn exists(&self, name: &str) -> bool {
        self.version_of(name).is_ok()
    }

    /// Delete a file from all live replicas.
    pub fn delete(&self, name: &str) -> Result<(), TfsError> {
        let mut inner = self.inner.lock();
        let placement = Self::placement_inner(&inner, name);
        let mut found = false;
        for i in placement {
            if inner.nodes[i].alive {
                found |= inner.nodes[i].files.remove(name).is_some();
            }
        }
        if found {
            Ok(())
        } else {
            Err(TfsError::NotFound(name.to_string()))
        }
    }

    /// All file names with the given prefix that have a live replica,
    /// sorted and deduplicated.
    pub fn list(&self, prefix: &str) -> Vec<String> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner
            .nodes
            .iter()
            .filter(|n| n.alive)
            .flat_map(|n| n.files.keys())
            .filter(|k| k.starts_with(prefix))
            .cloned()
            .collect();
        names.sort_unstable();
        names.dedup();
        names
    }

    // ------------------------------------------------------------------
    // Failure injection & healing
    // ------------------------------------------------------------------

    /// Kill a storage node. Its copies become unreachable until revival.
    pub fn kill_node(&self, idx: usize) {
        let mut inner = self.inner.lock();
        if idx < inner.nodes.len() {
            inner.nodes[idx].alive = false;
        }
    }

    /// Re-replicate: copy the freshest version of every file onto every
    /// live replica node that is missing it or holds a stale copy.
    /// Returns the number of replica copies refreshed.
    pub fn heal(&self) -> usize {
        let mut inner = self.inner.lock();
        let names: Vec<String> = {
            let mut v: Vec<String> = inner
                .nodes
                .iter()
                .filter(|n| n.alive)
                .flat_map(|n| n.files.keys().cloned())
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let mut refreshed = 0;
        for name in names {
            let placement = Self::placement_inner(&inner, &name);
            let best: Option<(u64, Blob)> = placement
                .iter()
                .filter(|&&i| inner.nodes[i].alive)
                .filter_map(|&i| inner.nodes[i].files.get(&name))
                .max_by_key(|(v, _)| *v)
                .map(|(v, b)| (*v, Arc::clone(b)));
            if let Some((version, blob)) = best {
                for i in placement {
                    if inner.nodes[i].alive {
                        let entry = inner.nodes[i].files.get(&name);
                        if entry.is_none_or(|(v, _)| *v < version) {
                            inner.nodes[i]
                                .files
                                .insert(name.clone(), (version, Arc::clone(&blob)));
                            refreshed += 1;
                        }
                    }
                }
            }
        }
        refreshed
    }

    // ------------------------------------------------------------------
    // Leader flag (paper §6.2)
    // ------------------------------------------------------------------

    /// Atomically mark the flag for `owner` if unclaimed (or already ours).
    /// "The new leader marks a flag on the shared distributed fault-tolerant
    /// file system to avoid multiple leaders."
    pub fn try_acquire_flag(&self, flag: &str, owner: &str) -> bool {
        let mut inner = self.inner.lock();
        match inner.flags.get(flag) {
            Some(cur) => cur == owner,
            None => {
                inner.flags.insert(flag.to_string(), owner.to_string());
                true
            }
        }
    }

    /// Current owner of the flag.
    pub fn flag_owner(&self, flag: &str) -> Option<String> {
        self.inner.lock().flags.get(flag).cloned()
    }

    /// Forcibly clear the flag regardless of owner (used when the recovery
    /// protocol has established that the previous owner is dead).
    pub fn break_flag(&self, flag: &str) {
        self.inner.lock().flags.remove(flag);
    }
}

/// FNV-1a over the file name, feeding the placement mix.
fn fnv1a(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bring a killed storage node back with whatever copies it held.
    fn revive(tfs: &Tfs, idx: usize) {
        tfs.inner.lock().nodes[idx].alive = true;
    }

    #[test]
    fn write_read_delete_roundtrip() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 3,
            replication: 2,
        });
        tfs.write("a/b", b"hello").unwrap();
        assert_eq!(*tfs.read("a/b").unwrap(), b"hello");
        assert!(tfs.exists("a/b"));
        tfs.write("a/b", b"world").unwrap();
        assert_eq!(*tfs.read("a/b").unwrap(), b"world");
        tfs.delete("a/b").unwrap();
        assert!(!tfs.exists("a/b"));
        assert_eq!(tfs.read("a/b"), Err(TfsError::NotFound("a/b".into())));
    }

    #[test]
    fn survives_single_node_failure() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 4,
            replication: 2,
        });
        for i in 0..50 {
            tfs.write(&format!("f{i}"), format!("data{i}").as_bytes())
                .unwrap();
        }
        tfs.kill_node(1);
        for i in 0..50 {
            assert_eq!(
                *tfs.read(&format!("f{i}")).unwrap(),
                format!("data{i}").as_bytes()
            );
        }
    }

    #[test]
    fn loses_data_when_all_replicas_die() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 3,
            replication: 1,
        });
        tfs.write("only", b"copy").unwrap();
        let holder = tfs.placement("only")[0];
        tfs.kill_node(holder);
        assert_eq!(tfs.read("only"), Err(TfsError::NotFound("only".into())));
        // And writes to a file whose sole replica node is dead fail loudly.
        assert_eq!(
            tfs.write("only", b"again"),
            Err(TfsError::NoLiveReplica("only".into()))
        );
    }

    #[test]
    fn revived_node_serves_stale_copy_only_until_heal() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 2,
            replication: 2,
        });
        tfs.write("f", b"v1").unwrap();
        tfs.kill_node(0);
        tfs.write("f", b"v2").unwrap(); // only node 1 gets v2
        revive(&tfs, 0);
        // Freshest-copy read must return v2 even though node 0 has v1.
        assert_eq!(*tfs.read("f").unwrap(), b"v2");
        let refreshed = tfs.heal();
        assert_eq!(refreshed, 1);
        tfs.kill_node(1);
        assert_eq!(
            *tfs.read("f").unwrap(),
            b"v2",
            "heal should have refreshed node 0"
        );
    }

    #[test]
    fn list_filters_by_prefix() {
        let tfs = Tfs::new(TfsConfig::default());
        tfs.write("trunks/1", b"x").unwrap();
        tfs.write("trunks/2", b"y").unwrap();
        tfs.write("ckpt/1", b"z").unwrap();
        assert_eq!(
            tfs.list("trunks/"),
            vec!["trunks/1".to_string(), "trunks/2".to_string()]
        );
        assert_eq!(
            tfs.list(""),
            vec![
                "ckpt/1".to_string(),
                "trunks/1".to_string(),
                "trunks/2".to_string()
            ]
        );
    }

    #[test]
    fn conditional_write_detects_interleaved_writers() {
        let tfs = Tfs::new(TfsConfig::default());
        // Creation: expected version 0 only while the file is absent.
        let v1 = tfs.write_if_version("t", b"a", 0).unwrap();
        assert_eq!(
            tfs.write_if_version("t", b"b", 0),
            Err(TfsError::VersionMismatch {
                name: "t".into(),
                expected: 0,
                found: v1,
            })
        );
        // Read-modify-write succeeds against the version it read...
        let (ver, bytes) = tfs.read_versioned("t").unwrap();
        assert_eq!((ver, bytes.as_slice()), (v1, &b"a"[..]));
        assert_eq!(tfs.version_of("t"), Ok(v1));
        assert_eq!(
            tfs.version_of("absent"),
            Err(TfsError::NotFound("absent".into()))
        );
        let v2 = tfs.write_if_version("t", b"c", ver).unwrap();
        assert!(v2 > v1);
        // ...and a second writer holding the stale version loses, even
        // when rewriting identical bytes (a version "touch" fences it).
        assert!(matches!(
            tfs.write_if_version("t", b"c", ver),
            Err(TfsError::VersionMismatch { found, .. }) if found == v2
        ));
        let v3 = tfs.write_if_version("t", b"c", v2).unwrap();
        assert!(v3 > v2, "a same-bytes touch must advance the version");
        assert_eq!(*tfs.read("t").unwrap(), b"c");
    }

    #[test]
    fn reads_share_the_replica_blob_and_version_of_tracks_the_freshest_copy() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 2,
            replication: 2,
        });
        tfs.write("f", b"v1").unwrap();
        let a = tfs.read("f").unwrap();
        let (v1, b) = tfs.read_versioned("f").unwrap();
        let many = tfs.read_versioned_many(&["f".to_string(), "nope".to_string()]);
        assert!(Arc::ptr_eq(&a, &b), "a read must not copy the image");
        assert!(matches!(&many[0], Ok((v, c)) if *v == v1 && Arc::ptr_eq(&a, c)));
        assert_eq!(many[1], Err(TfsError::NotFound("nope".into())));
        // A reader keeps the bytes it was handed across a rewrite.
        tfs.kill_node(0);
        tfs.write("f", b"v2").unwrap();
        assert_eq!(*a, b"v1");
        let v2 = tfs.version_of("f").unwrap();
        assert!(v2 > v1);
        // Only the stale replica left alive: the stat reports what a read
        // would now return.
        revive(&tfs, 0);
        tfs.kill_node(1);
        assert_eq!(tfs.version_of("f"), Ok(v1));
        tfs.kill_node(0);
        assert!(!tfs.exists("f"));
    }

    #[test]
    fn unconditional_write_advances_the_conditional_version() {
        let tfs = Tfs::new(TfsConfig::default());
        let v1 = tfs.write_if_version("t", b"a", 0).unwrap();
        tfs.write("t", b"b").unwrap();
        assert!(matches!(
            tfs.write_if_version("t", b"c", v1),
            Err(TfsError::VersionMismatch { .. })
        ));
        let (ver, _) = tfs.read_versioned("t").unwrap();
        tfs.write_if_version("t", b"c", ver).unwrap();
        assert_eq!(*tfs.read("t").unwrap(), b"c");
    }

    #[test]
    fn leader_flag_is_mutually_exclusive() {
        let tfs = Tfs::new(TfsConfig::default());
        assert!(tfs.try_acquire_flag("leader", "m1"));
        assert!(
            tfs.try_acquire_flag("leader", "m1"),
            "re-acquire by owner is idempotent"
        );
        assert!(!tfs.try_acquire_flag("leader", "m2"));
        assert_eq!(tfs.flag_owner("leader").as_deref(), Some("m1"));
        tfs.break_flag("leader");
        assert_eq!(tfs.flag_owner("leader"), None);
        assert!(tfs.try_acquire_flag("leader", "m2"));
    }

    #[test]
    fn placement_is_deterministic_and_sized() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 5,
            replication: 3,
        });
        let p1 = tfs.placement("some/file");
        let p2 = tfs.placement("some/file");
        assert_eq!(p1, p2);
        assert_eq!(p1.len(), 3);
        let mut sorted = p1.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "replicas must be distinct nodes");
    }

    #[test]
    fn concurrent_writers_from_clones() {
        let tfs = Tfs::new(TfsConfig {
            nodes: 4,
            replication: 2,
        });
        let mut handles = Vec::new();
        for t in 0..4 {
            let tfs = tfs.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    tfs.write(&format!("w{t}/f{i}"), &[t as u8, i as u8])
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(tfs.list("").len(), 400);
    }
}
