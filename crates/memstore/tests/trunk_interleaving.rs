//! Interleaving stress for one trunk: writers, readers and a
//! defragmentation loop race on the same small buffer.
//!
//! Writers own disjoint id ranges and put, append (often past the cell's
//! capacity, so the cell relocates), compare-and-swap, remove and re-insert.
//! Readers pin every id in turn and check what they see. A third party
//! defragments without pause, so relocations, tombstones and re-inserts of a
//! uid meet the pass's generation check and its stop at pinned cells. At the
//! end every writer's model must equal the trunk, and the trunk's live
//! payload count must equal the model's byte sum.
//!
//! Every payload is a run of self-describing pieces,
//! `id u64 | seq u32 | len u32 | len fill bytes`, where `seq` grows with
//! each write of a writer and the fill is a function of `(id, seq)`. A
//! reader can therefore tell a payload some writer wrote from a torn,
//! mixed or misplaced one without sharing any state with the writers.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;

use trinity_memstore::{StoreError, Trunk, TrunkConfig};

const WRITERS: u64 = 3;
const IDS_PER_WRITER: u64 = 12;
const OPS_PER_WRITER: u32 = 20_000;
const READERS: usize = 2;
/// A cell longer than this is replaced by one small piece, so the live
/// data stays well inside the trunk.
const MAX_CELL: usize = 700;

fn fill(id: u64, seq: u32, i: usize) -> u8 {
    (id as u8).wrapping_mul(31) ^ (seq as u8).wrapping_mul(7) ^ (i as u8)
}

fn piece(id: u64, seq: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + len);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(len as u32).to_le_bytes());
    out.extend((0..len).map(|i| fill(id, seq, i)));
    out
}

/// The seq of the last piece of a payload a writer could have written for
/// `id`, or a description of what is wrong with it. Pieces are appended in
/// write order, so their seqs strictly increase.
fn last_seq(id: u64, payload: &[u8]) -> Result<u32, String> {
    let mut rest = payload;
    let mut last = None;
    while !rest.is_empty() {
        if rest.len() < 16 {
            return Err(format!("{} trailing bytes", rest.len()));
        }
        let pid = u64::from_le_bytes(rest[..8].try_into().unwrap());
        let seq = u32::from_le_bytes(rest[8..12].try_into().unwrap());
        let len = u32::from_le_bytes(rest[12..16].try_into().unwrap()) as usize;
        if pid != id {
            return Err(format!("piece of cell {pid}"));
        }
        if last.is_some_and(|l| l >= seq) {
            return Err(format!("piece seq {seq} after {last:?}"));
        }
        let body = rest.get(16..16 + len).ok_or("piece cut short")?;
        if body.iter().enumerate().any(|(i, &b)| b != fill(id, seq, i)) {
            return Err(format!("piece seq {seq} has foreign bytes"));
        }
        last = Some(seq);
        rest = &rest[16 + len..];
    }
    last.ok_or_else(|| "empty payload".to_string())
}

/// xorshift64: the test needs a cheap, seedable stream, not quality.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// The one failure a write may answer with here, and it changes nothing.
/// A defragmentation pass stops at a pinned cell and at one that a remove
/// or an insert is halfway through, so under this load the window can fill
/// with dead bytes faster than passes reclaim them.
fn out_of_memory(e: StoreError) {
    assert!(matches!(e, StoreError::OutOfMemory { .. }), "{e}");
}

/// One writer's run over its own ids. Returns its model of them.
fn write_range(trunk: &Trunk, writer: u64) -> HashMap<u64, Vec<u8>> {
    let ids = writer * IDS_PER_WRITER..(writer + 1) * IDS_PER_WRITER;
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ (writer + 1));
    let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
    for op in 1..=OPS_PER_WRITER {
        let id = ids.start + rng.below(IDS_PER_WRITER);
        // Two seqs per op: an append that outgrows `MAX_CELL` is followed
        // by a reset to `small`, which must read as the later write.
        let (big_seq, small_seq) = (2 * op, 2 * op + 1);
        let small = piece(id, small_seq, rng.below(40) as usize);
        let present = model.contains_key(&id);
        match rng.below(6) {
            0 => match trunk.put(id, &small) {
                Ok(_) => {
                    model.insert(id, small);
                }
                Err(e) => out_of_memory(e),
            },
            1 => {
                // Usually past the cell's capacity: the cell relocates and
                // keeps its prefix.
                let big = piece(id, big_seq, 60 + rng.below(200) as usize);
                match trunk.append(id, &big) {
                    Ok(_) => {
                        let cell = model.get_mut(&id).expect("append on an absent cell");
                        cell.extend_from_slice(&big);
                        if cell.len() > MAX_CELL {
                            match trunk.put(id, &small) {
                                Ok(_) => *cell = small,
                                Err(e) => out_of_memory(e),
                            }
                        }
                    }
                    Err(StoreError::NotFound(_)) => assert!(!present),
                    Err(e) => out_of_memory(e),
                }
            }
            2 => {
                // Only this writer writes `id`, so its current stamp holds
                // until the swap; a stamp one older must be refused.
                let current = trunk.version_of(id);
                assert_eq!(current.is_some(), present, "cell {id} presence");
                let stale = rng.below(4) == 0;
                let expected = current.map_or(0, |v| v - u64::from(stale));
                match trunk.put_if_version(id, &small, expected) {
                    Ok(v) => {
                        assert!(!stale && v > expected);
                        model.insert(id, small);
                    }
                    Err(StoreError::VersionMismatch { .. }) => assert!(stale),
                    Err(StoreError::NotFound(_)) => assert!(!present),
                    Err(e) => out_of_memory(e),
                }
            }
            3 => match trunk.remove(id) {
                Ok(_) => assert!(model.remove(&id).is_some()),
                Err(StoreError::NotFound(_)) => assert!(!present),
                Err(e) => panic!("remove({id}): {e}"),
            },
            _ => match trunk.insert_new(id, &small) {
                Ok(_) => assert!(model.insert(id, small).is_none()),
                Err(StoreError::AlreadyExists(_)) => assert!(present),
                Err(e) => out_of_memory(e),
            },
        }
    }
    model
}

/// Pin every id in turn until `stop`: each payload must be one its writer
/// wrote, and each id's stamp must never go back. The stamp and the payload
/// must also agree: the same stamp shows the same last piece, a newer one
/// a later piece.
fn read_until(trunk: &Trunk, stop: &AtomicBool) -> u64 {
    let mut seen: HashMap<u64, (u64, u32)> = HashMap::new();
    let mut reads = 0;
    while !stop.load(Ordering::Relaxed) {
        for id in 0..WRITERS * IDS_PER_WRITER {
            let Some((version, guard)) = trunk.get_versioned(id) else {
                continue;
            };
            let seq = last_seq(id, &guard).unwrap_or_else(|e| panic!("cell {id}: {e}"));
            drop(guard);
            reads += 1;
            if let Some(&(v0, s0)) = seen.get(&id) {
                assert!(
                    version >= v0,
                    "cell {id}: stamp went back {v0} -> {version}"
                );
                if version == v0 {
                    assert_eq!(seq, s0, "cell {id}: one stamp, two payloads");
                } else {
                    assert!(seq > s0, "cell {id}: newer stamp, older payload");
                }
            }
            seen.insert(id, (version, seq));
        }
    }
    reads
}

#[test]
fn writers_readers_and_defragmentation_interleave_without_loss() {
    // A lost unlock or a defragmentation pass that never ends hangs the
    // race instead of failing it: turn that into a failure.
    let done = std::sync::Arc::new(AtomicBool::new(false));
    let watched = std::sync::Arc::clone(&done);
    std::thread::spawn(move || {
        std::thread::sleep(std::time::Duration::from_secs(120));
        if !watched.load(Ordering::Relaxed) {
            eprintln!("trunk interleaving stress hung for 120 s");
            std::process::abort();
        }
    });
    let trunk = Trunk::new(
        0,
        TrunkConfig {
            reserved_bytes: 1 << 20,
            page_bytes: 1 << 10,
            expansion_slack: 1.0,
        },
    );
    let stop = AtomicBool::new(false);
    let start = Barrier::new(WRITERS as usize + READERS + 1);
    let (models, reads, passes) = std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (trunk, start) = (&trunk, &start);
                s.spawn(move || {
                    start.wait();
                    write_range(trunk, w)
                })
            })
            .collect();
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                let (trunk, start, stop) = (&trunk, &start, &stop);
                s.spawn(move || {
                    start.wait();
                    read_until(trunk, stop)
                })
            })
            .collect();
        let defrag = s.spawn(|| {
            start.wait();
            let mut passes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                trunk.defragment();
                passes += 1;
            }
            passes
        });
        // Stop the readers and the pass even if a writer panicked.
        let models: Vec<_> = writers.into_iter().map(|h| h.join()).collect();
        stop.store(true, Ordering::Relaxed);
        let reads: u64 = readers.into_iter().map(|h| h.join().unwrap()).sum();
        let models: Vec<_> = models.into_iter().map(Result::unwrap).collect();
        (models, reads, defrag.join().unwrap())
    });
    assert!(reads > 0 && passes > 0, "{reads} reads, {passes} passes");
    let model: HashMap<u64, Vec<u8>> = models.into_iter().flatten().collect();
    let check = |when: &str| {
        assert_eq!(trunk.cell_count(), model.len(), "{when}: cell count");
        for id in 0..WRITERS * IDS_PER_WRITER {
            assert_eq!(
                trunk.get_owned(id).as_deref(),
                model.get(&id).map(Vec::as_slice),
                "{when}: cell {id}"
            );
        }
        let bytes: usize = model.values().map(Vec::len).sum();
        assert_eq!(
            trunk.stats().live_payload_bytes,
            bytes,
            "{when}: live payload"
        );
    };
    check("after the race");
    // Nothing is pinned now: one pass compacts everything and drops slack.
    assert!(trunk.defragment().completed);
    assert_eq!(trunk.stats().slack_bytes, 0);
    check("after a quiet pass");
    done.store(true, Ordering::Relaxed);
}
