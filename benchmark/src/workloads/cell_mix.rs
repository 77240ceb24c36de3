//! `cell_mix` — the memory cloud as a key-value store (paper §3, e14).
//!
//! TSL `Person` cells plus raw `u64`-list adjacency cells on 4 machines,
//! driven from machine 0 by one client thread: 50 % `get` + accessor
//! read, 25 % `put` of a re-encoded cell with a redrawn friend count
//! (size changes → relocation, dead bytes), 15 % 8-byte `append` (a list
//! that reaches 64 ids is cut back to 16 by a `put`), 10 %
//! `multi_get` of 16 cells of one machine. 80 % of ops hit a hot set that
//! fits the read cache, 20 % are uniform over all ids and do not. Writes
//! run beside reads on the same cells, so a read gain paid for by writes,
//! by invalidations or by space shows. One client makes allocation
//! order, cache contents, traffic and `space_amp` exact.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use trinity_memcloud::{AddressingTable, CloudNode, MemoryCloud};
use trinity_net::MachineId;
use trinity_tsl::{compile, parse, CellAccessor, StructLayout};

use crate::gen::{cloud_config, Rng};
use crate::harness::{LayerCtx, MetricSet, Tail, TrialOutput, Workload};
use crate::model::stored_bytes;
use crate::probes::median_pass;
use crate::trace::Tracer;

const MACHINES: usize = 4;
const BATCH: usize = 16;
/// Explicit defragmentation policy: the client sweeps every machine's
/// store each time this many ops have run. No daemon.
const DEFRAG_EVERY: usize = 10_000;
/// The traced run records spans for one op in this many: 400 000 ops a
/// trial would otherwise hold a million spans in memory.
const TRACE_ONE_IN: u64 = 8;
const TRUNK_BYTES: usize = 4 << 20;
/// Adjacency cells start with 16 ids and are cut back to that at 64.
const ADJACENCY_START: usize = 16 * 8;
const ADJACENCY_CAP: usize = 64 * 8;
const SCHEMA: &str = "cell struct Person { string Name; int Age; List<long> Friends; }";

struct Sizes {
    persons: usize,
    adjacency: usize,
    hot: usize,
    ops: usize,
}

const FULL: Sizes = Sizes {
    persons: 160_000,
    adjacency: 40_000,
    hot: 4_000,
    ops: 300_000,
};
const SMOKE: Sizes = Sizes {
    persons: 4_000,
    adjacency: 1_000,
    hot: 400,
    ops: 2_000,
};

#[derive(Debug)]
enum Op {
    Get(u64),
    Put {
        id: u64,
        age: i32,
        friends: Vec<i64>,
    },
    Append {
        id: u64,
        value: u64,
    },
    MultiGet([u64; BATCH]),
}

fn encode_person(layout: &Arc<StructLayout>, name: &str, age: i32, friends: &[i64]) -> Vec<u8> {
    layout
        .build()
        .set("Name", name)
        .set("Age", age)
        .set("Friends", friends.to_vec())
        .encode()
        .expect("Person fields match the schema")
}

/// The accessor read every `get` performs: `Age` plus the sum of
/// `Friends`, straight off the blob.
fn read_person(layout: &StructLayout, blob: &[u8]) -> Option<i64> {
    let acc = CellAccessor::new(layout, blob);
    let age = acc.get_int("Age").ok()?;
    let friends: i64 = acc.list_longs("Friends").ok()?.sum();
    Some(i64::from(age).wrapping_add(friends))
}

/// The oracle for one read: the cloud must return exactly the bytes the
/// client-side model holds (read-your-writes through cache and
/// invalidation).
pub fn read_is_correct(got: Option<&[u8]>, model: &[u8]) -> bool {
    got == Some(model)
}

pub struct CellMix {
    seed: u64,
    sizes: &'static Sizes,
    cloud: Arc<MemoryCloud>,
    /// Machine 0, the one every op is issued from.
    client: Arc<CloudNode>,
    table: AddressingTable,
    layout: Arc<StructLayout>,
    names: Vec<String>,
    /// The exact client-side model: `model[id]` is the cell's bytes.
    model: Vec<Vec<u8>>,
    hot_persons: Vec<u64>,
    hot_adjacency: Vec<u64>,
    /// Per machine: (all ids it owns, the hot ids among them).
    owned: Vec<(Vec<u64>, Vec<u64>)>,
    /// (stored bytes, model bytes) read before every defrag sweep of the
    /// measured trials.
    space_samples: Vec<(u64, u64)>,
}

impl CellMix {
    fn total(&self) -> u64 {
        (self.sizes.persons + self.sizes.adjacency) as u64
    }

    /// Live user payload bytes, as the model counts them.
    fn user_bytes(&self) -> u64 {
        self.model.iter().map(|c| c.len() as u64).sum()
    }

    fn is_local(&self, id: u64) -> bool {
        self.table.machine_of(id) == MachineId(0)
    }

    /// 80 % from the hot list, 20 % uniform over `cold_base..cold_base+cold_n`.
    fn pick(rng: &mut Rng, hot: &[u64], cold_base: u64, cold_n: u64) -> u64 {
        if rng.below(10) < 8 {
            hot[rng.below(hot.len() as u64) as usize]
        } else {
            cold_base + rng.below(cold_n)
        }
    }

    fn pick_person(&self, rng: &mut Rng) -> u64 {
        Self::pick(rng, &self.hot_persons, 0, self.sizes.persons as u64)
    }

    fn draw_friends(&self, rng: &mut Rng) -> Vec<i64> {
        (0..4 + rng.below(25))
            .map(|_| rng.below(self.sizes.persons as u64) as i64)
            .collect()
    }

    /// The next op of a trial's sequence: a function of the generator
    /// state only, which `run_trial` seeds from (seed, trial).
    fn next_op(&self, rng: &mut Rng) -> Op {
        match rng.below(100) {
            0..50 => Op::Get(self.pick_person(rng)),
            50..75 => Op::Put {
                id: self.pick_person(rng),
                age: 18 + rng.below(60) as i32,
                friends: self.draw_friends(rng),
            },
            75..90 => Op::Append {
                id: Self::pick(
                    rng,
                    &self.hot_adjacency,
                    self.sizes.persons as u64,
                    self.sizes.adjacency as u64,
                ),
                value: rng.next_u64(),
            },
            _ => {
                // 16 distinct cells of one machine: one envelope, and no
                // dependence on the order multi_get visits owners.
                let (all, hot) = &self.owned[rng.below(MACHINES as u64) as usize];
                let mut ids = [u64::MAX; BATCH];
                for i in 0..BATCH {
                    ids[i] = loop {
                        let id = if rng.below(10) < 8 {
                            hot[rng.below(hot.len() as u64) as usize]
                        } else {
                            all[rng.below(all.len() as u64) as usize]
                        };
                        if !ids[..i].contains(&id) {
                            break id;
                        }
                    };
                }
                Op::MultiGet(ids)
            }
        }
    }

    fn trial_rng(&self, trial: usize) -> Rng {
        Rng::new(self.seed, 0xce11_0000 + trial as u64)
    }

    /// Run one op against the cloud from machine 0, check it against the
    /// model, update the model. Returns the op's latency if it was
    /// correct.
    fn execute(&mut self, seq: u64, op: Op, tracer: Option<&Tracer>) -> Option<f64> {
        let node = &self.client;
        let span = |name: &'static str, parent: u32, s: Instant, e: Instant| {
            if let Some(t) = tracer {
                t.span(parent, seq, name, s, e);
            }
        };
        let root = tracer.map_or(0, Tracer::reserve);
        let begun = Instant::now();
        let (ok, ended) = match op {
            Op::Get(id) => {
                let got = node.get(id);
                let fetched = Instant::now();
                let folded = got
                    .as_ref()
                    .ok()
                    .and_then(|b| read_person(&self.layout, b.as_deref()?));
                black_box(folded);
                let ended = Instant::now();
                let name = if self.is_local(id) {
                    "memcloud.get_local"
                } else {
                    "memcloud.get_remote"
                };
                span(name, root, begun, fetched);
                span("tsl.read", root, fetched, ended);
                let ok = folded.is_some()
                    && got.is_ok_and(|b| read_is_correct(b.as_deref(), &self.model[id as usize]));
                (ok, ended)
            }
            Op::Put { id, age, friends } => {
                let bytes = encode_person(&self.layout, &self.names[id as usize], age, &friends);
                let encoded = Instant::now();
                let put = node.put(id, &bytes);
                let ended = Instant::now();
                let name = if self.is_local(id) {
                    "memcloud.put_local"
                } else {
                    "memcloud.put_remote"
                };
                span("tsl.encode", root, begun, encoded);
                span(name, root, encoded, ended);
                let ok = put.is_ok();
                if ok {
                    self.model[id as usize] = bytes;
                }
                (ok, ended)
            }
            Op::Append { id, value } => {
                // A list that reached its cap is cut back to its first
                // entries by a put instead: the cells' size distribution,
                // and with it every trial's work, stays stationary.
                let full = self.model[id as usize].len() >= ADJACENCY_CAP;
                let ok = if full {
                    self.model[id as usize].truncate(ADJACENCY_START);
                    node.put(id, &self.model[id as usize]).is_ok()
                } else {
                    self.model[id as usize].extend_from_slice(&value.to_le_bytes());
                    matches!(node.append(id, &value.to_le_bytes()), Ok(true))
                };
                let ended = Instant::now();
                let name = match (full, self.is_local(id)) {
                    (true, true) => "memcloud.put_local",
                    (true, false) => "memcloud.put_remote",
                    (false, true) => "memcloud.append_local",
                    (false, false) => "memcloud.append_remote",
                };
                span(name, root, begun, ended);
                (ok, ended)
            }
            Op::MultiGet(ids) => {
                let got = node.multi_get(&ids);
                let ended = Instant::now();
                span("memcloud.multi_get16", root, begun, ended);
                let ok = got.is_ok_and(|cells| {
                    cells.len() == BATCH
                        && cells
                            .iter()
                            .zip(&ids)
                            .all(|(c, &id)| read_is_correct(c.as_deref(), &self.model[id as usize]))
                });
                (ok, ended)
            }
        };
        if let Some(t) = tracer {
            t.record(root, 0, seq, "cell.op", begun, ended);
        }
        ok.then(|| (ended - begun).as_secs_f64() * 1e6)
    }
}

impl Workload for CellMix {
    const NAME: &'static str = "cell_mix";
    const TAIL: Tail = Tail::PerTrial(0.99);

    fn setup(seed: u64, smoke: bool) -> Self {
        let sizes = if smoke { &SMOKE } else { &FULL };
        let schema = compile(&parse(SCHEMA).expect("schema parses")).expect("schema compiles");
        let layout = Arc::clone(schema.struct_layout("Person").expect("Person is declared"));
        // Small trunks on purpose. A trunk's allocator marches its head
        // through the whole reserved range before it reuses any of it,
        // and every fresh page costs a fault: with the default 64 MiB the
        // first pass took ~3 M ops, during which a trial ran up to 2x
        // slower than before or after. With 4 MiB (≈3.5x the live bytes
        // per trunk) the warm-up trial alone completes the first pass.
        let mut cfg = cloud_config(MACHINES, 2);
        cfg.store.trunk.reserved_bytes = TRUNK_BYTES;
        let cloud = Arc::new(MemoryCloud::new(cfg));
        let table = cloud.node(0).table();
        let (persons, total) = (
            sizes.persons as u64,
            (sizes.persons + sizes.adjacency) as u64,
        );

        // Every cell is written once, in id order, through its owner's
        // `CloudNode::put` (a local write), so each trunk's allocation
        // order is a function of the seed alone.
        let mut rng = Rng::new(seed, 0x10ad);
        let names: Vec<String> = (0..persons)
            .map(|id| trinity_graphgen::names::name_for(seed, id))
            .collect();
        let mut model = Vec::with_capacity(total as usize);
        for id in 0..total {
            let bytes = if id < persons {
                let friends: Vec<i64> = (0..4 + rng.below(25))
                    .map(|_| rng.below(persons) as i64)
                    .collect();
                let age = 18 + rng.below(60) as i32;
                encode_person(&layout, &names[id as usize], age, &friends)
            } else {
                (0..ADJACENCY_START / 8)
                    .flat_map(|_| rng.below(total).to_le_bytes())
                    .collect()
            };
            cloud
                .node(table.machine_of(id).0 as usize)
                .put(id, &bytes)
                .expect("load a cell through its owner");
            model.push(bytes);
        }

        // Hot set, fixed per seed: 80 % persons, 20 % adjacency cells, and
        // the same number on every machine, so the share of hot ops that
        // cross the fabric does not wobble with the seed.
        let mut rng = Rng::new(seed, 0x407);
        let mut owned = vec![(Vec::new(), Vec::new()); MACHINES];
        for id in 0..total {
            owned[table.machine_of(id).0 as usize].0.push(id);
        }
        let (mut hot_persons, mut hot_adjacency) = (Vec::new(), Vec::new());
        for (all, hot) in &mut owned {
            let split = all.partition_point(|&id| id < persons);
            let (mine, adjacent) = all.split_at(split);
            let quota = sizes.hot / MACHINES;
            for (pool, share, into) in [
                (mine, quota * 4 / 5, &mut hot_persons),
                (adjacent, quota / 5, &mut hot_adjacency),
            ] {
                let picked = rng.distinct(pool.len() as u64, share);
                into.extend(picked.iter().map(|&i| pool[i as usize]));
                hot.extend(picked.iter().map(|&i| pool[i as usize]));
            }
            hot.sort_unstable();
        }
        assert!(
            owned
                .iter()
                .all(|(all, hot)| all.len() >= BATCH && hot.len() >= BATCH),
            "every machine needs at least {BATCH} hot cells"
        );

        CellMix {
            seed,
            sizes,
            client: Arc::clone(cloud.node(0)),
            cloud,
            table,
            layout,
            names,
            model,
            hot_persons,
            hot_adjacency,
            owned,
            space_samples: Vec::new(),
        }
    }

    fn cloud(&self) -> &Arc<MemoryCloud> {
        &self.cloud
    }

    fn run_trial(&mut self, trial: usize, tracer: Option<&Tracer>) -> TrialOutput {
        let mut rng = self.trial_rng(trial);
        let mut out = TrialOutput {
            attempted: self.sizes.ops as u64,
            ..TrialOutput::default()
        };
        out.lat_us.reserve(self.sizes.ops);
        for i in 0..self.sizes.ops {
            let op = self.next_op(&mut rng);
            let sampled = tracer.filter(|_| (i as u64).is_multiple_of(TRACE_ONE_IN));
            match self.execute(i as u64, op, sampled) {
                Some(lat) => out.lat_us.push(lat),
                None => out.failed += 1,
            }
            if (i + 1).is_multiple_of(DEFRAG_EVERY) {
                if trial > 0 {
                    self.space_samples
                        .push((stored_bytes(&self.cloud), self.user_bytes()));
                }
                let begun = Instant::now();
                for n in self.cloud.nodes() {
                    n.store().defrag_sweep();
                }
                if let Some(t) = tracer {
                    t.span(0, i as u64, "memstore.defrag_sweep", begun, Instant::now());
                }
            }
        }
        out
    }

    /// The peak over the readings taken right before every defrag sweep
    /// of the measured trials — the space one has to provision. Dead
    /// bytes and the allocator's circular window breathe with a period
    /// of about a million ops (1.41–1.58 within one run), so a single
    /// reading at the end, or a mean over the run's one or two periods,
    /// moved ±1.5 % with the seed; the peak moves a third of that.
    fn space_amp(&mut self) -> f64 {
        self.space_samples
            .iter()
            .map(|&(stored, user)| stored as f64 / user.max(1) as f64)
            .fold(0.0, f64::max)
    }

    fn config(&self) -> Vec<(&'static str, String)> {
        vec![
            (
                "cells",
                format!(
                    "{} TSL Person cells (4-28 friends) + {} raw u64-list adjacency cells, \
                     seed={}, loaded through each owner's CloudNode::put",
                    self.sizes.persons, self.sizes.adjacency, self.seed
                ),
            ),
            (
                "cluster",
                format!(
                    "{MACHINES} machines, workers_per_machine=2, cache_capacity=4096, {} MiB \
                     trunks",
                    TRUNK_BYTES >> 20
                ),
            ),
            (
                "mix",
                format!(
                    "{} ops per trial (spans for 1 op in {TRACE_ONE_IN} when traced): 50% get+accessor read, 25% put (re-encode, redrawn \
                     friend count), 15% 8-byte append (lists cut back to 16 ids at 64), 10% multi_get of {BATCH} cells of one \
                     machine; 80% on a {}-id hot set, 20% uniform over all {} ids",
                    self.sizes.ops,
                    self.sizes.hot,
                    self.total()
                ),
            ),
            (
                "defrag",
                format!("store().defrag_sweep() on every machine every {DEFRAG_EVERY} ops"),
            ),
            (
                "load",
                "closed loop, 1 client thread on machine 0".to_string(),
            ),
            ("tail", "p99 per trial, best trial".into()),
        ]
    }

    fn layer_metrics(&mut self, ctx: &LayerCtx<'_>, out: &mut MetricSet) {
        for (metric, span) in [
            ("memcloud.get_local_us", "memcloud.get_local"),
            ("memcloud.get_remote_us", "memcloud.get_remote"),
            ("memcloud.put_remote_us", "memcloud.put_remote"),
            ("memcloud.append_remote_us", "memcloud.append_remote"),
            ("memcloud.multi_get16_us", "memcloud.multi_get16"),
        ] {
            out.set(metric, ctx.span_p50_us(span));
        }
        // Replays: the accessor read and the builder encode on their own,
        // over the first 20 000 Person cells of the model.
        let sample = self.sizes.persons.min(20_000);
        let per_cell = |began: Instant| began.elapsed().as_nanos() as f64 / sample as f64;
        out.set(
            "tsl.read_ns",
            median_pass(|| {
                let t0 = Instant::now();
                for blob in &self.model[..sample] {
                    black_box(read_person(&self.layout, blob));
                }
                per_cell(t0)
            }),
        );
        let decoded: Vec<(i32, Vec<i64>)> = self.model[..sample]
            .iter()
            .map(|blob| {
                let acc = CellAccessor::new(&self.layout, blob);
                (
                    acc.get_int("Age").expect("model cells are valid"),
                    acc.list_longs("Friends")
                        .expect("model cells are valid")
                        .collect(),
                )
            })
            .collect();
        out.set(
            "tsl.encode_ns",
            median_pass(|| {
                let t0 = Instant::now();
                for (name, (age, friends)) in self.names.iter().zip(&decoded) {
                    black_box(encode_person(&self.layout, name, *age, friends));
                }
                per_cell(t0)
            }),
        );
    }

    fn shutdown(self) {
        self.cloud.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_rejects_stale_missing_and_truncated_reads() {
        assert!(read_is_correct(Some(b"abc"), b"abc"));
        // A deliberately wrong expectation must fail.
        assert!(!read_is_correct(Some(b"abc"), b"abd"));
        assert!(!read_is_correct(Some(b"ab"), b"abc"));
        assert!(!read_is_correct(None, b"abc"));
    }

    #[test]
    fn model_bytes_equal_the_stores_live_payload() {
        let mut w = CellMix::setup(5, true);
        let live = |w: &CellMix| -> u64 {
            w.cloud
                .nodes()
                .iter()
                .map(|n| n.store().stats().live_payload_bytes as u64)
                .sum()
        };
        assert_eq!(w.user_bytes(), live(&w));
        let out = w.run_trial(1, None);
        assert_eq!(out.attempted, SMOKE.ops as u64);
        assert_eq!(out.failed, 0);
        // Still exact after puts, appends, relocations and invalidations.
        assert_eq!(w.user_bytes(), live(&w));
        w.shutdown();
    }

    #[test]
    fn a_model_that_disagrees_with_the_cloud_fails_the_op() {
        let mut w = CellMix::setup(5, true);
        let id = w.hot_persons[0];
        assert!(w.execute(0, Op::Get(id), None).is_some());
        w.model[id as usize].push(0);
        assert!(w.execute(1, Op::Get(id), None).is_none());
        w.shutdown();
    }

    #[test]
    fn op_sequences_repeat_per_seed_and_trial() {
        let w = CellMix::setup(5, true);
        let ops = |trial| -> String {
            let mut rng = w.trial_rng(trial);
            (0..200)
                .map(|_| format!("{:?}", w.next_op(&mut rng)))
                .collect()
        };
        assert_eq!(ops(1), ops(1));
        assert_ne!(ops(1), ops(2));
        w.shutdown();
    }
}
