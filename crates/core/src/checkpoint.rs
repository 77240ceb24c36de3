//! BSP checkpointing (paper §6.2).
//!
//! "For BSP based synchronous computation, we make check points every a
//! few supersteps. These check points are written to the persistent file
//! system for future failure recovery."
//!
//! [`run_with_checkpoints`] executes a BSP job in segments of
//! `every` supersteps; after each segment the full job state — vertex
//! states, pending messages, active set, superstep counter — is written
//! to TFS. [`resume_from_checkpoint`] restarts a crashed job from its
//! last completed segment and runs it to termination: lost supersteps are
//! recomputed, never lost results.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use trinity_memcloud::CellId;
use trinity_memstore::codec::{DecodeError, Reader};
use trinity_tfs::TfsError;

use crate::bsp::{BspConfig, BspResult, BspRunner, ResumePoint, SuperstepReport, VertexProgram};

/// Checkpoint cadence and naming.
#[derive(Clone)]
pub struct CheckpointConfig {
    /// Supersteps between checkpoints.
    pub every: usize,
    /// Job name (TFS key prefix).
    pub job: String,
    /// Called with the superstep counter after each checkpoint is
    /// persisted — the segment boundary where a crash loses no completed
    /// work. The chaos harness hangs [`trinity_net::Fabric::chaos_mark`]
    /// here to fire scheduled crashes exactly between segments.
    pub on_segment: Option<Arc<dyn Fn(usize) + Send + Sync>>,
}

impl CheckpointConfig {
    /// Checkpoint every `every` supersteps under the job name `job`.
    pub fn new(every: usize, job: impl Into<String>) -> Self {
        CheckpointConfig {
            every,
            job: job.into(),
            on_segment: None,
        }
    }

    /// Install a segment-boundary hook.
    pub fn with_on_segment(mut self, hook: impl Fn(usize) + Send + Sync + 'static) -> Self {
        self.on_segment = Some(Arc::new(hook));
        self
    }
}

impl std::fmt::Debug for CheckpointConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckpointConfig")
            .field("every", &self.every)
            .field("job", &self.job)
            .field("on_segment", &self.on_segment.as_ref().map(|_| "..."))
            .finish()
    }
}

const MAGIC: &[u8; 4] = b"CKP1";

fn ckpt_path(job: &str) -> String {
    format!("ckpt/{job}")
}

/// `len: u32 | bytes`: one encoded state or message.
fn put_value(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

fn take_value<T>(r: &mut Reader, decode: impl Fn(&[u8]) -> Option<T>) -> Result<T, DecodeError> {
    let len = r.u32()?;
    decode(r.take(len as usize)?).ok_or_else(|| r.error())
}

/// `n: u64 | n × (id: u64 | entry)` in ascending id order: the states,
/// pending messages and active set of a checkpoint, and the states of an
/// asynchronous snapshot.
fn put_by_id<V>(out: &mut Vec<u8>, mut entries: Vec<(CellId, V)>, put: impl Fn(&mut Vec<u8>, V)) {
    entries.sort_unstable_by_key(|e| e.0);
    out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (id, v) in entries {
        out.extend_from_slice(&id.to_le_bytes());
        put(out, v);
    }
}

/// The section [`put_by_id`] writes, each entry at least `min_bytes`
/// long. Ids must ascend strictly, so each map has one encoding.
fn take_by_id<V>(
    r: &mut Reader,
    min_bytes: usize,
    mut take: impl FnMut(&mut Reader) -> Result<V, DecodeError>,
) -> Result<HashMap<CellId, V>, DecodeError> {
    let n = r.u64()?;
    let mut map = HashMap::with_capacity(r.count(n, 8 + min_bytes)?);
    let mut prev = None;
    for _ in 0..n {
        let id = r.u64()?;
        if prev.is_some_and(|p| id <= p) {
            return Err(r.error());
        }
        prev = Some(id);
        map.insert(id, take(r)?);
    }
    Ok(map)
}

/// Serialize a resume point plus its superstep counter.
fn encode_checkpoint<P: VertexProgram>(superstep: usize, point: &ResumePoint<P>) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&(superstep as u64).to_le_bytes());
    let states = point.states.iter().map(|(&id, st)| (id, st)).collect();
    put_by_id(&mut out, states, |out, st| {
        put_value(out, &P::encode_state(st))
    });
    let pending = point.pending.iter().map(|(&id, msgs)| (id, msgs)).collect();
    put_by_id(&mut out, pending, |out, msgs| {
        out.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
        for msg in msgs {
            put_value(out, &P::encode_msg(msg));
        }
    });
    let active = point.active.iter().map(|&id| (id, ())).collect();
    put_by_id(&mut out, active, |_, ()| {});
    out
}

fn decode_checkpoint<P: VertexProgram>(
    data: &[u8],
) -> Result<(usize, ResumePoint<P>), DecodeError> {
    let mut r = Reader::new(data);
    if r.take(MAGIC.len())? != MAGIC {
        return Err(r.error());
    }
    let superstep = r.u64()? as usize;
    let states = take_by_id(&mut r, 4, |r| take_value(r, P::decode_state))?;
    let pending = take_by_id(&mut r, 4, |r| {
        let count = r.u32()?;
        (0..r.count(count.into(), 4)?)
            .map(|_| take_value(r, P::decode_msg))
            .collect()
    })?;
    let active = take_by_id(&mut r, 0, |_| Ok(()))?.into_keys().collect();
    r.finish()?;
    Ok((
        superstep,
        ResumePoint {
            states,
            pending,
            active,
        },
    ))
}

/// Run a BSP job with periodic checkpoints. `cfg.max_supersteps` bounds
/// the whole job; `ckpt.every` bounds each segment.
pub fn run_with_checkpoints<P: VertexProgram>(
    runner: &BspRunner<P>,
    cfg: &BspConfig,
    ckpt: &CheckpointConfig,
) -> Result<BspResult<P>, TfsError> {
    continue_job(runner, cfg, ckpt, None, 0)
}

/// Restart a crashed job from its last checkpoint and run to completion.
/// Returns `Err(NotFound)` if no checkpoint exists.
pub fn resume_from_checkpoint<P: VertexProgram>(
    runner: &BspRunner<P>,
    cfg: &BspConfig,
    ckpt: &CheckpointConfig,
) -> Result<BspResult<P>, TfsError> {
    let tfs = runner.graph().cloud().tfs();
    let bytes = tfs.read(&ckpt_path(&ckpt.job))?;
    let (superstep, point) =
        decode_checkpoint::<P>(&bytes).map_err(|_| TfsError::NotFound(ckpt_path(&ckpt.job)))?;
    continue_job(runner, cfg, ckpt, Some(point), superstep)
}

fn continue_job<P: VertexProgram>(
    runner: &BspRunner<P>,
    cfg: &BspConfig,
    ckpt: &CheckpointConfig,
    mut resume: Option<ResumePoint<P>>,
    mut superstep: usize,
) -> Result<BspResult<P>, TfsError> {
    let tfs = runner.graph().cloud().tfs().clone();
    let every = ckpt.every.max(1);
    let mut all_reports: Vec<SuperstepReport> = Vec::new();
    loop {
        let remaining = cfg.max_supersteps.saturating_sub(superstep);
        if remaining == 0 {
            // Limit reached exactly at a checkpoint boundary.
            let point = resume.take().unwrap_or(ResumePoint {
                states: HashMap::new(),
                pending: HashMap::new(),
                active: HashSet::new(),
            });
            return Ok(BspResult {
                states: point.states,
                reports: all_reports,
                terminated: false,
                pending: point.pending,
                active: point.active,
            });
        }
        let segment = runner.run_resumed(resume.take(), superstep);
        superstep += segment.supersteps();
        all_reports.extend(segment.reports.iter().cloned());
        if segment.terminated {
            return Ok(BspResult {
                states: segment.states,
                reports: all_reports,
                terminated: true,
                pending: segment.pending,
                active: segment.active,
            });
        }
        debug_assert!(
            segment.supersteps() <= every,
            "segments are bounded by the runner's superstep limit"
        );
        let point = segment.into_resume();
        tfs.write(
            &ckpt_path(&ckpt.job),
            &encode_checkpoint::<P>(superstep, &point),
        )?;
        if let Some(hook) = &ckpt.on_segment {
            hook(superstep);
        }
        resume = Some(point);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsp::VertexContext;
    use std::sync::Arc;
    use trinity_graph::{load_graph, Csr, LoadOptions};
    use trinity_memcloud::{CloudConfig, MemoryCloud};

    /// Max-id propagation (deterministic, needs ~n/2 supersteps on a ring).
    struct MaxValue;
    impl VertexProgram for MaxValue {
        type State = u64;
        type Msg = u64;
        fn init(&self, id: u64, _view: &trinity_graph::NodeView<'_>) -> u64 {
            id
        }
        fn compute(
            &self,
            ctx: &mut VertexContext<'_, u64>,
            _id: u64,
            state: &mut u64,
            msgs: &[u64],
        ) {
            let before = *state;
            for &m in msgs {
                *state = (*state).max(m);
            }
            if ctx.superstep() == 0 || *state > before {
                ctx.send_to_neighbors(*state);
            }
            ctx.vote_to_halt();
        }
        fn encode_msg(m: &u64) -> Vec<u8> {
            m.to_le_bytes().to_vec()
        }
        fn decode_msg(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
        fn encode_state(s: &u64) -> Vec<u8> {
            s.to_le_bytes().to_vec()
        }
        fn decode_state(b: &[u8]) -> Option<u64> {
            Some(u64::from_le_bytes(b.try_into().ok()?))
        }
    }

    fn ring(n: usize) -> Csr {
        let edges: Vec<(u64, u64)> = (0..n as u64).map(|v| (v, (v + 1) % n as u64)).collect();
        Csr::undirected_from_edges(n, &edges, true)
    }

    /// A ring of `n` over `machines` machines, loaded for the hub route
    /// (`hubs`) or the grouped one (directed, no in-links).
    fn setup(
        n: usize,
        machines: usize,
        hubs: bool,
    ) -> (Arc<MemoryCloud>, Arc<trinity_graph::DistributedGraph>) {
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(machines)));
        let mut csr = ring(n);
        csr.directed = !hubs;
        let graph =
            Arc::new(load_graph(Arc::clone(&cloud), &csr, &LoadOptions::default()).unwrap());
        (cloud, graph)
    }

    fn segment_cfg(limit: usize) -> BspConfig {
        BspConfig {
            max_supersteps: limit,
            ..BspConfig::default()
        }
    }

    #[test]
    fn checkpointed_run_matches_straight_run() {
        for hubs in [true, false] {
            checkpointed_run_matches_straight_run_on(hubs);
        }
    }

    fn checkpointed_run_matches_straight_run_on(hubs: bool) {
        let n = 30;
        let (cloud, graph) = setup(n, 3, hubs);
        let straight = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(64)).run();
        // Checkpoint every 4 supersteps: runner segments are 4 long.
        let runner = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(4));
        let ckpt = CheckpointConfig::new(4, "maxv");
        let cfg = segment_cfg(64);
        let result = run_with_checkpoints(&runner, &cfg, &ckpt).unwrap();
        assert!(result.terminated);
        assert_eq!(result.states, straight.states);
        assert_eq!(
            result.supersteps(),
            straight.supersteps(),
            "checkpointing must not change the schedule"
        );
        // Superstep numbering in reports is continuous.
        let numbers: Vec<usize> = result.reports.iter().map(|r| r.superstep).collect();
        assert_eq!(numbers, (0..result.supersteps()).collect::<Vec<_>>());
        cloud.shutdown();
    }

    #[test]
    fn crash_and_resume_recovers_exact_results() {
        for hubs in [true, false] {
            crash_and_resume_recovers_exact_results_on(hubs);
        }
    }

    fn crash_and_resume_recovers_exact_results_on(hubs: bool) {
        let n = 40;
        let (cloud, graph) = setup(n, 3, hubs);
        let expected = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(64)).run();
        // "Crash": run only 2 segments (8 supersteps), writing checkpoints.
        let runner = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(4));
        let ckpt = CheckpointConfig::new(4, "crashy");
        let partial = run_with_checkpoints(&runner, &segment_cfg(8), &ckpt).unwrap();
        assert!(
            !partial.terminated,
            "the job must not be done after 8 of ~20 supersteps"
        );
        // Resume on a fresh runner (the crashed engine is gone).
        let runner2 = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(4));
        let resumed = resume_from_checkpoint(&runner2, &segment_cfg(64), &ckpt).unwrap();
        assert!(resumed.terminated);
        assert_eq!(resumed.states, expected.states);
        cloud.shutdown();
    }

    #[test]
    fn resume_without_checkpoint_reports_not_found() {
        let (cloud, graph) = setup(10, 2, true);
        let runner = BspRunner::new(Arc::clone(&graph), MaxValue, segment_cfg(4));
        let ckpt = CheckpointConfig::new(4, "nonexistent");
        assert!(matches!(
            resume_from_checkpoint(&runner, &segment_cfg(16), &ckpt),
            Err(TfsError::NotFound(_))
        ));
        cloud.shutdown();
    }

    #[test]
    fn checkpoint_codec_roundtrips() {
        let point = ResumePoint::<MaxValue> {
            states: [(1u64, 10u64), (2, 20)].into_iter().collect(),
            pending: [(1u64, vec![5u64, 6])].into_iter().collect(),
            active: [2u64].into_iter().collect(),
        };
        let bytes = encode_checkpoint::<MaxValue>(7, &point);
        let (superstep, decoded) = decode_checkpoint::<MaxValue>(&bytes).unwrap();
        assert_eq!(superstep, 7);
        assert_eq!(decoded.states, point.states);
        assert_eq!(decoded.pending, point.pending);
        assert_eq!(decoded.active, point.active);
        assert!(decode_checkpoint::<MaxValue>(b"garbage").is_err());
    }

    /// A TFS image whose state count no bytes back is refused before a
    /// table is sized for it, and bytes after the active set are refused.
    #[test]
    fn checkpoint_counts_and_trailing_bytes_are_refused() {
        let mut lying = b"CKP1".to_vec();
        lying.extend_from_slice(&7u64.to_le_bytes());
        lying.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_checkpoint::<MaxValue>(&lying).is_err());
        let mut bytes = encode_checkpoint::<MaxValue>(7, &ResumePoint::default());
        assert!(decode_checkpoint::<MaxValue>(&bytes).is_ok());
        bytes.push(0);
        assert!(decode_checkpoint::<MaxValue>(&bytes).is_err());
    }

    #[test]
    fn checkpoint_codec_keeps_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        type Point = (HashMap<u64, u64>, HashMap<u64, Vec<u64>>, HashSet<u64>);
        let ids = |rng: &mut Rng| rng.vec(4, Rng::u64);
        check(
            0xc4e1,
            |rng| {
                let states = ids(rng).into_iter().map(|id| (id, rng.u64())).collect();
                let pending = ids(rng).into_iter().map(|id| (id, ids(rng))).collect();
                let point: Point = (states, pending, ids(rng).into_iter().collect());
                (rng.below(1000) as usize, point)
            },
            |(superstep, (states, pending, active))| {
                let point = ResumePoint::<MaxValue> {
                    states: states.clone(),
                    pending: pending.clone(),
                    active: active.clone(),
                };
                encode_checkpoint(*superstep, &point)
            },
            |b| {
                let (superstep, p) = decode_checkpoint::<MaxValue>(b).ok()?;
                Some((superstep, (p.states, p.pending, p.active)))
            },
            true,
        );
    }
}
