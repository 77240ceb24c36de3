//! Hostile input on the EXPAND wire.
//!
//! Both directions are checked against a model of the format written out
//! here, independent of the engine's own codecs:
//!
//! ```text
//! request: u16 plen | pattern | u32 n | n × u64 id
//! reply:   u32 m | m × u64 match | u32 n | n × u64 neighbor
//! ```
//!
//! * **Request handler**: any byte string sent to a slave's EXPAND
//!   handler is answered without a panic — empty for a malformed request,
//!   and for a well-formed one exactly the reply the source `Csr` dictates.
//! * **Reply decoder**: any byte string handed back to the coordinator as
//!   a reply never panics; a malformed one is counted in `failed_batches`,
//!   a well-formed one is taken at its word (round trip), and every
//!   request the coordinator emits decodes under the model.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use trinity_core::{explore_via, CallHook, ExploreOptions, Explorer};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::{FrameBuf, MachineId, ProtoId};

const MACHINES: usize = 3;
const NODES: usize = 120;
const NAME_SEED: u64 = 13;

fn take<'a>(data: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    let (head, tail) = data.split_at_checked(n)?;
    *data = tail;
    Some(head)
}

fn take_ids(data: &mut &[u8]) -> Option<Vec<u64>> {
    let n = u32::from_le_bytes(take(data, 4)?.try_into().unwrap()) as usize;
    let body = take(data, n.checked_mul(8)?)?;
    Some(
        body.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect(),
    )
}

fn put_ids(out: &mut Vec<u8>, ids: &[u64]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
}

fn model_request(mut data: &[u8]) -> Option<(Vec<u8>, Vec<u64>)> {
    let plen = u16::from_le_bytes(take(&mut data, 2)?.try_into().unwrap()) as usize;
    let pattern = take(&mut data, plen)?.to_vec();
    Some((pattern, take_ids(&mut data)?))
}

fn model_reply(mut data: &[u8]) -> Option<(Vec<u64>, Vec<u64>)> {
    Some((take_ids(&mut data)?, take_ids(&mut data)?))
}

fn encode_request(pattern: &[u8], ids: &[u64]) -> Vec<u8> {
    let mut out = (pattern.len() as u16).to_le_bytes().to_vec();
    out.extend_from_slice(pattern);
    put_ids(&mut out, ids);
    out
}

fn encode_reply(matches: &[u64], neighbors: &[u64]) -> Vec<u8> {
    let mut out = Vec::new();
    put_ids(&mut out, matches);
    put_ids(&mut out, neighbors);
    out
}

/// One loaded cluster shared by every case (read-only after set-up).
struct Fixture {
    cloud: Arc<MemoryCloud>,
    csr: Csr,
    expand: ProtoId,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let csr = trinity_graphgen::social(NODES, 6, 5);
        let cloud = Arc::new(MemoryCloud::new(CloudConfig::small(MACHINES)));
        load_graph(
            Arc::clone(&cloud),
            &csr,
            &LoadOptions {
                with_in_links: false,
                attrs: Some(Arc::new(|v| name_for(NAME_SEED, v).into_bytes())),
            },
        )
        .unwrap();
        let explorer = Explorer::install(Arc::clone(&cloud));
        // The EXPAND protocol id is not public: learn it from the call hook.
        let seen = Arc::new(Mutex::new(None));
        let hook: CallHook = {
            let (seen, cloud) = (Arc::clone(&seen), Arc::clone(&cloud));
            Arc::new(move |dst, proto, payload| {
                *seen.lock().unwrap() = Some(proto);
                cloud.node(0).endpoint().call(dst, proto, payload)
            })
        };
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        explorer.explore_with(0, 0, 0, b"", &opts);
        let expand = seen.lock().unwrap().expect("explore issued no call");
        Fixture { cloud, csr, expand }
    })
}

/// What a correct slave answers to a well-formed request: matches in
/// request order, neighbors sorted and deduplicated, unknown ids skipped.
fn expected_reply(csr: &Csr, pattern: &[u8], ids: &[u64]) -> Vec<u8> {
    let live = || ids.iter().copied().filter(|&v| v < NODES as u64);
    let named = |v: u64| {
        let name = name_for(NAME_SEED, v).into_bytes();
        !pattern.is_empty() && name.windows(pattern.len()).any(|w| w == pattern)
    };
    let matches: Vec<u64> = live().filter(|&v| named(v)).collect();
    let neighbors: BTreeSet<u64> = live().flat_map(|v| csr.neighbors(v)).copied().collect();
    encode_reply(&matches, &neighbors.into_iter().collect::<Vec<_>>())
}

/// An optional byte flip, then an optional truncation.
type Damage = (Option<(u16, u8)>, Option<u16>);

fn damage() -> impl Strategy<Value = Damage> {
    (
        proptest::option::of((any::<u16>(), any::<u8>())),
        proptest::option::of(any::<u16>()),
    )
}

fn damaged(mut bytes: Vec<u8>, (flip, cut): Damage) -> Vec<u8> {
    if let (Some((at, value)), false) = (flip, bytes.is_empty()) {
        let at = at as usize % bytes.len();
        bytes[at] = value;
    }
    if let Some(cut) = cut {
        bytes.truncate(cut as usize % (bytes.len() + 1));
    }
    bytes
}

/// Arbitrary bytes, or a well-formed message that is damaged half the time.
fn hostile(
    well_formed: impl Strategy<Value = Vec<u8>> + 'static,
) -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        1 => proptest::collection::vec(any::<u8>(), 0..64),
        4 => (well_formed, any::<bool>(), damage())
            .prop_map(|(bytes, hurt, d)| if hurt { damaged(bytes, d) } else { bytes }),
    ]
}

fn some_ids() -> impl Strategy<Value = Vec<u64>> {
    // Mostly real vertices, with a tail of ids nothing was ever stored under.
    proptest::collection::vec(0u64..(NODES as u64 + 30), 0..12)
}

fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    let pattern = prop_oneof![
        1 => Just(Vec::new()),
        1 => Just(b"David".to_vec()),
        1 => Just(b"a".to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 0..4),
    ];
    hostile((pattern, some_ids()).prop_map(|(p, ids)| encode_request(&p, &ids)))
}

fn reply_bytes() -> impl Strategy<Value = Vec<u8>> {
    hostile((some_ids(), some_ids()).prop_map(|(m, n)| encode_reply(&m, &n)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn expand_handler_answers_any_bytes_without_panicking(
        bytes in request_bytes(),
        dst in 0u16..MACHINES as u16,
    ) {
        let fx = fixture();
        // A handler that panicked would leave the call to time out.
        let reply = fx.cloud.node(0).endpoint().call(MachineId(dst), fx.expand, &bytes);
        prop_assert!(reply.is_ok(), "no answer to {bytes:?}: {reply:?}");
        let reply = reply.unwrap();
        match model_request(&bytes) {
            None => prop_assert!(reply.is_empty(), "malformed {bytes:?} got {reply:?}"),
            Some((pattern, ids)) => prop_assert_eq!(
                reply.into_vec(),
                expected_reply(&fx.csr, &pattern, &ids),
                "pattern {pattern:?} ids {ids:?}"
            ),
        }
    }

    #[test]
    fn reply_decoder_counts_malformed_and_round_trips_well_formed(
        bytes in reply_bytes(),
        start in 0u64..NODES as u64,
        from in 0usize..MACHINES,
    ) {
        let fx = fixture();
        let table = fx.cloud.node(from).table();
        // Every fan-out call is answered with `bytes`, whatever it asked.
        let asked = Arc::new(Mutex::new(Vec::new()));
        let hook: CallHook = {
            let (asked, bytes) = (Arc::clone(&asked), bytes.clone());
            Arc::new(move |dst, _proto, payload| {
                asked.lock().unwrap().push((dst, payload.to_vec()));
                Ok(FrameBuf::from_vec(bytes.clone()))
            })
        };
        let opts = ExploreOptions { call: Some(hook), ..Default::default() };
        let got = explore_via(
            fx.cloud.node(from).endpoint(), &table, MACHINES, start, 1, b"Da", &opts,
        );
        let asked = std::mem::take(&mut *asked.lock().unwrap());
        // Requests: hop 0 asks the start's owner about the start alone.
        prop_assert_eq!(
            asked.first(),
            Some(&(table.machine_of(start), encode_request(b"Da", &[start])))
        );
        prop_assert_eq!(got.batches, asked.len());
        let Some((matches, neighbors)) = model_reply(&bytes) else {
            prop_assert_eq!(got.failed_batches, 1, "{bytes:?}");
            prop_assert_eq!(&got.per_hop, &vec![1]);
            prop_assert!(got.matches.is_empty());
            prop_assert_eq!(asked.len(), 1);
            return Ok(());
        };
        // Well-formed: the reply is taken at its word. Its neighbors become
        // hop 1's frontier, first occurrence first, each sent to its owner.
        prop_assert_eq!(got.failed_batches, 0, "{bytes:?}");
        let mut seen = BTreeSet::from([start]);
        let frontier: Vec<u64> = neighbors.into_iter().filter(|&n| seen.insert(n)).collect();
        let mut per_hop = vec![1];
        per_hop.extend((!frontier.is_empty()).then_some(frontier.len()));
        prop_assert_eq!(&got.per_hop, &per_hop);
        prop_assert_eq!(got.matches, BTreeSet::from_iter(matches).into_iter().collect::<Vec<_>>());
        let mut routed = Vec::new();
        for (dst, payload) in &asked[1..] {
            let request = model_request(payload);
            prop_assert!(request.is_some(), "coordinator emitted {payload:?}");
            let (pattern, ids) = request.unwrap();
            prop_assert_eq!(pattern.as_slice(), b"Da");
            prop_assert!(!ids.is_empty(), "empty batch sent to {dst:?}");
            prop_assert!(ids.iter().all(|&id| table.machine_of(id) == *dst));
            routed.push((*dst, ids));
        }
        routed.sort();
        let mut expect: Vec<(MachineId, Vec<u64>)> = Vec::new();
        for m in 0..MACHINES as u16 {
            let ids: Vec<u64> = frontier
                .iter()
                .copied()
                .filter(|&id| table.machine_of(id) == MachineId(m))
                .collect();
            if !ids.is_empty() {
                expect.push((MachineId(m), ids));
            }
        }
        prop_assert_eq!(routed, expect);
    }
}
