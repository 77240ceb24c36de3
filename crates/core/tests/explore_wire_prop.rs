//! Hostile input on the EXPAND wire.
//!
//! Both directions are checked against the model of the format in
//! `wire_model/`, which shares no code with the engine's own codecs.
//!
//! * **Request handler**: any byte string sent to a slave's EXPAND
//!   handler is answered without a panic — empty for a malformed request,
//!   and for a well-formed one exactly the reply the source `Csr` dictates
//!   (no neighbors unless the request wants them).
//! * **Reply decoder**: any byte string handed back to the coordinator as
//!   a reply never panics; a malformed one is counted in `failed_batches`,
//!   a well-formed one is taken at its word (round trip, truncated flag
//!   included), and every request the coordinator emits decodes under the
//!   model, goes to the owner, and asks for neighbors on every round but
//!   the last.

#[path = "wire_model/mod.rs"]
mod wire_model;

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, OnceLock};

use proptest::prelude::*;

use trinity_core::{explore_via, CallHook, ExploreOptions, Explorer};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::{FrameBuf, MachineId, ProtoId};
use wire_model::{decode_reply, decode_request, encode_reply, encode_request, Twist, Writer};

const MACHINES: usize = 3;
const NODES: usize = 120;
const NAME_SEED: u64 = 13;

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
            Arc::new(move |requests| {
                *seen.lock().unwrap() = requests.first().map(|&(_, proto, _)| proto);
                cloud.node(0).endpoint().call_many(requests)
            })
        };
        let opts = ExploreOptions {
            call: Some(hook),
            ..Default::default()
        };
        // Zero hops still issues the match round when there is a pattern.
        explorer.explore_with(0, 0, 0, b"x", &opts);
        let expand = seen.lock().unwrap().expect("explore issued no call");
        Fixture { cloud, csr, expand }
    })
}

/// What a correct slave answers to a well-formed request: matches in
/// request (ascending) order, neighbors — only if wanted — sorted and
/// deduplicated, unknown ids skipped, nothing truncated.
fn expected_reply(csr: &Csr, request: &wire_model::Request) -> Vec<u8> {
    let live = || request.ids.iter().copied().filter(|&v| v < NODES as u64);
    let pattern = request.pattern.as_slice();
    let named = |v: u64| {
        let name = name_for(NAME_SEED, v).into_bytes();
        !pattern.is_empty() && name.windows(pattern.len()).any(|w| w == pattern)
    };
    let matches: Vec<u64> = live().filter(|&v| named(v)).collect();
    let neighbors: BTreeSet<u64> = live()
        .filter(|_| request.want_neighbors)
        .flat_map(|v| csr.neighbors(v))
        .copied()
        .collect();
    encode_reply(false, &matches, &neighbors.into_iter().collect::<Vec<_>>())
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

/// A strictly ascending list: mostly real vertices, with a tail of ids
/// nothing was ever stored under, some of them right below `u64::MAX`.
fn some_ids() -> impl Strategy<Value = Vec<u64>> {
    let id = prop_oneof![
        8 => 0u64..(NODES as u64 + 30),
        1 => (0u64..4).prop_map(|k| u64::MAX - k),
    ];
    proptest::collection::vec(id, 0..12)
        .prop_map(|ids| BTreeSet::from_iter(ids).into_iter().collect())
}

/// What goes into a list slot of a forged message: usually a proper list,
/// sometimes one in arbitrary order with repeats (which the format bans).
fn id_list() -> impl Strategy<Value = Vec<u64>> {
    prop_oneof![
        6 => some_ids(),
        1 => proptest::collection::vec(0u64..(NODES as u64 + 30), 2..8),
    ]
}

/// Usually none; otherwise one of the message's first few varints spoiled.
fn twist() -> impl Strategy<Value = Option<(usize, Twist)>> {
    let how = prop_oneof![
        1 => Just(Twist::Padded),
        1 => Just(Twist::TooLong),
        1 => Just(Twist::Overflowing),
        1 => Just(Twist::Huge),
    ];
    prop_oneof![4 => Just(None), 1 => (0usize..6, how).prop_map(Some)]
}

fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    let pattern = prop_oneof![
        1 => Just(Vec::new()),
        1 => Just(b"David".to_vec()),
        1 => Just(b"a".to_vec()),
        1 => proptest::collection::vec(any::<u8>(), 0..4),
    ];
    hostile(
        (any::<bool>(), pattern, id_list(), twist())
            .prop_map(|(want, p, ids, t)| Writer::twisted(t).request(want, &p, &ids)),
    )
}

fn reply_bytes() -> impl Strategy<Value = Vec<u8>> {
    hostile(
        (any::<bool>(), id_list(), id_list(), twist())
            .prop_map(|(cut, m, n, t)| Writer::twisted(t).reply(cut, &m, &n)),
    )
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
        match decode_request(&bytes) {
            None => prop_assert!(reply.is_empty(), "malformed {bytes:?} got {reply:?}"),
            Some(request) => prop_assert_eq!(
                reply.into_vec(),
                expected_reply(&fx.csr, &request),
                "{request:?}"
            ),
        }
    }

    #[test]
    fn reply_decoder_counts_malformed_and_round_trips_well_formed(
        bytes in reply_bytes(),
        start in 0u64..NODES as u64,
        from in 0usize..MACHINES,
        hops in 1usize..=2,
        pattern in prop_oneof![1 => Just(&b"Da"[..]), 1 => Just(&b""[..])],
    ) {
        let fx = fixture();
        let table = fx.cloud.node(from).table();
        // Every fan-out call is answered with `bytes`, whatever it asked.
        let asked = Arc::new(Mutex::new(Vec::new()));
        let hook: CallHook = {
            let (asked, bytes) = (Arc::clone(&asked), bytes.clone());
            Arc::new(move |requests| {
                requests
                    .iter()
                    .map(|&(dst, _proto, payload)| {
                        asked.lock().unwrap().push((dst, payload.to_vec()));
                        Ok(FrameBuf::from_vec(bytes.clone()))
                    })
                    .collect()
            })
        };
        let opts = ExploreOptions { call: Some(hook), ..Default::default() };
        let got = explore_via(
            fx.cloud.node(from).endpoint(), &table, MACHINES, start, hops, pattern, &opts,
        );
        let asked = std::mem::take(&mut *asked.lock().unwrap());
        // Requests: round 0 asks the start's owner about the start alone,
        // and wants its neighbors (there is at least one hop to go).
        prop_assert_eq!(
            asked.first(),
            Some(&(table.machine_of(start), encode_request(true, pattern, &[start])))
        );
        prop_assert_eq!(got.batches, asked.len());
        let Some(reply) = decode_reply(&bytes) else {
            prop_assert_eq!(got.failed_batches, 1, "{bytes:?}");
            prop_assert_eq!(&got.per_hop, &vec![1]);
            prop_assert!(got.matches.is_empty());
            prop_assert!(!got.deadline_exceeded);
            prop_assert_eq!(asked.len(), 1);
            return Ok(());
        };
        // Well-formed: the reply is taken at its word. Its neighbors become
        // level 1, each sent to its owner in ascending order — if a second
        // round has anything to ask: more neighbors, or matches.
        prop_assert_eq!(got.failed_batches, 0, "{bytes:?}");
        prop_assert_eq!(got.deadline_exceeded, reply.truncated);
        let frontier: Vec<u64> = reply.neighbors.into_iter().filter(|&n| n != start).collect();
        let mut per_hop = vec![1];
        per_hop.extend((!frontier.is_empty()).then_some(frontier.len()));
        prop_assert_eq!(&got.per_hop, &per_hop);
        prop_assert_eq!(got.matches, reply.matches);
        // The same reply again reveals nothing new, so round 1 is the last
        // issued; it wants neighbors iff the hop budget has one more level.
        let rounds = hops + usize::from(!pattern.is_empty());
        let mut routed = Vec::new();
        for (dst, payload) in &asked[1..] {
            let request = decode_request(payload);
            prop_assert!(request.is_some(), "coordinator emitted {payload:?}");
            let request = request.unwrap();
            prop_assert_eq!(request.want_neighbors, hops > 1, "round 1 of {}", rounds);
            prop_assert_eq!(request.pattern.as_slice(), pattern);
            prop_assert!(!request.ids.is_empty(), "empty batch sent to {dst:?}");
            prop_assert!(request.ids.iter().all(|&id| table.machine_of(id) == *dst));
            routed.push((*dst, request.ids));
        }
        routed.sort();
        let mut expect: Vec<(MachineId, Vec<u64>)> = Vec::new();
        for m in 0..MACHINES as u16 {
            let ids: Vec<u64> = frontier
                .iter()
                .copied()
                .filter(|&id| rounds > 1 && table.machine_of(id) == MachineId(m))
                .collect();
            if !ids.is_empty() {
                expect.push((MachineId(m), ids));
            }
        }
        prop_assert_eq!(routed, expect);
    }
}
