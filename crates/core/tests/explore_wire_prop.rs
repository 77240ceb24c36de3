//! Hostile input on the traversal wire, at the handlers.
//!
//! Requests are checked against the model of the formats in `wire_model/`,
//! which shares no code with the engine's own codecs (the loop's reply
//! decoding is checked by `online.rs`'s unit tests, against the same
//! model):
//!
//! * **EXPAND**: any byte string sent to a slave's EXPAND handler is
//!   answered without a panic — empty for a malformed request, and for a
//!   well-formed one exactly the reply the source `Csr` dictates (no
//!   neighbors unless the request wants them).
//! * **EXPLORE**: any byte string sent to a slave's EXPLORE handler gets
//!   the empty reply when the request is malformed, and otherwise a
//!   well-formed answer that is the reference BFS's, wherever the start
//!   node lives.

#[path = "wire_model/mod.rs"]
mod wire_model;

use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use trinity_core::{Explorer, EXPAND, EXPLORE};
use trinity_graph::{load_graph, Csr, LoadOptions};
use trinity_graphgen::names::name_for;
use trinity_memcloud::{CloudConfig, MemoryCloud};
use trinity_net::MachineId;
use wire_model::{any_id, decode_query, decode_request, encode_reply, id_list, twist, Writer};

const MACHINES: usize = 3;
const NODES: usize = 120;
const NAME_SEED: u64 = 13;

/// One loaded cluster shared by every case (read-only after set-up).
struct Fixture {
    cloud: Arc<MemoryCloud>,
    csr: Csr,
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
        Explorer::install(Arc::clone(&cloud));
        Fixture { cloud, csr }
    })
}

/// Whether vertex `v` exists and its name contains a non-empty `pattern`.
fn named(v: u64, pattern: &[u8]) -> bool {
    let name = name_for(NAME_SEED, v).into_bytes();
    v < NODES as u64 && !pattern.is_empty() && name.windows(pattern.len()).any(|w| w == pattern)
}

/// What a correct slave answers to a well-formed request: matches in
/// request (ascending) order, neighbors — only if wanted — sorted and
/// deduplicated, unknown ids skipped, nothing truncated.
fn expected_reply(csr: &Csr, request: &wire_model::Request) -> Vec<u8> {
    let live = || request.ids.iter().copied().filter(|&v| v < NODES as u64);
    let matches: Vec<u64> = live().filter(|&v| named(v, &request.pattern)).collect();
    let neighbors: BTreeSet<u64> = live()
        .filter(|_| request.want_neighbors)
        .flat_map(|v| csr.neighbors(v))
        .copied()
        .collect();
    encode_reply(false, &matches, &neighbors.into_iter().collect::<Vec<_>>())
}

/// The reference BFS of a well-formed query: `per_hop` (no empty level)
/// and the sorted matches. A start nothing is stored under is visited and
/// matches nothing.
fn expected_answer(csr: &Csr, query: &wire_model::Query) -> (Vec<u64>, Vec<u64>) {
    let mut seen = BTreeSet::from([query.start]);
    let mut level = vec![query.start];
    let mut per_hop = vec![1];
    let mut matches: Vec<u64> = Vec::new();
    for hop in 0.. {
        matches.extend(level.iter().filter(|&&v| named(v, &query.pattern)));
        if hop >= query.hops {
            break;
        }
        let next: Vec<u64> = level
            .iter()
            .filter(|&&v| v < NODES as u64)
            .flat_map(|&v| csr.neighbors(v))
            .copied()
            .filter(|&t| seen.insert(t))
            .collect();
        if next.is_empty() {
            break;
        }
        per_hop.push(next.len() as u64);
        level = next;
    }
    matches.sort_unstable();
    (per_hop, matches)
}

fn request_bytes() -> impl Strategy<Value = Vec<u8>> {
    wire_model::hostile(
        (
            any::<bool>(),
            wire_model::pattern(),
            id_list(NODES as u64),
            twist(),
        )
            .prop_map(|(want, p, ids, t)| Writer::twisted(t).request(want, &p, &ids)),
    )
}

fn query_bytes() -> impl Strategy<Value = Vec<u8>> {
    let hops = prop_oneof![8 => 0u64..5, 1 => any::<u64>()];
    wire_model::hostile(
        (
            any::<bool>(),
            hops,
            wire_model::pattern(),
            any_id(NODES as u64),
            twist(),
        )
            .prop_map(|(budgeted, hops, p, start, t)| {
                Writer::twisted(t).query(budgeted, hops, &p, start)
            }),
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
        let reply = fx.cloud.node(0).endpoint().call(MachineId(dst), EXPAND, &bytes);
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
    fn explore_handler_answers_any_bytes_empty_or_well_formed(
        bytes in query_bytes(),
        dst in 0u16..MACHINES as u16,
    ) {
        let fx = fixture();
        // A handler that panicked would leave the call to time out.
        let reply = fx.cloud.node(0).endpoint().call(MachineId(dst), EXPLORE, &bytes);
        prop_assert!(reply.is_ok(), "no answer to {bytes:?}: {reply:?}");
        let reply = reply.unwrap();
        let Some(query) = decode_query(&bytes) else {
            prop_assert!(reply.is_empty(), "malformed {bytes:?} got {reply:?}");
            return Ok(());
        };
        let answer = wire_model::decode_answer(&reply);
        prop_assert!(answer.is_some(), "{query:?} got {reply:?}");
        let answer = answer.unwrap();
        prop_assert!(!answer.deadline_exceeded && answer.failed_batches == 0, "{answer:?}");
        let (per_hop, matches) = expected_answer(&fx.csr, &query);
        prop_assert_eq!((answer.per_hop, answer.matches), (per_hop, matches), "{:?}", query);
    }
}
