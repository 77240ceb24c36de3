//! The BSP run-frame codec against the format model in `run_model/`,
//! which shares no code with `trinity_core::bsp::runs`: hub records
//! (head, gap, the message's change since its hub's last).
//!
//! * **Round trip**: any frame of one width — width 0 to 20, hubs
//!   strictly ascending from anywhere in the `u64` range, gaps inline or
//!   escaped — encodes to exactly the model's bytes and decodes back to
//!   itself; and so does a sequence of frames sharing their hubs' bases,
//!   each frame of its own width, with NaN payloads, both zeros, repeated
//!   and barely changed values, bit for bit, the two ends' bases agreeing
//!   after every frame.
//! * **Hostile bytes**: anything at all handed to the decoder — noise,
//!   damaged frames, a width larger than the frame, hubs repeated or out
//!   of order (a zero gap, or one past `u64::MAX`), records built loosely
//!   (cutting too few zero bytes, or more than the width, or escaping a
//!   short gap) — either is refused (and the model refuses it too) and
//!   moves no base, or decodes to records that re-encode, against the
//!   bases it started from, to the same bytes: every record has exactly
//!   one encoding. It never panics, and a width no bytes back never sizes
//!   an allocation.

#[path = "run_model/mod.rs"]
mod run_model;

use std::collections::HashMap;

use proptest::prelude::*;

use run_model::{Bases, Record, Twist};
use trinity_core::bsp::runs;

/// The engine's bases: each hub's [`runs::base`], by id.
type EngineBases = HashMap<u64, u64>;

/// The frame the engine's sender ships for `records`, against `bases`,
/// which it moves.
fn engine_encode(bases: &mut EngineBases, superstep: u32, records: &[Record]) -> Vec<u8> {
    let mut frame = Vec::new();
    let width = records.first().map_or(0, |r| r.msg.len());
    runs::start(&mut frame, superstep, width);
    let mut prev = 0;
    for r in records {
        let base = bases.insert(r.id, runs::base(&r.msg)).unwrap_or(0);
        runs::push_hub(&mut frame, &mut prev, base, &r.msg, r.id);
    }
    frame
}

/// What the engine's receiver makes of `frame`: records rebuilt from
/// `bases`, which move only when the whole frame decodes.
fn engine_decode(frame: &[u8], bases: &mut EngineBases) -> Option<(u32, Vec<Record>)> {
    let run = runs::decode(frame)?;
    let records = run
        .records
        .iter()
        .map(|&(delta, id)| {
            let mut msg = Vec::new();
            let base = bases.get(&id).copied().unwrap_or(0);
            let next = run.rebuild(delta, base, &mut msg);
            assert_eq!(next, runs::base(&msg));
            bases.insert(id, next);
            Record { msg, id }
        })
        .collect();
    Some((run.superstep, records))
}

/// Whether the engine's and the model's bases agree on every hub.
fn same_bases(engine: &EngineBases, model: &Bases) -> bool {
    let ids = engine.keys().chain(model.keys());
    ids.into_iter().all(|id| {
        let e = engine.get(id).copied().unwrap_or(0);
        e == u64::from_le_bytes(model.get(id).copied().unwrap_or_default())
    })
}

fn some_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..5_000,
        2 => any::<u64>(),
        1 => (0u64..4).prop_map(|k| u64::MAX - k),
        1 => (0u64..4).prop_map(|k| (1u64 << 63) - 2 + k),
    ]
}

/// Records of one width in any order, hubs repeated or not: the order a
/// frame lists them in is `ascending`'s to make.
fn records() -> impl Strategy<Value = Vec<Record>> {
    let record = (proptest::collection::vec(any::<u8>(), 20..21), some_id());
    let width = prop_oneof![1 => Just(0usize), 1 => Just(8usize), 2 => 1usize..=20];
    (width, proptest::collection::vec(record, 0..8)).prop_map(|(width, raw)| {
        raw.into_iter()
            .map(|(msg, id)| Record {
                msg: msg[..width].to_vec(),
                id,
            })
            .collect()
    })
}

/// `records` as a frame lists them: hubs strictly ascending, each hub's
/// first record kept.
fn ascending(mut records: Vec<Record>) -> Vec<Record> {
    records.sort_by_key(|r| r.id);
    records.dedup_by_key(|r| r.id);
    records
}

/// An 8-byte value a hub may send: the shapes a float broadcast takes.
const FLOATS: [f64; 6] = [0.0, -0.0, f64::INFINITY, 1.0 / 15_000.0, 1e-300, -2.5];

/// How a hub record's message is made from its hub's last one.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// Fresh bytes.
    Raw,
    /// The last message again (resized to the frame's width).
    Repeat,
    /// The last message with byte `at` changed.
    Nudge(usize, u8),
    /// At width 8, a NaN with this payload, else fresh bytes.
    Nan(u64),
    /// At width 8, one of [`FLOATS`], else fresh bytes.
    Float(usize),
}

/// One hub record to be: its hub, fresh bytes, and how its value is made.
type Pick = (u64, Vec<u8>, Value);

/// A sequence of hub frames, each of its own width: per record a hub from
/// a small pool (so bases carry over) or anywhere, fresh bytes, and how
/// its message relates to the hub's last.
fn hub_frames() -> impl Strategy<Value = Vec<(usize, Vec<Pick>)>> {
    let id = prop_oneof![4 => 0u64..6, 1 => some_id()];
    let value = prop_oneof![
        2 => Just(Value::Raw),
        3 => Just(Value::Repeat),
        2 => (0usize..20, 1u8..=255).prop_map(|(at, x)| Value::Nudge(at, x)),
        1 => any::<u64>().prop_map(Value::Nan),
        2 => (0..FLOATS.len()).prop_map(Value::Float),
    ];
    let record = (id, proptest::collection::vec(any::<u8>(), 20..21), value);
    let width = prop_oneof![3 => Just(8usize), 2 => 0usize..=20];
    let frame = (width, proptest::collection::vec(record, 0..10));
    proptest::collection::vec(frame, 1..6)
}

fn twist() -> impl Strategy<Value = Option<(usize, Twist)>> {
    let how = prop_oneof![
        1 => Just(Twist::Padded),
        1 => Just(Twist::TooLong),
        1 => Just(Twist::Overflowing),
        1 => Just(Twist::Huge),
    ];
    prop_oneof![2 => Just(None), 3 => (0usize..12, how).prop_map(Some)]
}

/// Bases a receiver may hold: for some hubs of [`some_id`]'s range.
fn bases() -> impl Strategy<Value = Bases> {
    let base = (0u64..5_000, any::<u64>()).prop_map(|(id, b)| (id, b.to_le_bytes()));
    proptest::collection::vec(base, 0..6).prop_map(|v| v.into_iter().collect())
}

/// Raw noise, or a frame of records in any order (so hubs repeat or
/// descend, or not) against some bases, that is then (maybe) spoiled:
/// one varint twisted (the width is the first), a byte flipped, the tail
/// cut, a byte appended, or its width raised past the frame's end.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    let forged = (
        any::<u32>(),
        records(),
        any::<bool>(),
        bases(),
        twist(),
        0u8..6,
        any::<usize>(),
        any::<u8>(),
    )
        .prop_map(
            |(superstep, records, sorted, mut bases, twist, damage, at, byte)| {
                let records = if sorted { ascending(records) } else { records };
                let mut bytes = run_model::forge(twist, &mut bases, superstep, &records);
                let at = at % bytes.len();
                match damage {
                    0 => bytes[at] ^= byte | 1,
                    1 => bytes.truncate(at),
                    2 => bytes.push(byte),
                    3 if twist.is_none() => {
                        let past_end = (bytes.len() - 4 + 15).min(0x7f) as u8;
                        bytes[4] = bytes[4].max(past_end);
                    }
                    _ => {}
                }
                bytes
            },
        );
    prop_oneof![
        1 => proptest::collection::vec(any::<u8>(), 0..48),
        2 => hub_noise(),
        5 => forged,
    ]
}

/// Hub records built loosely: a cut count within the width or not, an
/// inline gap or an escaped one of any size, and as many delta bytes as
/// the cut leaves, the last sometimes zero. Many break a rule a
/// well-formed record keeps; the rest are well-formed.
fn hub_noise() -> impl Strategy<Value = Vec<u8>> {
    let record = (
        (0u8..16, any::<bool>()),
        prop_oneof![1 => 0u8..15, 1 => Just(15u8)],
        0u8..40,
        proptest::collection::vec(any::<u8>(), 20..21),
        0u8..4,
    );
    (0usize..=20, proptest::collection::vec(record, 1..5)).prop_map(|(width, records)| {
        let mut bytes = vec![0, 0, 0, 0, width as u8];
        for ((k, within), nibble, gap, mut delta, zero) in records {
            let k = if within { k.min(width as u8) } else { k };
            bytes.push(k << 4 | nibble);
            if nibble == 15 {
                bytes.push(gap);
            }
            delta.truncate(width.saturating_sub(usize::from(k)));
            if let (Some(last), 0) = (delta.last_mut(), zero) {
                *last = 0;
            }
            bytes.extend_from_slice(&delta);
        }
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn ascending_hubs_round_trip(superstep in any::<u32>(), records in records()) {
        // Each hub's first record: every base is zero.
        let records = ascending(records);
        let (mut engine, mut model) = (EngineBases::new(), Bases::new());
        let bytes = engine_encode(&mut engine, superstep, &records);
        let want = run_model::encode(&mut model, superstep, &records);
        prop_assert_eq!(&bytes, &want);
        let width = records.first().map_or(0, |r| r.msg.len());
        let (mut prev, mut sizer) = (0, Bases::new());
        let sized: usize = records
            .iter()
            .map(|r| run_model::hub_record_len(&mut prev, &mut sizer, &r.msg, r.id))
            .sum();
        prop_assert_eq!(bytes.len(), run_model::header_len(width) + sized);
        let (mut engine, mut model) = (EngineBases::new(), Bases::new());
        let got = engine_decode(&bytes, &mut engine);
        prop_assert_eq!(got, Some((superstep, records.clone())));
        let got = run_model::decode(&bytes, &mut model);
        prop_assert_eq!(got, Some((superstep, records)));
        prop_assert!(same_bases(&engine, &model));
    }

    #[test]
    fn hub_frames_sharing_bases_round_trip_bit_for_bit(frames in hub_frames()) {
        // Sender and receiver bases, engine and model, and each hub's last
        // message as sent.
        let (mut tx, mut rx) = (EngineBases::new(), EngineBases::new());
        let (mut model_tx, mut model_rx, mut sizer) = (Bases::new(), Bases::new(), Bases::new());
        let mut last: HashMap<u64, Vec<u8>> = HashMap::new();
        for (superstep, (width, mut picks)) in frames.into_iter().enumerate() {
            let superstep = superstep as u32;
            picks.sort_by_key(|p| p.0);
            picks.dedup_by_key(|p| p.0);
            let records: Vec<Record> = picks
                .into_iter()
                .map(|(id, raw, value)| {
                    let mut before = last.get(&id).cloned().unwrap_or_default();
                    before.resize(width, 0);
                    let msg = match value {
                        Value::Repeat => before,
                        Value::Nudge(at, x) if at < width => {
                            before[at] ^= x;
                            before
                        }
                        Value::Nan(payload) if width == 8 => {
                            let nan = f64::from_bits(0x7ff0_0000_0000_0000 | payload | 1);
                            nan.to_le_bytes().to_vec()
                        }
                        Value::Float(i) if width == 8 => FLOATS[i].to_le_bytes().to_vec(),
                        _ => raw[..width].to_vec(),
                    };
                    last.insert(id, msg.clone());
                    Record { msg, id }
                })
                .collect();
            let width = records.first().map_or(0, |r| r.msg.len());
            let bytes = engine_encode(&mut tx, superstep, &records);
            prop_assert_eq!(&bytes, &run_model::encode(&mut model_tx, superstep, &records));
            let mut prev = 0;
            let sized: usize = records
                .iter()
                .map(|r| run_model::hub_record_len(&mut prev, &mut sizer, &r.msg, r.id))
                .sum();
            prop_assert_eq!(bytes.len(), run_model::header_len(width) + sized);
            let got = engine_decode(&bytes, &mut rx);
            prop_assert_eq!(got, Some((superstep, records.clone())));
            let got = run_model::decode(&bytes, &mut model_rx);
            prop_assert_eq!(got, Some((superstep, records)));
            prop_assert!(same_bases(&rx, &model_rx) && same_bases(&tx, &model_rx));
        }
    }

    #[test]
    fn arbitrary_bytes_decode_to_themselves_or_are_refused(
        bytes in hostile(),
        start in bases(),
    ) {
        let mut model = start.clone();
        let mut engine: EngineBases =
            start.iter().map(|(&id, b)| (id, u64::from_le_bytes(*b))).collect();
        let before = engine.clone();
        let got = engine_decode(&bytes, &mut engine);
        let want = run_model::decode(&bytes, &mut model);
        prop_assert_eq!(&got, &want, "{:?}", bytes);
        prop_assert!(same_bases(&engine, &model));
        match got {
            None => prop_assert!(engine == before && model == start, "a refused frame moved a base"),
            Some((superstep, records)) => {
                let mut again = before;
                prop_assert_eq!(engine_encode(&mut again, superstep, &records), bytes);
            }
        }
    }
}
