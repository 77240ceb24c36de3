//! The BSP run-frame codec against the format model in `run_model/`,
//! which shares no code with `trinity_core::bsp::runs`, for both record
//! shapes: `BSP_MSG` records (message, count, gaps) and `BSP_HUB` records
//! (message, one gap).
//!
//! * **Round trip**: any mix of records of one width — width 0, empty id
//!   lists, ids at both ends of the `u64` range, descending and repeated
//!   ids, gaps that run on from the record before — encodes to exactly the
//!   model's bytes and decodes back to itself.
//! * **Hostile bytes**: anything at all handed to either decoder — noise,
//!   damaged frames of either shape, a width larger than the frame — either
//!   is refused (and the model refuses it too) or decodes to records that
//!   re-encode to the same bytes; it never panics, and a count or width no
//!   bytes back never sizes an allocation. A `BSP_MSG` frame read as a hub
//!   frame is one such input.

#[path = "run_model/mod.rs"]
mod run_model;

use proptest::prelude::*;

use run_model::{Record, Twist};
use trinity_core::bsp::runs;

fn engine_encode(hub: bool, superstep: u32, records: &[Record]) -> Vec<u8> {
    let mut frame = Vec::new();
    runs::start(
        &mut frame,
        superstep,
        records.first().map_or(0, |r| r.msg.len()),
    );
    let mut prev = 0;
    for r in records {
        runs::push_record(&mut frame, &mut prev, hub, &r.msg, &r.ids);
    }
    frame
}

fn engine_decode(frame: &[u8], hub: bool) -> Option<(u32, Vec<Record>)> {
    let run = runs::decode(frame, hub)?;
    let records = run
        .records()
        .map(|(msg, ids)| Record {
            msg: msg.to_vec(),
            ids: ids.to_vec(),
        })
        .collect();
    Some((run.superstep, records))
}

fn some_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        6 => 0u64..5_000,
        2 => any::<u64>(),
        1 => (0u64..4).prop_map(|k| u64::MAX - k),
        1 => (0u64..4).prop_map(|k| (1u64 << 63) - 2 + k),
    ]
}

/// Records of one width, each with one id when `hub` says so.
fn records() -> impl Strategy<Value = (bool, Vec<Record>)> {
    let ids = prop_oneof![
        // Ascending like a stored adjacency list, or any order at all.
        3 => proptest::collection::vec(some_id(), 0..12).prop_map(|mut ids| { ids.sort(); ids }),
        2 => proptest::collection::vec(some_id(), 0..12),
        1 => (some_id(), 1usize..6).prop_map(|(id, n)| vec![id; n]),
    ];
    let record = (
        proptest::collection::vec(any::<u8>(), 20..21),
        ids,
        some_id(),
    );
    let width = prop_oneof![1 => Just(0usize), 1 => Just(8usize), 2 => 1usize..20];
    (
        any::<bool>(),
        width,
        proptest::collection::vec(record, 0..8),
    )
        .prop_map(|(hub, width, raw)| {
            let records = raw
                .into_iter()
                .map(|(msg, ids, hub_id)| Record {
                    msg: msg[..width].to_vec(),
                    ids: if hub { vec![hub_id] } else { ids },
                })
                .collect();
            (hub, records)
        })
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

/// Raw noise, or a well-formed frame of either shape that is then (maybe)
/// spoiled: one varint twisted (the width is the first), a byte flipped,
/// the tail cut, a byte appended, or its width raised past the frame's end.
fn hostile() -> impl Strategy<Value = Vec<u8>> {
    let forged = (
        any::<u32>(),
        records(),
        twist(),
        0u8..6,
        any::<usize>(),
        any::<u8>(),
    )
        .prop_map(|(superstep, (hub, records), twist, damage, at, byte)| {
            let mut bytes = run_model::forge(twist, hub, superstep, &records);
            let at = at % bytes.len();
            match damage {
                0 => bytes[at] ^= byte | 1,
                1 => bytes.truncate(at),
                2 => bytes.push(byte),
                3 if twist.is_none() => {
                    let past_end = (bytes.len() - 4).min(0x7f) as u8;
                    bytes[4] = bytes[4].max(past_end);
                }
                _ => {}
            }
            bytes
        });
    prop_oneof![
        1 => proptest::collection::vec(any::<u8>(), 0..48),
        5 => forged,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn any_mix_of_records_round_trips(superstep in any::<u32>(), (hub, records) in records()) {
        let bytes = engine_encode(hub, superstep, &records);
        prop_assert_eq!(&bytes, &run_model::encode(hub, superstep, &records));
        let width = records.first().map_or(0, |r| r.msg.len());
        let mut prev = 0;
        let sized: usize = records
            .iter()
            .map(|r| run_model::record_len(&mut prev, hub, r.msg.len(), &r.ids))
            .sum();
        prop_assert_eq!(bytes.len(), run_model::header_len(width) + sized);
        prop_assert_eq!(engine_decode(&bytes, hub), Some((superstep, records.clone())));
        prop_assert_eq!(run_model::decode(&bytes, hub), Some((superstep, records)));
    }

    #[test]
    fn arbitrary_bytes_decode_to_themselves_or_are_refused(bytes in hostile(), hub in any::<bool>()) {
        let got = engine_decode(&bytes, hub);
        prop_assert_eq!(&got, &run_model::decode(&bytes, hub), "{:?}", bytes);
        if let Some((superstep, records)) = got {
            prop_assert_eq!(engine_encode(hub, superstep, &records), bytes);
        }
    }
}
