//! Wire encoding for the memory-cloud system protocols.
//!
//! Requests carry the cell id followed by the payload; replies carry a
//! one-byte status followed by data. Deliberately minimal — these are the
//! hot-path messages of every remote cell access.
//!
//! Since the read cache landed, every `OK` reply also carries the cell's
//! 8-byte version stamp right after the status byte: reads learn the stamp
//! they may cache under, and mutation acks return the stamp that doubles
//! as the invalidation floor. `NOT_FOUND`/`NOT_OWNER`/`STORE_ERR` replies
//! stay a bare status byte.

use trinity_memstore::codec::{DecodeError, Reader};
use trinity_memstore::CellVersion;
use trinity_net::FrameBuf;

use crate::{CellId, CloudError};

/// Reply status codes.
pub(crate) const OK: u8 = 0;
pub(crate) const NOT_FOUND: u8 = 1;
pub(crate) const NOT_OWNER: u8 = 2;
pub(crate) const STORE_ERR: u8 = 3;
/// The trunk migrated away from this machine (or is in its sealed flip
/// window). Carries the 8-byte table epoch the caller must sync to.
pub(crate) const MOVED: u8 = 4;
/// A conditional write (`PUT_IF`) found a different version than the
/// caller expected. Carries the cell id, the expected version, and the
/// version actually found, 8 bytes each.
pub(crate) const VERSION_MISMATCH: u8 = 5;

/// An 8-byte word, then bytes: a cell request (`id | payload`), and the
/// body of a `PUT_IF` request (`expected version | replacement payload`).
pub(crate) fn encode_req(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

pub(crate) fn decode_req(data: &[u8]) -> Result<(u64, &[u8]), DecodeError> {
    let mut r = Reader::new(data);
    Ok((r.u64()?, r.rest()))
}

/// A `MOVED` reply: status plus the epoch fence the caller must reach.
pub(crate) fn reply_moved(epoch: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(MOVED);
    out.extend_from_slice(&epoch.to_le_bytes());
    out
}

/// A `VERSION_MISMATCH` reply: status, cell id, expected, found.
pub(crate) fn reply_version_mismatch(
    id: CellId,
    expected: CellVersion,
    found: CellVersion,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(VERSION_MISMATCH);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&expected.to_le_bytes());
    out.extend_from_slice(&found.to_le_bytes());
    out
}

/// An `OK` reply: status, version stamp, payload.
pub(crate) fn reply_ok(version: CellVersion, data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(9 + data.len());
    out.push(OK);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(data);
    out
}

/// Interpret a remote reply: `Ok(Some((version, bytes)))` for OK,
/// `Ok(None)` for NOT_FOUND, errors otherwise. `trunk`/`asked`
/// contextualize NOT_OWNER. A status with missing or extra bytes is
/// `BadReply`.
///
/// The payload comes back as a zero-copy subslice of the received frame:
/// the bytes the owner shipped are the bytes the caller (and the read
/// cache) hold, with no intermediate copy.
pub(crate) fn parse_reply(
    data: &FrameBuf,
    trunk: u64,
    asked: trinity_net::MachineId,
) -> Result<Option<(CellVersion, FrameBuf)>, CloudError> {
    let mut r = Reader::new(data);
    let reply = match r.u8()? {
        OK => {
            let version = r.u64()?;
            return Ok(Some((version, data.slice(r.offset()..data.len()))));
        }
        NOT_FOUND => Ok(None),
        NOT_OWNER => Err(CloudError::WrongOwner { trunk, asked }),
        MOVED => Err(CloudError::Moved {
            trunk,
            epoch: r.u64()?,
        }),
        VERSION_MISMATCH => Err(CloudError::Store(
            trinity_memstore::StoreError::VersionMismatch {
                id: r.u64()?,
                expected: r.u64()?,
                found: r.u64()?,
            },
        )),
        STORE_ERR => Err(CloudError::Store(
            trinity_memstore::StoreError::OutOfMemory {
                requested: 0,
                reserved: 0,
            },
        )),
        _ => Err(CloudError::BadReply),
    };
    r.finish()?;
    reply
}

// ---------------------------------------------------------------------
// MULTI_GET: batched reads, one envelope per destination machine
// ---------------------------------------------------------------------

/// One per-cell outcome inside a MULTI_GET reply. `Hit` payloads are
/// zero-copy subslices of the received reply frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum MultiEntry {
    /// The cell exists: its version stamp and payload.
    Hit(CellVersion, FrameBuf),
    /// The cell does not exist on the owner.
    Missing,
    /// The asked machine does not own this cell's trunk (stale table);
    /// the reader falls back to the single-cell path, which re-syncs.
    NotOwner,
}

/// A MULTI_GET request is just the cell ids, 8 bytes each.
pub(crate) fn encode_multi_req(ids: &[CellId]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ids.len() * 8);
    for id in ids {
        out.extend_from_slice(&id.to_le_bytes());
    }
    out
}

pub(crate) fn decode_multi_req(data: &[u8]) -> Result<Vec<CellId>, DecodeError> {
    let mut r = Reader::new(data);
    let ids = r.chunks::<8>(data.len() as u64 / 8)?;
    r.finish()
        .map(|()| ids.iter().map(|w| u64::from_le_bytes(*w)).collect())
}

/// Append one `Hit` entry — `[OK, version u64, len u32, bytes]` — to a
/// reply under construction. The owner-side handler encodes straight from
/// the pinned trunk guard into the reply buffer, so the guard's bytes are
/// copied exactly once on the serve path.
pub(crate) fn multi_push_hit(out: &mut Vec<u8>, version: CellVersion, bytes: &[u8]) {
    out.push(OK);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Append a data-less status entry (`Missing`/`NotOwner`).
pub(crate) fn multi_push_status(out: &mut Vec<u8>, status: u8) {
    out.push(status);
}

/// Reply: entries in request order. `Hit` is
/// `[OK, version u64, len u32, bytes]`; the others are one status byte.
#[cfg(test)]
pub(crate) fn encode_multi_reply(entries: &[MultiEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    for e in entries {
        match e {
            MultiEntry::Hit(version, bytes) => multi_push_hit(&mut out, *version, bytes),
            MultiEntry::Missing => multi_push_status(&mut out, NOT_FOUND),
            MultiEntry::NotOwner => multi_push_status(&mut out, NOT_OWNER),
        }
    }
    out
}

pub(crate) fn decode_multi_reply(
    data: &FrameBuf,
    expected: usize,
) -> Result<Vec<MultiEntry>, DecodeError> {
    let mut r = Reader::new(data);
    let mut entries = Vec::with_capacity(expected);
    while entries.len() < expected {
        entries.push(match r.u8()? {
            OK => {
                let version = r.u64()?;
                let len = r.u32()?;
                let start = r.offset();
                r.take(len as usize)?;
                MultiEntry::Hit(version, data.slice(start..r.offset()))
            }
            NOT_FOUND => MultiEntry::Missing,
            NOT_OWNER => MultiEntry::NotOwner,
            _ => return Err(r.error()),
        });
    }
    r.finish()?;
    Ok(entries)
}

// ---------------------------------------------------------------------
// INVALIDATE: owner -> reader cache coherence
// ---------------------------------------------------------------------

pub(crate) fn encode_invalidate(id: CellId, version: CellVersion) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out
}

pub(crate) fn decode_invalidate(data: &[u8]) -> Result<(CellId, CellVersion), DecodeError> {
    let mut r = Reader::new(data);
    let parts = (r.u64()?, r.u64()?);
    r.finish()?;
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use trinity_net::MachineId;

    #[test]
    fn request_roundtrip() {
        let req = encode_req(0xDEAD_BEEF, b"payload");
        let (id, body) = decode_req(&req).unwrap();
        assert_eq!(id, 0xDEAD_BEEF);
        assert_eq!(body, b"payload");
        assert!(decode_req(b"short").is_err());
    }

    fn fb(raw: &[u8]) -> FrameBuf {
        FrameBuf::copy_from_slice(raw)
    }

    #[test]
    fn reply_statuses() {
        let (version, body) = parse_reply(&fb(&reply_ok(42, b"x")), 0, MachineId(0))
            .unwrap()
            .unwrap();
        assert_eq!((version, body.as_slice()), (42, &b"x"[..]));
        assert_eq!(
            parse_reply(&fb(&[NOT_FOUND]), 0, MachineId(0)).unwrap(),
            None
        );
        assert!(matches!(
            parse_reply(&fb(&[NOT_OWNER]), 3, MachineId(1)),
            Err(CloudError::WrongOwner {
                trunk: 3,
                asked: MachineId(1)
            })
        ));
        assert!(matches!(
            parse_reply(&fb(b""), 0, MachineId(0)),
            Err(CloudError::BadReply)
        ));
        // A truncated OK reply (no room for the version stamp) is malformed.
        assert!(matches!(
            parse_reply(&fb(&[OK, 1, 2]), 0, MachineId(0)),
            Err(CloudError::BadReply)
        ));
        assert!(matches!(
            parse_reply(&fb(&reply_moved(9)), 5, MachineId(2)),
            Err(CloudError::Moved { trunk: 5, epoch: 9 })
        ));
        // A truncated MOVED reply (no epoch fence) is malformed, and so is
        // one with bytes after its fence.
        assert!(matches!(
            parse_reply(&fb(&[MOVED, 1]), 0, MachineId(0)),
            Err(CloudError::BadReply)
        ));
        let mut long = reply_moved(9);
        long.push(0);
        assert!(matches!(
            parse_reply(&fb(&long), 0, MachineId(0)),
            Err(CloudError::BadReply)
        ));
    }

    #[test]
    fn put_if_roundtrip() {
        let raw = reply_version_mismatch(0xAB, 3, 9);
        assert!(matches!(
            parse_reply(&fb(&raw), 0, MachineId(0)),
            Err(CloudError::Store(
                trinity_memstore::StoreError::VersionMismatch {
                    id: 0xAB,
                    expected: 3,
                    found: 9
                }
            ))
        ));
        // A truncated mismatch reply is malformed.
        assert!(matches!(
            parse_reply(&fb(&raw[..24]), 0, MachineId(0)),
            Err(CloudError::BadReply)
        ));
    }

    #[test]
    fn multi_get_roundtrip() {
        let ids = vec![3u64, 99, 7];
        let decoded = decode_multi_req(&encode_multi_req(&ids)).unwrap();
        assert_eq!(decoded, ids);
        assert!(decode_multi_req(b"misaligned").is_err());

        let entries = vec![
            MultiEntry::Hit(11, fb(b"alpha")),
            MultiEntry::Missing,
            MultiEntry::NotOwner,
            MultiEntry::Hit(12, FrameBuf::new()),
        ];
        let raw = encode_multi_reply(&entries);
        assert_eq!(decode_multi_reply(&fb(&raw), 4).unwrap(), entries);
        // Wrong expected count or trailing garbage must not parse.
        assert!(decode_multi_reply(&fb(&raw), 3).is_err());
        assert!(decode_multi_reply(&fb(&raw[..raw.len() - 1]), 4).is_err());
    }

    #[test]
    fn invalidate_roundtrip() {
        let raw = encode_invalidate(0xABCD, 77);
        assert_eq!(decode_invalidate(&raw), Ok((0xABCD, 77)));
        assert!(decode_invalidate(&raw[..15]).is_err());
    }

    /// A reply as the caller sees it, minus `BadReply`.
    #[derive(Debug, PartialEq)]
    enum Reply {
        Ok(u64, Vec<u8>),
        NotFound,
        NotOwner,
        Moved(u64),
        Mismatch(u64, u64, u64),
        StoreErr,
    }

    fn encode_reply(parsed: &Reply) -> Vec<u8> {
        match parsed {
            Reply::Ok(version, bytes) => reply_ok(*version, bytes),
            Reply::NotFound => vec![NOT_FOUND],
            Reply::NotOwner => vec![NOT_OWNER],
            Reply::Moved(epoch) => reply_moved(*epoch),
            Reply::Mismatch(id, expected, found) => reply_version_mismatch(*id, *expected, *found),
            Reply::StoreErr => vec![STORE_ERR],
        }
    }

    fn parse(raw: &[u8]) -> Option<Reply> {
        use trinity_memstore::StoreError;
        Some(match parse_reply(&fb(raw), 0, MachineId(0)) {
            Ok(Some((version, bytes))) => Reply::Ok(version, bytes.to_vec()),
            Ok(None) => Reply::NotFound,
            Err(CloudError::WrongOwner { .. }) => Reply::NotOwner,
            Err(CloudError::Moved { epoch, .. }) => Reply::Moved(epoch),
            Err(CloudError::Store(StoreError::VersionMismatch {
                id,
                expected,
                found,
            })) => Reply::Mismatch(id, expected, found),
            Err(CloudError::Store(_)) => Reply::StoreErr,
            Err(_) => return None,
        })
    }

    #[test]
    fn every_cell_op_codec_keeps_the_codec_laws() {
        use crate::codec_laws::{check, Rng};
        let id_and_bytes = |rng: &mut Rng| (rng.u64(), rng.bytes(12));
        let req = |(id, body): &(u64, Vec<u8>)| encode_req(*id, body);
        let owned = |(id, body): (u64, &[u8])| (id, body.to_vec());
        check(
            1,
            id_and_bytes,
            req,
            |b| decode_req(b).ok().map(owned),
            true,
        );
        let ids = |rng: &mut Rng| rng.vec(6, Rng::u64);
        check(
            3,
            ids,
            |ids| encode_multi_req(ids),
            |b| decode_multi_req(b).ok(),
            true,
        );
        let pair = |rng: &mut Rng| (rng.u64(), rng.u64());
        let invalidate = |(id, v): &(u64, u64)| encode_invalidate(*id, *v);
        check(4, pair, invalidate, |b| decode_invalidate(b).ok(), true);
        let entry = |rng: &mut Rng| match rng.below(3) {
            0 => MultiEntry::Hit(rng.u64(), fb(&rng.bytes(8))),
            1 => MultiEntry::Missing,
            _ => MultiEntry::NotOwner,
        };
        // The caller expects as many entries as it asked for ids.
        let multi = |b: &[u8]| (0..=4).find_map(|n| decode_multi_reply(&fb(b), n).ok());
        check(
            5,
            |rng| rng.vec(4, entry),
            |es| encode_multi_reply(es),
            multi,
            true,
        );
        let replies = |rng: &mut Rng| match rng.below(6) {
            0 => Reply::Ok(rng.u64(), rng.bytes(8)),
            1 => Reply::NotFound,
            2 => Reply::NotOwner,
            3 => Reply::Moved(rng.u64()),
            4 => Reply::Mismatch(rng.u64(), rng.u64(), rng.u64()),
            _ => Reply::StoreErr,
        };
        check(6, replies, encode_reply, parse, true);
    }
}
