//! The one varint of the engine's wire formats (EXPAND in `online`, BSP
//! run frames in `bsp::runs`): minimal LEB128 over `u64`, read strictly.

pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Minimal LEB128 only: at most 10 bytes, no bits past the 64th, no
/// padding zero groups.
pub(crate) fn take_varint(data: &mut &[u8]) -> Option<u64> {
    let mut v = 0u64;
    for (i, &byte) in data.iter().enumerate().take(10) {
        let group = u64::from(byte & 0x7f);
        if i == 9 && group > 1 {
            return None;
        }
        v |= group << (7 * i);
        if byte & 0x80 == 0 {
            *data = &data[i + 1..];
            return (byte != 0 || i == 0).then_some(v);
        }
    }
    None
}
