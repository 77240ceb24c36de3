//! The one strict byte reader behind every decoder of trunk images, cell
//! records and wire frames. DESIGN "Byte formats" states its rules: fixed
//! widths are little-endian; a varint is minimal LEB128 over `u64`; a
//! zig-zag varint is a `u64` difference mod 2^64; a count is checked
//! against the bytes left before anything is reserved for it; and
//! [`Reader::finish`] refuses trailing bytes. A failed read returns a
//! [`DecodeError`] naming the offset where reading stopped and consumes
//! nothing. The encode side is [`put_varint`], [`put_zigzag`] and
//! [`varint_len`]; fixed-width fields are written with `to_le_bytes`.
//!
//! Every method is `#[inline]`: the hot decoders (BSP run frames, EXPAND,
//! trunk images, node records) live in other crates, and there is no LTO.

/// Where a strict read stopped: the input does not follow its format.
/// Each format maps it to its own error type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offset of the first byte the reader could not accept.
    pub at: usize,
}

/// A cursor over a borrowed byte string that refuses anything its format
/// does not allow.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    rest: &'a [u8],
    len: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader {
            rest: bytes,
            len: bytes.len(),
        }
    }

    /// Bytes read so far.
    #[inline]
    pub fn offset(&self) -> usize {
        self.len - self.rest.len()
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// An error at the current offset, for a value the caller refuses.
    #[inline]
    pub fn error(&self) -> DecodeError {
        DecodeError { at: self.offset() }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let (head, tail) = self.rest.split_at_checked(n).ok_or_else(|| self.error())?;
        self.rest = tail;
        Ok(head)
    }

    /// Every byte not yet read.
    #[inline]
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.rest)
    }

    /// The next `N` bytes, by value.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, tail) = self
            .rest
            .split_first_chunk::<N>()
            .ok_or_else(|| self.error())?;
        self.rest = tail;
        Ok(*head)
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|[b]| b)
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        self.array().map(u64::from_le_bytes)
    }

    /// A minimal LEB128 varint: at most ten bytes, no bits past the 64th,
    /// and no padding group (a last byte of zero after the first).
    #[inline]
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        if let Some((&b, tail)) = self.rest.split_first().filter(|(&b, _)| b < 0x80) {
            self.rest = tail;
            return Ok(u64::from(b));
        }
        let mut v = 0u64;
        for (i, &b) in self.rest.iter().take(10).enumerate() {
            v |= u64::from(b & 0x7f) << (7 * i);
            if b < 0x80 {
                if (i > 0 && b == 0) || (i == 9 && b > 1) {
                    break;
                }
                self.rest = &self.rest[i + 1..];
                return Ok(v);
            }
        }
        Err(self.error())
    }

    /// A zig-zag varint: the difference [`put_zigzag`] wrote, mod 2^64.
    #[inline]
    pub fn zigzag(&mut self) -> Result<u64, DecodeError> {
        let z = self.varint()?;
        Ok((z >> 1) ^ (z & 1).wrapping_neg())
    }

    /// `n` as a count of items that take at least `min_bytes_each` bytes,
    /// refused unless that many bytes are left. Check a count here before
    /// reserving anything for it.
    #[inline]
    pub fn count(&self, n: u64, min_bytes_each: usize) -> Result<usize, DecodeError> {
        usize::try_from(n)
            .ok()
            .filter(|&n| {
                n.checked_mul(min_bytes_each)
                    .is_some_and(|bytes| bytes <= self.rest.len())
            })
            .ok_or_else(|| self.error())
    }

    /// The next `n` fixed-width items of `N` bytes each, borrowed.
    #[inline]
    pub fn chunks<const N: usize>(&mut self, n: u64) -> Result<&'a [[u8; N]], DecodeError> {
        let n = self.count(n, N)?;
        Ok(self.take(n * N)?.as_chunks().0)
    }

    /// End of input: refuses trailing bytes.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.rest {
            [] => Ok(()),
            _ => Err(self.error()),
        }
    }
}

/// Append `v` as a minimal LEB128 varint.
#[inline]
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Append the difference `delta` (mod 2^64) as a zig-zag varint.
#[inline]
pub fn put_zigzag(out: &mut Vec<u8>, delta: u64) {
    put_varint(out, (delta << 1) ^ ((delta as i64 >> 63) as u64));
}

/// Bytes [`put_varint`] writes for `v`.
#[inline]
pub fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

#[cfg(test)]
mod tests {
    use super::*;

    fn varint(v: u64) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, v);
        out
    }

    #[test]
    fn varints_round_trip_at_every_width() {
        for shift in 0..64 {
            for v in [1u64 << shift, (1 << shift) - 1, u64::MAX >> shift] {
                let bytes = varint(v);
                assert_eq!(bytes.len(), varint_len(v), "{v:#x}");
                let mut r = Reader::new(&bytes);
                assert_eq!(r.varint(), Ok(v));
                r.finish().unwrap();
                let mut zz = Vec::new();
                put_zigzag(&mut zz, v);
                assert_eq!(Reader::new(&zz).zigzag(), Ok(v));
            }
        }
        // Small steps either way cost one byte.
        let mut zz = Vec::new();
        put_zigzag(&mut zz, 3u64.wrapping_sub(5));
        assert_eq!(zz, [3]);
    }

    #[test]
    fn only_minimal_varints_are_accepted() {
        let refused: &[&[u8]] = &[
            &[],
            &[0x80],
            &[0x87, 0x00],
            &[0x80; 11],
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            &[
                0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x81, 0x00,
            ],
        ];
        for bytes in refused {
            let mut r = Reader::new(bytes);
            assert_eq!(r.varint(), Err(DecodeError { at: 0 }), "{bytes:x?}");
            assert_eq!(r.offset(), 0, "a refused read consumes nothing");
        }
    }

    #[test]
    fn reads_stop_at_the_end_and_name_the_offset() {
        let mut r = Reader::new(&[1, 2, 0, 3, 0, 0, 0, 9]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.u16(), Ok(2));
        assert_eq!(r.u32(), Ok(3));
        assert_eq!(r.u64(), Err(DecodeError { at: 7 }));
        assert_eq!(r.take(2), Err(DecodeError { at: 7 }));
        assert_eq!(r.clone().finish(), Err(DecodeError { at: 7 }));
        assert_eq!(r.rest(), [9]);
        assert!(r.is_empty());
        r.finish().unwrap();
    }

    #[test]
    fn counts_are_checked_against_the_bytes_left() {
        let bytes = [0u8; 24];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.count(3, 8), Ok(3));
        assert!(r.count(4, 8).is_err());
        assert!(r.count(u64::MAX, 1).is_err());
        assert!(r.count(1 << 62, 8).is_err(), "the product overflows");
        assert_eq!(r.chunks::<8>(2).map(<[_]>::len), Ok(2));
        assert!(r.chunks::<8>(2).is_err());
        assert_eq!(r.chunks::<8>(1), Ok(&[[0u8; 8]][..]));
    }
}
