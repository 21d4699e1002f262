//! The one little-endian byte codec for every format a peer sends: RPC
//! frames, telemetry snapshots, placement maps and Check-N-Run deltas.
//!
//! [`Reader`] is a bounds-checked cursor over a byte slice; every read
//! returns [`Error`] instead of panicking. A count-prefixed sequence is
//! read through [`Reader::count`], which refuses any count whose
//! smallest possible encoding is longer than the bytes left — so a
//! lying length prefix fails before the caller allocates for it. The
//! `put_*` functions are the matching writers.

use std::fmt;

/// A malformed encoding: a static description of what was wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Error(pub &'static str);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl std::error::Error for Error {}

impl From<Error> for &'static str {
    fn from(e: Error) -> Self {
        e.0
    }
}

/// Bounds-checked little-endian reader over one encoded buffer: every
/// read returns [`Error`] instead of reading past the end.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// The next `n` bytes, borrowed from the buffer.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let s = self
            .pos
            .checked_add(n)
            .and_then(|end| self.buf.get(self.pos..end))
            .ok_or(Error("truncated"))?;
        self.pos += n;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        self.take(N)?.try_into().map_err(|_| Error("truncated"))
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, Error> {
        self.array().map(|[b]| b)
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, Error> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, Error> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `f32`.
    pub fn f32(&mut self) -> Result<f32, Error> {
        self.array().map(f32::from_le_bytes)
    }

    /// A little-endian `f64`.
    pub fn f64(&mut self) -> Result<f64, Error> {
        self.array().map(f64::from_le_bytes)
    }

    /// `n` little-endian `f32`s, decoded in one pass into a vector sized
    /// once the `4n` bytes are known to be present.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, Error> {
        let raw = self.take(n.checked_mul(4).ok_or(Error("truncated"))?)?;
        let mut out = Vec::with_capacity(n);
        for b in raw.chunks_exact(4) {
            let arr: [u8; 4] = b.try_into().map_err(|_| Error("truncated"))?;
            out.push(f32::from_le_bytes(arr));
        }
        Ok(out)
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, Error> {
        let n = self.count(1)?;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| Error("string not utf-8"))
    }

    /// Every byte not yet read; the reader is left exhausted.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        s
    }

    /// A `u32` element count, accepted only when `count ·
    /// min_elem_bytes` bytes are still left: the smallest encoding that
    /// many elements could have. Size a `Vec` from the result and a
    /// lying count fails here, before anything is allocated. A zero
    /// `min_elem_bytes` counts as one byte, so no count escapes the
    /// bound.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, Error> {
        let n = self.u32()? as usize;
        match n.checked_mul(min_elem_bytes.max(1)) {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(Error("count larger than payload")),
        }
    }

    /// Ends the decode, refusing leftover bytes.
    pub fn finish(self) -> Result<(), Error> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error("trailing bytes"))
        }
    }
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f64`.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends every `f32` little-endian, with no length prefix.
pub fn put_f32s(out: &mut Vec<u8>, v: &[f32]) {
    out.reserve(v.len() * 4);
    for &x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
}

/// Appends a `u32`-length-prefixed string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_roundtrip_and_finish_checks_the_end() {
        let mut buf = vec![7];
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        put_f32(&mut buf, -1.5);
        put_f64(&mut buf, 0.25);
        put_str(&mut buf, "héllo");
        put_f32s(&mut buf, &[1.0, -2.0]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xdead_beef));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f32(), Ok(-1.5));
        assert_eq!(r.f64(), Ok(0.25));
        assert_eq!(r.string().as_deref(), Ok("héllo"));
        assert_eq!(r.f32s(2), Ok(vec![1.0, -2.0]));
        assert_eq!(r.rest(), &[] as &[u8]);
        assert_eq!(r.finish(), Ok(()));

        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u8(), Ok(1));
        assert_eq!(r.finish(), Err(Error("trailing bytes")));
    }

    #[test]
    fn short_reads_are_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Error("truncated")));
        assert_eq!(r.take(usize::MAX), Err(Error("truncated")));
        assert_eq!(r.f32s(usize::MAX), Err(Error("truncated")));
        // A short read consumes nothing.
        assert_eq!(r.rest(), &[1, 2, 3]);
    }

    #[test]
    fn count_refuses_what_cannot_fit() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0; 24]);
        assert_eq!(Reader::new(&buf).count(12), Ok(2));
        assert_eq!(
            Reader::new(&buf).count(13),
            Err(Error("count larger than payload"))
        );
        let mut huge = Vec::new();
        put_u32(&mut huge, u32::MAX);
        assert!(Reader::new(&huge).count(0).is_err());
        assert!(Reader::new(&huge).count(usize::MAX).is_err());
        assert!(Reader::new(&huge).string().is_err());
    }

    #[test]
    fn bad_utf8_is_an_error() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        buf.push(0xff);
        assert_eq!(Reader::new(&buf).string(), Err(Error("string not utf-8")));
    }
}
