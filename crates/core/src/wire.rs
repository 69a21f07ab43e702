//! Hand-rolled deterministic wire codec.
//!
//! Message digests and MACs are computed over canonical encoded bytes, so
//! the codec must be deterministic and total — which is why it is hand-rolled
//! rather than derived. All integers are big-endian; variable-length fields
//! are `u32`-length-prefixed.

use std::fmt;

use pbft_crypto::Digest;

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of bytes.
    Truncated,
    /// A tag byte had no meaning in context.
    BadTag(u8),
    /// A length prefix exceeded sane bounds.
    BadLength(u64),
    /// Trailing garbage after a complete message.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "message truncated"),
            WireError::BadTag(t) => write!(f, "unknown tag byte {t:#04x}"),
            WireError::BadLength(l) => write!(f, "implausible length {l}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
        }
    }
}

impl std::error::Error for WireError {}

/// Maximum accepted variable-length field, as a denial-of-service guard.
const MAX_FIELD: usize = 64 << 20;

/// Byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Enc::with_room_for(0)
    }

    /// Create an empty encoder that will not reallocate while encoding a
    /// message whose variable-length payload is `payload_len` bytes: the
    /// fixed fields and an authenticator trailer for n <= 20 fit in the
    /// 256 bytes every encoder starts with.
    pub fn with_room_for(payload_len: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(256 + payload_len),
        }
    }

    /// Continue encoding onto an existing buffer. Appending (say, an auth
    /// trailer) reuses the allocation instead of copying the prefix into a
    /// fresh encoder.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Enc { buf }
    }

    /// Finish and take the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append a raw byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Append a big-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self
    }

    /// Append a bool as one byte.
    pub fn boolean(&mut self, v: bool) -> &mut Self {
        self.buf.push(v as u8);
        self
    }

    /// Append length-prefixed bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Append raw bytes without a length prefix (fixed-size fields).
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.extend_from_slice(v);
        self
    }

    /// Append a digest (32 raw bytes).
    pub fn digest(&mut self, d: &Digest) -> &mut Self {
        self.raw(d.as_bytes())
    }

    /// Current contents (e.g. to MAC a prefix).
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Byte reader.
#[derive(Debug)]
pub struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start decoding `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Dec { data, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Fail unless fully consumed.
    ///
    /// # Errors
    /// [`WireError::TrailingBytes`] when bytes remain.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a big-endian u16.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_be_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a big-endian u32.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_be_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a big-endian u64.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_be_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a bool byte (0 or 1).
    ///
    /// # Errors
    /// [`WireError::BadTag`] for other values.
    pub fn boolean(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }

    /// Read a `u32` element count, rejecting one that cannot be honest:
    /// `count` elements of at least `min_elem_len` encoded bytes each must
    /// fit in what is left of the input. Every count-driven
    /// `Vec::with_capacity` goes through here or through
    /// [`Dec::count_u16`] / [`Dec::count_u8`], which share the check, so an
    /// unauthenticated packet can never make its decoder reserve more than
    /// O(its own length).
    ///
    /// # Errors
    /// [`WireError::Truncated`] or [`WireError::BadLength`].
    pub fn count(&mut self, min_elem_len: usize) -> Result<usize, WireError> {
        let n = self.u32()?;
        self.fits(n as usize, min_elem_len)
    }

    /// [`Dec::count`] for a `u16` count.
    ///
    /// # Errors
    /// [`WireError::Truncated`] or [`WireError::BadLength`].
    pub fn count_u16(&mut self, min_elem_len: usize) -> Result<usize, WireError> {
        let n = self.u16()?;
        self.fits(n.into(), min_elem_len)
    }

    /// [`Dec::count`] for a one-byte count.
    ///
    /// # Errors
    /// [`WireError::Truncated`] or [`WireError::BadLength`].
    pub fn count_u8(&mut self, min_elem_len: usize) -> Result<usize, WireError> {
        let n = self.u8()?;
        self.fits(n.into(), min_elem_len)
    }

    fn fits(&self, n: usize, min_elem_len: usize) -> Result<usize, WireError> {
        if n.saturating_mul(min_elem_len) > self.remaining() {
            return Err(WireError::BadLength(n as u64));
        }
        Ok(n)
    }

    /// Read length-prefixed bytes, borrowed from the input (zero-copy).
    ///
    /// # Errors
    /// [`WireError::Truncated`] or [`WireError::BadLength`].
    pub fn bytes_ref(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD {
            return Err(WireError::BadLength(len as u64));
        }
        self.take(len)
    }

    /// Read length-prefixed bytes into an owned buffer.
    ///
    /// # Errors
    /// [`WireError::Truncated`] or [`WireError::BadLength`].
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        self.bytes_ref().map(<[u8]>::to_vec)
    }

    /// Read `n` raw bytes.
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Read everything that is left (a field that runs to the end of the
    /// input).
    pub fn rest(&mut self) -> &'a [u8] {
        let out = &self.data[self.pos..];
        self.pos = self.data.len();
        out
    }

    /// Read a digest (32 raw bytes).
    ///
    /// # Errors
    /// [`WireError::Truncated`].
    pub fn digest(&mut self) -> Result<Digest, WireError> {
        let b = self.take(32)?;
        let mut d = [0u8; 32];
        d.copy_from_slice(b);
        Ok(Digest(d))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Enc::new();
        e.u8(7)
            .u16(0xbeef)
            .u32(0xdead_beef)
            .u64(0x1122_3344_5566_7788)
            .boolean(true)
            .boolean(false);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xbeef);
        assert_eq!(d.u32().unwrap(), 0xdead_beef);
        assert_eq!(d.u64().unwrap(), 0x1122_3344_5566_7788);
        assert!(d.boolean().unwrap());
        assert!(!d.boolean().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn bytes_roundtrip() {
        let mut e = Enc::new();
        e.bytes(b"hello").bytes(b"").raw(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.bytes().unwrap(), b"hello");
        assert_eq!(d.bytes().unwrap(), b"");
        assert_eq!(d.raw(3).unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
        let mut d = Dec::new(&bytes);
        d.bytes_ref().unwrap();
        assert_eq!(d.rest(), &bytes[9..]);
        assert_eq!(d.rest(), b"");
        d.finish().unwrap();
    }

    #[test]
    fn bytes_ref_borrows_from_input() {
        let mut e = Enc::new();
        e.bytes(b"shared");
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let field = d.bytes_ref().unwrap();
        assert_eq!(field, b"shared");
        // Zero-copy: the returned slice aliases the input buffer.
        assert_eq!(field.as_ptr(), bytes[4..].as_ptr());
        d.finish().unwrap();
    }

    #[test]
    fn from_vec_appends_in_place() {
        let mut e = Enc::new();
        e.u8(1).u32(7);
        let prefix = e.into_bytes();
        let ptr = prefix.as_ptr();
        let mut e = Enc::from_vec(prefix);
        e.u8(2);
        let all = e.into_bytes();
        assert_eq!(all, [1, 0, 0, 0, 7, 2]);
        // Small appends reuse the prefix allocation rather than copying.
        assert_eq!(all.as_ptr(), ptr);
    }

    #[test]
    fn digest_roundtrip() {
        let dig = Digest::of(b"x");
        let mut e = Enc::new();
        e.digest(&dig);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.digest().unwrap(), dig);
    }

    #[test]
    fn truncation_detected() {
        let mut d = Dec::new(&[0, 0]);
        assert_eq!(d.u32(), Err(WireError::Truncated));
        let mut d = Dec::new(&[0, 0, 0, 9, 1]);
        assert_eq!(d.bytes(), Err(WireError::Truncated));
    }

    #[test]
    fn bad_bool_detected() {
        let mut d = Dec::new(&[2]);
        assert_eq!(d.boolean(), Err(WireError::BadTag(2)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let d = Dec::new(&[1]);
        assert_eq!(d.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn count_must_fit_in_the_remaining_input() {
        // Three 4-byte elements claimed and present: accepted.
        let mut e = Enc::new();
        e.u32(3).raw(&[0u8; 12]);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).count(4), Ok(3));
        // One byte short of the claim: rejected before anything is read.
        assert_eq!(
            Dec::new(&bytes[..bytes.len() - 1]).count(4),
            Err(WireError::BadLength(3))
        );
        // A huge claim cannot overflow the check.
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        assert_eq!(
            Dec::new(&bytes).count(usize::MAX),
            Err(WireError::BadLength(u32::MAX as u64))
        );
        assert_eq!(
            Dec::new(&bytes).count(1),
            Err(WireError::BadLength(u32::MAX as u64))
        );
        assert_eq!(Dec::new(&[0, 0]).count(1), Err(WireError::Truncated));
    }

    #[test]
    fn narrow_counts_share_the_bound_check() {
        // Two 4-byte elements claimed behind a u16 and a u8 count.
        let mut e = Enc::new();
        e.u16(2).raw(&[0u8; 8]);
        let bytes = e.into_bytes();
        assert_eq!(Dec::new(&bytes).count_u16(4), Ok(2));
        assert_eq!(
            Dec::new(&bytes[..bytes.len() - 1]).count_u16(4),
            Err(WireError::BadLength(2))
        );
        assert_eq!(
            Dec::new(&[0xFF, 0xFF]).count_u16(1),
            Err(WireError::BadLength(0xFFFF))
        );
        assert_eq!(Dec::new(&[2, 0, 0, 0, 0, 0, 0, 0, 0]).count_u8(4), Ok(2));
        assert_eq!(
            Dec::new(&[2, 0, 0, 0, 0, 0, 0, 0]).count_u8(4),
            Err(WireError::BadLength(2))
        );
        assert_eq!(Dec::new(&[0]).count_u16(1), Err(WireError::Truncated));
        assert_eq!(Dec::new(&[]).count_u8(1), Err(WireError::Truncated));
    }

    #[test]
    fn implausible_length_rejected() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.bytes(), Err(WireError::BadLength(u32::MAX as u64)));
    }
}
