//! Little-endian primitive codec: the one tag-first buffer writer and
//! strict cursor reader under both binary formats of the workspace —
//! the daemon's wire frames and the store's log records.
//!
//! Scalars are `u8`/`u32`/`u64` little-endian; `f64` travels as its
//! IEEE-754 bit pattern; `bool` is one byte (`0`/`1`, anything else
//! rejected); byte strings are a `u32` length plus the bytes, capped at
//! [`MAX_FIELD_BYTES`]. Reading never panics: a short buffer, a bad
//! value or leftover bytes is a [`DecodeError`], which each format maps
//! onto its own public error type.
//!
//! Every method is `#[inline]`: the callers sit in other crates, the
//! workspace builds without LTO, and a field read that stays a call
//! costs the serving path measurably (ledger `drive_journal`).

/// Hard cap on one length-prefixed field, and so on one frame or record
/// payload of either format. Anything larger is a corrupt or hostile
/// stream, refused before allocation.
pub const MAX_FIELD_BYTES: usize = 16 * 1024;

/// Why a payload did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The payload ended before the field being read.
    Truncated,
    /// A field carried an invalid encoding (bad bool, invalid UTF-8).
    BadValue {
        /// Which field was malformed.
        field: &'static str,
    },
    /// The payload decoded fully but bytes remained.
    TrailingBytes {
        /// How many bytes were left over.
        extra: usize,
    },
}

/// A payload under construction.
#[derive(Debug, Default)]
pub struct Enc {
    /// The bytes written so far.
    pub buf: Vec<u8>,
}

impl Enc {
    /// A payload opening with its single-byte tag.
    #[inline]
    pub fn new(tag: u8) -> Self {
        Enc { buf: vec![tag] }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as `0`/`1`.
    #[inline]
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its bit pattern.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `u32` length plus the bytes.
    #[inline]
    pub fn bytes(&mut self, b: &[u8]) {
        let len = b.len().min(u32::MAX as usize);
        self.u32(len as u32);
        self.buf.extend(b.iter().take(len));
    }

    /// Appends a string as length-prefixed UTF-8.
    #[inline]
    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// A strict cursor over one payload.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
}

impl<'a> Dec<'a> {
    /// A cursor at the front of `payload`.
    #[inline]
    pub fn new(payload: &'a [u8]) -> Self {
        Dec { buf: payload }
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.take(1)?.first().copied().ok_or(DecodeError::Truncated)
    }

    /// Reads a bool; any byte other than `0`/`1` is a bad `field`.
    #[inline]
    pub fn bool(&mut self, field: &'static str) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::BadValue { field }),
        }
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(raw))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(raw))
    }

    /// Reads an `f64` from its bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed byte string. A length past
    /// [`MAX_FIELD_BYTES`] cannot fit any payload, so it reads as
    /// truncation.
    #[inline]
    pub fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        if len > MAX_FIELD_BYTES {
            return Err(DecodeError::Truncated);
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string; invalid UTF-8 is a bad
    /// `field`.
    #[inline]
    pub fn str(&mut self, field: &'static str) -> Result<String, DecodeError> {
        String::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadValue { field })
    }

    /// Ends the read: leftover bytes are an error.
    #[inline]
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes { extra: self.buf.len() })
        }
    }
}
