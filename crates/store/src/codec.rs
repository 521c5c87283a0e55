//! Minimal byte-level serialization for keys, values, and file
//! metadata.
//!
//! Everything persisted by this crate goes through [`Codec`]: a
//! little-endian, length-prefixed, panic-free encoding. Decoding is
//! defensive by construction — every read is bounds-checked against
//! the remaining input and every declared length is validated before
//! allocation, so arbitrary (fuzzed, torn, bit-flipped) bytes can
//! never panic or trigger an unbounded allocation; they produce a
//! typed [`StoreError`] instead.
//!
//! [`Codec`] is also the only encoding of run-file sections: a run's
//! keys and values are encoded element by element on write and decoded
//! the same way on load, from section bytes whose checksum has already
//! been verified (see `ist-dynamic`'s persistence module).

use crate::error::StoreError;
use ist_query::QueryKind;

/// Bounds-checked cursor over an input byte slice.
#[derive(Debug)]
pub struct Input<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Input<'a> {
    /// Cursor over `buf`, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes or fail with a typed error.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if n > self.remaining() {
            return Err(StoreError::corrupt(format!(
                "need {n} bytes, {} remaining",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }
}

/// Panic-free little-endian serialization: the one way keys, values,
/// WAL records and file metadata are turned into bytes and back.
///
/// `encode_into` appends the encoding of `self` to `out`;
/// `decode_from` consumes exactly the bytes `encode_into` produced.
/// Every encoding is at least one byte long, so a count of encoded
/// elements can be bounded by the bytes that hold them before anything
/// is allocated. Integers encode as their little-endian bytes.
pub trait Codec: Sized {
    /// Append the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value, consuming its bytes from `input`.
    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError>;
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        // Inlined across crates: a run file's key section is one call
        // per key.
        impl Codec for $t {
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
                let bytes = input.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128);

impl Codec for bool {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        match input.take(1)?[0] {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(StoreError::corrupt(format!("invalid bool byte {b:#04x}"))),
        }
    }
}

impl Codec for Vec<u8> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(self.len() <= u32::MAX as usize, "blob too large to encode");
        (self.len() as u32).encode_into(out);
        out.extend_from_slice(self);
    }

    // Always inlined into the decode loops of run files and WAL
    // records: called out of line it costs one call and one result
    // copied through memory per value, which made reopening a run of
    // 2^19 blob values about a third slower.
    #[inline(always)]
    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        let len = u32::decode_from(input)? as usize;
        // `take` bounds-checks `len` against the remaining input, so a
        // corrupted length can never drive an oversized allocation.
        Ok(input.take(len)?.to_vec())
    }
}

impl Codec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        debug_assert!(
            self.len() <= u32::MAX as usize,
            "string too large to encode"
        );
        (self.len() as u32).encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        let len = u32::decode_from(input)? as usize;
        let bytes = input.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| StoreError::corrupt("string section is not UTF-8"))
    }
}

impl<T: Codec> Codec for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        match input.take(1)?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::decode_from(input)?)),
            b => Err(StoreError::corrupt(format!("invalid option tag {b:#04x}"))),
        }
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        Ok((A::decode_from(input)?, B::decode_from(input)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }

    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        Ok((
            A::decode_from(input)?,
            B::decode_from(input)?,
            C::decode_from(input)?,
        ))
    }
}

/// Encode a sequence as a `u32` count followed by the elements.
pub fn encode_seq<T: Codec>(items: &[T], out: &mut Vec<u8>) {
    debug_assert!(items.len() <= u32::MAX as usize, "sequence too large");
    (items.len() as u32).encode_into(out);
    for item in items {
        item.encode_into(out);
    }
}

/// Decode a sequence written by [`encode_seq`].
///
/// The declared count is validated against the remaining input (every
/// element encoding is at least one byte) before any allocation.
pub fn decode_seq<T: Codec>(input: &mut Input<'_>) -> Result<Vec<T>, StoreError> {
    let count = u32::decode_from(input)? as usize;
    if count > input.remaining() {
        return Err(StoreError::corrupt(format!(
            "sequence claims {count} elements but only {} bytes remain",
            input.remaining()
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(T::decode_from(input)?);
    }
    Ok(out)
}

/// Encode a [`QueryKind`] as a one-byte tag plus a `u32` parameter.
pub fn encode_kind(kind: QueryKind, out: &mut Vec<u8>) {
    let (tag, param): (u8, u32) = match kind {
        QueryKind::Sorted => (0, 0),
        QueryKind::Bst => (1, 0),
        QueryKind::BstPrefetch => (2, 0),
        QueryKind::Btree(b) => (3, b as u32),
        QueryKind::Veb => (4, 0),
    };
    tag.encode_into(out);
    param.encode_into(out);
}

/// Decode a [`QueryKind`] written by [`encode_kind`].
pub fn decode_kind(input: &mut Input<'_>) -> Result<QueryKind, StoreError> {
    let tag = u8::decode_from(input)?;
    let param = u32::decode_from(input)?;
    match tag {
        0 => Ok(QueryKind::Sorted),
        1 => Ok(QueryKind::Bst),
        2 => Ok(QueryKind::BstPrefetch),
        3 => {
            if param == 0 || param > 1 << 20 {
                return Err(StoreError::corrupt(format!(
                    "implausible B-tree node width {param}"
                )));
            }
            Ok(QueryKind::Btree(param as usize))
        }
        4 => Ok(QueryKind::Veb),
        t => Err(StoreError::corrupt(format!("unknown layout tag {t:#04x}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Codec + PartialEq + std::fmt::Debug>(v: T) {
        let mut buf = Vec::new();
        v.encode_into(&mut buf);
        let mut input = Input::new(&buf);
        assert_eq!(T::decode_from(&mut input).unwrap(), v);
        assert!(input.is_empty());
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u64::MAX);
        round_trip(-1i64);
        round_trip(true);
        round_trip(String::from("héllo"));
        round_trip(vec![1u8, 2, 3]);
        round_trip(Option::<u64>::None);
        round_trip(Some((3u32, String::from("x"))));
        round_trip((1u64, 2u64, vec![9u8]));
    }

    #[test]
    fn corrupt_lengths_do_not_allocate() {
        // A length prefix far beyond the actual input must fail fast.
        let mut buf = Vec::new();
        u32::MAX.encode_into(&mut buf);
        assert!(Vec::<u8>::decode_from(&mut Input::new(&buf)).is_err());
        assert!(decode_seq::<u64>(&mut Input::new(&buf)).is_err());
    }

    #[test]
    fn kind_round_trip() {
        for kind in [
            QueryKind::Sorted,
            QueryKind::Bst,
            QueryKind::BstPrefetch,
            QueryKind::Btree(8),
            QueryKind::Veb,
        ] {
            let mut buf = Vec::new();
            encode_kind(kind, &mut buf);
            assert_eq!(decode_kind(&mut Input::new(&buf)).unwrap(), kind);
        }
    }

    #[test]
    fn random_bytes_never_panic() {
        // Cheap deterministic byte soup; decoding must return, not panic.
        let mut state = 0x9e37_79b9u64;
        for len in 0..64 {
            let bytes: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let _ = u64::decode_from(&mut Input::new(&bytes));
            let _ = String::decode_from(&mut Input::new(&bytes));
            let _ = Vec::<u8>::decode_from(&mut Input::new(&bytes));
            let _ = Option::<(u64, u64)>::decode_from(&mut Input::new(&bytes));
            let _ = decode_seq::<u32>(&mut Input::new(&bytes));
            let _ = decode_kind(&mut Input::new(&bytes));
        }
    }
}
