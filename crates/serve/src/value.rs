//! The served value: an opaque byte string that holds up to
//! [`INLINE_CAP`] bytes in place.
//!
//! Every value the server stores is copied each time a compaction
//! merges it — about seven times per write under the binomial schedule
//! — and a `Vec<u8>` copy is a heap allocation, its drop a free, and a
//! read of it a pointer chase. A short value held inline makes all three
//! free: cloning it copies 24 bytes. Longer values sit behind a
//! `Box<[u8]>` and cost what a `Vec<u8>` does.
//!
//! The encoding ([`Codec`]) is exactly `Vec<u8>`'s — a `u32` length,
//! then the bytes — so a store written by a `ShardedMap<u64, Vec<u8>>`
//! opens as a [`ServeMap`](crate::ServeMap) and the files the two write
//! are byte-identical.

use std::fmt;

use ist_store::{Codec, Input, StoreError};

/// The longest value held inline: the most bytes that fit beside a
/// length byte and the enum tag in the 24 bytes of a `Vec<u8>`, so a
/// run's `Option<Value>` column is no wider than an
/// `Option<Vec<u8>>` column would be.
pub const INLINE_CAP: usize = 22;

/// An opaque byte string; see the [module docs](self).
///
/// Two values are equal when their bytes are: a value of at most
/// [`INLINE_CAP`] bytes is always stored inline, whichever conversion
/// built it.
#[derive(Clone)]
pub struct Value(Repr);

#[derive(Clone)]
enum Repr {
    /// `(len, bytes)`: the value is `bytes[..len]`, the rest is zero.
    Inline(u8, [u8; INLINE_CAP]),
    /// More than [`INLINE_CAP`] bytes.
    Boxed(Box<[u8]>),
}

impl Value {
    /// The value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            // `len <= INLINE_CAP` by construction, so the slice never
            // panics; `get` keeps that out of the serving path's panics.
            Repr::Inline(len, bytes) => bytes.get(..usize::from(*len)).unwrap_or(bytes),
            Repr::Boxed(bytes) => bytes,
        }
    }
}

impl From<&[u8]> for Value {
    #[inline]
    fn from(bytes: &[u8]) -> Self {
        let mut inline = [0u8; INLINE_CAP];
        match inline.get_mut(..bytes.len()) {
            Some(head) => {
                head.copy_from_slice(bytes);
                // `bytes.len() <= INLINE_CAP < 256`: the cast is exact.
                Value(Repr::Inline(bytes.len() as u8, inline))
            }
            None => Value(Repr::Boxed(bytes.into())),
        }
    }
}

impl From<Vec<u8>> for Value {
    /// Short values are copied inline and the `Vec` freed; longer ones
    /// keep its allocation.
    fn from(bytes: Vec<u8>) -> Self {
        if bytes.len() <= INLINE_CAP {
            Value::from(bytes.as_slice())
        } else {
            Value(Repr::Boxed(bytes.into_boxed_slice()))
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Value {}

impl fmt::Debug for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_bytes().fmt(f)
    }
}

impl Codec for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        let bytes = self.as_bytes();
        debug_assert!(bytes.len() <= u32::MAX as usize, "blob too large to encode");
        (bytes.len() as u32).encode_into(out);
        out.extend_from_slice(bytes);
    }

    // Always inlined into the decode loops of run files and WAL
    // records: called out of line, each 24-byte result is copied
    // through the stack in overlapping pieces, and reopening a
    // 2^19-value run took 2.5 times as long.
    #[inline(always)]
    fn decode_from(input: &mut Input<'_>) -> Result<Self, StoreError> {
        let len = u32::decode_from(input)? as usize;
        // `take` bounds-checks `len` against the remaining input, so a
        // corrupted length can never drive an oversized allocation.
        Ok(Value::from(input.take(len)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_optional_value_is_as_wide_as_an_optional_vec() {
        assert_eq!(
            std::mem::size_of::<Option<Value>>(),
            std::mem::size_of::<Option<Vec<u8>>>()
        );
    }

    #[test]
    fn short_values_are_inline_and_long_ones_boxed() {
        for len in [0, 1, 8, INLINE_CAP, INLINE_CAP + 1, 300] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let from_vec = Value::from(bytes.clone());
            let from_slice = Value::from(bytes.as_slice());
            for v in [&from_vec, &from_slice] {
                assert_eq!(v.as_bytes(), &bytes[..], "len {len}");
                assert_eq!(matches!(v.0, Repr::Inline(..)), len <= INLINE_CAP);
            }
            assert_eq!(from_vec, from_slice);
            assert_eq!(from_vec.clone(), from_vec);
            assert_eq!(format!("{from_vec:?}"), format!("{bytes:?}"));
        }
        assert_ne!(Value::from(&[1u8][..]), Value::from(&[1u8, 0][..]));
    }

    #[test]
    fn codec_matches_vec_u8_byte_for_byte() {
        for len in [0, 8, INLINE_CAP, INLINE_CAP + 1, 300] {
            let bytes: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let (mut as_vec, mut as_value) = (Vec::new(), Vec::new());
            Some(bytes.clone()).encode_into(&mut as_vec);
            Some(Value::from(bytes.clone())).encode_into(&mut as_value);
            assert_eq!(as_vec, as_value, "len {len}");
            let decoded = Option::<Value>::decode_from(&mut Input::new(&as_vec)).unwrap();
            assert_eq!(decoded, Some(Value::from(bytes)));
        }
        // A length beyond the input fails instead of allocating.
        let mut buf = Vec::new();
        u32::MAX.encode_into(&mut buf);
        assert!(Value::decode_from(&mut Input::new(&buf)).is_err());
    }
}
