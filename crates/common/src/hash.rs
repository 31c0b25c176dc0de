//! A fixed-key hasher for maps on the query path.
//!
//! Keys there are page numbers and row values of our own synthetic data:
//! SipHash's collision resistance buys nothing, and `RandomState` seeds it
//! per process, which is a determinism hazard wherever a map is iterated.
//! Not for keys that arrive from outside the program.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;

/// Multiply-xorshift: each word is added to the state and multiplied by an
/// odd constant (2^64 / the golden ratio). A product's low bits depend only
/// on its operands' low bits, and `std`'s table picks buckets from the low
/// bits, so `finish` folds the well-mixed high bits down onto them.
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    state: u64,
}

const K: u64 = 0x9e37_79b9_7f4a_7c15;

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = self.state.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state ^ (self.state >> 29)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.add(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FastHasher>::default().hash_one(v)
    }

    /// A change of the function is a visible diff here.
    #[test]
    fn fixed_outputs() {
        assert_eq!(hash_of(0u32), 0);
        assert_eq!(hash_of(1u32), 0x9e37_79bd_8ef1_b1de);
        assert_eq!(hash_of(510u32), 0x3284_7f8a_0240_cd8a);
        assert_eq!(hash_of(-1i64), 0x61c8_8645_8ef1_b1df);
        assert_eq!(hash_of(1_000_003i64), 0xd7c5_23bc_779f_fea9);
        assert_eq!(hash_of((3u32, 17u32)), 0x1f7b_9cb9_2517_af5e);
        assert_eq!(hash_of((17u32, 3u32)), 0xae2d_6c79_41c6_0a69);
        // Byte strings: whole little-endian words, then a zero-padded tail.
        let mut h = FastHasher::default();
        h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(h.finish(), 0xffc6_5d26_37f7_c178);
    }

    /// Keys that differ only above bit 10 (page numbers of different
    /// objects, row values on a stride) must still spread over the low
    /// bits the table takes its bucket from.
    #[test]
    fn high_bit_keys_spread_over_low_bits() {
        let buckets: HashSet<u64> = (0..1024u32).map(|i| hash_of(i << 11) & 1023).collect();
        assert!(buckets.len() > 640, "{} of 1024 buckets", buckets.len());
        let buckets: HashSet<u64> =
            (0..1024i64).map(|i| hash_of((7u32, (i as u32) << 16)) & 1023).collect();
        assert!(buckets.len() > 640, "{} of 1024 buckets", buckets.len());
    }
}
