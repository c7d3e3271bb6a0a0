//! A small Fx-style hasher for the search's internal maps.
//!
//! The combine loops look up child slates and solution-set keys once per
//! combine block, hundreds of thousands of times per search; the standard
//! library's SipHash costs more than the lookup around it. The maps hashed
//! here are keyed only by values the search builds itself (layout and
//! fusion-prefix indices, distributions, fusion prefixes), never by text
//! from outside the program, so a multiply-rotate hash without SipHash's
//! collision resistance is safe. Nothing iterates these maps in an order
//! that reaches an output (every iteration sorts or only rebuilds a map);
//! the default `RandomState` already changes that order from process to
//! process, so swapping the hasher cannot change a plan or a counter.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The multiplier of rustc's `FxHasher` (a 64-bit odd constant derived
/// from the golden ratio).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher: one rotate, xor and multiply per word.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(c);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the [`FxHasher`]; build with `FxHashMap::default()`.
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn equal_values_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of((3usize, [1u32, 2])), hash_of((3usize, [1u32, 2])));
        assert_ne!(hash_of((3usize, [1u32, 2])), hash_of((3usize, [2u32, 1])));
        assert_ne!(hash_of(vec![1u32]), hash_of(vec![1u32, 0]));
        // Byte slices longer than one word hash every byte.
        assert_ne!(hash_of("abcdefghi"), hash_of("abcdefghj"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<(usize, u32), usize> = FxHashMap::default();
        for i in 0..1000usize {
            m.insert((i % 37, i as u32), i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000usize).all(|i| m[&(i % 37, i as u32)] == i));
    }
}
