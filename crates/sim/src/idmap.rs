//! Hash maps keyed by simulator ids.
//!
//! Every map on the simulator's access and protocol paths is keyed by
//! integers — page numbers, chunk bases, lock and thread ids, node
//! indices — that the simulation itself hands out, so nothing needs the
//! collision resistance (or pays for the SipHash rounds) of std's
//! `RandomState`. [`IdHasher`] is one multiply per integer written.
//! Being unseeded, it also makes iteration order a function of the
//! inserts and removes alone: two runs — or two processes — that build a
//! map the same way walk it in the same order.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`]; build with `IdMap::default()`.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// `HashSet` over [`IdHasher`]; build with `IdSet::default()`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// Odd multiplier with well-spread bits (the one `rustc-hash` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-based hasher for integer keys.
///
/// Each integer written is added to the state, which is then multiplied
/// by an odd constant. A product's low bits depend only on the operands'
/// low bits, and the keys here are often aligned — chunk bases are
/// multiples of 16 pages, page-aligned addresses multiples of 4096 — so a
/// raw product would leave the low bits that pick a bucket at zero.
/// [`Hasher::finish`] therefore rotates the well-mixed high half down.
///
/// # Examples
///
/// ```
/// use cables_sim::IdMap;
///
/// let mut m: IdMap<u64, &str> = IdMap::default();
/// m.insert(16, "chunk");
/// assert_eq!(m.get(&16), Some(&"chunk"));
/// ```
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.hash = self.hash.wrapping_add(x).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.add(x.into());
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.add(x.into());
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.add(x.into());
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.add(x);
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(x: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(x)
    }

    #[test]
    fn equal_builds_iterate_in_equal_order() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 16 + (i % 7)).collect();
        let build = || {
            let mut m: IdMap<u64, u64> = IdMap::default();
            for &k in &keys {
                m.insert(k, k);
            }
            for &k in keys.iter().step_by(3) {
                m.remove(&k);
            }
            m.into_iter().collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
        let set = || {
            keys.iter()
                .copied()
                .collect::<IdSet<u64>>()
                .into_iter()
                .collect::<Vec<_>>()
        };
        assert_eq!(set(), set());
    }

    /// hashbrown picks a bucket from the hash's low bits; aligned keys
    /// must still reach every one of the low 7 bits' 128 values.
    #[test]
    fn aligned_keys_spread_over_the_low_bits() {
        for align in [16u64, 4096] {
            let mut seen = [false; 128];
            for i in 0..4096u64 {
                seen[(hash(i * align) & 127) as usize] = true;
            }
            let n = seen.iter().filter(|&&s| s).count();
            assert_eq!(
                n, 128,
                "multiples of {align} reach {n} of 128 low-bit values"
            );
        }
    }

    /// The hasher is part of the determinism contract: a changed output
    /// reorders every map it backs.
    #[test]
    fn outputs_are_pinned() {
        assert_eq!(hash(0u64), 0);
        assert_eq!(hash(1u64), 0xa8b9_8aa7_17c4_d5eb);
        assert_eq!(hash(16u64), 0x8b98_aa71_404d_5eba);
        assert_eq!(hash(4096u32), 0x98aa_7140_015e_ba8b);
        assert_eq!(hash((3u32, 1u8)), 0xc752_7efa_40b6_b2b1);
        assert_eq!(hash((7u64, 9u64)), 0xe095_6f4c_701f_ddc1);
    }
}
