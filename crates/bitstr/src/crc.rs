//! CRC-64 as a second *binary associatively incremental* hash (Definition 3).
//!
//! The paper notes that CRC \[44\] is associatively incremental. A CRC without
//! init/xor-out decoration is simply the remainder of the message polynomial
//! modulo a degree-64 generator `G` over GF(2):
//!
//! ```text
//! crc(S) = poly(S) · x^0 mod G          (bits of S are the coefficients)
//! crc(A·B) = crc(A) · x^|B| + crc(B)    (mod G, "+" is XOR)
//! ```
//!
//! The combine therefore needs carry-less multiply-mod, implemented here in
//! portable software (no CPU intrinsics), with `x^(2^k) mod G` precomputed
//! for fast `x^n mod G`. Appending whole bytes needs no multiply: the
//! table-driven step `crc(S·b) = ((crc(S) << 8) | b) ⊕ T[crc(S) >> 56]`
//! with `T[i] = i·x^64 mod G` is what [`hash_bits`](IncrementalHash::hash_bits)
//! and [`Crc64Hasher::extend_words`] run.
//!
//! This module exists to demonstrate that PIM-trie's hash-manager machinery
//! is generic over the hash function: both [`Crc64Hasher`] and
//! [`PolyHasher`](crate::hash::PolyHasher) implement
//! [`IncrementalHash`].

use crate::bits::BitSlice;
use crate::hash::{HashVal, IncrementalHash};

/// CRC-64/ECMA-182 generator polynomial (degree-64 term implicit).
pub const ECMA_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// Carry-less 64×64 → 128 multiply, portable.
#[inline]
fn clmul(a: u64, b: u64) -> (u64, u64) {
    let mut hi = 0u64;
    let mut lo = 0u64;
    let mut a_lo = a;
    let mut a_hi = 0u64;
    let mut bb = b;
    while bb != 0 {
        if bb & 1 == 1 {
            lo ^= a_lo;
            hi ^= a_hi;
        }
        // shift (a_hi:a_lo) left by one
        a_hi = (a_hi << 1) | (a_lo >> 63);
        a_lo <<= 1;
        bb >>= 1;
    }
    (hi, lo)
}

/// Reduce a 128-bit polynomial `hi:lo` modulo `x^64 + G`.
#[inline]
fn reduce(mut hi: u64, mut lo: u64, g: u64) -> u64 {
    // Process the high 64 coefficients MSB-first: each set bit x^(64+k)
    // rewrites to G·x^k.
    for k in (0..64).rev() {
        if (hi >> k) & 1 == 1 {
            hi ^= 1 << k;
            // G * x^k spills into both halves
            if k == 0 {
                lo ^= g;
            } else {
                lo ^= g << k;
                hi ^= g >> (64 - k);
            }
        }
    }
    lo
}

/// `a · b mod (x^64 + G)` in GF(2)[x].
#[inline]
fn gf2_mulmod(a: u64, b: u64, g: u64) -> u64 {
    let (hi, lo) = clmul(a, b);
    reduce(hi, lo, g)
}

/// Plain-remainder CRC-64 hasher with associative combine.
pub struct Crc64Hasher {
    poly: u64,
    /// x^(2^k) mod G for k in 0..64 (k=0 is x^1).
    xpow2: [u64; 64],
    /// tab[i] = i·x^64 mod G: the reduction of the byte shifted out of
    /// the top of the register by one table-driven byte step.
    tab: [u64; 256],
}

impl Crc64Hasher {
    /// Hasher over the given generator polynomial (low 64 coefficients;
    /// the `x^64` term is implicit).
    pub fn new(poly: u64) -> Self {
        let mut xpow2 = [0u64; 64];
        xpow2[0] = 2; // x^1
        for k in 1..64 {
            xpow2[k] = gf2_mulmod(xpow2[k - 1], xpow2[k - 1], poly);
        }
        let mut tab = [0u64; 256];
        for (i, slot) in tab.iter_mut().enumerate() {
            // i·x^56 is already reduced; eight more shifts make it i·x^64
            let mut h = (i as u64) << 56;
            for _ in 0..8 {
                h = Self::shift_in(h, false, poly);
            }
            *slot = h;
        }
        Crc64Hasher { poly, xpow2, tab }
    }

    /// ECMA-182 generator.
    pub fn ecma() -> Self {
        Self::new(ECMA_POLY)
    }

    /// crc(S·b) from crc(S): multiply by x and add the new coefficient.
    #[inline]
    fn shift_in(h: u64, bit: bool, poly: u64) -> u64 {
        let carry = h >> 63;
        let mut h = h << 1;
        if bit {
            h ^= 1;
        }
        if carry == 1 {
            h ^= poly;
        }
        h
    }

    /// crc(S·b) from crc(S) for one 8-bit string `b` (MSB-first).
    #[inline]
    fn push_byte(&self, h: u64, b: u8) -> u64 {
        ((h << 8) | b as u64) ^ self.tab[(h >> 56) as usize]
    }

    /// crc(S·w₀·w₁·…) from `h = crc(S)`: each word is 64 message bits,
    /// most-significant bit first. Equals folding
    /// [`combine(h, w, 64)`](IncrementalHash::combine) over the words, one
    /// table lookup per byte instead of a carry-less multiply per word.
    pub fn extend_words(&self, h: HashVal, words: &[u64]) -> HashVal {
        let mut h = h.0;
        for &w in words {
            for b in w.to_be_bytes() {
                h = self.push_byte(h, b);
            }
        }
        HashVal(h)
    }

    /// `x^n mod G`.
    pub fn xpow(&self, mut n: u64) -> u64 {
        let mut acc = 1u64;
        let mut k = 0;
        while n != 0 {
            if n & 1 == 1 {
                acc = gf2_mulmod(acc, self.xpow2[k], self.poly);
            }
            n >>= 1;
            k += 1;
        }
        acc
    }
}

impl IncrementalHash for Crc64Hasher {
    fn empty(&self) -> HashVal {
        HashVal(0)
    }

    fn hash_bits(&self, s: BitSlice<'_>) -> HashVal {
        let mut h = 0u64;
        let mut i = 0;
        // bytes at a time, then the ragged tail bit-by-bit
        while i + 8 <= s.len() {
            h = self.push_byte(h, (s.chunk(i, 8) >> 56) as u8);
            i += 8;
        }
        while i < s.len() {
            h = Self::shift_in(h, s.get(i), self.poly);
            i += 1;
        }
        HashVal(h)
    }

    #[inline]
    fn combine(&self, a: HashVal, b: HashVal, b_len_bits: u64) -> HashVal {
        HashVal(gf2_mulmod(a.0, self.xpow(b_len_bits), self.poly) ^ b.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BitStr;

    fn naive(s: &BitStr, poly: u64) -> u64 {
        let mut h = 0u64;
        for i in 0..s.len() {
            h = Crc64Hasher::shift_in(h, s.get(i), poly);
        }
        h
    }

    #[test]
    fn table_path_matches_bitwise_division() {
        let h = Crc64Hasher::ecma();
        for t in ["", "1", "0110", &"10110".repeat(40), &"1".repeat(71)] {
            let s = BitStr::from_bin_str(t);
            assert_eq!(h.hash_str(&s).0, naive(&s, ECMA_POLY), "on {t:?}");
        }
    }

    #[test]
    fn combine_is_concatenation() {
        let h = Crc64Hasher::ecma();
        let cases = [
            ("", "1"),
            ("10110", "001"),
            ("1", ""),
            ("0101", "111000111"),
        ];
        for (x, y) in cases {
            let a = BitStr::from_bin_str(x);
            let b = BitStr::from_bin_str(y);
            let ab = a.concat(&b);
            assert_eq!(
                h.combine(h.hash_str(&a), h.hash_str(&b), b.len() as u64),
                h.hash_str(&ab),
                "combine mismatch on {x:?} ++ {y:?}"
            );
        }
    }

    #[test]
    fn xpow_consistency() {
        let h = Crc64Hasher::ecma();
        // x^a · x^b = x^(a+b)
        for (a, b) in [(1u64, 1u64), (7, 9), (63, 65), (100, 1000)] {
            assert_eq!(gf2_mulmod(h.xpow(a), h.xpow(b), ECMA_POLY), h.xpow(a + b));
        }
    }

    #[test]
    fn clmul_small_cases() {
        // (x+1)(x+1) = x^2+1 (carry-less)
        assert_eq!(clmul(3, 3), (0, 5));
        assert_eq!(clmul(1 << 63, 2), (1, 0));
    }

    #[test]
    fn crc_unlike_poly_ignores_leading_zeros_is_false_here() {
        // Plain-remainder CRC *does* collide "0S" with "S" when the leading
        // coefficient is zero — the PIM-trie hash manager therefore stores
        // string lengths alongside hashes. Document the behaviour:
        let h = Crc64Hasher::ecma();
        let a = BitStr::from_bin_str("0101");
        let b = BitStr::from_bin_str("101");
        assert_eq!(h.hash_str(&a), h.hash_str(&b));
    }
}
