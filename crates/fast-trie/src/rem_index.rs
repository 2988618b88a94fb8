//! The second-layer index of §4.4.2: padded `S_rem` keys + validity vectors.
//!
//! It maintains a set `K` of bit-strings, each at most `w` bits. For a
//! query string `Q` (also at most `w` bits) it returns the stored string
//! `K_i` whose LCP with `Q` is longest, such that no `K_j` with the same
//! LCP is a proper prefix of `K_i`. PIM-trie stores the `S_rem` suffixes of
//! block roots in this structure; the returned string is then either the
//! critical block root itself or one of its direct children (Figure 5).
//!
//! Implementation, following the paper: every stored string is padded to
//! `w` bits twice — once with 0s, once with 1s — and both paddings enter
//! an ordered set of `w`-bit integers. Because distinct strings can pad to
//! the same integer, a per-integer *validity vector* records which prefix
//! lengths correspond to actually-stored strings. A query pads `Q` the same
//! way, takes the predecessor and successor of both paddings, and resolves
//! each candidate through its validity vector: the shortest valid length
//! exceeding the query LCP, or the longest valid length not exceeding it;
//! the best of those (longest real LCP, then shortest string) is the
//! answer.
//!
//! The paper keeps the padded integers in a y-fast trie for `O(log w)`
//! probes. Here they are the keys of one ordered map (padded integer →
//! validity vector), so predecessor/successor are `range` probes over the
//! same key set and every query answer is identical to the y-fast form;
//! updates are `O(log n)` with no per-level hashing, and a probe allocates
//! nothing ([`RemIndex::query_word`]). In PIM-trie one group holds every
//! block root shallower than `w` bits (their `S_pre` is empty), most of
//! the index, so the per-update cost of this group is what the index
//! build pays.

use bitstr::{mask_left, BitSlice, BitStr};
use std::collections::BTreeMap;

/// Second-layer index over bit-strings of length `0..=w` (`w <= 64`).
pub struct RemIndex {
    w: u32,
    /// padded integer -> bitmask of valid prefix lengths (bit `l` set iff
    /// the length-`l` prefix of the integer is a stored string). The key
    /// set is exactly the set of paddings of stored strings.
    padded: BTreeMap<u64, u128>,
    len: usize,
}

impl RemIndex {
    /// Empty index for strings of at most `w` bits.
    pub fn new(w: u32) -> Self {
        assert!((1..=64).contains(&w));
        RemIndex {
            w,
            padded: BTreeMap::new(),
            len: 0,
        }
    }

    /// Number of stored strings.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `q` (left-aligned, `len <= w` bits, bits past `len` ignored) padded
    /// to a right-aligned `w`-bit integer with 0s or 1s.
    fn pad(&self, q: u64, len: usize, ones: bool) -> u64 {
        let fill = self.w as usize - len; // 0..=64
        let mut v = mask_left(q, len) >> (64 - self.w);
        if ones && fill > 0 {
            v |= u64::MAX >> (64 - fill);
        }
        v
    }

    /// Insert a string (set semantics); returns false if already present.
    pub fn insert(&mut self, s: BitSlice<'_>) -> bool {
        assert!(s.len() <= self.w as usize, "string longer than w");
        let (q, l) = (s.chunk(0, s.len()), s.len());
        let mut added = false;
        for ones in [false, true] {
            let mask = self.padded.entry(self.pad(q, l, ones)).or_insert(0);
            if *mask & (1u128 << l) == 0 {
                *mask |= 1u128 << l;
                added = true;
            }
        }
        if added {
            self.len += 1;
        }
        added
    }

    /// Remove a string; returns false if absent.
    pub fn remove(&mut self, s: BitSlice<'_>) -> bool {
        assert!(s.len() <= self.w as usize);
        let (q, l) = (s.chunk(0, s.len()), s.len());
        let mut removed = false;
        for ones in [false, true] {
            let p = self.pad(q, l, ones);
            if let Some(mask) = self.padded.get_mut(&p) {
                if *mask & (1u128 << l) != 0 {
                    *mask &= !(1u128 << l);
                    removed = true;
                }
                if *mask == 0 {
                    self.padded.remove(&p);
                }
            }
        }
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, s: BitSlice<'_>) -> bool {
        let p = self.pad(s.chunk(0, s.len()), s.len(), false);
        self.padded
            .get(&p)
            .map(|m| m & (1u128 << s.len()) != 0)
            .unwrap_or(false)
    }

    /// Resolve `q` against the stored set (§4.4.2).
    ///
    /// Guarantees (see the `child_or_self_property_random` test, which also
    /// encodes why the literal "global max LCP" reading of the paper's prose
    /// is not achievable with O(1) predecessor probes):
    ///
    /// * the result is a stored string;
    /// * `lcp(q, result) >= |R|` where `R` is the longest stored prefix of
    ///   `q` — so the critical block root `R` is always *recoverable* from
    ///   the result (it is a prefix of the result);
    /// * if the result is itself a prefix of `q`, it equals `R` exactly;
    /// * if `q` is stored, the result is `q`.
    ///
    /// PIM-trie then maps the result through the `S_rem → meta-tree node`
    /// hash table and verifies bit-by-bit (§4.4.3), so any slack here costs
    /// at most a verification hop, never correctness.
    ///
    /// `None` iff the index is empty.
    pub fn query(&self, q: BitSlice<'_>) -> Option<BitStr> {
        let (bits, len) = self.query_word(q.chunk(0, q.len()), q.len())?;
        let mut s = BitStr::with_capacity(len);
        s.push_chunk(bits, len);
        Some(s)
    }

    /// [`query`](Self::query) on a word: `q` holds the query's `len <= w`
    /// bits left-aligned (bits past `len` are ignored); the result is the
    /// stored string as `(left-aligned bits, length)`, zero past its
    /// length. Allocates nothing.
    pub fn query_word(&self, q: u64, len: usize) -> Option<(u64, usize)> {
        assert!(len <= self.w as usize);
        if self.is_empty() {
            return None;
        }
        let q = mask_left(q, len);
        let mut cands = [(0u64, 0u128); 4];
        let mut n = 0;
        for x in [self.pad(q, len, false), self.pad(q, len, true)] {
            let pred = self.padded.range(..=x).next_back();
            let succ = self.padded.range(x..).next();
            for (&c, &mask) in pred.into_iter().chain(succ) {
                cands[n] = (c, mask);
                n += 1;
            }
        }
        let cands = &mut cands[..n];
        cands.sort_unstable_by_key(|&(c, _)| c);

        // (real LCP, -(len) tiebreak) maximisation, candidates ascending
        let mut best: Option<(usize, u64, usize)> = None;
        let mut prev = None;
        for &(c, mask) in cands.iter() {
            if prev == Some(c) {
                continue;
            }
            prev = Some(c);
            let cbits = c << (64 - self.w);
            // LCP of the query *string* with the padded candidate.
            let l = ((q ^ cbits).leading_zeros() as usize).min(len);
            // Resolution order: a string of length exactly `l` is the match
            // point itself; otherwise the shortest longer one is a direct
            // child of the match point; otherwise fall back to the deepest
            // ancestor. (The paper's prose names the last two; the first is
            // required by its "no same-LCP prefix" condition.)
            let pick = if mask & (1u128 << l) != 0 {
                l
            } else {
                shortest_valid_above(mask, l).or_else(|| longest_valid_at_or_below(mask, l))?
            };
            let real = l.min(pick);
            match best {
                Some((bl, _, blen))
                    if (bl, std::cmp::Reverse(blen)) >= (real, std::cmp::Reverse(pick)) => {}
                _ => best = Some((real, mask_left(cbits, pick), pick)),
            }
        }
        best.map(|(_, bits, len)| (bits, len))
    }
}

/// Smallest set bit index strictly greater than `l`.
fn shortest_valid_above(mask: u128, l: usize) -> Option<usize> {
    if l >= 127 {
        return None;
    }
    let m = mask >> (l + 1);
    if m == 0 {
        None
    } else {
        Some(l + 1 + m.trailing_zeros() as usize)
    }
}

/// Largest set bit index at most `l`.
fn longest_valid_at_or_below(mask: u128, l: usize) -> Option<usize> {
    let m = mask & (((1u128 << (l + 1)) - 1) | if l >= 127 { u128::MAX } else { 0 });
    if m == 0 {
        None
    } else {
        Some(127 - m.leading_zeros() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn b(s: &str) -> BitStr {
        BitStr::from_bin_str(s)
    }

    #[test]
    fn figure5_example() {
        // Paper Figure 5, w = 3: stored S_rem values "01" (target child) and
        // friends; query S'_rem = "0" padded to "000"/"011" finds "01".
        let mut idx = RemIndex::new(3);
        idx.insert(b("01").as_slice());
        idx.insert(b("110").as_slice());
        let got = idx.query(b("0").as_slice()).unwrap();
        assert_eq!(got, b("01"));
    }

    #[test]
    fn exact_match_wins() {
        let mut idx = RemIndex::new(8);
        for k in ["0101", "01", "011011"] {
            idx.insert(b(k).as_slice());
        }
        assert_eq!(idx.query(b("0101").as_slice()).unwrap(), b("0101"));
    }

    #[test]
    fn child_or_self_property_random() {
        // The provable contract (see `query` docs). NOTE: the global
        // max-LCP reading of the paper's prose does NOT hold for adversarial
        // sets — e.g. stored {"0", "01101111"}, q = "01111111": the
        // ones-padding of "0" equals q's ones-padding and shadows the
        // deeper key's integer in the y-fast order. The critical-root
        // property below is what PIM-trie's HashMatching actually needs.
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for trial in 0..30 {
            let w = *[8usize, 16, 64].get(trial % 3).unwrap();
            let mut idx = RemIndex::new(w as u32);
            let mut keys: Vec<BitStr> = Vec::new();
            for _ in 0..rng.gen_range(1..40) {
                let len = rng.gen_range(0..=w);
                let k = BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)));
                if !keys.contains(&k) {
                    idx.insert(k.as_slice());
                    keys.push(k);
                }
            }
            for _ in 0..200 {
                let len = rng.gen_range(0..=w);
                let q = BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)));
                let got = idx.query(q.as_slice()).unwrap();
                assert!(keys.contains(&got), "returned unknown string {got}");
                // R = longest stored prefix of q
                let r = keys
                    .iter()
                    .filter(|k| q.starts_with(*k))
                    .max_by_key(|k| k.len());
                if let Some(r) = r {
                    assert!(
                        q.lcp(&got) >= r.len(),
                        "q={q} got={got} misses stored prefix {r} (trial {trial})"
                    );
                    assert!(
                        got.starts_with(r),
                        "critical root {r} not recoverable from {got}"
                    );
                    if q.starts_with(&got) {
                        assert_eq!(&got, r, "prefix result must be the deepest prefix");
                    }
                }
                if keys.contains(&q) {
                    assert_eq!(got, q, "stored query must resolve to itself");
                }
            }
        }
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = RemIndex::new(16);
        assert!(idx.insert(b("0101").as_slice()));
        assert!(!idx.insert(b("0101").as_slice()));
        assert!(idx.contains(b("0101").as_slice()));
        assert!(idx.remove(b("0101").as_slice()));
        assert!(!idx.remove(b("0101").as_slice()));
        assert!(idx.is_empty());
        assert_eq!(idx.query(b("0101").as_slice()), None);
    }

    #[test]
    fn empty_string_stored() {
        let mut idx = RemIndex::new(8);
        idx.insert(BitStr::new().as_slice());
        idx.insert(b("11").as_slice());
        // query with no agreement: empty string (LCP 0, shortest) wins over
        // "11" only when LCP with "11" is 0 and empty is its prefix.
        let got = idx.query(b("00").as_slice()).unwrap();
        assert_eq!(got, BitStr::new());
    }

    #[test]
    fn shared_padding_collision() {
        // "10" pads-with-zeros to the same integer as "100": validity
        // vectors must keep them distinct.
        let mut idx = RemIndex::new(8);
        idx.insert(b("10").as_slice());
        idx.insert(b("100").as_slice());
        assert!(idx.contains(b("10").as_slice()));
        assert!(idx.contains(b("100").as_slice()));
        assert!(idx.remove(b("10").as_slice()));
        assert!(idx.contains(b("100").as_slice()));
        assert!(!idx.contains(b("10").as_slice()));
        assert_eq!(idx.query(b("1000").as_slice()).unwrap(), b("100"));
    }

    #[test]
    fn full_width_strings() {
        let mut idx = RemIndex::new(64);
        let k = BitStr::from_u64(u64::MAX, 64);
        idx.insert(k.as_slice());
        assert!(idx.contains(k.as_slice()));
        assert_eq!(idx.query(k.as_slice()).unwrap(), k);
    }

    #[test]
    fn mask_helpers() {
        let mask: u128 = (1 << 3) | (1 << 7) | 1;
        assert_eq!(shortest_valid_above(mask, 0), Some(3));
        assert_eq!(shortest_valid_above(mask, 3), Some(7));
        assert_eq!(shortest_valid_above(mask, 7), None);
        assert_eq!(longest_valid_at_or_below(mask, 7), Some(7));
        assert_eq!(longest_valid_at_or_below(mask, 6), Some(3));
        assert_eq!(longest_valid_at_or_below(mask, 0), Some(0));
    }
}
