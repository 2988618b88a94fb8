//! Property-based tests for the fast-trie family.

use bitstr::{BitSlice, BitStr};
use fast_trie::{RemIndex, XFastTrie, YFastTrie, ZFastTrie};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The y-fast-backed form of the §4.4.2 second layer (the paper's
/// structure): both paddings of every stored string in a [`YFastTrie`],
/// validity vectors beside it. [`RemIndex`] keeps the same padded key set
/// in one ordered map; this reference pins its answers bit for bit.
struct YFastRemIndex {
    w: u32,
    yfast: YFastTrie,
    validity: BTreeMap<u64, u128>,
    len: usize,
}

impl YFastRemIndex {
    fn new(w: u32) -> Self {
        YFastRemIndex {
            w,
            yfast: YFastTrie::new(w),
            validity: BTreeMap::new(),
            len: 0,
        }
    }

    fn pad(&self, s: BitSlice<'_>, ones: bool) -> u64 {
        let fill = self.w as usize - s.len();
        let mut v = if fill == 64 { 0 } else { s.to_u64() << fill };
        if ones && fill > 0 {
            v |= if fill == 64 {
                u64::MAX
            } else {
                (1u64 << fill) - 1
            };
        }
        v
    }

    fn insert(&mut self, s: BitSlice<'_>) -> bool {
        let l = s.len() as u32;
        let mut added = false;
        for ones in [false, true] {
            let p = self.pad(s, ones);
            let mask = self.validity.entry(p).or_insert(0);
            if *mask & (1u128 << l) == 0 {
                *mask |= 1u128 << l;
                added = true;
            }
            self.yfast.insert(p);
        }
        self.len += added as usize;
        added
    }

    fn remove(&mut self, s: BitSlice<'_>) -> bool {
        let l = s.len() as u32;
        let mut removed = false;
        for ones in [false, true] {
            let p = self.pad(s, ones);
            if let Some(mask) = self.validity.get_mut(&p) {
                if *mask & (1u128 << l) != 0 {
                    *mask &= !(1u128 << l);
                    removed = true;
                }
                if *mask == 0 {
                    self.validity.remove(&p);
                    self.yfast.remove(p);
                }
            }
        }
        self.len -= removed as usize;
        removed
    }

    fn contains(&self, s: BitSlice<'_>) -> bool {
        let p = self.pad(s, false);
        self.validity
            .get(&p)
            .is_some_and(|m| m & (1u128 << s.len()) != 0)
    }

    fn query(&self, q: BitSlice<'_>) -> Option<BitStr> {
        if self.len == 0 {
            return None;
        }
        let w = self.w as usize;
        let mut cands: Vec<u64> = Vec::new();
        for x in [self.pad(q, false), self.pad(q, true)] {
            cands.extend(self.yfast.pred_or_eq(x));
            cands.extend(self.yfast.succ_or_eq(x));
        }
        cands.sort_unstable();
        cands.dedup();
        let mut best: Option<(usize, BitStr)> = None;
        for c in cands {
            let cbits = BitStr::from_u64(c, w);
            let mask = self.validity[&c];
            let l = q.lcp(&cbits.slice(0..w)).min(q.len());
            let above = (l + 1..=w).find(|&i| mask & (1u128 << i) != 0);
            let below = (0..=l).rev().find(|&i| mask & (1u128 << i) != 0);
            let pick = if mask & (1u128 << l) != 0 {
                l
            } else {
                above.or(below)?
            };
            let s = cbits.slice(0..pick).to_bitstr();
            let real = l.min(pick);
            match &best {
                Some((bl, bs))
                    if (*bl, std::cmp::Reverse(bs.len())) >= (real, std::cmp::Reverse(s.len())) => {
                }
                _ => best = Some((real, s)),
            }
        }
        best.map(|(_, s)| s)
    }
}

/// A string for the differential test: random, an extension of a pooled
/// string by 0s or 1s (shared paddings such as "10"/"100"), a truncation
/// of one, the empty string, or a full-width string.
fn draw_string(rng: &mut rand_chacha::ChaCha8Rng, w: usize, pool: &[BitStr]) -> BitStr {
    let random = |rng: &mut rand_chacha::ChaCha8Rng, len: usize| {
        BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
    };
    match rng.gen_range(0..10) {
        0 => BitStr::new(),
        1 => random(rng, w),
        2..=4 if !pool.is_empty() => {
            let mut s = pool[rng.gen_range(0..pool.len())].clone();
            let fill = rng.gen_bool(0.5);
            for _ in 0..rng.gen_range(0..=w - s.len()) {
                s.push(fill);
            }
            s
        }
        5 if !pool.is_empty() => {
            let mut s = pool[rng.gen_range(0..pool.len())].clone();
            let len = rng.gen_range(0..=s.len());
            s.truncate(len);
            s
        }
        _ => {
            let len = rng.gen_range(0..=w);
            random(rng, len)
        }
    }
}

/// `s` as `RemIndex::query_word` takes it: left-aligned bits and length.
fn left_aligned(s: &BitStr) -> (u64, usize) {
    (s.words().first().copied().unwrap_or(0), s.len())
}

proptest! {
    #[test]
    fn xfast_matches_btreeset(
        ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 1..300),
        queries in proptest::collection::vec(any::<u16>(), 1..60),
    ) {
        let mut t = XFastTrie::new(16);
        let mut set = BTreeSet::new();
        for (x, ins) in &ops {
            let x = *x as u64;
            if *ins {
                prop_assert_eq!(t.insert(x), set.insert(x));
            } else {
                prop_assert_eq!(t.remove(x), set.remove(&x));
            }
        }
        for q in &queries {
            let q = *q as u64;
            prop_assert_eq!(t.pred_or_eq(q), set.range(..=q).next_back().copied());
            prop_assert_eq!(t.succ_or_eq(q), set.range(q..).next().copied());
        }
        prop_assert_eq!(t.len(), set.len());
    }

    #[test]
    fn yfast_matches_btreeset(
        ops in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..300),
        queries in proptest::collection::vec(any::<u32>(), 1..60),
    ) {
        let mut t = YFastTrie::new(32);
        let mut set = BTreeSet::new();
        for (x, ins) in &ops {
            let x = *x as u64;
            if *ins {
                prop_assert_eq!(t.insert(x), set.insert(x));
            } else {
                prop_assert_eq!(t.remove(x), set.remove(&x));
            }
        }
        for q in &queries {
            let q = *q as u64;
            prop_assert_eq!(t.contains(q), set.contains(&q));
            prop_assert_eq!(t.pred_or_eq(q), set.range(..=q).next_back().copied());
            prop_assert_eq!(t.succ_or_eq(q), set.range(q..).next().copied());
        }
    }

    #[test]
    fn zfast_exit_node_is_exact(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 1..40),
            1..60,
        ),
        queries in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..50),
            1..40,
        ),
        seed in any::<u64>(),
    ) {
        let mut z = ZFastTrie::new(seed);
        for (i, k) in keys.iter().enumerate() {
            z.insert(&BitStr::from_bits(k.iter().copied()), i as u64);
        }
        z.trie().check_invariants(false);
        for q in &queries {
            let q = BitStr::from_bits(q.iter().copied());
            let got = z.exit_node(q.as_slice());
            // exact semantics: matches the plain-trie walk
            let r = z.trie().lcp(q.as_slice());
            let want = if r.pos.edge_off == z.trie().node(r.pos.node).edge.len() {
                r.pos.node
            } else if r.pos.edge_off == 0 {
                z.trie().node(r.pos.node).parent.unwrap_or(trie_core::NodeId::ROOT)
            } else {
                r.pos.node
            };
            prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn rem_index_contract(
        keys in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..16),
            1..40,
        ),
        queries in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 0..16),
            1..40,
        ),
    ) {
        let mut idx = RemIndex::new(16);
        let mut stored: Vec<BitStr> = Vec::new();
        for k in &keys {
            let k = BitStr::from_bits(k.iter().copied());
            if !stored.contains(&k) {
                idx.insert(k.as_slice());
                stored.push(k);
            }
        }
        for q in &queries {
            let q = BitStr::from_bits(q.iter().copied());
            let got = idx.query(q.as_slice()).unwrap();
            prop_assert!(stored.contains(&got));
            // the documented contract: reaches the deepest stored prefix
            if let Some(r) = stored
                .iter()
                .filter(|k| q.starts_with(*k))
                .max_by_key(|k| k.len())
            {
                prop_assert!(q.lcp(&got) >= r.len());
                prop_assert!(got.starts_with(r));
                if q.starts_with(&got) {
                    prop_assert_eq!(&got, r);
                }
            }
            if stored.contains(&q) {
                prop_assert_eq!(got, q);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rem_index_identical_to_yfast_reference(
        w_idx in 0usize..4,
        seed in any::<u64>(),
        n_ops in 1usize..800,
    ) {
        let w = [3usize, 8, 16, 64][w_idx];
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut idx = RemIndex::new(w as u32);
        let mut reference = YFastRemIndex::new(w as u32);
        let mut pool: Vec<BitStr> = Vec::new();
        let mut max_keys = 0;
        for step in 0..n_ops {
            let s = draw_string(&mut rng, w, &pool);
            // the first half grows the set past 2w (y-fast buckets split),
            // the second half shrinks it again (buckets merge)
            let inserts = if step < n_ops / 2 { 0..=4 } else { 0..=1 };
            match rng.gen_range(0..8) {
                op if inserts.contains(&op) => {
                    prop_assert_eq!(idx.insert(s.as_slice()), reference.insert(s.as_slice()));
                    pool.push(s);
                }
                5 | 6 => {
                    let s = if pool.is_empty() || rng.gen_bool(0.2) {
                        s
                    } else {
                        pool.swap_remove(rng.gen_range(0..pool.len()))
                    };
                    prop_assert_eq!(idx.remove(s.as_slice()), reference.remove(s.as_slice()));
                }
                _ => {
                    prop_assert_eq!(idx.contains(s.as_slice()), reference.contains(s.as_slice()));
                    let got = idx.query(s.as_slice());
                    prop_assert_eq!(&got, &reference.query(s.as_slice()));
                    let (q, len) = left_aligned(&s);
                    // garbage past `len` must be ignored
                    let noisy = if len < 64 { q | u64::MAX >> len } else { q };
                    for q in [q, noisy] {
                        prop_assert_eq!(idx.query_word(q, len), got.as_ref().map(left_aligned));
                    }
                }
            }
            prop_assert_eq!(idx.len(), reference.len);
            max_keys = max_keys.max(reference.yfast.len());
        }
        // a y-fast bucket holds at most 2w padded keys
        if n_ops >= 600 {
            prop_assert!(max_keys > 2 * w, "set never outgrew a y-fast bucket");
        }
    }
}
