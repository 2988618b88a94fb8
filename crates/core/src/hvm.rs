//! The hash value manager's local kernel (§4.4).
//!
//! A [`HashIndex`] stores block-root metadata in the paper's two-layer
//! form: the first layer maps the digest of `hash(S_pre)` (the longest
//! `w`-aligned prefix of the root string `S`) to a group; the second layer
//! resolves the sub-word suffix `S_rem` inside the group through a
//! [`RemIndex`] (padded `S_rem` keys + validity vectors in one ordered
//! map) plus an exact `rem → entry` table. Every entry also carries
//! `S_last` — the trailing `w` bits of `S` — for the §4.4.3 verification
//! of non-critical matches.
//!
//! Every root shallower than `w` bits has `S_pre = ε`, so one group holds
//! all of them — most of an index over short keys; its second layer
//! therefore has `O(log n)` updates and allocation-free probes rather than
//! per-level hash tables.
//!
//! [`hash_match_piece`] is Algorithm 3 in its efficient form (§4.4.2): it
//! walks a query piece once, enumerates *pivot* positions (global depths
//! that are multiples of `w`), derives pivot hashes incrementally with the
//! associative combine, probes the index at each pivot bottom-up, resolves
//! hits through the second layer, **verifies every candidate bit-exactly
//! against the piece's own bits**, and reports the deepest verified match
//! per edge (the critical-pivot rule). The walk carries the sub-word tail
//! below the last pivot and every `S'_rem` as one word, so a probe
//! allocates nothing. The same kernel runs on a PIM module (push) or on
//! the CPU against pulled metadata (pull).

use crate::refs::Slab;
use bitstr::hash::{HashVal, HashWidth, IncrementalHash, PolyHasher};
use bitstr::{mask_left, BitSlice, BitStr, WORD_BITS};
use fast_trie::RemIndex;
use std::collections::BTreeMap;
use trie_core::{NodeId, Trie};

const W: u64 = WORD_BITS as u64;

/// One stored root's metadata (the paper's meta-tree node payload).
#[derive(Clone, Debug)]
pub struct IndexEntry<R> {
    /// Depth of the root string `S` in bits.
    pub depth: u64,
    /// `hash(S_pre)` — hash of the longest `w`-aligned prefix.
    pub pre_hash: HashVal,
    /// `S_rem` — the sub-word suffix after `S_pre` (`< w` bits).
    pub rem: BitStr,
    /// `S_last` — the last `min(w, |S|)` bits of `S` (§4.4.3).
    pub s_last: BitStr,
    /// What this entry points at.
    pub target: R,
}

/// A group of entries sharing a first-layer digest.
struct RemGroup {
    rems: RemIndex,
    /// exact second layer: rem (left-aligned bits, length) -> entry slots
    /// in insertion order (a Vec because narrow digests can merge groups
    /// of different true `S_pre`)
    by_rem: BTreeMap<(u64, u8), Vec<u32>>,
}

/// The `by_rem` key of a rem (`< w` bits, so it fits one word).
fn rem_key((bits, len): Word) -> (u64, u8) {
    (bits, len as u8)
}

/// The two-layer index over root strings (used by the master table and by
/// every meta-block).
pub struct HashIndex<R> {
    groups: BTreeMap<u64, RemGroup>,
    entries: Slab<IndexEntry<R>>,
    width: HashWidth,
}

impl<R: Copy> HashIndex<R> {
    /// Empty index comparing digests of the given width.
    pub fn new(width: HashWidth) -> Self {
        HashIndex {
            groups: BTreeMap::new(),
            entries: Slab::new(),
            width,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.len() == 0
    }

    /// Approximate size in words (for the space experiments): each entry
    /// stores two hashes, a depth, `S_rem`/`S_last` (≤ 2 words each) and a
    /// target.
    pub fn space_words(&self) -> u64 {
        self.entries.len() as u64 * 8
    }

    /// Insert a root's metadata; returns the entry slot.
    pub fn insert(&mut self, entry: IndexEntry<R>) -> u32 {
        let digest = self.width.digest(entry.pre_hash);
        let rem = entry.rem.as_slice();
        let key = rem_key(word_of(rem));
        let group = self.groups.entry(digest).or_insert_with(|| RemGroup {
            rems: RemIndex::new(WORD_BITS as u32),
            by_rem: BTreeMap::new(),
        });
        group.rems.insert(rem);
        let slot = self.entries.insert(entry);
        group.by_rem.entry(key).or_default().push(slot);
        slot
    }

    /// Remove an entry by slot.
    pub fn remove(&mut self, slot: u32) -> Option<IndexEntry<R>> {
        let entry = self.entries.remove(slot)?;
        let digest = self.width.digest(entry.pre_hash);
        if let Some(group) = self.groups.get_mut(&digest) {
            let key = rem_key(word_of(entry.rem.as_slice()));
            if let Some(v) = group.by_rem.get_mut(&key) {
                v.retain(|s| *s != slot);
                if v.is_empty() {
                    group.by_rem.remove(&key);
                    group.rems.remove(entry.rem.as_slice());
                }
            }
            if group.by_rem.is_empty() {
                self.groups.remove(&digest);
            }
        }
        Some(entry)
    }

    /// Point an entry at a new target in place; false if `slot` is empty.
    pub fn set_target(&mut self, slot: u32, target: R) -> bool {
        match self.entries.get_mut(slot) {
            Some(e) => {
                e.target = target;
                true
            }
            None => false,
        }
    }

    /// [`set_target`](Self::set_target), and move the slot to the back of
    /// its rem's slot list — the order a remove plus re-insert leaves.
    /// Resolution takes the first slot of a rem whose depth agrees, so
    /// callers that re-target an entry this way keep their match order.
    pub fn set_target_requeue(&mut self, slot: u32, target: R) -> bool {
        let Some(e) = self.entries.get_mut(slot) else {
            return false;
        };
        e.target = target;
        let digest = self.width.digest(e.pre_hash);
        let key = rem_key(word_of(e.rem.as_slice()));
        if let Some(v) = self
            .groups
            .get_mut(&digest)
            .and_then(|g| g.by_rem.get_mut(&key))
        {
            v.retain(|s| *s != slot);
            v.push(slot);
        }
        true
    }

    /// Access an entry.
    pub fn get(&self, slot: u32) -> Option<&IndexEntry<R>> {
        self.entries.get(slot)
    }

    /// Iterate live entries.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &IndexEntry<R>)> {
        self.entries.iter()
    }

    /// First-layer probe.
    fn group(&self, pre_hash: HashVal) -> Option<&RemGroup> {
        self.groups.get(&self.width.digest(pre_hash))
    }
}

/// A query piece: a sub-trie of the query trie shipped for matching. Its
/// root corresponds to a global depth `root_depth`; `root_pre_hash` is the
/// hash of the query string's prefix at the root's pivot (the last
/// `w`-boundary at or above the root), and `root_rem` holds the bits from
/// that pivot down to the root, so the receiver can extend hashes without
/// ever seeing the bits above the pivot.
#[derive(Clone)]
pub struct QueryPiece {
    /// The piece trie (root edge empty, root = the cut position).
    pub trie: Trie,
    /// For each piece node id, the query-trie node id it descends into
    /// (the paper's "ID of its corresponding node in the original trie").
    pub tags: Vec<u32>,
    /// Global bit-depth of the piece root.
    pub root_depth: u64,
    /// Hash of the query prefix at the root's pivot.
    pub root_pre_hash: HashVal,
    /// Bits between the root's pivot and the root (`< w` bits).
    pub root_rem: BitStr,
}

impl QueryPiece {
    /// Size in words, the unit of the push-pull decision.
    pub fn size_words(&self) -> u64 {
        self.trie.size_words() as u64 + self.trie.n_nodes() as u64 + 3
    }
}

impl pim_sim::Wire for QueryPiece {
    fn wire_words(&self) -> u64 {
        self.size_words()
    }
}

/// A verified hash match found inside a piece.
#[derive(Clone, Copy, Debug)]
pub struct PieceMatch<R> {
    /// Query-trie node id of the edge's lower endpoint (the matched
    /// position lies on the edge into this node, or at the node itself).
    pub qt_below: u32,
    /// Global bit-depth of the matched position.
    pub depth: u64,
    /// The matched entry's target.
    pub target: R,
}

impl<R: pim_sim::Wire> pim_sim::Wire for PieceMatch<R> {
    fn wire_words(&self) -> u64 {
        2 + self.target.wire_words()
    }
}

/// A bit-string of at most `w` bits packed into one word: the bits
/// left-aligned (zero past the length) and the length.
type Word = (u64, usize);

/// `s` (at most `w` bits) as a [`Word`].
fn word_of(s: BitSlice<'_>) -> Word {
    (s.chunk(0, s.len()), s.len())
}

/// Algorithm 3 (efficient form): find, for every edge of `piece`, the
/// deepest index entry whose root string is a *verified* prefix of the
/// query path through that edge, plus a possible match at the piece root
/// position itself. `work` accumulates metered PIM work.
pub fn hash_match_piece<R: Copy>(
    hasher: &PolyHasher,
    piece: &QueryPiece,
    index: &HashIndex<R>,
    work: &mut u64,
) -> Vec<PieceMatch<R>> {
    let mut out = Vec::new();
    if index.is_empty() {
        return out;
    }
    let root_rem = word_of(piece.root_rem.as_slice());
    let root_pre = piece.root_depth - root_rem.1 as u64;
    debug_assert_eq!(root_pre % W, 0);

    // Match at the piece root itself (exact depth only).
    *work += 2;
    if let Some((d, target)) = resolve(
        index,
        piece.root_pre_hash,
        root_rem,
        root_pre,
        piece.root_depth,
        piece.root_depth,
        work,
    ) {
        if d == piece.root_depth {
            out.push(PieceMatch {
                qt_below: piece.tags[NodeId::ROOT.idx()],
                depth: d,
                target,
            });
        }
    }

    // DFS carrying the rolling pivot context: the last pivot at or above
    // the node, its hash, and the bits from it down to the node (the
    // tail, always under `w` bits, so one word).
    let mut stack = vec![(NodeId::ROOT, root_pre, piece.root_pre_hash, root_rem)];
    while let Some((node, pre_depth, pre_hash, tail)) = stack.pop() {
        let top_depth = pre_depth + tail.1 as u64;
        for child in piece.trie.node(node).children.iter().flatten() {
            let edge = piece.trie.node(*child).edge.as_slice();
            let bottom_depth = top_depth + edge.len() as u64;
            *work += edge.len().div_ceil(WORD_BITS) as u64 + 1;

            // Pivots relevant to this edge: w-boundaries in
            // [pre_depth, bottom_depth], scanned deepest-first. Matches at
            // deeper pivots are strictly deeper, so stop at first hit.
            let mut best: Option<(u64, R)> = None;
            let mut pivot = (bottom_depth / W) * W;
            if pivot < pre_depth {
                pivot = pre_depth;
            }
            loop {
                let (ph, srem) =
                    pivot_context(hasher, pre_depth, pre_hash, tail, edge, top_depth, pivot);
                *work += 2;
                if let Some(m) = resolve(index, ph, srem, pivot, top_depth + 1, bottom_depth, work)
                {
                    best = Some(m);
                    break;
                }
                if pivot <= pre_depth || pivot < W {
                    break;
                }
                pivot -= W;
                if pivot < pre_depth {
                    break;
                }
            }
            if let Some((d, target)) = best {
                out.push(PieceMatch {
                    qt_below: piece.tags[child.idx()],
                    depth: d,
                    target,
                });
            }

            // Child context: advance the pivot past any crossed boundary.
            let new_pre = (bottom_depth / W) * W;
            if new_pre > pre_depth {
                let consumed = (new_pre - top_depth) as usize; // bits of edge up to new_pre
                let h = pivot_hash(hasher, pre_hash, tail, edge.slice(0..consumed));
                stack.push((
                    *child,
                    new_pre,
                    h,
                    word_of(edge.slice(consumed..edge.len())),
                ));
            } else {
                let t = (tail.0 | word_of(edge).0 >> tail.1, tail.1 + edge.len());
                stack.push((*child, pre_depth, pre_hash, t));
            }
        }
    }
    out
}

/// Hash of the query prefix `pre · tail · more` from `pre`'s hash. The
/// combine is exact over `F_(2^61 − 1)`, so it equals hashing the
/// concatenated bits in one pass.
fn pivot_hash(hasher: &PolyHasher, pre_hash: HashVal, tail: Word, more: BitSlice<'_>) -> HashVal {
    let mut h = pre_hash;
    if tail.1 > 0 {
        h = hasher.combine(h, hasher.hash_chunk(tail.0, tail.1), tail.1 as u64);
    }
    hasher.combine(h, hasher.hash_bits(more), more.len() as u64)
}

/// Hash at `pivot` and the `S'_rem` bits from `pivot` down to the edge
/// bottom (at most `w` bits), derived from the rolling walk state.
fn pivot_context(
    hasher: &PolyHasher,
    pre_depth: u64,
    pre_hash: HashVal,
    tail: Word,
    edge: BitSlice<'_>,
    top_depth: u64,
    pivot: u64,
) -> (HashVal, Word) {
    let bottom_depth = top_depth + edge.len() as u64;
    debug_assert!(pivot >= pre_depth && pivot <= bottom_depth);
    // S'_rem: bits in [pivot, min(pivot + w, bottom)), from tail then edge.
    let srem_end = (pivot + W).min(bottom_depth);
    if pivot == pre_depth {
        // the whole tail, then the edge up to srem_end
        let n = (srem_end - top_depth) as usize;
        let bits = tail.0 | word_of(edge.slice(0..n)).0 >> tail.1;
        return (pre_hash, (bits, tail.1 + n));
    }
    // a deeper pivot lies on the edge: the tail is under w bits, so the
    // next w-boundary below pre_depth is already past top_depth
    let i = (pivot - top_depth) as usize;
    let ph = pivot_hash(hasher, pre_hash, tail, edge.slice(0..i));
    (ph, word_of(edge.slice(i..(srem_end - top_depth) as usize)))
}

/// Second-layer resolution at one pivot: the deepest entry whose
/// `(pre_hash, rem)` is *bit-verified* against the query bits `srem`
/// (positions `pivot..pivot+|srem|`), with depth in `[lo, hi]`.
fn resolve<R: Copy>(
    index: &HashIndex<R>,
    pre_hash: HashVal,
    srem: Word,
    pivot: u64,
    lo: u64,
    hi: u64,
    work: &mut u64,
) -> Option<(u64, R)> {
    let group = index.group(pre_hash)?;
    *work += 1;
    // Fast path: the paper's RemIndex (padded keys + validity) query.
    if let Some(k) = group.rems.query_word(srem.0, srem.1) {
        *work += 6; // O(log w) probes
        if let Some(slots) = group.by_rem.get(&rem_key(k)) {
            if let Some(m) = try_rem(k, slots, srem, pivot, lo, hi, index) {
                return Some(m);
            }
        }
    }
    // Exact fallback: the deepest verified rem of the group, which keeps
    // matching exact under adversarial collisions. It is metered as a scan
    // of every rem in the group. The host instead walks the stored
    // prefixes of `srem` deepest-first and stops at the first verified
    // one: the same entry, since verified rems are prefixes of `srem` and
    // so no two share a length. The ε-group holds most roots, so a
    // real scan would cost the host O(n) per probe.
    *work += group.by_rem.len() as u64;
    let shortest = lo.saturating_sub(pivot) as usize;
    let mut len = (hi.saturating_sub(pivot) as usize).min(srem.1);
    loop {
        if len < shortest {
            return None;
        }
        // The greatest rem at or before `x` in string order is either the
        // deepest stored prefix of `x`, or it shares every stored prefix
        // of `x` (all of them lie between that prefix and `x`).
        let x = mask_left(srem.0, len);
        let (&(bits, klen), slots) = group.by_rem.range(..=(x, len as u8)).next_back()?;
        let klen = klen as usize;
        let shared = ((bits ^ x).leading_zeros() as usize).min(klen).min(len);
        if shared < klen {
            len = shared;
            continue;
        }
        if let Some(m) = try_rem((bits, klen), slots, srem, pivot, lo, hi, index) {
            return Some(m);
        }
        len = klen.checked_sub(1)?;
    }
}

fn try_rem<R: Copy>(
    k: Word,
    slots: &[u32],
    srem: Word,
    pivot: u64,
    lo: u64,
    hi: u64,
    index: &HashIndex<R>,
) -> Option<(u64, R)> {
    // k must be a bit-exact prefix of the query bits below the pivot…
    let (kbits, klen) = k;
    if klen > srem.1 || mask_left(srem.0, klen) != kbits {
        return None;
    }
    let depth = pivot + klen as u64;
    if depth < lo || depth > hi {
        return None;
    }
    for &slot in slots {
        let e = index.get(slot)?;
        // …and the entry's depth must agree.
        if e.depth == depth {
            return Some((depth, e.target));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hasher() -> PolyHasher {
        PolyHasher::with_seed(42)
    }

    /// Build an entry for root string `s` targeting `t`.
    fn entry(h: &PolyHasher, s: &BitStr, t: u32) -> IndexEntry<u32> {
        let depth = s.len() as u64;
        let pre_len = (depth / W * W) as usize;
        let pre_hash = h.hash_bits(s.slice(0..pre_len));
        let rem = s.slice(pre_len..s.len()).to_bitstr();
        let last_from = s.len().saturating_sub(WORD_BITS);
        IndexEntry {
            depth,
            pre_hash,
            rem,
            s_last: s.slice(last_from..s.len()).to_bitstr(),
            target: t,
        }
    }

    /// A piece covering the whole query trie (root at depth 0).
    fn whole_piece(h: &PolyHasher, keys: &[&str]) -> QueryPiece {
        let strs: Vec<BitStr> = keys.iter().map(|s| BitStr::from_bin_str(s)).collect();
        let qt = trie_core::query::QueryTrie::build(&strs);
        let n = qt.trie.id_bound();
        QueryPiece {
            tags: (0..n as u32).collect(),
            trie: qt.trie,
            root_depth: 0,
            root_pre_hash: h.empty(),
            root_rem: BitStr::new(),
        }
    }

    #[test]
    fn matches_roots_on_paths() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // stored roots: "", "101", "1010"
        for (s, t) in [("", 0u32), ("101", 1), ("1010", 2)] {
            idx.insert(entry(&h, &BitStr::from_bin_str(s), t));
        }
        let piece = whole_piece(&h, &["00001001", "101001", "101011"]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        // expect: root "" at depth 0; "101" and "1010" on the 1010-side
        // edges (deepest per edge: "1010" beats "101" if both on one edge).
        let depths: Vec<u64> = ms.iter().map(|m| m.depth).collect();
        assert!(depths.contains(&0), "root match missing: {ms:?}");
        assert!(depths.contains(&4), "deep root 1010 missing: {ms:?}");
        // "101" and "1010" lie on the same query edge (root→"1010");
        // per-edge deepest rule keeps only depth 4 for that edge.
        assert!(!depths.contains(&3), "non-critical shallower match kept");
        let m4 = ms.iter().find(|m| m.depth == 4).unwrap();
        assert_eq!(m4.target, 2);
    }

    #[test]
    fn matches_across_word_boundaries() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // a root deeper than one word
        let long = BitStr::from_bits((0..150).map(|i| i % 3 == 0));
        idx.insert(entry(&h, &long, 7));
        // query extends the root
        let mut q = long.clone();
        q.push(true);
        q.push(false);
        let qs = q.to_string();
        let piece = whole_piece(&h, &[&qs]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(
            ms.iter().any(|m| m.depth == 150 && m.target == 7),
            "missed deep root: {ms:?}"
        );
    }

    #[test]
    fn no_false_matches_off_path() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        idx.insert(entry(&h, &BitStr::from_bin_str("1111"), 1));
        let piece = whole_piece(&h, &["0000", "0101"]);
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(ms.is_empty(), "phantom matches: {ms:?}");
    }

    #[test]
    fn narrow_digest_still_exact_via_verification() {
        let h = hasher();
        // 4-bit digests: first-layer collisions guaranteed at this size.
        let mut idx = HashIndex::new(HashWidth(4));
        let roots: Vec<BitStr> = (0u64..60)
            .map(|i| BitStr::from_u64(i.wrapping_mul(0x9E3779B97F4A7C15) >> 24, 40))
            .collect();
        for (i, r) in roots.iter().enumerate() {
            idx.insert(entry(&h, r, i as u32));
        }
        // queries that extend root 5 and root 17
        for &i in &[5usize, 17] {
            let mut q = roots[i].clone();
            q.push(true);
            let qs = q.to_string();
            let piece = whole_piece(&h, &[&qs]);
            let mut work = 0;
            let ms = hash_match_piece(&h, &piece, &idx, &mut work);
            let hit = ms.iter().find(|m| m.depth == 40).expect("missing root");
            assert_eq!(hit.target, i as u32, "wrong target despite verification");
        }
    }

    #[test]
    fn piece_with_nonzero_root_depth() {
        let h = hasher();
        let mut idx = HashIndex::new(HashWidth::FULL);
        // global root string prefix: 70 bits; piece root sits there.
        let prefix = BitStr::from_bits((0..70).map(|i| i % 2 == 0));
        let mut stored = prefix.clone();
        stored.append(&BitStr::from_bin_str("110").as_slice());
        idx.insert(entry(&h, &stored, 9));
        // piece: subtree below depth 70 containing "110…"
        let sub = BitStr::from_bin_str("110011");
        let qt = trie_core::query::QueryTrie::build(&[sub]);
        let n = qt.trie.id_bound();
        let pre_len = 64;
        let piece = QueryPiece {
            tags: (0..n as u32).collect(),
            trie: qt.trie,
            root_depth: 70,
            root_pre_hash: h.hash_bits(prefix.slice(0..pre_len)),
            root_rem: prefix.slice(pre_len..70).to_bitstr(),
        };
        let mut work = 0;
        let ms = hash_match_piece(&h, &piece, &idx, &mut work);
        assert!(
            ms.iter().any(|m| m.depth == 73 && m.target == 9),
            "missed root below piece boundary: {ms:?}"
        );
    }

    #[test]
    fn index_insert_remove() {
        let h = hasher();
        let mut idx: HashIndex<u32> = HashIndex::new(HashWidth::FULL);
        let s = BitStr::from_bin_str("10101");
        let slot = idx.insert(entry(&h, &s, 3));
        assert_eq!(idx.len(), 1);
        let e = idx.remove(slot).unwrap();
        assert_eq!(e.target, 3);
        assert!(idx.is_empty());
        assert!(idx.remove(slot).is_none());
    }

    /// Roots and queries of the pinned narrow-digest case: 4-bit digests
    /// merge groups, so the second layer must fall back to the scan and
    /// rems hold several slots of different true `S_pre`.
    fn pinned_case(h: &PolyHasher) -> (HashIndex<u32>, QueryPiece) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(12);
        let mut bits = |n: usize| BitStr::from_bits((0..n).map(|_| rng.gen_bool(0.5)));
        let mut roots: Vec<BitStr> = (0..24).map(|i| bits(i * 5 % 64)).collect();
        for i in 0..40 {
            let mut r = bits(64 + 64 * (i % 2));
            r.append(&BitStr::from_bin_str(["", "101", "0", "110011"][i % 4]).as_slice());
            roots.push(r);
        }
        let mut idx = HashIndex::new(HashWidth(4));
        for (i, r) in roots.iter().enumerate() {
            idx.insert(entry(h, r, i as u32));
        }
        let mut queries: Vec<String> = Vec::new();
        for r in roots.iter().step_by(3) {
            let tail = bits(1 + r.len() % 80);
            queries.push(r.concat(&tail).to_string());
        }
        for n in [3, 64, 100, 200] {
            queries.push(bits(n).to_string());
        }
        let qs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
        (idx, whole_piece(h, &qs))
    }

    #[test]
    fn pinned_narrow_digest_matches() {
        let h = hasher();
        let (idx, piece) = pinned_case(&h);
        let mut work = 0;
        let got: Vec<(u32, u64, u32)> = hash_match_piece(&h, &piece, &idx, &mut work)
            .iter()
            .map(|m| (m.qt_below, m.depth, m.target))
            .collect();
        // recorded with the BitStr-keyed kernel and y-fast second layer
        let want = [
            (0, 0, 0),
            (16, 1, 13),
            (45, 134, 27),
            (47, 65, 26),
            (43, 15, 3),
            (40, 30, 6),
            (36, 41, 21),
            (38, 65, 26),
            (33, 65, 42),
            (27, 134, 31),
            (29, 65, 46),
            (31, 65, 54),
            (23, 26, 18),
            (25, 64, 36),
            (17, 134, 27),
            (19, 64, 24),
            (21, 11, 15),
            (11, 131, 45),
            (13, 60, 12),
            (15, 134, 39),
            (7, 65, 26),
            (9, 65, 46),
            (1, 131, 33),
            (3, 64, 36),
            (5, 131, 57),
        ];
        assert_eq!(got, want);
        assert_eq!(work, 1323);
    }

    /// The kernel's pivot context before it was carried in words: the
    /// tail and `S'_rem` as owned bit-strings, the pivot hash over the
    /// concatenated bits in one `hash_bits` call.
    fn pivot_context_ref(
        hasher: &PolyHasher,
        pre_depth: u64,
        pre_hash: HashVal,
        tail: &BitStr,
        edge: &BitStr,
        top_depth: u64,
        pivot: u64,
    ) -> (HashVal, BitStr) {
        let bottom_depth = top_depth + edge.len() as u64;
        let ph = if pivot == pre_depth {
            pre_hash
        } else {
            let need = (pivot - pre_depth) as usize;
            let mut bits = BitStr::with_capacity(need);
            let from_tail = need.min(tail.len());
            bits.append(&tail.slice(0..from_tail));
            if need > from_tail {
                bits.append(&edge.slice(0..need - from_tail));
            }
            hasher.combine(
                pre_hash,
                hasher.hash_bits(bits.as_slice()),
                bits.len() as u64,
            )
        };
        let srem_end = (pivot + W).min(bottom_depth);
        let mut srem = BitStr::with_capacity(WORD_BITS);
        let mut pos = pivot;
        if pos < top_depth {
            let i = (pos - pre_depth) as usize;
            let upto = (srem_end.min(top_depth) - pre_depth) as usize;
            srem.append(&tail.slice(i..upto));
            pos = srem_end.min(top_depth);
        }
        if pos < srem_end {
            let i = (pos - top_depth) as usize;
            let upto = (srem_end - top_depth) as usize;
            srem.append(&edge.slice(i..upto));
        }
        (ph, srem)
    }

    proptest::proptest! {
        #[test]
        fn word_pivot_context_matches_bitstr_reference(
            pre_words in 0u64..3,
            tail_len in 0usize..64,
            edge_len in 0usize..260,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut bits = |n: usize| BitStr::from_bits((0..n).map(|_| rng.gen_bool(0.5)));
            let h = hasher();
            let pre_depth = pre_words * W;
            let pre_hash = h.hash_bits(bits(pre_depth as usize).as_slice());
            let tail = bits(tail_len);
            let edge = bits(edge_len);
            let top_depth = pre_depth + tail_len as u64;
            let bottom_depth = top_depth + edge_len as u64;
            // pre_depth itself, then every w-boundary on the edge
            let pivots = std::iter::once(pre_depth)
                .chain((pre_depth / W + 1..=bottom_depth / W).map(|k| k * W));
            for pivot in pivots {
                let (want_h, want_srem) =
                    pivot_context_ref(&h, pre_depth, pre_hash, &tail, &edge, top_depth, pivot);
                let (got_h, got_srem) = pivot_context(
                    &h,
                    pre_depth,
                    pre_hash,
                    word_of(tail.as_slice()),
                    edge.as_slice(),
                    top_depth,
                    pivot,
                );
                proptest::prop_assert_eq!(got_h, want_h, "pivot {}", pivot);
                proptest::prop_assert_eq!(got_srem, word_of(want_srem.as_slice()), "pivot {}", pivot);
            }
        }
    }

    /// `resolve` with the fallback as a real scan of the group's rems.
    fn resolve_ref<R: Copy>(
        index: &HashIndex<R>,
        pre_hash: HashVal,
        srem: Word,
        pivot: u64,
        lo: u64,
        hi: u64,
        work: &mut u64,
    ) -> Option<(u64, R)> {
        let group = index.group(pre_hash)?;
        *work += 1;
        if let Some(k) = group.rems.query_word(srem.0, srem.1) {
            *work += 6;
            if let Some(m) = try_rem(k, &group.by_rem[&rem_key(k)], srem, pivot, lo, hi, index) {
                return Some(m);
            }
        }
        let mut best: Option<(u64, R)> = None;
        for (&(bits, len), slots) in &group.by_rem {
            *work += 1;
            if let Some(m) = try_rem((bits, len as usize), slots, srem, pivot, lo, hi, index) {
                if best.map(|(d, _)| m.0 > d).unwrap_or(true) {
                    best = Some(m);
                }
            }
        }
        best
    }

    proptest::proptest! {
        #[test]
        fn prefix_walk_fallback_matches_scan(
            width in 1u32..6,
            n_roots in 1usize..120,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let h = hasher();
            // few distinct S_pre and short rems, so rems repeat across
            // merged groups and many probes miss the fast path
            let pres: Vec<BitStr> = (0..4)
                .map(|i| BitStr::from_bits((0..64 * (i % 3)).map(|_| rng.gen_bool(0.5))))
                .collect();
            let mut idx = HashIndex::new(HashWidth(width));
            for t in 0..n_roots {
                let mut s = pres[rng.gen_range(0..pres.len())].clone();
                let rem_len = rng.gen_range(0..12);
                s.append(&BitStr::from_bits((0..rem_len).map(|_| rng.gen_bool(0.3))).as_slice());
                idx.insert(entry(&h, &s, t as u32));
            }
            for _ in 0..64 {
                let pre = &pres[rng.gen_range(0..pres.len())];
                let len = rng.gen_range(0..=64);
                let srem = word_of(
                    BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.3))).as_slice(),
                );
                let pivot = pre.len() as u64;
                let lo = pivot.saturating_sub(2) + rng.gen_range(0u64..8);
                let hi = lo + rng.gen_range(0u64..70);
                let ph = h.hash_bits(pre.as_slice());
                let (mut w_got, mut w_want) = (0, 0);
                let got = resolve(&idx, ph, srem, pivot, lo, hi, &mut w_got);
                let want = resolve_ref(&idx, ph, srem, pivot, lo, hi, &mut w_want);
                proptest::prop_assert_eq!(got, want);
                proptest::prop_assert_eq!(w_got, w_want);
            }
        }
    }
}
