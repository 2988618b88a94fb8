//! Fast tries: hash-assisted tries with query cost logarithmic in the key
//! length (paper §3.1) plus the two-layer index of §4.4.2.
//!
//! * [`XFastTrie`] — Willard's x-fast trie over fixed-width integers:
//!   per-level prefix hash tables + a sorted leaf list give
//!   `O(log w)` predecessor/successor via binary search on prefix lengths,
//!   at `O(n·w)` space and `O(w)` update cost.
//! * [`YFastTrie`] — x-fast over `Θ(w)`-sized buckets of a comparison-based
//!   structure: `O(n)` space, `O(log w)` queries, amortised `O(log w)`
//!   updates.
//! * [`ZFastTrie`] — a compressed binary trie over *variable-length*
//!   bit-strings with 2-fattest-number handles and fat binary search:
//!   locates the exit node of a query string in `O(log l)` hash probes.
//! * [`RemIndex`] — the second-layer index PIM-trie builds per meta-block
//!   (§4.4.2): a set of strings shorter than `w` bits, each padded with 0s
//!   and 1s, plus per-integer *validity vectors*; a query returns the
//!   stored string with the longest LCP such that no equally-matching
//!   stored string is a proper prefix of it — i.e. the critical block root
//!   or one of its direct children. The paper keeps the paddings in a
//!   y-fast trie; here they are the keys of one ordered map, probed by
//!   predecessor/successor the same way, so the answers are identical
//!   while updates cost `O(log n)` and probes allocate nothing. This
//!   matters because one group (`S_pre = ε`, every root shallower than
//!   `w`) holds most of the index.

#![warn(missing_docs)]

mod rem_index;
mod xfast;
mod yfast;
mod zfast;

pub use rem_index::RemIndex;
pub use xfast::XFastTrie;
pub use yfast::YFastTrie;
pub use zfast::ZFastTrie;

/// The 2-fattest number in the open-closed interval `(a, b]`: the unique
/// element with the most trailing zeros. Requires `a < b`.
#[inline]
pub fn two_fattest(a: u64, b: u64) -> u64 {
    debug_assert!(a < b, "two_fattest needs a < b, got ({a}, {b}]");
    let i = 63 - (a ^ b).leading_zeros();
    (b >> i) << i
}

#[cfg(test)]
mod tests {
    use super::two_fattest;

    fn naive(a: u64, b: u64) -> u64 {
        (a + 1..=b).max_by_key(|x| x.trailing_zeros()).unwrap()
    }

    #[test]
    fn two_fattest_matches_naive() {
        for a in 0..64u64 {
            for b in a + 1..=96 {
                assert_eq!(two_fattest(a, b), naive(a, b), "({a},{b}]");
            }
        }
    }

    #[test]
    fn two_fattest_edges() {
        assert_eq!(two_fattest(0, 1), 1);
        assert_eq!(two_fattest(0, u64::MAX), 1 << 63);
        assert_eq!(two_fattest(7, 8), 8);
    }
}
