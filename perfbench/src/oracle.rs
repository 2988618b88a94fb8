//! Sequential replica of the key set: every batch result is checked
//! against it outside the timed region.

use crate::workload::Op;
use pim_trie::PimTrieError;
use trie_core::Trie;

/// What a batch call returned.
pub enum Outcome {
    Lcp(Vec<usize>),
    Get(Vec<Option<u64>>),
    Insert,
    Delete(usize),
}

pub struct Oracle {
    trie: Trie,
}

impl Oracle {
    pub fn new(keys: &[bitstr::BitStr], values: &[u64]) -> Oracle {
        let mut trie = Trie::new();
        for (k, v) in keys.iter().zip(values) {
            trie.insert(k, *v);
        }
        Oracle { trie }
    }

    /// Check one batch result and apply the op to the replica. Returns
    /// the ops that failed: all of them on `Err`, else the mismatches
    /// (a mutation whose key count disagrees fails as a whole).
    pub fn check(&mut self, op: &Op, res: &Result<Outcome, PimTrieError>, trie_len: usize) -> u64 {
        let n = op.keys().len() as u64;
        let Ok(out) = res else {
            return n;
        };
        let failed = match (op, out) {
            (Op::Lcp(qs), Outcome::Lcp(got)) if got.len() == qs.len() => {
                qs.iter()
                    .zip(got)
                    .filter(|(q, g)| self.trie.lcp(q.as_slice()).lcp_bits != **g)
                    .count() as u64
            }
            (Op::Get(ks), Outcome::Get(got)) if got.len() == ks.len() => {
                ks.iter()
                    .zip(got)
                    .filter(|(k, g)| self.trie.get(k.as_slice()) != **g)
                    .count() as u64
            }
            (Op::Insert(ks, vs), Outcome::Insert) => {
                for (k, v) in ks.iter().zip(vs) {
                    self.trie.insert(k, *v);
                }
                0
            }
            (Op::Delete(ks), Outcome::Delete(got)) => {
                let removed = ks
                    .iter()
                    .filter(|k| self.trie.delete(k.as_slice()).is_some())
                    .count();
                if removed == *got {
                    0
                } else {
                    n
                }
            }
            _ => n,
        };
        match op {
            Op::Insert(..) | Op::Delete(_) if trie_len != self.trie.n_keys() => n,
            _ => failed,
        }
    }
}
