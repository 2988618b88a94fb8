//! The four workloads: trie configuration, initial key set and the
//! seeded, closed-loop op stream each one issues.
//!
//! Every input is a pure function of `(workload, seed, step)`; the trie
//! only ever sees the generated batches.

use bitstr::BitStr;
use pim_trie::{PimTrieConfig, WireCodec};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Key length in bits.
pub const KEY_BITS: usize = 96;
/// Ops per batch call.
pub const BATCH: usize = 2048;
/// PIM modules.
pub const P: usize = 16;

/// `hot-skew`: one hot-set rotation every this many lcp (and get) batches.
const HOT_PHASE_BATCHES: usize = 8;
/// `hot-skew`: rotations before the query stream wraps around.
const HOT_PHASES: usize = 16;
/// `hot-skew`: prefix bits the Zipf buckets are drawn over.
const HOT_PREFIX_BITS: usize = 16;
/// `hot-skew`: Zipf exponent of both the query and the get stream.
const HOT_THETA: f64 = 0.99;
/// `hot-skew`: read batches between two insert/delete pairs.
const HOT_READS_PER_WRITE: u64 = 8;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    UniformRead,
    Churn,
    HotSkew,
    SealedChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::UniformRead,
        Kind::Churn,
        Kind::HotSkew,
        Kind::SealedChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::UniformRead => "uniform-read",
            Kind::Churn => "churn",
            Kind::HotSkew => "hot-skew",
            Kind::SealedChurn => "sealed-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Keys stored at set-up (the full-size runs).
    pub fn n_keys(self) -> usize {
        match self {
            Kind::UniformRead | Kind::HotSkew => 1 << 16,
            Kind::Churn | Kind::SealedChurn => 1 << 15,
        }
    }

    pub fn config(self) -> PimTrieConfig {
        let base = PimTrieConfig::for_modules(P);
        match self {
            Kind::UniformRead | Kind::Churn => base,
            Kind::HotSkew => base
                .with_cache_words(1 << 16)
                .with_adapt(0.02)
                .with_codec(WireCodec::Compact),
            Kind::SealedChurn => base.with_fault_tolerance(true),
        }
    }

    /// Steps run before timing starts. `hot-skew` warms the host cache
    /// and the adapt tracker through two hot-set phases.
    pub fn warm_steps(self) -> u64 {
        match self {
            Kind::HotSkew => 2 * HOT_PHASE_BATCHES as u64,
            _ => 1,
        }
    }

    /// Timed steps every run makes however short `--seconds` is; the
    /// simulated-cost and per-layer counts cover exactly these steps,
    /// so they repeat exactly for a given seed.
    pub fn window_steps(self) -> u64 {
        match self {
            Kind::UniformRead => 48,
            Kind::Churn | Kind::SealedChurn => 6,
            Kind::HotSkew => 3 * HOT_READS_PER_WRITE,
        }
    }
}

/// The op classes of a batch call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Lcp,
    Get,
    Insert,
    Delete,
}

impl Class {
    pub const ALL: [Class; 4] = [Class::Lcp, Class::Get, Class::Insert, Class::Delete];

    pub fn name(self) -> &'static str {
        match self {
            Class::Lcp => "lcp",
            Class::Get => "get",
            Class::Insert => "insert",
            Class::Delete => "delete",
        }
    }

    pub fn idx(self) -> usize {
        self as usize
    }
}

/// One batch call.
pub enum Op {
    Lcp(Vec<BitStr>),
    Get(Vec<BitStr>),
    Insert(Vec<BitStr>, Vec<u64>),
    Delete(Vec<BitStr>),
}

impl Op {
    pub fn class(&self) -> Class {
        match self {
            Op::Lcp(_) => Class::Lcp,
            Op::Get(_) => Class::Get,
            Op::Insert(..) => Class::Insert,
            Op::Delete(_) => Class::Delete,
        }
    }

    pub fn keys(&self) -> &[BitStr] {
        match self {
            Op::Lcp(k) | Op::Get(k) | Op::Insert(k, _) | Op::Delete(k) => k,
        }
    }
}

/// SplitMix64 finaliser over `(seed, tag)`: independent sub-seeds.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D1_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fresh uniform keys, unique within the batch.
fn fresh_keys(n: usize, seed: u64) -> Vec<BitStr> {
    dedup(workloads::uniform_fixed(n, KEY_BITS, seed))
}

fn dedup(mut keys: Vec<BitStr>) -> Vec<BitStr> {
    keys.sort();
    keys.dedup();
    keys
}

/// The seeded op stream of one workload.
pub struct Stream {
    kind: Kind,
    seed: u64,
    step: u64,
    next_value: u64,
    /// Keys present since set-up and never deleted (`uniform-read`,
    /// `hot-skew` gets draw from them).
    stable: Vec<BitStr>,
    /// Live keys, oldest first (`churn`, `sealed-churn`).
    fifo: VecDeque<BitStr>,
    /// `hot-skew`: the shifting-hotspot query stream, `HOT_PHASES`
    /// phases of `HOT_PHASE_BATCHES` batches each.
    hot_queries: Vec<BitStr>,
    /// `hot-skew`: Zipf over ranks of `stable`.
    zipf: Option<workloads::Zipf>,
    /// `hot-skew`: keys of the last hot insert, deleted by the next one.
    hot_live: Vec<BitStr>,
}

impl Stream {
    /// The initial key set and values, and the stream that follows.
    pub fn new(kind: Kind, n_keys: usize, seed: u64) -> (Vec<BitStr>, Vec<u64>, Stream) {
        let keys = fresh_keys(n_keys, mix(seed, 1));
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        let mut s = Stream {
            kind,
            seed,
            step: 0,
            next_value: keys.len() as u64,
            stable: Vec::new(),
            fifo: VecDeque::new(),
            hot_queries: Vec::new(),
            zipf: None,
            hot_live: Vec::new(),
        };
        match kind {
            Kind::UniformRead => s.stable = keys.clone(),
            Kind::Churn | Kind::SealedChurn => {
                // `keys` is sorted; age them in a seeded random order so
                // deletes do not sweep the key space left to right
                let mut order = keys.clone();
                let mut rng = ChaCha8Rng::seed_from_u64(mix(seed, 2));
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                s.fifo = order.into();
            }
            Kind::HotSkew => {
                s.stable = keys.clone();
                s.hot_queries = workloads::shifting_hotspot(
                    BATCH * HOT_PHASE_BATCHES * HOT_PHASES,
                    KEY_BITS,
                    HOT_PREFIX_BITS,
                    HOT_PHASES,
                    HOT_THETA,
                    mix(seed, 3),
                );
                s.zipf = Some(workloads::Zipf::new(keys.len(), HOT_THETA));
            }
        }
        (keys, values, s)
    }

    fn values(&mut self, n: usize) -> Vec<u64> {
        let v: Vec<u64> = (self.next_value..self.next_value + n as u64).collect();
        self.next_value += n as u64;
        v
    }

    /// The batch calls of the next closed-loop step.
    pub fn next_step(&mut self) -> Vec<Op> {
        let step = self.step;
        self.step += 1;
        let base = mix(self.seed, step);
        let sub = |tag: u64| mix(base, tag);
        match self.kind {
            Kind::UniformRead => {
                let mut rng = ChaCha8Rng::seed_from_u64(sub(11));
                let gets = (0..BATCH)
                    .map(|_| self.stable[rng.gen_range(0..self.stable.len())].clone())
                    .collect();
                vec![
                    Op::Lcp(workloads::uniform_fixed(BATCH, KEY_BITS, sub(10))),
                    Op::Get(gets),
                ]
            }
            Kind::Churn | Kind::SealedChurn => {
                let fresh = fresh_keys(BATCH, sub(20));
                let vals = self.values(fresh.len());
                let take = fresh.len().min(self.fifo.len());
                let old: Vec<BitStr> = self.fifo.drain(..take).collect();
                self.fifo.extend(fresh.iter().cloned());
                vec![
                    Op::Insert(fresh.clone(), vals),
                    Op::Get(fresh),
                    Op::Delete(old),
                    Op::Lcp(workloads::uniform_fixed(BATCH, KEY_BITS, sub(21))),
                ]
            }
            Kind::HotSkew => self.hot_step(step),
        }
    }

    /// One lcp and one get batch; after every `HOT_READS_PER_WRITE`
    /// read batches, insert fresh keys of the current hot buckets and
    /// delete the previous insert's keys.
    fn hot_step(&mut self, step: u64) -> Vec<Op> {
        let per_wrap = HOT_PHASE_BATCHES * HOT_PHASES;
        let b = step as usize % per_wrap;
        let queries = self.hot_queries[b * BATCH..(b + 1) * BATCH].to_vec();

        let phase = (b / HOT_PHASE_BATCHES) as u64;
        let n = self.stable.len() as u64;
        let shift = phase * (n / HOT_PHASES as u64);
        let mut rng = ChaCha8Rng::seed_from_u64(mix(mix(self.seed, step), 30));
        let gets = match &self.zipf {
            Some(z) => (0..BATCH)
                .map(|_| {
                    let rank = z.sample(&mut rng) as u64;
                    self.stable[((rank + shift) % n) as usize].clone()
                })
                .collect(),
            None => Vec::new(),
        };

        let mut ops = vec![Op::Lcp(queries.clone()), Op::Get(gets)];
        if (step + 1).is_multiple_of(HOT_READS_PER_WRITE / 2) {
            // the hot queries with their last bit flipped: hot-bucket
            // prefixes, and (w.h.p.) neither stored nor queried
            let fresh = dedup(
                queries
                    .into_iter()
                    .map(|mut q| {
                        let last = q.len() - 1;
                        q.set(last, !q.get(last));
                        q
                    })
                    .collect(),
            );
            let vals = self.values(fresh.len());
            let old = std::mem::replace(&mut self.hot_live, fresh.clone());
            ops.push(Op::Insert(fresh, vals));
            if !old.is_empty() {
                ops.push(Op::Delete(old));
            }
        }
        ops
    }

    /// Fresh keys for a probe insert/delete pair (never part of the
    /// stream, so the key set is restored after the pair).
    pub fn probe_keys(&mut self) -> (Vec<BitStr>, Vec<u64>) {
        let keys = fresh_keys(BATCH, mix(self.seed, 0x9B0B));
        let vals = self.values(keys.len());
        (keys, vals)
    }
}
