//! What a run records: exact counts read from the public stats around
//! each batch call, wall-clock per layer, and the spans of a traced run.

use crate::workload::Class;
use pim_sim::{AdaptStats, CacheStats, CodecStats, FaultStats, MetricsDelta, PimSystem, Snapshot};
use pim_trie::PimTrie;
use std::fmt::Write as _;
use std::time::Instant;

/// Simulated cost of one op class.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassCost {
    pub batches: u64,
    pub ops: u64,
    pub rounds: u64,
    pub words: u64,
}

/// Exact counts over the measured window, from the public stats only.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub class: [ClassCost; 4],
    pub io_time: u64,
    pub pim_time: u64,
    pub pim_work: u64,
    pub cpu_work: u64,
    pub io_per_module: Vec<u64>,
    pub cache: CacheStats,
    pub repartitions: u64,
    pub migrations: u64,
    pub adapt_words: u64,
    pub codec_frames: u64,
    pub codec_plain: u64,
    pub codec_encoded: u64,
    pub seal_retries: u64,
    pub corruptions_detected: u64,
    pub redo_paths: u64,
}

impl Counts {
    pub fn batches(&self) -> u64 {
        self.class.iter().map(|c| c.batches).sum()
    }

    pub fn ops(&self) -> u64 {
        self.class.iter().map(|c| c.ops).sum()
    }
}

/// The stats a batch call is measured against.
pub struct Before {
    snap: Snapshot,
    cache: CacheStats,
    adapt: AdaptStats,
    codec: CodecStats,
    faults: FaultStats,
    redo: u64,
}

impl Before {
    pub fn take(t: &PimTrie) -> Before {
        let m = t.system().metrics();
        Before {
            snap: m.snapshot(),
            cache: t.cache_stats().clone(),
            adapt: t.adapt_stats().clone(),
            codec: t.codec_stats().clone(),
            faults: m.fault_stats().clone(),
            redo: t.redo_paths(),
        }
    }

    /// Add the simulated cost of one op class only.
    pub fn add_class(&self, t: &PimTrie, class: Class, ops: u64, into: &mut Counts) {
        add_cost(&t.system().metrics().since(&self.snap), class, ops, into);
    }

    /// Add everything the batch call moved.
    pub fn add_all(&self, t: &PimTrie, class: Class, ops: u64, into: &mut Counts) {
        let d = t.system().metrics().since(&self.snap);
        add_cost(&d, class, ops, into);
        into.io_time += d.io_time;
        into.pim_time += d.pim_time;
        into.pim_work += d.pim_work();
        into.cpu_work += d.cpu_work;
        if into.io_per_module.len() < d.io_per_module.len() {
            into.io_per_module.resize(d.io_per_module.len(), 0);
        }
        for (acc, w) in into.io_per_module.iter_mut().zip(&d.io_per_module) {
            *acc += w;
        }
        let (c0, c1) = (&self.cache, t.cache_stats());
        let cache = &mut into.cache;
        cache.lookups += c1.lookups - c0.lookups;
        cache.hits += c1.hits - c0.hits;
        cache.misses += c1.misses - c0.misses;
        cache.words_saved += c1.words_saved - c0.words_saved;
        cache.admissions += c1.admissions - c0.admissions;
        cache.evictions += c1.evictions - c0.evictions;
        cache.invalidations += c1.invalidations - c0.invalidations;
        let a = t.adapt_stats();
        into.repartitions += a.repartitions - self.adapt.repartitions;
        into.migrations += a.migrations - self.adapt.migrations;
        into.adapt_words += a.words - self.adapt.words;
        let k = t.codec_stats();
        into.codec_frames += k.frames - self.codec.frames;
        into.codec_plain += k.plain_words - self.codec.plain_words;
        into.codec_encoded += k.encoded_words - self.codec.encoded_words;
        let f = t.system().metrics().fault_stats();
        into.seal_retries += f.retries - self.faults.retries;
        into.corruptions_detected += f.corruptions_detected - self.faults.corruptions_detected;
        into.redo_paths += t.redo_paths() - self.redo;
    }
}

fn add_cost(d: &MetricsDelta, class: Class, ops: u64, into: &mut Counts) {
    let c = &mut into.class[class.idx()];
    c.batches += 1;
    c.ops += ops;
    c.rounds += d.io_rounds;
    c.words += d.io_volume();
}

/// Wall-clock per layer, summed over the timed phase.
#[derive(Default)]
pub struct Times {
    /// Per op class: (ns in the op call, ops).
    pub op: [(u64, u64); 4],
    /// Per op class: (ns in `match_batch` on the same batch, ops).
    pub matching: [(u64, u64); 4],
    /// `lcp_batch_slow` on the lcp batches: (ns, ops).
    pub slow_lcp: (u64, u64),
    /// `QueryTrie::build` on every batch: (ns, ops).
    pub query_build: (u64, u64),
    /// Replayed `PimSystem::round` calls: (ns, rounds).
    pub dispatch: (u64, u64),
    /// The op stream's calls in the timed phase: (ns, ops).
    pub stream: (u64, u64),
    /// Per timed step: its op calls' wall-clock ÷ their number, in ms.
    /// A step's calls differ in kind (an insert costs more than an lcp),
    /// so percentiles over single calls fall between the kinds' modes and
    /// jump from run to run; the per-step mean has one mode.
    pub batch_ms: Vec<f64>,
    /// Op calls of the timed phase.
    pub calls: u64,
}

impl Times {
    /// Ops per second of op-call time in the timed phase.
    pub fn ops_per_s(&self) -> f64 {
        if self.stream.0 == 0 {
            0.0
        } else {
            self.stream.1 as f64 * 1e9 / self.stream.0 as f64
        }
    }
}

/// One traced interval.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub batch: u64,
}

/// Spans kept in memory for the whole run, written out at the end.
pub struct Spans {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let now = self.epoch.elapsed().as_nanos() as u64;
        let s = &mut self.spans[id];
        s.end_ns = now;
        now - s.start_ns
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"batch\":{}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            );
        }
        out
    }
}

/// Replays recorded rounds through a bare simulator: the same per-module
/// word counts, `u64` payloads and an echo handler, so only the cost of
/// `PimSystem::round` itself is timed.
pub struct Dispatch {
    sys: PimSystem<()>,
}

impl Dispatch {
    pub fn new(p: usize) -> Dispatch {
        Dispatch {
            sys: PimSystem::new(p, |_| ()),
        }
    }

    /// Replay `sent`/`received` words per module; returns the ns spent
    /// inside `round`.
    pub fn replay(&mut self, sent: &[u64], received: &[u64]) -> u64 {
        let inbox: Vec<Vec<u64>> = sent.iter().map(|&w| vec![0; w as usize]).collect();
        let t0 = Instant::now();
        let out = self.sys.round("replay", inbox, |ctx, inbox: Vec<u64>| {
            ctx.work(inbox.len() as u64);
            vec![0u64; received[ctx.id] as usize]
        });
        let ns = t0.elapsed().as_nanos() as u64;
        drop(out);
        ns
    }
}

/// Percentile of `v` (sorted in place), interpolating linearly between
/// the two nearest ranks.
pub fn percentile(v: &mut [f64], pct: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = (pct / 100.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(v.len() - 1);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(mut v: Vec<f64>) -> f64 {
    percentile(&mut v, 50.0)
}

/// Peak resident set size in MB (`VmHWM`), 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed CPU loop; its time shows machine drift between runs.
pub fn calibrate_ns() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    std::hint::black_box(x);
    t0.elapsed().as_nanos() as f64
}
