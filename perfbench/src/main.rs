//! `perfbench`: the repository's closed-loop benchmark.
//!
//! One client issues 2048-op batches back to back against a PIM-trie
//! (96-bit keys, P = 16, two worker threads) and every result is checked
//! against a sequential trie replica outside the timed region. The
//! untraced run (`--trace 0`) prints the end-to-end metrics; the traced
//! run (`--trace 1`) times each layer's public entry points from here and
//! prints the per-layer split. The last stdout line is one JSON object.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --selfcheck [--seed <n>]
//! ```
//!
//! See `README.md` in this directory for the workloads and metrics.

mod measure;
mod oracle;
mod workload;

use bitstr::BitStr;
use measure::{Before, Counts, Dispatch, Spans, Times};
use oracle::{Oracle, Outcome};
use pim_trie::{PimTrie, PimTrieError};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trie_core::query::QueryTrie;
use workload::{Class, Kind, Op, Stream, P};

/// Builds of the initial key set per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Worker threads of a measured run (the counters do not depend on it).
const THREADS: usize = 2;
/// Key count of the self-check's small runs.
const SELFCHECK_KEYS: usize = 1 << 12;

const USAGE: &str = "usage: perfbench --workload <uniform-read|churn|hot-skew|sealed-churn> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --selfcheck [--seed <n>]";

struct Args {
    kind: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        kind: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        selfcheck: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--selfcheck" {
            a.selfcheck = true;
            continue;
        }
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        match flag.as_str() {
            "--workload" => a.kind = Some(Kind::parse(&val).ok_or_else(bad)?),
            "--seed" => a.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => a.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if a.kind.is_none() && !a.selfcheck {
        return Err("--workload is required".into());
    }
    if !a.seconds.is_finite() || a.seconds < 0.0 {
        return Err("--seconds must be a finite number ≥ 0".into());
    }
    Ok(a)
}

/// What part of the run a batch call belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before timing: checked, not recorded.
    Warm,
    /// The fixed first steps of the timed phase: counts and times.
    Window,
    /// The rest of the timed phase: times only.
    Timed,
    /// Traced runs: an insert/delete pair for a class the stream lacks.
    Probe,
}

struct RunCfg {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    n_keys: usize,
    setups: usize,
}

struct RunResult {
    counts: Counts,
    times: Times,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    setup_ok: bool,
    space_words_per_key: f64,
    peak_rss_mb: f64,
    calib_ns: f64,
    loop_ns: u64,
    spans: Spans,
}

struct Runner {
    kind: Kind,
    trace: bool,
    trie: PimTrie,
    oracle: Oracle,
    counts: Counts,
    times: Times,
    spans: Spans,
    dispatch: Dispatch,
    attempted: u64,
    failed: u64,
    batch_id: u64,
    /// The current step's op calls in the timed phase: (ns, calls).
    step: (u64, u64),
    /// `hot-skew`: the last batch of each class, matched after the loop
    /// (`match_batch` feeds the adapt tracker, so it must not run between
    /// the measured ops).
    deferred_match: [Option<Vec<BitStr>>; 4],
}

fn call(trie: &mut PimTrie, op: &Op) -> Result<Outcome, PimTrieError> {
    match op {
        Op::Lcp(q) => trie.try_lcp_batch(q).map(Outcome::Lcp),
        Op::Get(k) => trie.try_get_batch(k).map(Outcome::Get),
        Op::Insert(k, v) => trie.try_insert_batch(k, v).map(|()| Outcome::Insert),
        Op::Delete(k) => trie.try_delete_batch(k).map(Outcome::Delete),
    }
}

fn op_span(class: Class) -> &'static str {
    match class {
        Class::Lcp => "core.lcp",
        Class::Get => "core.get",
        Class::Insert => "core.insert",
        Class::Delete => "core.delete",
    }
}

impl Runner {
    /// Close the current step: record its mean wall-clock per batch call.
    fn end_step(&mut self) {
        let (ns, calls) = std::mem::take(&mut self.step);
        if calls > 0 {
            self.times.batch_ms.push(ns as f64 / calls as f64 / 1e6);
        }
    }

    /// `match_batch` on `keys`, timed into the class's matching total.
    fn time_match(&mut self, class: Class, keys: &[BitStr], root: Option<usize>, batch: u64) {
        let s = self.spans.open("core.match", root, batch);
        let res = self.trie.match_batch(keys);
        let ns = self.spans.close(s);
        let m = &mut self.times.matching[class.idx()];
        m.0 += ns;
        m.1 += keys.len() as u64;
        // a match that errs on a clean simulator is a wrong result
        self.attempted += keys.len() as u64;
        if res.is_err() {
            self.failed += keys.len() as u64;
        }
    }

    fn exec(&mut self, op: &Op, phase: Phase) {
        let class = op.class();
        let n = op.keys().len() as u64;
        let batch = self.batch_id;
        self.batch_id += 1;
        let timed = phase != Phase::Warm;
        let traced = self.trace && timed;

        let root = traced.then(|| self.spans.open("bench.batch", None, batch));
        if traced {
            let s = self.spans.open("trie.query_build", root, batch);
            let qt = std::hint::black_box(QueryTrie::build(op.keys()));
            let ns = self.spans.close(s);
            drop(qt);
            self.times.query_build.0 += ns;
            self.times.query_build.1 += n;
            if self.kind == Kind::HotSkew {
                self.deferred_match[class.idx()] = Some(op.keys().to_vec());
            } else {
                self.time_match(class, op.keys(), root, batch);
            }
        }

        let log_start = self.trie.system().metrics().round_log.len();
        let before = Before::take(&self.trie);
        let span = traced.then(|| self.spans.open(op_span(class), root, batch));
        let t0 = Instant::now();
        let res = call(&mut self.trie, op);
        let ns = t0.elapsed().as_nanos() as u64;
        if let Some(s) = span {
            self.spans.close(s);
        }
        match phase {
            Phase::Window => before.add_all(&self.trie, class, n, &mut self.counts),
            Phase::Probe => before.add_class(&self.trie, class, n, &mut self.counts),
            Phase::Warm | Phase::Timed => {}
        }
        if timed {
            let o = &mut self.times.op[class.idx()];
            o.0 += ns;
            o.1 += n;
            if phase != Phase::Probe {
                self.times.stream.0 += ns;
                self.times.stream.1 += n;
                self.step.0 += ns;
                self.step.1 += 1;
                self.times.calls += 1;
            }
        }

        if traced {
            self.replay_rounds(log_start, root, batch);
            if let Op::Lcp(q) = op {
                let s = self.spans.open("core.slowpath.lcp", root, batch);
                let slow = self.trie.lcp_batch_slow(q);
                let ns = self.spans.close(s);
                self.times.slow_lcp.0 += ns;
                self.times.slow_lcp.1 += n;
                let len = self.trie.len();
                self.attempted += n;
                self.failed += self.oracle.check(op, &Ok(Outcome::Lcp(slow)), len);
            }
        }

        let len = self.trie.len();
        self.attempted += n;
        self.failed += self.oracle.check(op, &res, len);
        if let Some(r) = root {
            self.spans.close(r);
        }
    }

    /// Push the op's recorded rounds through the bare simulator.
    fn replay_rounds(&mut self, from: usize, root: Option<usize>, batch: u64) {
        let s = self.spans.open("sim.dispatch", root, batch);
        let log = &self.trie.system().metrics().round_log;
        for rec in log.get(from..).unwrap_or(&[]) {
            self.times.dispatch.0 += self.dispatch.replay(&rec.sent, &rec.received);
            self.times.dispatch.1 += 1;
        }
        self.spans.close(s);
        // the log exists only for this replay; keep it from growing
        self.trie.system_mut().metrics_mut().round_log.clear();
    }
}

fn run(cfg: &RunCfg) -> RunResult {
    let calib_start = measure::calibrate_ns();
    let (keys, values, mut stream) = Stream::new(cfg.kind, cfg.n_keys, cfg.seed);
    let oracle = Oracle::new(&keys, &values);

    let config = cfg.kind.config();
    let build = || {
        let t0 = Instant::now();
        let t = PimTrie::build(config.clone(), &keys, &values);
        (t, t0.elapsed().as_secs_f64())
    };
    let (mut trie, first_setup) = build();
    let setup_ok = trie.len() == keys.len();
    let space_words_per_key = trie.space_words() as f64 / trie.len().max(1) as f64;
    if cfg.trace {
        trie.system_mut().metrics_mut().set_round_logging(true);
    }

    let mut r = Runner {
        kind: cfg.kind,
        trace: cfg.trace,
        trie,
        oracle,
        counts: Counts::default(),
        times: Times::default(),
        spans: Spans::new(),
        dispatch: Dispatch::new(P),
        attempted: 0,
        failed: 0,
        batch_id: 0,
        step: (0, 0),
        deferred_match: Default::default(),
    };
    for _ in 0..cfg.kind.warm_steps() {
        for op in stream.next_step() {
            r.exec(&op, Phase::Warm);
        }
    }

    let t_loop = Instant::now();
    let limit = Duration::from_secs_f64(cfg.seconds);
    let mut steps = 0;
    while steps < cfg.kind.window_steps() || t_loop.elapsed() < limit {
        let phase = if steps < cfg.kind.window_steps() {
            Phase::Window
        } else {
            Phase::Timed
        };
        for op in stream.next_step() {
            r.exec(&op, phase);
        }
        r.end_step();
        steps += 1;
    }
    let loop_ns = t_loop.elapsed().as_nanos() as u64;

    if cfg.trace {
        for class in Class::ALL {
            if let Some(keys) = r.deferred_match[class.idx()].take() {
                let batch = r.batch_id;
                r.batch_id += 1;
                r.time_match(class, &keys, None, batch);
            }
        }
        let missing = |c: Class| r.times.op[c.idx()].1 == 0;
        if missing(Class::Insert) || missing(Class::Delete) {
            let (keys, vals) = stream.probe_keys();
            r.exec(&Op::Insert(keys.clone(), vals), Phase::Probe);
            r.exec(&Op::Delete(keys), Phase::Probe);
        }
    }

    // the remaining set-up builds run after the loop and after the peak
    // RSS is read, so they neither disturb the timed phase nor count
    // towards its memory
    let peak_rss_mb = measure::peak_rss_mb();
    let calib_end = measure::calibrate_ns();
    drop(r.trie);
    let mut setup_s = vec![first_setup];
    for _ in 1..cfg.setups {
        setup_s.push(build().1);
    }

    RunResult {
        counts: r.counts,
        times: r.times,
        setup_s,
        attempted: r.attempted,
        failed: r.failed,
        setup_ok,
        space_words_per_key,
        peak_rss_mb,
        calib_ns: (calib_start + calib_end) / 2.0,
        loop_ns,
        spans: r.spans,
    }
}

/// A metric as printed: name, value, unit, and a note for the table.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    note: String,
}

fn m(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let c = &r.counts;
    let t = &r.times;
    let mut samples = t.batch_ms.clone();
    let n = samples.len();
    let p50 = measure::percentile(&mut samples, 50.0);
    let p90 = measure::percentile(&mut samples, 90.0);
    let batches = c.batches();
    vec![
        m("ops_per_s", t.ops_per_s(), "1/s").note(format!("{} ops", t.stream.1)),
        m("batch_ms_p50", p50, "ms").note(format!("{n} steps, {} batch calls", t.calls)),
        m("batch_ms_p90", p90, "ms").note(format!("{} samples above", n - n * 9 / 10)),
        m("setup_s", measure::median(r.setup_s.clone()), "s")
            .note(format!("median of {} builds", r.setup_s.len())),
        m("peak_rss_mb", r.peak_rss_mb, "MB"),
        m("ok_frac", 1.0 - ratio(r.failed, r.attempted), "fraction"),
        m(
            "sim_io_rounds_per_batch",
            ratio(c.class.iter().map(|x| x.rounds).sum(), batches),
            "rounds",
        )
        .note(format!("{batches} batches in the count window")),
        m(
            "sim_words_per_op",
            ratio(c.class.iter().map(|x| x.words).sum(), c.ops()),
            "words",
        ),
        m("sim_io_time_per_batch", ratio(c.io_time, batches), "words"),
        m("sim_pim_time_per_batch", ratio(c.pim_time, batches), "work"),
        m(
            "sim_io_balance",
            pim_sim::balance(&c.io_per_module),
            "ratio",
        ),
        m("sim_space_words_per_key", r.space_words_per_key, "words"),
    ]
}

fn per_layer(r: &RunResult) -> Vec<Metric> {
    let c = &r.counts;
    let t = &r.times;
    let per_op = |(ns, ops): (u64, u64)| ratio(ns, ops);
    let mut out = vec![m(
        "core.match.ns_per_op",
        {
            let ns: u64 = t.matching.iter().map(|x| x.0).sum();
            let ops: u64 = t.matching.iter().map(|x| x.1).sum();
            ratio(ns, ops)
        },
        "ns",
    )];
    for class in Class::ALL {
        let op = per_op(t.op[class.idx()]);
        let mat = per_op(t.matching[class.idx()]);
        out.push(m(&format!("core.{}.ns_per_op", class.name()), op, "ns"));
        out.push(m(
            &format!("core.{}.post_match_ns_per_op", class.name()),
            op - mat,
            "ns",
        ));
    }
    out.push(m("core.slowpath.lcp_ns_per_op", per_op(t.slow_lcp), "ns"));
    out.push(m("trie.query_build.ns_per_op", per_op(t.query_build), "ns"));
    out.push(m("sim.dispatch_ns_per_round", per_op(t.dispatch), "ns"));
    for class in Class::ALL {
        let k = &c.class[class.idx()];
        let name = class.name();
        out.push(m(
            &format!("sim.rounds_per_batch.{name}"),
            ratio(k.rounds, k.batches),
            "rounds",
        ));
        out.push(m(
            &format!("sim.words_per_op.{name}"),
            ratio(k.words, k.ops),
            "words",
        ));
    }
    let (ops, batches) = (c.ops(), c.batches());
    out.extend([
        m("sim.pim_work_per_op", ratio(c.pim_work, ops), "work"),
        m("sim.cpu_work_per_op", ratio(c.cpu_work, ops), "work"),
        m(
            "core.cache.hit_ratio",
            ratio(c.cache.hits, c.cache.lookups),
            "ratio",
        ),
        m(
            "core.cache.words_saved_per_op",
            ratio(c.cache.words_saved, ops),
            "words",
        ),
        m(
            "core.cache.admissions_per_batch",
            ratio(c.cache.admissions, batches),
            "count",
        ),
        m(
            "core.cache.evictions_per_batch",
            ratio(c.cache.evictions, batches),
            "count",
        ),
        m(
            "core.cache.invalidations_per_batch",
            ratio(c.cache.invalidations, batches),
            "count",
        ),
        m("core.adapt.repartitions", c.repartitions as f64, "count"),
        m("core.adapt.migrations", c.migrations as f64, "count"),
        m(
            "core.adapt.words_per_op",
            ratio(c.adapt_words, ops),
            "words",
        ),
        m(
            "codec.encoded_per_plain",
            if c.codec_plain == 0 {
                1.0
            } else {
                ratio(c.codec_encoded, c.codec_plain)
            },
            "ratio",
        ),
        m(
            "codec.frames_per_batch",
            ratio(c.codec_frames, batches),
            "count",
        ),
        m("core.seal.retries", c.seal_retries as f64, "count"),
        m(
            "sim.faults.corruptions_detected",
            c.corruptions_detected as f64,
            "count",
        ),
        m("core.verify.redo_per_op", ratio(c.redo_paths, ops), "ratio"),
        m("bench.calib_ns", r.calib_ns, "ns"),
        m("bench.traced_ops_per_s", t.ops_per_s(), "1/s"),
        m(
            "bench.op_share_of_loop",
            ratio(t.stream.0, r.loop_ns),
            "ratio",
        ),
    ]);
    out
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn bench(a: &Args, kind: Kind) -> ExitCode {
    let cfg = RunCfg {
        kind,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        n_keys: kind.n_keys(),
        setups: SETUPS,
    };
    let r = pim_trie::with_threads(THREADS, || run(&cfg));
    let metrics = if a.trace {
        per_layer(&r)
    } else {
        end_to_end(&r)
    };

    println!(
        "perfbench {} seed={} threads={} trace={} keys={} attempted={} failed={}",
        kind.name(),
        a.seed,
        THREADS,
        u8::from(a.trace),
        cfg.n_keys,
        r.attempted,
        r.failed
    );
    for x in &metrics {
        println!(
            "  {:<36} {:>16.4} {:<8} {}",
            x.name, x.value, x.unit, x.note
        );
    }
    if a.trace {
        let path = std::env::current_exe().ok().and_then(|p| {
            p.parent()
                .map(|d| d.join(format!("spans-{}-{}.jsonl", kind.name(), a.seed)))
        });
        if let Some(path) = path {
            match std::fs::write(&path, r.spans.to_jsonl()) {
                Ok(()) => println!(
                    "  {} spans written to {}",
                    r.spans.spans.len(),
                    path.display()
                ),
                Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
            }
        }
    }
    // no fault plan is installed, so the seal layer must never retry
    let clean_seal = r.counts.seal_retries == 0 && r.counts.corruptions_detected == 0;
    let correct = r.failed == 0 && r.setup_ok && clean_seal;
    println!("{}", json_line(correct, r.attempted, r.failed, &metrics));
    ExitCode::SUCCESS
}

/// Same seed ⇒ identical simulated-cost and per-layer counts, at 1 and
/// at 2 threads, on small instances of every workload.
fn selfcheck(seed: u64) -> ExitCode {
    let mut ok = true;
    for kind in Kind::ALL {
        let cfg = RunCfg {
            kind,
            seed,
            seconds: 0.0,
            trace: true,
            n_keys: SELFCHECK_KEYS,
            setups: 1,
        };
        let digests: Vec<(usize, String, u64)> = [1, 1, 2, 2]
            .into_iter()
            .map(|threads| {
                let r = pim_trie::with_threads(threads, || run(&cfg));
                let d = format!("{:?} space={}", r.counts, r.space_words_per_key);
                (threads, d, r.failed)
            })
            .collect();
        let same = digests.iter().all(|d| d.1 == digests[0].1);
        let clean = digests.iter().all(|d| d.2 == 0);
        println!(
            "selfcheck {:<13} runs at threads 1,1,2,2: counts {} failed {}",
            kind.name(),
            if same { "identical" } else { "DIFFER" },
            digests.iter().map(|d| d.2).sum::<u64>()
        );
        if !same {
            for (threads, d, _) in &digests {
                println!("  threads={threads}: {d}");
            }
        }
        ok &= same && clean;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.kind {
        Some(kind) if !args.selfcheck => bench(&args, kind),
        _ => selfcheck(args.seed),
    }
}
