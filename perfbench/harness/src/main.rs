//! Paired-window end-to-end benchmark for the PMTest reproduction.
//!
//! One run drives a native twin and an instrumented twin of one workload
//! with the same generated operations, alternating fixed-size windows in
//! this process: a native window, then the same operations instrumented,
//! ended by a drain barrier. See `perfbench/README.md` for the workloads
//! and every metric.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmtest_core::{check_trace, packed_clean, PersistencyModel, X86Model};
use spans::SpanLog;
use stats::{median, percentile, rss_bytes, WindowLog};
use workloads::{Kv, LayerCounters, Outcome, PmfsWl, SetupTimes, Whisper, Workload};

/// Per-workload run shape. Windows are short enough that host-noise
/// bursts (seconds long) hit both halves of a pair alike, and long enough
/// that timer reads and the barrier are small next to them.
struct Plan {
    /// Operations per window.
    window_ops: usize,
    /// Unmeasured pairs before the measured phase (caches fill, pools warm).
    warmup_pairs: usize,
    /// Pairs per report drain. The first block of them measures
    /// `rss_growth_mib`: a fixed amount of work, so the figure does not
    /// move with host speed.
    block_pairs: usize,
    /// Set-ups per run, the measured instance's included; `setup_s` is
    /// their median.
    setups: usize,
}

fn plan(workload: &str) -> Option<Plan> {
    Some(match workload {
        "whisper-default" => Plan { window_ops: 2000, warmup_pairs: 5, block_pairs: 75, setups: 9 },
        "kv-ycsb-tuned" => Plan { window_ops: 8000, warmup_pairs: 6, block_pairs: 60, setups: 15 },
        "pmfs-observed" => Plan { window_ops: 1500, warmup_pairs: 4, block_pairs: 40, setups: 21 },
        _ => return None,
    })
}

/// Spans kept for the Chrome trace export.
const SPAN_KEEP: usize = 50_000;
/// Captured traces replayed through `check_trace` per run.
const REPLAY_CAP: u64 = 20_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(plan) = plan(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (whisper-default, kv-ycsb-tuned, pmfs-observed)",
            args.workload
        );
        return ExitCode::from(2);
    };
    let result = match args.workload.as_str() {
        "whisper-default" => run::<Whisper>(&args, &plan),
        "kv-ycsb-tuned" => run::<Kv>(&args, &plan),
        _ => run::<PmfsWl>(&args, &plan),
    };
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Sums over the traced pairs of a trace-mode run.
#[derive(Default)]
struct Traced {
    pairs: u64,
    ops: u64,
    /// Native op spans (the app layer).
    app_ns: u64,
    /// Instrumented op spans, minus ship calls made inside them.
    op_self_ns: u64,
    /// `send_trace` / pump calls after each op, plus in-op FIFO pushes.
    ship_self_ns: u64,
    barrier_ns: u64,
    /// Instrumented window time (the spans' root).
    window_ns: u64,
    /// Ship calls that moved a trace, each.
    ship_ns: Vec<u64>,
    /// Instrumented op + ship latency, each op.
    op_ns: Vec<u64>,
}

/// Replay of captured traces outside the windows.
#[derive(Default)]
struct Replay {
    traces: u64,
    clean: u64,
    ns: u64,
}

struct Counts {
    attempted: u64,
    failed: u64,
}

impl Counts {
    /// Counts one window's operations (both twins) and its failures.
    fn window(&mut self, ops: usize, fails: Vec<String>) {
        self.attempted += 2 * ops as u64;
        for e in fails {
            if self.failed < 5 {
                eprintln!("perfbench: operation failed: {e}");
            }
            self.failed += 1;
        }
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// One untraced pair: returns the native and instrumented window times.
fn pair<W: Workload>(wl: &mut W, ops: &[W::Op], counts: &mut Counts) -> (u64, u64) {
    let mut fails = Vec::new();
    let t0 = Instant::now();
    for op in ops {
        if let Err(e) = wl.native(op) {
            fails.push(e);
        }
    }
    let t1 = Instant::now();
    for op in ops {
        if let Err(e) = wl.instrumented(op) {
            fails.push(e);
        }
        if let Err(e) = wl.ship() {
            fails.push(e);
        }
    }
    if let Err(e) = wl.barrier() {
        fails.push(e);
    }
    let t2 = Instant::now();
    counts.window(ops.len(), fails);
    (ns(t1 - t0), ns(t2 - t1))
}

/// One traced pair: the same calls as [`pair`], each wrapped in a span.
///
/// The loops only read the clock and store the readings; spans are built
/// after each window. What the loops still do between spans (the stores
/// and the clock reads themselves, ~45 ns each on a 2-vCPU VM) is left
/// uncovered: the root's self time, which `span.coverage` reports.
fn traced_pair<W: Workload>(
    wl: &mut W,
    ops: &[W::Op],
    id: u64,
    log: &mut SpanLog,
    acc: &mut Traced,
    counts: &mut Counts,
) -> (u64, u64) {
    let mut fails = Vec::new();
    let mut app = Vec::with_capacity(ops.len());
    let t0 = Instant::now();
    for op in ops {
        let a = Instant::now();
        if let Err(e) = wl.native(op) {
            fails.push(e);
        }
        app.push((a, Instant::now()));
    }
    let t1 = Instant::now();
    let root = log.open("native_window", t0, None, id);
    for &(a, b) in &app {
        log.record("app", a, b, Some(root), id);
    }
    log.close(root, t1);
    let native = log.close_window();

    // (op start, op end = ship start, ship end, ship moved a trace)
    let mut marks = Vec::with_capacity(ops.len());
    let mut pushes = Vec::new();
    wl.time_inner_ships(true);
    let t2 = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let a = Instant::now();
        if let Err(e) = wl.instrumented(op) {
            fails.push(e);
        }
        let b = Instant::now();
        pushes.extend(wl.take_inner_ships().into_iter().map(|(s, e)| (i, s, e)));
        let shipped = wl.ship().unwrap_or_else(|e| {
            fails.push(e);
            false
        });
        marks.push((a, b, Instant::now(), shipped));
    }
    let d = Instant::now();
    if let Err(e) = wl.barrier() {
        fails.push(e);
    }
    let t3 = Instant::now();
    wl.time_inner_ships(false);

    let root = log.open("window", t2, None, id);
    let mut op_spans = Vec::with_capacity(marks.len());
    for &(a, b, c, shipped) in &marks {
        op_spans.push(log.record("op", a, b, Some(root), id));
        log.record("ship", b, c, Some(root), id);
        if shipped {
            acc.ship_ns.push(ns(c - b));
        }
        acc.op_ns.push(ns(c - a));
    }
    for (i, s, e) in pushes {
        log.record("push", s, e, Some(op_spans[i]), id);
        acc.ship_ns.push(ns(e - s));
    }
    log.record("barrier", d, t3, Some(root), id);
    log.close(root, t3);
    let instr = log.close_window();

    let get = |m: &BTreeMap<&str, u64>, k| m.get(k).copied().unwrap_or(0);
    acc.pairs += 1;
    acc.ops += ops.len() as u64;
    acc.app_ns += get(&native, "app");
    acc.op_self_ns += get(&instr, "op");
    acc.ship_self_ns += get(&instr, "ship") + get(&instr, "push");
    acc.barrier_ns += get(&instr, "barrier");
    acc.window_ns += ns(t3 - t2);
    counts.window(ops.len(), fails);
    (ns(t1 - t0), ns(t3 - t2))
}

/// Metrics in output order: name → (value, unit).
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.0.push((name, value, unit));
        } else {
            eprintln!("perfbench: {name} not measurable in this run ({value})");
        }
    }

    fn put_opt(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            Some(v) => self.put(name, v, unit),
            None => eprintln!("perfbench: {name} has too few samples in this run"),
        }
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push('}');
        out
    }
}

/// Nanosecond samples as sorted microseconds.
fn micros(ns: &[u64]) -> Vec<f64> {
    let mut us: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    us.sort_by(f64::total_cmp);
    us
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn run<W: Workload>(args: &Args, plan: &Plan) -> Result<String, String> {
    let origin = Instant::now();
    // The measured instance is the process's first set-up, so the heap it
    // grows into is the same on every run; the other set-ups that
    // `setup_s` takes its median over run after the measured phase.
    let (mut wl, first_setup) = W::setup(args.seed, args.trace);

    let mut counts = Counts { attempted: 0, failed: 0 };
    let mut log = WindowLog::default();
    let mut spans = SpanLog::new(origin, SPAN_KEEP);
    let mut acc = Traced::default();
    let mut replay = Replay::default();
    let model = X86Model::new();
    let builtin = model.builtin().expect("x86 is a built-in model");

    for _ in 0..plan.warmup_pairs {
        let ops = wl.gen(plan.window_ops);
        pair(&mut wl, &ops, &mut counts);
        wl.settle(&ops)?;
    }

    let before: LayerCounters = wl.counters();
    let rss0 = rss_bytes();
    // (RSS, traces checked, report drain) at the end of the first
    // `block_pairs` measured pairs.
    let mut first_block = None;
    let mut outcome = Outcome::default();
    let start = Instant::now();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut id = 0u64;
    while start.elapsed() < budget || first_block.is_none() {
        let ops = wl.gen(plan.window_ops);
        // In trace mode every other pair is traced, so the traced and
        // untraced slowdowns come from the same process and time span.
        let traced = args.trace && id.is_multiple_of(2);
        let (native_ns, instr_ns) = if traced {
            traced_pair(&mut wl, &ops, id, &mut spans, &mut acc, &mut counts)
        } else {
            pair(&mut wl, &ops, &mut counts)
        };
        log.native(id, native_ns);
        log.instrumented(id, instr_ns, traced);
        let traces = wl.settle(&ops)?;
        if args.trace {
            let sample =
                &traces[..traces.len().min(REPLAY_CAP.saturating_sub(replay.traces) as usize)];
            let t = Instant::now();
            for trace in sample {
                std::hint::black_box(check_trace(trace, &model));
            }
            replay.ns += ns(t.elapsed());
            replay.traces += sample.len() as u64;
            replay.clean +=
                sample.iter().filter(|t| packed_clean(builtin, t.packed())).count() as u64;
        }
        drop(traces);
        // Every `block_pairs` pairs the accumulated report is drained and
        // verified, which bounds the run's memory. The first block is a
        // fixed amount of work: its RSS growth (report still held) and its
        // drain are the reported memory and take-time figures.
        if log.len() % plan.block_pairs == 0 {
            let sample = (rss_bytes(), wl.counters().engine.traces_checked);
            let drained = wl.drain();
            outcome.add(&drained);
            if first_block.is_none() {
                first_block = Some((sample.0, sample.1, drained.take));
            }
        }
        id += 1;
    }
    let measured = start.elapsed();
    let after = wl.counters();
    outcome.add(&wl.finish());
    drop(wl);
    let mut setups = vec![first_setup];
    for _ in 1..plan.setups {
        setups.push(W::setup(args.seed, args.trace).1);
    }
    let setup_ms = |f: fn(&SetupTimes) -> Duration| {
        median(setups.iter().map(|t| f(t).as_secs_f64() * 1e3).collect()).expect("set-ups")
    };
    let (rss1, traces1, first_take) = first_block.expect("first block measured");
    let rss_growth = rss1 as f64 - rss0 as f64;

    let untraced = log.pairs(false);
    let slowdown = stats::slowdown(&untraced).ok_or("no measured pairs")?;
    let mut m = Metrics::default();
    if !args.trace {
        m.put("slowdown", slowdown, "x");
        m.put("rss_growth_mib", rss_growth / (1024.0 * 1024.0), "MiB");
        m.put("setup_s", setup_ms(SetupTimes::total) / 1e3, "s");
    } else {
        let e0 = before.engine;
        let e1 = after.engine;
        let traces = (e1.traces_checked - e0.traces_checked) as f64;
        let per_ktrace = |a: u64, b: u64| ratio((b - a) as f64 * 1e3, traces);
        let ops = acc.ops as f64;
        let record_ns = acc.op_self_ns as f64 - acc.app_ns as f64;
        let window = acc.window_ns as f64;
        m.put("app.native_op_us", ratio(acc.app_ns as f64, ops) / 1e3, "us");
        m.put("record.op_overhead_us", ratio(record_ns, ops) / 1e3, "us");
        m.put(
            "record.entries_per_trace",
            ratio((e1.entries_processed - e0.entries_processed) as f64, traces),
            "count",
        );
        let pool_hit = match (before.pool, after.pool) {
            (Some(p0), Some(p1)) => ratio(
                (p1.recycled - p0.recycled) as f64,
                (p1.recycled + p1.fresh - p0.recycled - p0.fresh) as f64,
            ),
            _ => 0.0,
        };
        m.put("record.pool_hit_rate", pool_hit, "ratio");
        let ship_us = micros(&acc.ship_ns);
        m.put_opt("ship.call_us_p50", percentile(&ship_us, 50.0), "us");
        m.put_opt("ship.call_us_p99", percentile(&ship_us, 99.0), "us");
        m.put(
            "ship.backpressure_stalls_per_ktrace",
            per_ktrace(e0.backpressure_stalls, e1.backpressure_stalls),
            "1/ktrace",
        );
        m.put("ship.parks_per_ktrace", per_ktrace(e0.parks, e1.parks), "1/ktrace");
        m.put("ship.wakes_per_ktrace", per_ktrace(e0.wakes, e1.wakes), "1/ktrace");
        m.put("ship.queue_highwater", e1.queue_highwater as f64, "count");
        m.put(
            "ship.traces_per_batch",
            ratio(
                (e1.traces_submitted - e0.traces_submitted) as f64,
                (e1.batches_submitted - e0.batches_submitted) as f64,
            ),
            "count",
        );
        let (stalls, occupancy) = match (before.fifo, after.fifo) {
            (Some(f0), Some(f1)) => (f1.push_stalls - f0.push_stalls, f1.occupancy_highwater),
            _ => (0, 0),
        };
        m.put("ship.fifo_push_stalls", stalls as f64, "count");
        m.put("ship.fifo_occupancy_highwater", occupancy as f64, "count");
        m.put("check.window_drain_ms", ratio(acc.barrier_ns as f64, acc.pairs as f64) / 1e6, "ms");
        m.put("check.replay_ns_per_trace", ratio(replay.ns as f64, replay.traces as f64), "ns");
        m.put("check.clean_lane_share", ratio(replay.clean as f64, replay.traces as f64), "ratio");
        let (hit_rate, resident) = match (before.cache, after.cache) {
            (Some(c0), Some(c1)) => {
                let hits = (c1.l1_hits + c1.l2_hits - c0.l1_hits - c0.l2_hits) as f64;
                (ratio(hits, hits + (c1.misses - c0.misses) as f64), c1.bytes_resident as f64)
            }
            _ => (0.0, 0.0),
        };
        m.put("check.cache_hit_rate", hit_rate, "ratio");
        m.put("check.cache_bytes_resident", resident, "B");
        m.put("report.final_take_ms", first_take.as_secs_f64() * 1e3, "ms");
        m.put(
            "report.diags_per_ktrace",
            ratio(outcome.diags as f64 * 1e3, outcome.traces as f64),
            "1/ktrace",
        );
        m.put(
            "report.bytes_per_trace",
            ratio(rss_growth, (traces1 - e0.traces_checked) as f64),
            "B",
        );
        m.put("report.bundles", outcome.bundles as f64, "count");
        m.put("setup.session_ms", setup_ms(|t| t.session), "ms");
        m.put("setup.substrate_ms", setup_ms(|t| t.substrate), "ms");
        m.put("setup.preload_ms", setup_ms(|t| t.preload), "ms");
        let untraced_instr: u64 = untraced.iter().map(|p| p.instr_ns).sum();
        m.put(
            "run.ops_per_s",
            ratio((untraced.len() * plan.window_ops) as f64, untraced_instr as f64) * 1e9,
            "1/s",
        );
        let op_us = micros(&acc.op_ns);
        m.put_opt("run.op_p50_us", percentile(&op_us, 50.0), "us");
        m.put_opt("run.op_p99_us", percentile(&op_us, 99.0), "us");
        let traced_slowdown = stats::slowdown(&log.pairs(true)).ok_or("no traced pairs")?;
        m.put("trace.overhead", traced_slowdown / slowdown, "x");
        let app = acc.app_ns as f64;
        let (ship, barrier) = (acc.ship_self_ns as f64, acc.barrier_ns as f64);
        m.put("span.app_share", ratio(app, window), "ratio");
        m.put("span.record_share", ratio(record_ns, window), "ratio");
        m.put("span.ship_share", ratio(ship, window), "ratio");
        m.put("span.barrier_share", ratio(barrier, window), "ratio");
        m.put("span.coverage", ratio(app + record_ns + ship + barrier, window), "ratio");

        let dir = std::path::Path::new(".perfbench_out");
        let path = dir.join(format!("{}-seed{}.trace.json", args.workload, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, spans.chrome_json()))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {} ({} spans)", path.display(), spans.kept());
    }

    let failed = counts.failed + outcome.failed;
    eprintln!(
        "perfbench: {} {} pairs x {} ops in {:.1}s; slowdown {:.3} (summed {:.3}); \
         {} traces, {} diags; {} failed",
        args.workload,
        log.len(),
        plan.window_ops,
        measured.as_secs_f64(),
        slowdown,
        stats::sum_ratio(&untraced).unwrap_or(f64::NAN),
        outcome.traces,
        outcome.diags,
        failed
    );
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        failed == 0,
        counts.attempted.max(1),
        failed,
        m.json()
    ))
}
