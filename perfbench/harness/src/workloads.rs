//! The three workloads. Each holds a native twin (uninstrumented pools, no
//! checkers) and an instrumented twin fed the same generated operations;
//! the runner alternates windows between them.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pmtest_core::{
    check_trace, Diag, Engine, EngineConfig, EngineStats, FifoStats, KernelFifo, PmTestSession,
    Report, TelemetryConfig, VerdictCacheStats, X86Model,
};
use pmtest_mnemosyne::MnPool;
use pmtest_pmem::{PersistMode, PmHeap, PmPool};
use pmtest_pmfs::{InodeId, Pmfs, PmfsOptions};
use pmtest_trace::{Entry, Event, MemorySink, PoolStats, SharedSink, Sink, Trace};
use pmtest_txlib::ObjPool;
use pmtest_workloads::gen::{self, Zipfian};
use pmtest_workloads::{
    BTree, CheckMode, CritBitTree, FaultSet, HashMapLl, HashMapTx, KvMap, KvStore, RbTree,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How long a drain barrier may wait before the run is declared broken.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(60);

/// Set-up phases of the instrumented twin, as timed by `setup`.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `SessionBuilder::build` or `Engine::new` (plus the kernel FIFO).
    pub session: Duration,
    /// Pools, allocators and data structures.
    pub substrate: Duration,
    /// Dataset preload through the instrumented twin, up to its drained
    /// barrier.
    pub preload: Duration,
}

impl SetupTimes {
    pub fn total(&self) -> Duration {
        self.session + self.substrate + self.preload
    }
}

/// Public counters of the layers a trace passes through.
pub struct LayerCounters {
    pub engine: EngineStats,
    pub pool: Option<PoolStats>,
    pub cache: Option<VerdictCacheStats>,
    pub fifo: Option<FifoStats>,
}

/// What one report drain and the output checks found.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Time spent in `take_report`.
    pub take: Duration,
    /// Traces in the report.
    pub traces: u64,
    /// FAIL + WARN diagnostics in the report.
    pub diags: u64,
    /// Diagnosis bundles captured by the flight recorder.
    pub bundles: u64,
    /// Verification failures: mismatched or lost verdicts, diverging state.
    pub failed: u64,
}

impl Outcome {
    /// Adds `other`'s counts; keeps this drain's `take` time.
    pub fn add(&mut self, other: &Outcome) {
        self.traces += other.traces;
        self.diags += other.diags;
        self.bundles += other.bundles;
        self.failed += other.failed;
    }
}

/// One workload: the load loop calls `native` and `instrumented` with the
/// same operations, `ship` after each instrumented operation and `barrier`
/// at the end of each instrumented window. Everything else runs outside
/// the timed windows.
pub trait Workload {
    type Op;

    /// Sets up both twins and preloads the dataset. The returned times
    /// cover the instrumented twin only.
    fn setup(seed: u64, capture: bool) -> (Self, SetupTimes)
    where
        Self: Sized;

    /// The next `n` operations of the seeded stream.
    fn gen(&mut self, n: usize) -> Vec<Self::Op>;

    /// Runs one operation on the native twin.
    fn native(&mut self, op: &Self::Op) -> Result<(), String>;

    /// Runs one operation on the instrumented twin (app + record).
    fn instrumented(&mut self, op: &Self::Op) -> Result<(), String>;

    /// The ship call after one instrumented operation. Returns whether it
    /// moved traces (a pump that found the FIFO below half full did not).
    fn ship(&mut self) -> Result<bool, String>;

    /// The drain barrier ending an instrumented window.
    fn barrier(&mut self) -> Result<(), String>;

    /// Turns timing of ship calls made inside operations by benchmark-owned
    /// sinks on or off.
    fn time_inner_ships(&mut self, _on: bool) {}

    /// Ship calls made inside the last operation by benchmark-owned sinks,
    /// as `(start, end)` pairs (the kernel sink's FIFO pushes).
    fn take_inner_ships(&mut self) -> Vec<(Instant, Instant)> {
        Vec::new()
    }

    /// Post-window bookkeeping, outside the timed windows. Returns the
    /// window's traces when the workload captures them (trace mode, or
    /// kept copies for verification).
    fn settle(&mut self, ops: &[Self::Op]) -> Result<Vec<Trace>, String>;

    /// Counters of the instrumented twin's layers.
    fn counters(&self) -> LayerCounters;

    /// Takes the report accumulated since the last drain (timed) and checks
    /// its verdicts. Runs after a barrier, outside the windows.
    fn drain(&mut self) -> Outcome;

    /// Ends the run: drains the last report and checks both twins' final
    /// state.
    fn finish(&mut self) -> Outcome;
}

/// Flushes the calling thread's batch, then waits until every submitted
/// trace is checked. On success `traces_checked == traces_submitted`.
pub fn session_barrier(session: &PmTestSession) -> Result<EngineStats, String> {
    session.flush();
    let start = Instant::now();
    loop {
        let stats = session.stats();
        if stats.traces_checked == stats.traces_submitted {
            return Ok(stats);
        }
        if start.elapsed() > BARRIER_TIMEOUT {
            return Err(format!(
                "barrier timed out: {} of {} traces checked",
                stats.traces_checked, stats.traces_submitted
            ));
        }
        std::thread::yield_now();
    }
}

/// Drains a clean workload's report: no diagnostics, and every trace the
/// program sent so far was submitted, checked and reported (`reported`
/// counts traces across drains).
fn drain_clean(session: &PmTestSession, sent: u64, reported: &mut u64) -> Outcome {
    let start = Instant::now();
    let report = session.take_report();
    let take = start.elapsed();
    let stats = session.stats();
    let traces = report.traces().len() as u64;
    *reported += traces;
    let diags = (report.fail_count() + report.warn_count()) as u64;
    let with_diags = report.traces().iter().filter(|t| !t.diags.is_empty()).count() as u64;
    let lost = [*reported, stats.traces_submitted, stats.traces_checked]
        .iter()
        .map(|&n| sent.abs_diff(n))
        .max()
        .unwrap_or(0);
    if with_diags + lost > 0 {
        eprintln!(
            "verify: {diags} diagnostics in {with_diags} traces; sent {sent}, submitted {}, \
             checked {}, reported {reported}",
            stats.traces_submitted, stats.traces_checked
        );
    }
    let bundles = session.take_bundles().len() as u64;
    Outcome { take, traces, diags, bundles, failed: with_diags + lost }
}

// ---------------------------------------------------------------------------
// whisper-default: the five Fig. 10 micros, 256-B inserts, paper defaults
// ---------------------------------------------------------------------------

/// Keys per micro, all preloaded; window inserts replace one of them.
const WHISPER_KEYS: u64 = 2048;
/// Inserts a micro generation takes before both twins of it are rebuilt
/// (outside the windows). Replacing inserts do not return the old value's
/// pool memory, so without generations a long run would exhaust any fixed
/// pool; 40k inserts of up to ~335 pool bytes each fill about 80% of it.
const WHISPER_GEN_INSERTS: usize = 40_000;
const WHISPER_POOL: usize = 16 << 20;
const WHISPER_VALUE: usize = 256;
const MICROS: usize = 5;

pub struct WhisperOp {
    micro: usize,
    key: u64,
    serial: u64,
    value: Vec<u8>,
}

/// One generation of one micro: both twins (and the capture twin in trace
/// mode) plus the keys they should hold.
struct MicroGen {
    native: Box<dyn KvMap>,
    instr: Box<dyn KvMap>,
    capture: Option<Box<dyn KvMap>>,
    /// Serial of the value last written under each key.
    model: HashMap<u64, u64>,
    inserts: usize,
}

pub struct Whisper {
    rng: SmallRng,
    serial: u64,
    /// Window inserts issued so far; picks the micro round-robin.
    issued: u64,
    micros: Vec<MicroGen>,
    capture_sink: Option<Arc<MemorySink>>,
    session: PmTestSession,
    sent: u64,
    reported: u64,
    /// Values that differed between the twins and the model, found when a
    /// generation was retired.
    mismatches: u64,
}

fn micro(i: usize, sink: SharedSink, check: CheckMode) -> Box<dyn KvMap> {
    let pm = Arc::new(PmPool::new(WHISPER_POOL, sink));
    let none = FaultSet::none();
    if i == 4 {
        let heap = Arc::new(PmHeap::new(pm, 8192));
        return Box::new(HashMapLl::create(heap, 256, check, none).expect("create HashMapLl"));
    }
    let pool = Arc::new(ObjPool::create(pm, 8192, PersistMode::X86).expect("create pool"));
    match i {
        0 => Box::new(CritBitTree::create(pool, check, none).expect("create C-Tree")),
        1 => Box::new(BTree::create(pool, check, none).expect("create B-Tree")),
        2 => Box::new(RbTree::create(pool, check, none).expect("create RB-Tree")),
        _ => Box::new(HashMapTx::create(pool, 256, check, none).expect("create HashMap w/ TX")),
    }
}

/// A seeded permutation of `0..n` (a preload order).
fn permutation(rng: &mut SmallRng, n: u64) -> Vec<u64> {
    let mut keys: Vec<u64> = (0..n).collect();
    for i in (1..keys.len()).rev() {
        keys.swap(i, rng.gen_range(0..=i));
    }
    keys
}

impl Whisper {
    fn op(&mut self, micro: usize, key: u64) -> WhisperOp {
        let serial = self.serial;
        self.serial += 1;
        WhisperOp { micro, key, serial, value: gen::value_for(serial, WHISPER_VALUE) }
    }

    fn preload(&mut self, i: usize) -> Vec<WhisperOp> {
        permutation(&mut self.rng, WHISPER_KEYS).into_iter().map(|key| self.op(i, key)).collect()
    }

    fn native_twin(i: usize, preload: &[WhisperOp]) -> Box<dyn KvMap> {
        let app = micro(i, Arc::new(pmtest_trace::NullSink), CheckMode::None);
        for op in preload {
            app.insert(op.key, &op.value).expect("native preload");
        }
        app
    }

    /// The instrumented twin of micro `i`, preloaded with one trace sent
    /// per insert; the set-up phases are added to `times`.
    fn instr_twin(
        &mut self,
        i: usize,
        preload: &[WhisperOp],
        times: &mut SetupTimes,
    ) -> Box<dyn KvMap> {
        let t0 = Instant::now();
        let app = micro(i, self.session.sink(), CheckMode::Checkers);
        let t1 = Instant::now();
        for op in preload {
            app.insert(op.key, &op.value).expect("instrumented preload");
            self.sent += u64::from(self.session.send_trace().is_some());
        }
        times.substrate += t1 - t0;
        times.preload += t1.elapsed();
        app
    }

    fn capture_twin(&self, i: usize, preload: &[WhisperOp]) -> Option<Box<dyn KvMap>> {
        let sink = self.capture_sink.as_ref()?;
        let app = micro(i, sink.clone(), CheckMode::Checkers);
        for op in preload {
            app.insert(op.key, &op.value).expect("capture preload");
        }
        let _ = sink.take_trace(0);
        Some(app)
    }

    /// A fresh generation of micro `i`, built outside the windows.
    fn generation(&mut self, i: usize) -> MicroGen {
        let preload = self.preload(i);
        let native = Self::native_twin(i, &preload);
        let instr = self.instr_twin(i, &preload, &mut SetupTimes::default());
        let capture = self.capture_twin(i, &preload);
        let model = preload.iter().map(|op| (op.key, op.serial)).collect();
        MicroGen { native, instr, capture, model, inserts: 0 }
    }

    /// Checks a generation's final contents against the model on both
    /// twins.
    fn verify(&mut self, g: &MicroGen) {
        for (&key, &serial) in &g.model {
            let want = Some(gen::value_for(serial, WHISPER_VALUE));
            let native = g.native.get(key).ok().flatten();
            let instr = g.instr.get(key).ok().flatten();
            self.mismatches += u64::from(native != want || instr != want);
        }
    }
}

impl Workload for Whisper {
    type Op = WhisperOp;

    fn setup(seed: u64, capture: bool) -> (Self, SetupTimes) {
        let t0 = Instant::now();
        let session = PmTestSession::builder().build();
        session.start();
        let mut times = SetupTimes { session: t0.elapsed(), ..SetupTimes::default() };
        let mut w = Whisper {
            rng: SmallRng::seed_from_u64(seed),
            serial: 0,
            issued: 0,
            micros: Vec::new(),
            capture_sink: capture.then(|| Arc::new(MemorySink::new())),
            session,
            sent: 0,
            reported: 0,
            mismatches: 0,
        };
        // Native twins first, so no checking of the instrumented preload
        // overlaps untimed work.
        let preloads: Vec<Vec<WhisperOp>> = (0..MICROS).map(|i| w.preload(i)).collect();
        let natives: Vec<_> =
            preloads.iter().enumerate().map(|(i, p)| Self::native_twin(i, p)).collect();
        let instrs: Vec<_> =
            preloads.iter().enumerate().map(|(i, p)| w.instr_twin(i, p, &mut times)).collect();
        let t = Instant::now();
        session_barrier(&w.session).expect("preload barrier");
        times.preload += t.elapsed();
        for (i, ((native, instr), preload)) in
            natives.into_iter().zip(instrs).zip(&preloads).enumerate()
        {
            let capture = w.capture_twin(i, preload);
            let model = preload.iter().map(|op| (op.key, op.serial)).collect();
            w.micros.push(MicroGen { native, instr, capture, model, inserts: 0 });
        }
        (w, times)
    }

    fn gen(&mut self, n: usize) -> Vec<WhisperOp> {
        let ops: Vec<WhisperOp> = (0..n)
            .map(|_| {
                self.issued += 1;
                let key = self.rng.gen_range(0..WHISPER_KEYS);
                self.op((self.issued % MICROS as u64) as usize, key)
            })
            .collect();
        // Retire any generation the window would overfill.
        let mut rebuilt = false;
        for i in 0..MICROS {
            let due = ops.iter().filter(|op| op.micro == i).count();
            if self.micros[i].inserts + due > WHISPER_GEN_INSERTS {
                let g = self.generation(i);
                let old = std::mem::replace(&mut self.micros[i], g);
                self.verify(&old);
                rebuilt = true;
            }
            self.micros[i].inserts += due;
        }
        if rebuilt {
            session_barrier(&self.session).expect("rebuild barrier");
        }
        ops
    }

    fn native(&mut self, op: &WhisperOp) -> Result<(), String> {
        self.micros[op.micro].native.insert(op.key, &op.value).map_err(|e| e.to_string())
    }

    fn instrumented(&mut self, op: &WhisperOp) -> Result<(), String> {
        self.micros[op.micro].instr.insert(op.key, &op.value).map_err(|e| e.to_string())
    }

    fn ship(&mut self) -> Result<bool, String> {
        let sent = self.session.send_trace().is_some();
        self.sent += u64::from(sent);
        Ok(sent)
    }

    fn barrier(&mut self) -> Result<(), String> {
        session_barrier(&self.session).map(drop)
    }

    fn settle(&mut self, ops: &[WhisperOp]) -> Result<Vec<Trace>, String> {
        let mut traces = Vec::new();
        for op in ops {
            let g = &mut self.micros[op.micro];
            g.model.insert(op.key, op.serial);
            if let (Some(app), Some(sink)) = (&g.capture, &self.capture_sink) {
                app.insert(op.key, &op.value).map_err(|e| e.to_string())?;
                let trace = sink.take_trace(0);
                if !trace.is_empty() {
                    traces.push(trace);
                }
            }
        }
        Ok(traces)
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters {
            engine: self.session.stats(),
            pool: Some(self.session.pool_stats()),
            cache: None,
            fifo: None,
        }
    }

    fn drain(&mut self) -> Outcome {
        drain_clean(&self.session, self.sent, &mut self.reported)
    }

    fn finish(&mut self) -> Outcome {
        let mut out = self.drain();
        for g in std::mem::take(&mut self.micros) {
            self.verify(&g);
        }
        out.failed += self.mismatches;
        out
    }
}

// ---------------------------------------------------------------------------
// kv-ycsb-tuned: Mnemosyne KvStore, YCSB-A, batch 32 + verdict cache
// ---------------------------------------------------------------------------

const KV_KEYS: u64 = 4096;
/// YCSB's default record: ten 100-byte fields. With 64-byte values the
/// cost of waking the parked worker once per batch was a fifth of the
/// instrumented time and moved `slowdown` by up to 10% between runs.
const KV_VALUE: usize = 1024;
const KV_BUCKETS: u64 = 1024;
const KV_POOL: usize = 16 << 20;

pub enum KvOp {
    Get(u64),
    Set { key: u64, serial: u64, value: Vec<u8> },
}

pub struct Kv {
    rng: SmallRng,
    zipf: Zipfian,
    serial: u64,
    native: KvStore,
    instr: KvStore,
    /// Trace-mode capture twin: a third store recording into a sink the
    /// benchmark reads.
    capture: Option<(Arc<MemorySink>, KvStore)>,
    session: PmTestSession,
    model: Vec<u64>,
    sent: u64,
    reported: u64,
}

fn kv_store(sink: SharedSink, check: CheckMode) -> KvStore {
    let pm = Arc::new(PmPool::new(KV_POOL, sink));
    let pool = Arc::new(MnPool::create(pm, 16 + KV_BUCKETS * 8, PersistMode::X86).expect("pool"));
    KvStore::create(pool, KV_BUCKETS, 1, check, FaultSet::none()).expect("create KvStore")
}

fn kv_apply(store: &KvStore, op: &KvOp) -> Result<(), String> {
    match op {
        KvOp::Get(key) => {
            store.get(*key).map(|v| drop(std::hint::black_box(v))).map_err(|e| e.to_string())
        }
        KvOp::Set { key, value, .. } => store.set(*key, value).map_err(|e| e.to_string()),
    }
}

impl Workload for Kv {
    type Op = KvOp;

    fn setup(seed: u64, capture: bool) -> (Self, SetupTimes) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let preload: Vec<KvOp> = permutation(&mut rng, KV_KEYS)
            .into_iter()
            .enumerate()
            .map(|(i, key)| KvOp::Set {
                key,
                serial: i as u64,
                value: gen::value_for(i as u64, KV_VALUE),
            })
            .collect();
        let native = kv_store(Arc::new(pmtest_trace::NullSink), CheckMode::None);
        for op in &preload {
            kv_apply(&native, op).expect("native preload");
        }

        let t0 = Instant::now();
        let session = PmTestSession::builder().batch_capacity(32).verdict_cache(true).build();
        session.start();
        let t1 = Instant::now();
        let instr = kv_store(session.sink(), CheckMode::Checkers);
        let t2 = Instant::now();
        let mut sent = 0;
        for op in &preload {
            kv_apply(&instr, op).expect("instrumented preload");
            sent += u64::from(session.send_trace().is_some());
        }
        session_barrier(&session).expect("preload barrier");
        let t3 = Instant::now();
        let times = SetupTimes { session: t1 - t0, substrate: t2 - t1, preload: t3 - t2 };

        let capture = capture.then(|| {
            let sink = Arc::new(MemorySink::new());
            let app = kv_store(sink.clone(), CheckMode::Checkers);
            for op in &preload {
                kv_apply(&app, op).expect("capture preload");
            }
            let _ = sink.take_trace(0);
            (sink, app)
        });
        let mut model = vec![0; KV_KEYS as usize];
        for op in &preload {
            if let KvOp::Set { key, serial, .. } = op {
                model[*key as usize] = *serial;
            }
        }
        let kv = Kv {
            rng,
            zipf: Zipfian::new(KV_KEYS, 0.99),
            serial: KV_KEYS,
            native,
            instr,
            capture,
            session,
            model,
            sent,
            reported: 0,
        };
        (kv, times)
    }

    fn gen(&mut self, n: usize) -> Vec<KvOp> {
        (0..n)
            .map(|_| {
                let key = self.zipf.sample(&mut self.rng);
                if self.rng.gen_bool(0.5) {
                    let serial = self.serial;
                    self.serial += 1;
                    KvOp::Set { key, serial, value: gen::value_for(serial, KV_VALUE) }
                } else {
                    KvOp::Get(key)
                }
            })
            .collect()
    }

    fn native(&mut self, op: &KvOp) -> Result<(), String> {
        kv_apply(&self.native, op)
    }

    fn instrumented(&mut self, op: &KvOp) -> Result<(), String> {
        kv_apply(&self.instr, op)
    }

    fn ship(&mut self) -> Result<bool, String> {
        let sent = self.session.send_trace().is_some();
        self.sent += u64::from(sent);
        Ok(sent)
    }

    fn barrier(&mut self) -> Result<(), String> {
        session_barrier(&self.session).map(drop)
    }

    fn settle(&mut self, ops: &[KvOp]) -> Result<Vec<Trace>, String> {
        let mut traces = Vec::new();
        for op in ops {
            if let KvOp::Set { key, serial, .. } = op {
                self.model[*key as usize] = *serial;
            }
            if let Some((sink, app)) = &self.capture {
                kv_apply(app, op)?;
                let trace = sink.take_trace(0);
                if !trace.is_empty() {
                    traces.push(trace);
                }
            }
        }
        Ok(traces)
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters {
            engine: self.session.stats(),
            pool: Some(self.session.pool_stats()),
            cache: self.session.verdict_cache_stats(),
            fifo: None,
        }
    }

    fn drain(&mut self) -> Outcome {
        drain_clean(&self.session, self.sent, &mut self.reported)
    }

    fn finish(&mut self) -> Outcome {
        let mut out = self.drain();
        for (key, &serial) in self.model.iter().enumerate() {
            let want = Some(gen::value_for(serial, KV_VALUE));
            let native = self.native.get(key as u64).ok().flatten();
            let instr = self.instr.get(key as u64).ok().flatten();
            if native != want || instr != want {
                out.failed += 1;
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// pmfs-observed: PMFS with known bugs, kernel FIFO, telemetry on
// ---------------------------------------------------------------------------

const FS_POOL: usize = 1 << 21;
const FS_INODES: u32 = 64;
const FS_MAX_FILES: usize = 24;
const FS_FILE_MAX: u64 = 1024;
const FS_WRITE: usize = 128;
const FS_PRELOAD_FILES: usize = 12;
/// Client operations after the preload's creates, so the first window
/// starts from a churned file set.
const FS_PRELOAD_OPS: usize = 2000;
/// Traces popped per `submit_batch` when the FIFO is pumped.
const FS_PUMP_BATCH: usize = 32;

/// One file-system client operation. Files are addressed by slot; the
/// generator tracks names and sizes so both twins get identical calls.
pub enum FsOp {
    Create { slot: usize, name: String },
    Write { slot: usize, offset: u64, data: Vec<u8> },
    Read { slot: usize, len: usize },
    Rename { from: String, to: String },
    Truncate { slot: usize, size: u64 },
    Unlink { slot: usize, name: String },
}

/// Filebench fileserver-style generator: create/append/read/rename/
/// truncate/delete over a churning set of at most `FS_MAX_FILES` files.
struct FsGen {
    rng: SmallRng,
    /// `(slot, name, size)` of each live file.
    live: Vec<(usize, String, u64)>,
    free: Vec<usize>,
    next_name: u64,
}

impl FsGen {
    fn new(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            live: Vec::new(),
            free: (0..FS_MAX_FILES).rev().collect(),
            next_name: 0,
        }
    }

    fn name(&mut self, prefix: char) -> String {
        self.next_name += 1;
        format!("{prefix}{}", self.next_name)
    }

    fn create(&mut self) -> FsOp {
        let slot = self.free.pop().expect("a free slot below FS_MAX_FILES");
        let name = self.name('f');
        self.live.push((slot, name.clone(), 0));
        FsOp::Create { slot, name }
    }

    fn write(&mut self, i: usize) -> FsOp {
        let (slot, _, size) = self.live[i];
        let offset = size.min(FS_FILE_MAX - FS_WRITE as u64);
        self.live[i].2 = (offset + FS_WRITE as u64).min(FS_FILE_MAX);
        let fill = self.rng.gen_range(0..=255u8);
        FsOp::Write { slot, offset, data: vec![fill; FS_WRITE] }
    }

    fn next(&mut self) -> FsOp {
        let action = self.rng.gen_range(0..100);
        if self.live.is_empty() || (action < 30 && self.live.len() < FS_MAX_FILES) {
            return self.create();
        }
        let i = self.rng.gen_range(0..self.live.len());
        match action {
            0..=64 => self.write(i),
            65..=84 => FsOp::Read { slot: self.live[i].0, len: self.live[i].2 as usize },
            85..=87 => {
                let to = self.name('r');
                let from = std::mem::replace(&mut self.live[i].1, to.clone());
                FsOp::Rename { from, to }
            }
            88..=89 => {
                let size = self.live[i].2 / 2;
                self.live[i].2 = size;
                FsOp::Truncate { slot: self.live[i].0, size }
            }
            _ => {
                let (slot, name, _) = self.live.swap_remove(i);
                self.free.push(slot);
                FsOp::Unlink { slot, name }
            }
        }
    }
}

/// One mounted PMFS and the inode behind each generator slot.
struct FsTwin {
    fs: Pmfs,
    inos: Vec<Option<InodeId>>,
}

impl FsTwin {
    fn new(pm: PmPool, checkers: bool) -> Self {
        let opts = PmfsOptions {
            inodes: FS_INODES,
            legacy_double_flush: true,   // paper Bug 1 (journal.c:632)
            legacy_flush_unmapped: true, // paper known bug (files.c:232)
            skip_commit_fence: true,     // Table 5 ordering bug
            checkers,
            ..PmfsOptions::default()
        };
        let fs = Pmfs::format(Arc::new(pm), opts).expect("format pmfs");
        Self { fs, inos: vec![None; FS_MAX_FILES] }
    }

    fn ino(&self, slot: usize) -> Result<InodeId, String> {
        self.inos[slot].ok_or_else(|| format!("slot {slot} has no file"))
    }

    fn apply(&mut self, op: &FsOp) -> Result<(), String> {
        let e = |e: pmtest_pmfs::FsError| e.to_string();
        match op {
            FsOp::Create { slot, name } => {
                self.inos[*slot] = Some(self.fs.create(name).map_err(e)?)
            }
            FsOp::Write { slot, offset, data } => {
                self.fs.write(self.ino(*slot)?, *offset, data).map_err(e)?;
            }
            FsOp::Read { slot, len } => {
                let data = self.fs.read(self.ino(*slot)?, 0, *len).map_err(e)?;
                std::hint::black_box(data);
            }
            FsOp::Rename { from, to } => self.fs.rename(from, to).map_err(e)?,
            FsOp::Truncate { slot, size } => {
                self.fs.truncate(self.ino(*slot)?, *size).map_err(e)?
            }
            FsOp::Unlink { slot, name } => {
                self.fs.unlink(name).map_err(e)?;
                self.inos[*slot] = None;
            }
        }
        Ok(())
    }
}

/// The benchmark's stand-in for the kernel module's trace buffer: records
/// entries into the open trace and ships it into the FIFO at each journal
/// commit (`TxCheckerEnd`), keeping a copy for verification.
struct KernelSink {
    fifo: Arc<KernelFifo>,
    open: Mutex<Trace>,
    next_id: AtomicU64,
    kept: Mutex<Vec<Trace>>,
    /// When set, each FIFO push is timed into `pushes`.
    timed: AtomicBool,
    pushes: Mutex<Vec<(Instant, Instant)>>,
}

impl KernelSink {
    fn new(fifo: Arc<KernelFifo>) -> Self {
        Self {
            fifo,
            open: Mutex::new(Trace::new(0)),
            next_id: AtomicU64::new(1),
            kept: Mutex::new(Vec::new()),
            timed: AtomicBool::new(false),
            pushes: Mutex::new(Vec::new()),
        }
    }

    fn ship(&self, trace: Trace) {
        self.kept.lock().expect("kept lock").push(trace.clone());
        if self.timed.load(Ordering::Relaxed) {
            let start = Instant::now();
            self.fifo.push(trace);
            self.pushes.lock().expect("pushes lock").push((start, Instant::now()));
        } else {
            self.fifo.push(trace);
        }
    }

    fn seal(&self) -> Option<Trace> {
        let mut open = self.open.lock().expect("open trace lock");
        if open.is_empty() {
            return None;
        }
        let next = Trace::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        Some(std::mem::replace(&mut *open, next))
    }

    /// Traces sealed so far (ids `0..traces`).
    fn traces(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed) - 1
    }
}

impl Sink for KernelSink {
    fn record(&self, entry: Entry) {
        let commit = matches!(entry.event, Event::TxCheckerEnd);
        self.open.lock().expect("open trace lock").push(entry);
        if commit {
            if let Some(trace) = self.seal() {
                self.ship(trace);
            }
        }
    }
}

/// Order-sensitive digest of one trace's verdict.
fn verdict_digest(diags: &[Diag]) -> (u32, u64) {
    let mut h = DefaultHasher::new();
    for d in diags {
        d.kind.code().hash(&mut h);
        (d.loc.file(), d.loc.line()).hash(&mut h);
        d.range.map(|r| (r.start(), r.end())).hash(&mut h);
        d.culprit.map(|c| (c.file(), c.line())).hash(&mut h);
        d.message.hash(&mut h);
    }
    (diags.len() as u32, h.finish())
}

pub struct PmfsWl {
    gen: FsGen,
    native: FsTwin,
    instr: FsTwin,
    engine: Engine,
    fifo: Arc<KernelFifo>,
    sink: Arc<KernelSink>,
    /// Verdict digest per trace id, from single-threaded
    /// `check_trace` over the kept copies.
    expected: Vec<(u32, u64)>,
    /// Traces reported across drains.
    reported: u64,
    submit_errors: u64,
}

impl PmfsWl {
    /// Pops the FIFO into the engine until it is empty. The load thread is
    /// the FIFO's only consumer, so a non-empty FIFO never blocks the pop.
    fn pump(&mut self) {
        while !self.fifo.is_empty() {
            let batch = self.fifo.pop_batch(FS_PUMP_BATCH);
            let n = batch.len() as u64;
            if self.engine.submit_batch(batch).is_err() {
                self.submit_errors += n;
            }
        }
    }

    fn drain_fifo(&mut self) -> Result<(), String> {
        self.pump();
        self.engine.wait_idle();
        let s = self.engine.stats();
        if s.traces_checked != s.traces_submitted {
            return Err(format!("{} of {} traces checked", s.traces_checked, s.traces_submitted));
        }
        Ok(())
    }

    fn take_kept(&mut self) -> Vec<Trace> {
        let kept = std::mem::take(&mut *self.sink.kept.lock().expect("kept lock"));
        for t in &kept {
            assert_eq!(t.id(), self.expected.len() as u64, "kept traces arrive in id order");
            self.expected.push(verdict_digest(&check_trace(t, &X86Model::new())));
        }
        kept
    }
}

impl Workload for PmfsWl {
    type Op = FsOp;

    fn setup(seed: u64, _capture: bool) -> (Self, SetupTimes) {
        let mut gen = FsGen::new(seed);
        let mut preload: Vec<FsOp> = (0..FS_PRELOAD_FILES).map(|_| gen.create()).collect();
        preload.extend((0..FS_PRELOAD_OPS).map(|_| gen.next()));
        let mut native = FsTwin::new(PmPool::untracked(FS_POOL), false);
        for op in &preload {
            native.apply(op).expect("native preload");
        }

        let t0 = Instant::now();
        let telemetry = TelemetryConfig {
            timing: true,
            profiling: true,
            recorder: true,
            ..TelemetryConfig::off()
        };
        let engine = Engine::new(EngineConfig { telemetry, ..EngineConfig::default() });
        let fifo = Arc::new(KernelFifo::new());
        let sink = Arc::new(KernelSink::new(fifo.clone()));
        let t1 = Instant::now();
        let instr = FsTwin::new(PmPool::new(FS_POOL, sink.clone()), true);
        let t2 = Instant::now();
        let mut wl = PmfsWl {
            gen,
            native,
            instr,
            engine,
            fifo,
            sink,
            expected: Vec::new(),
            reported: 0,
            submit_errors: 0,
        };
        for op in &preload {
            wl.instr.apply(op).expect("instrumented preload");
            wl.ship().expect("preload ship");
        }
        wl.drain_fifo().expect("preload barrier");
        let t3 = Instant::now();
        let _ = wl.take_kept();
        (wl, SetupTimes { session: t1 - t0, substrate: t2 - t1, preload: t3 - t2 })
    }

    fn gen(&mut self, n: usize) -> Vec<FsOp> {
        (0..n).map(|_| self.gen.next()).collect()
    }

    fn native(&mut self, op: &FsOp) -> Result<(), String> {
        self.native.apply(op)
    }

    fn instrumented(&mut self, op: &FsOp) -> Result<(), String> {
        self.instr.apply(op)
    }

    fn ship(&mut self) -> Result<bool, String> {
        // Pumping at half capacity (§4.5) also means the FIFO never blocks
        // its only producer: one operation commits far fewer than 512
        // transactions.
        if self.fifo.len() < self.fifo.capacity() / 2 {
            return Ok(false);
        }
        self.pump();
        Ok(true)
    }

    fn barrier(&mut self) -> Result<(), String> {
        self.drain_fifo()
    }

    fn time_inner_ships(&mut self, on: bool) {
        self.sink.timed.store(on, Ordering::Relaxed);
    }

    fn take_inner_ships(&mut self) -> Vec<(Instant, Instant)> {
        std::mem::take(&mut *self.sink.pushes.lock().expect("pushes lock"))
    }

    fn settle(&mut self, _ops: &[FsOp]) -> Result<Vec<Trace>, String> {
        Ok(self.take_kept())
    }

    fn counters(&self) -> LayerCounters {
        LayerCounters {
            engine: self.engine.stats(),
            pool: None,
            cache: None,
            fifo: Some(self.fifo.stats()),
        }
    }

    fn drain(&mut self) -> Outcome {
        let _ = self.take_kept();
        let start = Instant::now();
        let report: Report = self.engine.take_report();
        let take = start.elapsed();
        let traces = report.traces().len() as u64;
        self.reported += traces;
        let mut failed = std::mem::take(&mut self.submit_errors);
        for t in report.traces() {
            let want = usize::try_from(t.trace_id).ok().and_then(|i| self.expected.get(i));
            failed += u64::from(want != Some(&verdict_digest(&t.diags)));
        }
        // Every kept trace but the open one is checked by now.
        failed += self.expected.len().abs_diff(self.reported as usize) as u64;
        if failed > 0 {
            eprintln!(
                "verify: pmfs {failed} verdict failures ({} traces sealed, {} reported)",
                self.sink.traces(),
                self.reported
            );
        }
        Outcome {
            take,
            traces,
            diags: (report.fail_count() + report.warn_count()) as u64,
            bundles: self.engine.take_bundles().len() as u64,
            failed,
        }
    }

    fn finish(&mut self) -> Outcome {
        // Ship the trailing partial trace, if the last operation left one.
        if let Some(trace) = self.sink.seal() {
            self.sink.ship(trace);
        }
        let drained = self.drain_fifo();
        let mut out = self.drain();
        out.failed += u64::from(drained.is_err());
        // Both twins must hold the same files with the same contents.
        let listing = |t: &FsTwin| t.fs.readdir().map_err(|e| e.to_string());
        let (a, b) = (listing(&self.native), listing(&self.instr));
        let mut failed = u64::from(a != b || a.is_err());
        for (slot, ino) in self.native.inos.iter().enumerate() {
            let (Some(na), Some(ib)) = (ino, self.instr.inos[slot]) else {
                failed += u64::from(ino.is_some() != self.instr.inos[slot].is_some());
                continue;
            };
            let read = |t: &FsTwin, i| t.fs.read(i, 0, FS_FILE_MAX as usize).ok();
            let (x, y) = (read(&self.native, *na), read(&self.instr, ib));
            failed += u64::from(x.is_none() || x != y);
        }
        for twin in [&self.native, &self.instr] {
            if let Err(e) = twin.fs.check_consistency() {
                eprintln!("verify: pmfs inconsistent: {e}");
                failed += 1;
            }
        }
        if failed > 0 {
            eprintln!("verify: pmfs twins diverge ({failed} checks failed)");
        }
        out.failed += failed;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_interval::ByteRange;

    #[test]
    fn barrier_leaves_every_submitted_trace_checked() {
        let session = PmTestSession::builder().batch_capacity(8).build();
        session.start();
        let r = ByteRange::with_len(0, 8);
        for _ in 0..100 {
            session.record(Event::Write(r).here());
            session.is_persist(r);
            session.send_trace();
        }
        // 100 traces in batches of 8: four still sit in the thread's batch
        // until the barrier flushes them.
        let stats = session_barrier(&session).expect("barrier");
        assert_eq!(stats.traces_submitted, 100);
        assert_eq!(stats.traces_checked, stats.traces_submitted);
        assert_eq!(session.take_report().traces().len(), 100);
    }

    #[test]
    fn twins_agree_and_pmfs_verdicts_match_the_reference() {
        let (mut wl, _) = PmfsWl::setup(7, false);
        let ops = wl.gen(300);
        for op in &ops {
            wl.native(op).expect("native op");
            wl.instrumented(op).expect("instrumented op");
            wl.ship().expect("ship");
        }
        wl.barrier().expect("barrier");
        assert!(!wl.settle(&ops).expect("settle").is_empty());
        let out = wl.finish();
        assert_eq!(out.failed, 0, "{out:?}");
        assert!(out.diags > out.traces, "the planted bugs fire on most traces");
    }

    #[test]
    fn clean_workloads_verify() {
        fn run<W: Workload>(seed: u64) -> Outcome {
            let (mut wl, _) = W::setup(seed, true);
            let ops = wl.gen(200);
            for op in &ops {
                wl.native(op).expect("native op");
                wl.instrumented(op).expect("instrumented op");
                wl.ship().expect("ship");
            }
            wl.barrier().expect("barrier");
            assert!(!wl.settle(&ops).expect("settle").is_empty(), "capture twin traced");
            wl.finish()
        }
        for out in [run::<Whisper>(3), run::<Kv>(3)] {
            assert_eq!((out.failed, out.diags), (0, 0), "{out:?}");
            assert!(out.traces > 0);
        }
    }
}
