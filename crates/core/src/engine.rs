use std::cell::RefCell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Instant;

use parking_lot::{Condvar, Mutex, MutexGuard};
use pmtest_obs::{EventLog, ScrapeServer, SpanHandle, TelemetrySnapshot};
use pmtest_trace::{
    ArenaPool, Entry, FlightRecorder, LocResolver, PackedEntry, RecorderRing, Trace, TraceArena,
    TraceStats,
};

use crate::bundle::{note_intervals, BundleReason, DiagnosisBundle};
use crate::cache::{
    CachedVerdict, VerdictCache, VerdictCacheConfig, VerdictCacheStats, WorkerCache,
};
use crate::checker::{
    check_packed_observed, check_packed_with, packed_clean, CheckerScratch, ReplayObserver,
    TraceChecker,
};
use crate::diag::{Diag, DiagKind, Report, Severity, TraceReport};
use crate::ingest::{IngestPlane, ProducerRing, WorkerGuard};
use crate::model::{BuiltinModel, PersistencyModel, X86Model};
use crate::telemetry::{EngineTelemetry, ProfileFold, Stage, TelemetryConfig, TimingFold};

/// Configuration of the checking engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The persistency model whose checking rules to apply.
    pub model: Arc<dyn PersistencyModel>,
    /// Number of worker threads (the paper uses one unless stated, §6.1;
    /// Fig. 12b scales this up).
    pub workers: usize,
    /// Per-producer ring depth, in *batches* (rounded up to a power of two
    /// internally). Bounding the rings keeps memory finite and reproduces
    /// the paper's behaviour that a saturated checking pipeline
    /// backpressures the program (Fig. 12a).
    pub queue_capacity: usize,
    /// What the engine records beyond its always-on counters (latency
    /// histograms, the structured event ring). Defaults to everything off.
    pub telemetry: TelemetryConfig,
    /// The content-addressed verdict cache (see [`crate::cache`]). Off by
    /// default: the default configuration keeps measuring — and the golden
    /// suites keep pinning — the uncached path.
    pub verdict_cache: VerdictCacheConfig,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            model: Arc::new(X86Model::new()),
            workers: 1,
            queue_capacity: 256,
            telemetry: TelemetryConfig::off(),
            verdict_cache: VerdictCacheConfig::default(),
        }
    }
}

/// What actually travels on a producer ring: one sealed [`TraceArena`] —
/// every submission path ships its traces in one — plus its dispatch
/// accounting. The accounting settles on drop, so the `outstanding` counter
/// stays consistent no matter how the batch dies — checked normally,
/// abandoned mid-batch by a panicking checker, or discarded from a dead
/// plane's rings after the last worker exits.
struct BatchMsg {
    arena: TraceArena,
    accounting: BatchAccounting,
    /// Send time, for the dispatch-latency histogram. `None` unless the
    /// telemetry timing layer is on — reading the clock per submit would
    /// otherwise dominate short traces.
    submitted: Option<Instant>,
}

/// Drop-guard for one dispatched batch. Dropping it marks the batch's traces
/// as no longer outstanding, waking idle waiters if it was the last work in
/// flight.
struct BatchAccounting {
    shared: Arc<Shared>,
    n: u64,
}

impl Drop for BatchAccounting {
    fn drop(&mut self) {
        self.shared.retire(self.n);
    }
}

/// Error returned by [`Engine::submit`] / [`Engine::submit_batch`] /
/// [`Engine::submit_arena`] when the worker pool is no longer accepting
/// traces — its threads have terminated, either because the engine was shut
/// down or because a worker panicked.
///
/// The submitted traces are dropped; results already collected remain
/// available through [`Engine::report`] / [`Engine::take_report`]. Those
/// calls stay safe after a worker death: every dispatched batch settles its
/// idle-tracking accounting even if a panicking checker abandons it or the
/// dying worker pool discards it from a ring, so the report barrier cannot
/// hang on traces that will never be checked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubmitError;

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("checking engine is no longer accepting traces (workers terminated)")
    }
}

impl std::error::Error for SubmitError {}

/// Per-producer ring depth (in batches) that [`SessionBuilder`] derives when
/// none is configured explicitly: sized so the pipeline buffers roughly the
/// same number of *traces* regardless of batch size.
///
/// The engine's historical default of 256 was tuned for unbatched
/// submission. A batched session multiplies it: 256 batches of 32 traces is
/// an 8192-trace pipeline whose memory high-water dwarfs the checking
/// backlog it buys, while a *fixed* small depth starves the unbatched path.
/// Deriving `256 / batch_capacity` (capped at the historical 256) keeps the
/// buffered trace count — and therefore backpressure onset — roughly
/// consistent across batch sizes. The floor is 32 batches: below that, a
/// producer on a busy host fills its ring faster than a worker gets
/// scheduled to drain it, and every fill is a millisecond-scale
/// backpressure stall — a few hundred KiB of extra arena capacity buys back
/// the whole stall budget. See DESIGN.md §12–13.
///
/// [`SessionBuilder`]: crate::SessionBuilder
#[must_use]
pub fn derived_queue_capacity(batch_capacity: usize) -> usize {
    (256 / batch_capacity.max(1)).clamp(32, 256)
}

/// Pool of recycled [`CheckerScratch`] instances shared by the checker
/// seats.
///
/// A seat takes one scratch per claimed batch and returns it afterwards,
/// so the pool never holds more instances than there are seats — but the
/// shadow memory, transaction log tree, and interner *allocations* inside
/// each instance survive indefinitely. Together with the [`ArenaPool`] this
/// removes the last per-trace allocation from the steady-state checking
/// path.
struct ShadowPool {
    // Boxed so acquire/release move one pointer under the lock, not the
    // whole scratch struct.
    #[allow(clippy::vec_box)]
    free: Mutex<Vec<Box<CheckerScratch>>>,
    /// Acquisitions served by recycling a pooled instance.
    recycled: AtomicU64,
    /// Acquisitions that had to allocate a fresh instance.
    fresh: AtomicU64,
    /// Instances retained when released; beyond this they are dropped.
    cap: usize,
}

impl ShadowPool {
    fn new(cap: usize) -> Self {
        Self {
            free: Mutex::new(Vec::with_capacity(cap)),
            recycled: AtomicU64::new(0),
            fresh: AtomicU64::new(0),
            cap,
        }
    }

    fn acquire(&self) -> Box<CheckerScratch> {
        if let Some(scratch) = self.free.lock().pop() {
            self.recycled.fetch_add(1, Ordering::Relaxed);
            scratch
        } else {
            self.fresh.fetch_add(1, Ordering::Relaxed);
            Box::default()
        }
    }

    fn release(&self, scratch: Box<CheckerScratch>) {
        let mut free = self.free.lock();
        if free.len() < self.cap {
            free.push(scratch);
        }
    }

    /// (recycled, fresh) acquisition counts.
    fn counts(&self) -> (u64, u64) {
        (self.recycled.load(Ordering::Relaxed), self.fresh.load(Ordering::Relaxed))
    }
}

/// The decoupled checking engine: trace batches flow through a sharded
/// ingest plane to a pool of worker threads (Fig. 8).
///
/// The program under test keeps executing while workers validate completed
/// traces — this pipelining is the second half of the paper's performance
/// story (§3.2, "Runtime Testing"). [`Engine::wait_idle`] is the
/// `PMTest_GET_RESULT` barrier: it blocks until every submitted trace has
/// been checked, and the waiting thread checks queued batches itself on
/// the engine's extra checker seat before it sleeps.
///
/// Four mechanisms keep the submission path cheap (Fig. 12's scalability
/// depends on all of them):
///
/// * **Per-producer SPSC rings** — each submitting thread registers its own
///   bounded ring on first submit; a push is one uncontended slot write plus
///   a tail store, with no cross-producer channel lock. Workers drain their
///   affinity rings first and *steal* from the rest when idle, so the active
///   worker set tracks the offered load. See `crate::ingest` and DESIGN.md
///   §13.
/// * **Arena batches** — every submission travels as one [`TraceArena`] of
///   compact packed records: a batched session records straight into one
///   and [`submit_arena`](Self::submit_arena) moves it as one pointer
///   handoff, while [`submit`](Self::submit) and
///   [`submit_batch`](Self::submit_batch) copy standalone traces into a
///   pooled one. Workers check the packed records in place without decoding
///   them into `Entry` vectors.
/// * **Sharded results** — each checker seat appends finished
///   [`TraceReport`]s to its own shard; shards merge only when a report is
///   requested, so checkers never contend on a global results lock.
/// * **Storage recycling** — workers return arenas and checker scratch
///   state to pools that sessions and later batches draw from, keeping the
///   steady-state path off the allocator.
///
/// # Examples
///
/// ```
/// use pmtest_core::{Engine, EngineConfig};
/// use pmtest_trace::{Event, Trace};
/// use pmtest_interval::ByteRange;
///
/// let engine = Engine::new(EngineConfig::default());
/// let mut trace = Trace::new(0);
/// let r = ByteRange::with_len(0, 8);
/// trace.push(Event::Write(r).here());
/// trace.push(Event::IsPersist(r).here()); // will FAIL
/// engine.submit(trace).unwrap();
/// let report = engine.take_report();
/// assert_eq!(report.fail_count(), 1);
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    queue_capacity: usize,
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Live HTTP scrape endpoint, present when
    /// [`TelemetryConfig::scrape_addr`] is set. Holds only a [`Weak`] back
    /// to [`Shared`], so it never keeps a dropped engine's state alive; its
    /// drop (after the workers join) stops the serving thread.
    scrape: Option<ScrapeServer>,
}

struct Shared {
    /// The persistency model whose checking rules every seat applies.
    model: Arc<dyn PersistencyModel>,
    /// The model's fused hot path, if it is a built-in one.
    fast: Option<BuiltinModel>,
    /// Configured worker threads. Seats `0..workers` are theirs; seat
    /// `workers` is the waiter's.
    workers: usize,
    /// Traces submitted but not yet checked. Producers only touch this
    /// atomic (plus their own ring), keeping `submit` off the result shards.
    outstanding: AtomicU64,
    /// The sharded ingest plane: per-producer rings plus the worker
    /// wake/steal protocol.
    plane: Arc<IngestPlane<BatchMsg>>,
    /// Per-seat result shards; seat `i` writes only `shards[i]`.
    shards: Vec<Mutex<Vec<TraceReport>>>,
    /// The waiter's seat, taken with `try_lock` by a thread blocked in
    /// [`Engine::wait_idle`] so it checks queued batches instead of
    /// sleeping. `None` once a checker panic on it retired the seat.
    waiter: Mutex<Option<Seat>>,
    /// Batches checked on the waiter's seat.
    waiter_batches: AtomicU64,
    /// Results merged out of the shards so far, kept sorted by trace id.
    /// Drained by [`Engine::take_report`], appended to by every report
    /// request — so [`Engine::report`] clones an already-built [`Report`]
    /// and [`Engine::with_report`] borrows it without copying at all.
    collected: Mutex<Report>,
    /// Batch arenas recycled between workers (release) and submitters
    /// (acquire).
    arena_pool: Arc<ArenaPool>,
    /// Checker scratch state (shadow memory, tx scope, interner) recycled
    /// across batches, one instance held per busy seat.
    shadow_pool: ShadowPool,
    /// Shared L2 of the content-addressed verdict cache; `None` unless
    /// [`VerdictCacheConfig::enabled`]. Seats keep their L1s privately.
    verdict_cache: Option<VerdictCache>,
    idle_lock: Mutex<()>,
    idle: Condvar,
    traces_checked: AtomicU64,
    entries_processed: AtomicU64,
    diagnostics: AtomicU64,
    batches_submitted: AtomicU64,
    traces_submitted: AtomicU64,
    /// Typed metric handles (histograms, per-kind diagnostic counters, the
    /// event ring). Always present; whether clocks are read depends on
    /// [`TelemetryConfig::timing`].
    telemetry: EngineTelemetry,
    /// Per-seat flight recorders. Empty unless
    /// [`TelemetryConfig::recorder`] is on, so the off path never touches
    /// them (`recorders.get(idx)` is `None`).
    recorders: Vec<FlightRecorder>,
    /// Diagnosis bundles captured on ERROR, drained by
    /// [`Engine::take_bundles`], kept sorted by trace id. Bounded at
    /// [`MAX_BUNDLES`]: a full queue keeps the lowest trace ids, and every
    /// capture it turns away or evicts increments `bundles_dropped`.
    bundles: Mutex<Vec<DiagnosisBundle>>,
    /// ERROR bundles discarded because the bundle queue was full.
    bundles_dropped: AtomicU64,
    /// Crash points visited by exploration sweeps recorded on this engine
    /// ([`Engine::record_exploration`]).
    explore_points: AtomicU64,
    /// Crash images run through a recovery procedure.
    explore_images: AtomicU64,
    /// Crash points served off shared (incrementally advanced) prefix state.
    explore_share_hits: AtomicU64,
    /// Crash points that paid a from-scratch rescan.
    explore_share_misses: AtomicU64,
}

/// Most ERROR bundles retained between [`Engine::take_bundles`] drains. One
/// failing checker in a loop would otherwise buffer a window of every
/// iteration; the earliest failures (lowest trace ids) are the interesting
/// ones, and keeping them by id rather than by arrival makes the retained
/// set independent of which seat checked what first.
const MAX_BUNDLES: usize = 16;

/// One producer thread's registration with one engine's ingest plane. Lives
/// in thread-local storage; the drop (thread exit) retires the ring so idle
/// workers can prune it once drained.
struct RingSlot {
    plane_id: u64,
    ring: Arc<ProducerRing<BatchMsg>>,
    /// Weak so a thread's registry never keeps a dropped engine alive.
    plane: Weak<IngestPlane<BatchMsg>>,
}

impl Drop for RingSlot {
    fn drop(&mut self) {
        self.ring.retire();
        if let Some(plane) = self.plane.upgrade() {
            // Wake parked workers so a retired-but-nonempty ring drains and
            // the registry entry gets pruned.
            plane.nudge_workers();
        }
    }
}

thread_local! {
    /// This thread's producer rings, one per live engine it has submitted
    /// to. Linear-scanned: a thread talks to one engine in practice.
    static RINGS: RefCell<Vec<RingSlot>> = const { RefCell::new(Vec::new()) };
}

impl Shared {
    /// Marks `n` traces as no longer outstanding, waking idle waiters when
    /// the count reaches zero. Runs from [`BatchAccounting`]'s drop — after
    /// a worker finishes a batch, or when an unchecked batch is discarded.
    fn retire(&self, n: u64) {
        if self.outstanding.fetch_sub(n, Ordering::AcqRel) == n {
            // Last outstanding trace: wake any waiter. The brief lock pairs
            // with the wait in `wait_idle`.
            drop(self.idle_lock.lock());
            self.idle.notify_all();
        }
    }

    /// Lifetime counters; see [`Engine::stats`].
    fn stats(&self) -> EngineStats {
        let plane = &self.plane;
        EngineStats {
            traces_checked: self.traces_checked.load(Ordering::Relaxed),
            entries_processed: self.entries_processed.load(Ordering::Relaxed),
            diagnostics: self.diagnostics.load(Ordering::Relaxed),
            batches_submitted: self.batches_submitted.load(Ordering::Relaxed),
            traces_submitted: self.traces_submitted.load(Ordering::Relaxed),
            queue_highwater: plane.occupancy_highwater(),
            backpressure_stalls: plane.backpressure_stalls(),
            steals: plane.steals(),
            rings_registered: plane.rings_registered(),
            affinity_hits: plane.affinity_hits(),
            parks: plane.parks(),
            wakes: plane.wakes(),
            recruit_cas_fails: plane.recruit_cas_fails(),
        }
    }

    /// Snapshot assembly; see [`Engine::telemetry_snapshot`]. Lives on
    /// `Shared` so the scrape endpoint can serve live snapshots through a
    /// [`Weak`] without holding the engine itself.
    fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.telemetry.snapshot();
        let stats = self.stats();
        let plane = &self.plane;
        snap.push_counter("engine_traces_checked", &[], stats.traces_checked);
        snap.push_counter("engine_entries_processed", &[], stats.entries_processed);
        snap.push_counter("engine_diagnostics", &[], stats.diagnostics);
        snap.push_counter("engine_batches_submitted", &[], stats.batches_submitted);
        snap.push_counter("engine_traces_submitted", &[], stats.traces_submitted);
        snap.push_counter("engine_queue_highwater", &[], stats.queue_highwater);
        snap.push_counter("engine_backpressure_stalls", &[], stats.backpressure_stalls);
        snap.push_counter("engine_ring_steals", &[], stats.steals);
        snap.push_counter("engine_ring_affinity_hits", &[], stats.affinity_hits);
        snap.push_counter("engine_rings_registered", &[], stats.rings_registered);
        snap.push_counter("engine_parker_parks", &[], stats.parks);
        snap.push_counter("engine_parker_wakes", &[], stats.wakes);
        snap.push_counter("engine_parker_recruit_cas_fails", &[], stats.recruit_cas_fails);
        snap.push_counter(
            "engine_bundles_dropped",
            &[],
            self.bundles_dropped.load(Ordering::Relaxed),
        );
        snap.push_counter(
            "engine_waiter_batches",
            &[],
            self.waiter_batches.load(Ordering::Relaxed),
        );
        snap.push_counter("engine_checker_panics", &[], plane.checker_panics());
        snap.push_gauge("engine_workers", &[], self.workers as f64);
        snap.push_gauge("engine_ring_occupancy", &[], plane.current_occupancy() as f64);
        snap.push_gauge("engine_rings_live", &[], plane.rings_live() as f64);
        for (i, ring) in plane.ring_stats().iter().enumerate() {
            let idx = i.to_string();
            let labels: &[(&str, &str)] = &[("ring", &idx)];
            snap.push_gauge("engine_ring_occupancy_traces", labels, ring.occupancy as f64);
            snap.push_gauge("engine_ring_highwater", labels, ring.highwater as f64);
            snap.push_counter("engine_ring_pushed", labels, ring.pushed);
        }
        let arena = self.arena_pool.stats();
        snap.push_counter("arena_pool_recycled", &[], arena.recycled);
        snap.push_counter("arena_pool_fresh", &[], arena.fresh);
        snap.push_counter("arena_pool_released", &[], arena.released);
        snap.push_counter("arena_pool_dropped", &[], arena.dropped);
        snap.push_gauge("arena_pool_hit_rate", &[], arena.hit_rate());
        let (recycled, fresh) = self.shadow_pool.counts();
        snap.push_counter("shadow_pool_recycled", &[], recycled);
        snap.push_counter("shadow_pool_fresh", &[], fresh);
        let acquisitions = recycled + fresh;
        snap.push_gauge(
            "shadow_pool_hit_rate",
            &[],
            if acquisitions == 0 { 0.0 } else { recycled as f64 / acquisitions as f64 },
        );
        if let Some(cache) = &self.verdict_cache {
            let stats = cache.stats();
            snap.push_counter("verdict_cache_l1_hits", &[], stats.l1_hits);
            snap.push_counter("verdict_cache_l2_hits", &[], stats.l2_hits);
            snap.push_counter("verdict_cache_misses", &[], stats.misses);
            snap.push_counter("verdict_cache_bypasses", &[], stats.bypasses);
            snap.push_counter("verdict_cache_inserts", &[], stats.inserts);
            snap.push_counter("verdict_cache_evictions", &[], stats.evictions);
            snap.push_gauge("verdict_cache_bytes_resident", &[], stats.bytes_resident as f64);
            snap.push_gauge("verdict_cache_entries", &[], stats.entries as f64);
            snap.push_gauge("verdict_cache_hit_rate", &[], stats.hit_rate());
        }
        let hits = self.explore_share_hits.load(Ordering::Relaxed);
        let misses = self.explore_share_misses.load(Ordering::Relaxed);
        snap.push_counter(
            "crash_points_enumerated",
            &[],
            self.explore_points.load(Ordering::Relaxed),
        );
        snap.push_counter("images_checked", &[], self.explore_images.load(Ordering::Relaxed));
        snap.push_counter("prefix_share_hits", &[], hits);
        snap.push_counter("prefix_share_misses", &[], misses);
        snap.push_gauge(
            "prefix_share_hit_rate",
            &[],
            if hits + misses == 0 { 0.0 } else { hits as f64 / (hits + misses) as f64 },
        );
        snap
    }
}

/// Lifetime counters of an [`Engine`] (useful for the benchmark harnesses
/// and for sizing trace batches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Traces fully checked.
    pub traces_checked: u64,
    /// Trace entries processed across all traces.
    pub entries_processed: u64,
    /// Diagnostics (FAIL + WARN) produced.
    pub diagnostics: u64,
    /// Batches accepted by the submit methods (a bare `submit` counts as a
    /// batch of one).
    pub batches_submitted: u64,
    /// Traces accepted across all batches. `traces_submitted /
    /// batches_submitted` is the mean batch size.
    pub traces_submitted: u64,
    /// Highest number of traces ever queued on a single producer ring — how
    /// deep the checking pipeline ran behind the program.
    pub queue_highwater: u64,
    /// Times a submission found its ring full and had to block until a
    /// worker caught up (Fig. 12a's backpressure regime).
    pub backpressure_stalls: u64,
    /// Batches claimed by a worker outside its affinity pass — the
    /// work-stealing traffic between producers and non-preferred workers.
    pub steals: u64,
    /// Producer rings ever registered with the ingest plane (one per
    /// submitting thread, plus temporaries for submissions during TLS
    /// teardown).
    pub rings_registered: u64,
    /// Batches claimed by a worker inside its affinity pass — the complement
    /// of `steals`.
    pub affinity_hits: u64,
    /// Worker parks actually entered (a worker found no work and slept).
    pub parks: u64,
    /// Parked workers recruited awake by a producer push.
    pub wakes: u64,
    /// Recruiting-CAS attempts that lost to an already-in-flight recruit —
    /// how often the single-recruit gate damped a would-be wake.
    pub recruit_cas_fails: u64,
}

impl EngineStats {
    /// Mean traces per submitted batch (0 if nothing was submitted).
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches_submitted == 0 {
            0.0
        } else {
            self.traces_submitted as f64 / self.batches_submitted as f64
        }
    }
}

impl Engine {
    /// Spawns the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` or `config.queue_capacity` is zero.
    #[must_use]
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.workers > 0, "engine needs at least one worker");
        assert!(config.queue_capacity > 0, "engine queue capacity must be positive");
        let workers = config.workers;
        // One seat per worker thread plus the waiter's.
        let seats = workers + 1;
        let mut shared = Shared {
            fast: config.model.builtin(),
            model: config.model,
            workers,
            outstanding: AtomicU64::new(0),
            plane: Arc::new(IngestPlane::new(workers, config.queue_capacity)),
            shards: (0..seats).map(|_| Mutex::new(Vec::new())).collect(),
            waiter: Mutex::new(None),
            waiter_batches: AtomicU64::new(0),
            collected: Mutex::new(Report::default()),
            arena_pool: Arc::new(ArenaPool::new()),
            shadow_pool: ShadowPool::new(seats),
            verdict_cache: config
                .verdict_cache
                .enabled
                .then(|| VerdictCache::new(&config.verdict_cache)),
            idle_lock: Mutex::new(()),
            idle: Condvar::new(),
            traces_checked: AtomicU64::new(0),
            entries_processed: AtomicU64::new(0),
            diagnostics: AtomicU64::new(0),
            batches_submitted: AtomicU64::new(0),
            traces_submitted: AtomicU64::new(0),
            telemetry: EngineTelemetry::new(seats, &config.telemetry),
            recorders: if config.telemetry.recorder {
                (0..seats)
                    .map(|_| FlightRecorder::new(config.telemetry.recorder_capacity))
                    .collect()
            } else {
                Vec::new()
            },
            bundles: Mutex::new(Vec::new()),
            bundles_dropped: AtomicU64::new(0),
            explore_points: AtomicU64::new(0),
            explore_images: AtomicU64::new(0),
            explore_share_hits: AtomicU64::new(0),
            explore_share_misses: AtomicU64::new(0),
        };
        let waiter = Seat::new(&shared, workers);
        *shared.waiter.get_mut() = Some(waiter);
        let shared = Arc::new(shared);
        let mut handles = Vec::with_capacity(workers);
        for i in 0..workers {
            let shared = shared.clone();
            let handle = std::thread::Builder::new()
                .name(format!("pmtest-worker-{i}"))
                .spawn(move || worker_loop(&shared, i))
                .expect("spawn pmtest worker");
            handles.push(handle);
        }
        // The scrape endpoint captures only a weak reference: an engine
        // being torn down answers its last scrapes with an empty snapshot
        // instead of keeping `Shared` alive.
        let scrape = config.telemetry.scrape_addr.as_deref().map(|addr| {
            let weak = Arc::downgrade(&shared);
            let source: pmtest_obs::SnapshotSource = Arc::new(move || {
                weak.upgrade().map(|s| s.telemetry_snapshot()).unwrap_or_default()
            });
            ScrapeServer::bind(addr, source)
                .unwrap_or_else(|e| panic!("bind telemetry scrape endpoint {addr}: {e}"))
        });
        Self { shared, queue_capacity: config.queue_capacity, handles: Mutex::new(handles), scrape }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shared.workers
    }

    /// Per-producer ring depth, in batches (whatever
    /// [`EngineConfig::queue_capacity`] was at construction — possibly
    /// derived from the batch size, see [`derived_queue_capacity`]; the
    /// rings themselves round up to a power of two).
    #[must_use]
    pub fn queue_capacity(&self) -> usize {
        self.queue_capacity
    }

    /// The pool of recycled batch arenas. Batched sessions and standalone
    /// submissions draw arenas from here; workers return each checked
    /// batch's arena.
    #[must_use]
    pub fn arena_pool(&self) -> &Arc<ArenaPool> {
        &self.shared.arena_pool
    }

    /// Lifetime counters (never reset, even by
    /// [`take_report`](Self::take_report)).
    #[must_use]
    pub fn stats(&self) -> EngineStats {
        self.shared.stats()
    }

    /// Counter snapshot of the verdict cache — `None` unless
    /// [`VerdictCacheConfig::enabled`] was set at construction. Hit tallies
    /// settle per checked batch, so read after [`wait_idle`](Self::wait_idle)
    /// for exact counts.
    #[must_use]
    pub fn verdict_cache_stats(&self) -> Option<VerdictCacheStats> {
        self.shared.verdict_cache.as_ref().map(VerdictCache::stats)
    }

    /// The typed metric handles shared with sessions (batch-fill histogram,
    /// flush-cause counters).
    pub(crate) fn telemetry(&self) -> &EngineTelemetry {
        &self.shared.telemetry
    }

    /// The engine's structured event log. Empty unless
    /// [`TelemetryConfig::events`] is on (or it is enabled here at runtime
    /// via [`EventLog::set_enabled`]).
    #[must_use]
    pub fn event_log(&self) -> &EventLog {
        &self.shared.telemetry.events
    }

    /// A full machine-readable snapshot of the engine's telemetry: registry
    /// metrics (per-checker latency histograms, per-kind diagnostic
    /// counters, queue-depth and worker-utilization gauges), the lifetime
    /// [`EngineStats`] counters, ingest-plane ring metrics, pool statistics,
    /// and the contents of the event ring.
    ///
    /// Export it with [`TelemetrySnapshot::to_json_lines`],
    /// [`TelemetrySnapshot::to_prometheus`], or dump it to disk via
    /// [`pmtest_obs::writer`].
    #[must_use]
    pub fn telemetry_snapshot(&self) -> TelemetrySnapshot {
        self.shared.telemetry_snapshot()
    }

    /// The address the telemetry scrape endpoint is actually serving from,
    /// when [`TelemetryConfig::scrape_addr`] was set — with port `0` in the
    /// config, this carries the OS-assigned port.
    #[must_use]
    pub fn scrape_addr(&self) -> Option<std::net::SocketAddr> {
        self.scrape.as_ref().map(ScrapeServer::local_addr)
    }

    /// Folds one exploration sweep's counters into the engine's telemetry
    /// (`crash_points_enumerated`, `images_checked`, `prefix_share_hits`,
    /// `prefix_share_misses` in [`telemetry_snapshot`](Self::telemetry_snapshot)).
    pub fn record_exploration(&self, stats: &crate::explore::ExploreStats) {
        self.shared.explore_points.fetch_add(stats.crash_points_enumerated, Ordering::Relaxed);
        self.shared.explore_images.fetch_add(stats.images_checked, Ordering::Relaxed);
        self.shared.explore_share_hits.fetch_add(stats.prefix_share_hits, Ordering::Relaxed);
        self.shared.explore_share_misses.fetch_add(stats.prefix_share_misses, Ordering::Relaxed);
    }

    /// Runs a crash-point exploration sweep ([`crate::explore::explore`])
    /// and records its counters on this engine's telemetry.
    pub fn explore(
        &self,
        sim: &pmtest_pmem::crash::CrashSim,
        proc: &dyn crate::explore::RecoveryProc,
        config: &crate::explore::ExploreConfig,
    ) -> crate::explore::ExploreReport {
        let report = crate::explore::explore(sim, proc, config);
        self.record_exploration(&report.stats);
        report
    }

    /// Exports the span buffers as Chrome trace-event JSON — load the string
    /// (saved as `*.trace.json`) in Perfetto or `chrome://tracing` to see
    /// the ship/claim/replay/merge timeline per thread. Empty (but valid)
    /// unless [`TelemetryConfig::tracing`] is on.
    #[must_use]
    pub fn chrome_trace(&self) -> String {
        pmtest_obs::trace_event::to_chrome_trace(&self.shared.telemetry.spans.snapshot())
    }

    /// One human-readable line summarizing [`telemetry_snapshot`]
    /// (Self::telemetry_snapshot): traces checked, check-latency quantiles,
    /// queue high-water, diagnostic totals.
    #[must_use]
    pub fn telemetry_summary(&self) -> String {
        crate::telemetry::summary_line(&self.telemetry_snapshot())
    }

    /// Aggregated [`TraceStats`] per seat — how checker-dense and
    /// epoch-dense each checker's share of the workload was: one entry per
    /// worker, then the waiter's (the traces checked inside
    /// [`wait_idle`](Self::wait_idle)). All zeros unless
    /// [`TelemetryConfig::timing`] is on. Seats fold their statistics in
    /// once per batch, so mid-batch reads lag by at most that batch.
    #[must_use]
    pub fn worker_trace_stats(&self) -> Vec<TraceStats> {
        self.shared.telemetry.worker_stats.iter().map(|s| *s.lock()).collect()
    }

    /// The cross-trace performance profile aggregated so far — per-site
    /// flush/fence/log counts, wasted-persist bytes, and WARN occurrences.
    /// Empty unless [`TelemetryConfig::profiling`] is on. Workers fold
    /// their traces in once per batch, so call after the traces of interest
    /// have been checked (e.g. after [`wait_idle`](Self::wait_idle) or a
    /// session flush); a mid-batch read lags by at most one batch.
    #[must_use]
    pub fn profile(&self) -> pmtest_obs::ProfileSnapshot {
        self.shared.telemetry.profile.snapshot()
    }

    /// Ranks [`profile`](Self::profile) into the advisor's source-located
    /// suggestions (see DESIGN.md §16). Serialize with
    /// [`AdvisorReport::to_json`](pmtest_obs::AdvisorReport::to_json) or
    /// render with `pmtest-explain --advise`.
    #[must_use]
    pub fn advisor_report(&self) -> pmtest_obs::AdvisorReport {
        pmtest_obs::AdvisorReport::from_profile(&self.profile())
    }

    /// Submits one trace for asynchronous checking. Its packed records are
    /// copied into a pooled arena, so the trace's own buffer is freed here.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the worker pool has terminated (the engine
    /// was shut down, or a worker panicked); the trace is dropped.
    pub fn submit(&self, trace: Trace) -> Result<(), SubmitError> {
        self.dispatch(self.pooled_arena(std::slice::from_ref(&trace)))
    }

    /// Submits a batch of traces in one ring operation, paying the dispatch
    /// cost once: their packed records are copied into one pooled arena,
    /// each sealed under its own trace id. An empty batch is a no-op.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the worker pool has terminated; the whole
    /// batch is dropped.
    pub fn submit_batch(&self, traces: Vec<Trace>) -> Result<(), SubmitError> {
        if traces.is_empty() {
            return Ok(());
        }
        self.dispatch(self.pooled_arena(&traces))
    }

    /// A recycled arena holding `traces`, one sealed span per trace.
    fn pooled_arena(&self, traces: &[Trace]) -> TraceArena {
        let mut arena = self.shared.arena_pool.acquire();
        for trace in traces {
            arena.push_trace(trace);
        }
        arena
    }

    /// Submits a sealed record arena — the batched session's zero-copy path.
    /// Only sealed traces are checked; an arena with no seals is a no-op
    /// (any open tail it carries is dropped). The arena returns to
    /// [`arena_pool`](Self::arena_pool) once its traces are checked.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError`] if the worker pool has terminated; the whole
    /// arena is dropped.
    pub fn submit_arena(&self, arena: TraceArena) -> Result<(), SubmitError> {
        if arena.sealed() == 0 {
            return Ok(());
        }
        self.dispatch(arena)
    }

    fn dispatch(&self, arena: TraceArena) -> Result<(), SubmitError> {
        let plane = &self.shared.plane;
        if plane.is_dead() {
            return Err(SubmitError);
        }
        let n = arena.sealed() as u64;
        self.shared.outstanding.fetch_add(n, Ordering::AcqRel);
        let submitted = self.shared.telemetry.timing.then(Instant::now);
        // From here the accounting settles when `msg` drops — whether a
        // worker finishes it, a panicking checker abandons it, or a dead
        // plane discards it. No explicit rollback.
        let msg = BatchMsg {
            arena,
            accounting: BatchAccounting { shared: self.shared.clone(), n },
            submitted,
        };
        let (ring, temporary) = self.producer_ring();
        let depth = match plane.push(&ring, msg, n) {
            Ok(depth) => depth,
            Err(_) => return Err(SubmitError),
        };
        if temporary {
            ring.retire();
            plane.nudge_workers();
        }
        if plane.is_dead() {
            // The last worker may have died — and run its final ring drain —
            // between our push landing and now. Discard our own ring so the
            // message cannot linger unclaimed; its accounting settles on
            // drop either way.
            plane.drain_discard(&ring);
            return Err(SubmitError);
        }
        if let Some(sent) = submitted {
            // Producer-side stage: building the message and landing it in
            // the ring, including any backpressure wait inside `push`.
            self.shared.telemetry.stage(Stage::RecordPush).record(sent.elapsed().as_nanos() as u64);
        }
        self.note_submitted(n, depth);
        Ok(())
    }

    /// This thread's producer ring for this engine, registering one on first
    /// use. The `bool` is true for a *temporary* ring: during thread-local
    /// teardown (a session slot flushing from its TLS destructor) the
    /// registry may already be gone, so the submission gets a one-shot ring
    /// that is retired immediately after the push.
    fn producer_ring(&self) -> (Arc<ProducerRing<BatchMsg>>, bool) {
        let plane = &self.shared.plane;
        let id = plane.plane_id();
        RINGS
            .try_with(|slots| {
                let mut slots = slots.borrow_mut();
                if let Some(slot) = slots.iter().find(|s| s.plane_id == id) {
                    return slot.ring.clone();
                }
                // Drop registrations whose engine is gone before adding one.
                slots.retain(|s| s.plane.strong_count() > 0);
                let ring = plane.register_ring();
                slots.push(RingSlot {
                    plane_id: id,
                    ring: ring.clone(),
                    plane: Arc::downgrade(plane),
                });
                ring
            })
            .map(|ring| (ring, false))
            .unwrap_or_else(|_| (plane.register_ring(), true))
    }

    /// Records a successfully delivered batch: submission counters plus the
    /// queue-depth gauge (the ring occupancy the batch landed at).
    fn note_submitted(&self, n: u64, depth: u64) {
        self.shared.batches_submitted.fetch_add(1, Ordering::Relaxed);
        self.shared.traces_submitted.fetch_add(n, Ordering::Relaxed);
        self.shared.telemetry.queue_depth.set(depth);
    }

    /// Blocks until every submitted trace has been checked
    /// (`PMTest_GET_RESULT`, §4.2).
    ///
    /// The calling thread does not just sleep: it first takes the engine's
    /// waiter seat and checks queued batches itself — claimed from any
    /// ring, without affinity — until nothing is left to claim, and only
    /// then blocks until the workers finish what they hold. A w1 engine
    /// therefore drains on up to two threads here. One waiting thread
    /// checks at a time; others just block. A checker panic on the waiter
    /// seat never reaches the caller: it is caught and counted
    /// (`engine_checker_panics`), the batch it was checking is lost like a
    /// dying worker's, and the seat is retired, so later waits on this
    /// engine only block.
    pub fn wait_idle(&self) {
        if self.shared.outstanding.load(Ordering::Acquire) == 0 {
            return;
        }
        self.shared.help_drain();
        let mut guard = self.shared.idle_lock.lock();
        while self.shared.outstanding.load(Ordering::Acquire) > 0 {
            self.shared.idle.wait(&mut guard);
        }
    }

    /// Merges every seat's shard into the accumulated, sorted [`Report`].
    /// Callers must already hold no shard or collected lock.
    fn drain_shards(&self) -> parking_lot::MutexGuard<'_, Report> {
        let mut collected = self.shared.collected.lock();
        for shard in &self.shared.shards {
            collected.extend_traces(std::mem::take(&mut *shard.lock()));
        }
        collected
    }

    /// Waits for all outstanding traces (helping check them, see
    /// [`wait_idle`](Self::wait_idle)), then returns a copy of every result
    /// so far (results keep accumulating). The accumulated report is kept
    /// merged and sorted between calls, so each call clones only once — for
    /// read-only access without even that clone, use
    /// [`with_report`](Self::with_report).
    #[must_use]
    pub fn report(&self) -> Report {
        self.wait_idle();
        self.drain_shards().clone()
    }

    /// Waits for all outstanding traces, then runs `f` on a borrow of the
    /// accumulated results — the zero-copy variant of
    /// [`report`](Self::report). Results keep accumulating; `f` must not
    /// call back into report methods (the results lock is held).
    pub fn with_report<R>(&self, f: impl FnOnce(&Report) -> R) -> R {
        self.wait_idle();
        f(&self.drain_shards())
    }

    /// Waits for all outstanding traces, then drains and returns the results.
    #[must_use]
    pub fn take_report(&self) -> Report {
        self.wait_idle();
        std::mem::take(&mut *self.drain_shards())
    }

    /// Drains the diagnosis bundles captured so far, sorted by trace id:
    /// one per ERROR trace while [`TelemetryConfig::recorder`] is on,
    /// bounded at 16 between drains. A full queue keeps the 16 *lowest*
    /// trace ids — the earliest counterexamples — whichever seat checked
    /// them first, so the result is deterministic. Returns an empty vec
    /// when the recorder is off.
    #[must_use]
    pub fn take_bundles(&self) -> Vec<DiagnosisBundle> {
        self.wait_idle();
        std::mem::take(&mut *self.shared.bundles.lock())
    }

    /// ERROR bundles discarded because more than 16 traces failed between
    /// [`take_bundles`](Self::take_bundles) drains: every failure beyond
    /// the 16 lowest trace ids, whether turned away or evicted by a lower
    /// id that was checked later.
    #[must_use]
    pub fn bundles_dropped(&self) -> u64 {
        self.shared.bundles_dropped.load(Ordering::Relaxed)
    }

    /// On-demand capture: waits for the pipeline to drain, then freezes
    /// every seat's current flight-recorder window into a
    /// [`BundleReason::Manual`] bundle — one per seat that has recorded
    /// anything, workers first and the waiter's last. Unlike the automatic
    /// ERROR path this does not require a failing checker — use it to
    /// inspect interval state of a passing run. Empty when the recorder is
    /// off.
    #[must_use]
    pub fn capture_bundle(&self) -> Vec<DiagnosisBundle> {
        self.wait_idle();
        self.shared
            .recorders
            .iter()
            .filter_map(|rec| {
                let steps = rec.window();
                let last = steps.last()?;
                Some(DiagnosisBundle::from_window(
                    self.shared.model.name(),
                    BundleReason::Manual,
                    last.trace_id,
                    Vec::new(),
                    steps,
                ))
            })
            .collect()
    }

    /// Shuts the worker pool down, returning everything checked so far
    /// (`PMTest_EXIT`, §4.2).
    ///
    /// Consumes the engine; the ingest plane closes and workers are joined.
    /// `take_report` already waits for every outstanding trace, so this
    /// performs exactly one idle wait.
    pub fn shutdown(self) -> Report {
        // Drop (after the return value is built) closes the plane and joins.
        self.take_report()
    }
}

/// Tallies a seat accumulates across one batch, settled into the shared
/// atomics with one `fetch_add` each per batch instead of per trace.
#[derive(Default)]
struct BatchTally {
    traces: u64,
    entries: u64,
    /// Diagnostics per kind, indexed like [`DiagKind::ALL`].
    diag_kinds: [u64; DiagKind::ALL.len()],
}

/// One checker's private state. Each worker thread owns a seat for its
/// life; the engine's last seat belongs to whichever thread is waiting in
/// [`Engine::wait_idle`]. `idx` is the seat's index into the per-seat
/// `shards`, `recorders`, `worker_stats` and `worker_busy`.
struct Seat {
    idx: usize,
    resolver: LocResolver,
    reports: Vec<TraceReport>,
    /// This seat's verdict-cache front end (fingerprinter + private L1),
    /// present only when the engine carries the shared L2.
    wcache: Option<WorkerCache>,
    /// One span buffer per seat (tid = seat index). Registration is the
    /// only allocation; with the tracing layer off the sink defers even
    /// that, and every record is one relaxed load and a taken branch.
    span: SpanHandle,
    /// The observed lane's accumulators, present only when a layer that
    /// watches the replay (timing, recorder, profiling) is on.
    observed: Option<Box<ObservedLane>>,
}

impl Seat {
    fn new(shared: &Shared, idx: usize) -> Self {
        Self {
            idx,
            resolver: LocResolver::new(),
            reports: Vec::new(),
            wcache: shared.verdict_cache.as_ref().map(|_| WorkerCache::new()),
            span: shared.telemetry.spans.register(idx as u64),
            observed: ObservedLane::new(shared).map(Box::new),
        }
    }
}

/// One worker thread: claim batches off the ingest plane (affinity rings
/// first, then stealing) and check them on the worker's seat. Exits when
/// the plane is closed and drained; the guard marks the plane dead if this
/// is the last worker out (normal exit or panic).
fn worker_loop(shared: &Arc<Shared>, idx: usize) {
    let _guard = WorkerGuard::new(shared.plane.clone());
    let mut seat = Seat::new(shared, idx);
    while let Some((msg, _n)) = shared.plane.next_batch(idx) {
        check_batch(shared, &mut seat, msg);
    }
}

impl Shared {
    /// The barrier's share of the checking: on the waiter seat, claims
    /// queued batches from any ring and checks them until nothing is left
    /// to claim. Returns at once if another thread holds the seat or a
    /// checker panic retired it, and stops once the worker pool is dead —
    /// its queued batches are being discarded, not checked. A panic is
    /// caught here, so it never reaches the waiting caller: the batch's
    /// accounting settles as its message unwinds, the seat's partial folds
    /// are discarded with it, and the seat is retired.
    fn help_drain(&self) {
        let Some(mut waiter) = self.waiter.try_lock() else { return };
        while let Some(seat) = waiter.as_mut() {
            if self.plane.is_dead() {
                return;
            }
            let Some((msg, _n)) = self.plane.try_claim(None) else { return };
            if catch_unwind(AssertUnwindSafe(|| check_batch(self, seat, msg))).is_err() {
                *waiter = None;
                self.plane.note_checker_panic();
                return;
            }
            self.waiter_batches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Checks one claimed batch on `seat`: every trace's packed records in
/// place, then the batch's results and tallies filed in one settlement.
/// The one per-batch body behind both a worker's loop and the waiter.
fn check_batch(shared: &Shared, seat: &mut Seat, msg: BatchMsg) {
    let idx = seat.idx;
    // Re-checked per batch: the sink can be toggled at runtime.
    let tracing = seat.span.enabled();
    // Destructured so the accounting guard outlives the checking: a
    // panicking checker unwinds through it and the batch still retires
    // (otherwise `wait_idle` would block forever on the lost traces).
    let BatchMsg { arena, accounting: _accounting, submitted } = msg;
    let dequeued = submitted.map(|sent| {
        let now = Instant::now();
        let waited = now.duration_since(sent).as_nanos() as u64;
        shared.telemetry.dispatch_latency.record(waited);
        shared.telemetry.stage(Stage::RingWait).record(waited);
        now
    });
    let span_claim = tracing.then(|| seat.span.now_ns());
    // One recycled scratch serves the whole batch; it is reset (not
    // reallocated) between traces.
    let mut scratch = shared.shadow_pool.acquire();
    let replay_start = shared.telemetry.timing.then(Instant::now);
    if let (Some(from), Some(to)) = (dequeued, replay_start) {
        shared
            .telemetry
            .stage(Stage::ClaimReplay)
            .record(to.duration_since(from).as_nanos() as u64);
    }
    let span_replay = tracing.then(|| seat.span.now_ns());
    let mut tally = BatchTally::default();
    if let Some(lane) = seat.observed.as_deref_mut() {
        for (id, words, entries) in arena.traces() {
            check_span_observed(
                shared,
                idx,
                id,
                words,
                entries,
                &mut scratch,
                &mut seat.resolver,
                &mut seat.reports,
                &mut tally,
                seat.wcache.as_mut(),
                lane,
            );
        }
    } else {
        for (id, words, entries) in arena.traces() {
            check_span(
                shared,
                id,
                words,
                entries,
                &mut scratch,
                &mut seat.resolver,
                &mut seat.reports,
                &mut tally,
                seat.wcache.as_mut(),
            );
        }
    }
    shared.arena_pool.release(arena);
    let replay_done = shared.telemetry.timing.then(Instant::now);
    if let (Some(from), Some(to)) = (replay_start, replay_done) {
        shared.telemetry.stage(Stage::Replay).record(to.duration_since(from).as_nanos() as u64);
    }
    let span_merge = tracing.then(|| seat.span.now_ns());
    shared.telemetry.segmap_repr_switches.add(scratch.take_repr_switch_delta());
    shared.shadow_pool.release(scratch);
    // Batched settlement: one fetch_add per counter per batch. The
    // observed lane's folds land first, so once `traces_checked` covers a
    // trace its timing and profile are visible too.
    if let (Some(cache), Some(wc)) = (shared.verdict_cache.as_ref(), seat.wcache.as_mut()) {
        cache.flush_tally(&mut wc.tally);
    }
    if let Some(lane) = seat.observed.as_deref_mut() {
        lane.settle(shared, idx);
    }
    shared.telemetry.count_diags(&tally.diag_kinds);
    shared.traces_checked.fetch_add(tally.traces, Ordering::Relaxed);
    shared.entries_processed.fetch_add(tally.entries, Ordering::Relaxed);
    shared.diagnostics.fetch_add(tally.diag_kinds.iter().sum(), Ordering::Relaxed);
    if !seat.reports.is_empty() {
        shared.shards[idx].lock().append(&mut seat.reports);
    }
    if let Some(from) = replay_done {
        shared.telemetry.stage(Stage::ReportMerge).record(from.elapsed().as_nanos() as u64);
    }
    if let (Some(claim), Some(replay), Some(merge)) = (span_claim, span_replay, span_merge) {
        let names = shared.telemetry.span_names;
        let end = seat.span.now_ns();
        seat.span.record(names.claim, claim, replay.saturating_sub(claim));
        seat.span.record(names.replay, replay, merge.saturating_sub(replay));
        seat.span.record(names.merge, merge, end.saturating_sub(merge));
    }
    if let Some(start) = dequeued {
        shared.telemetry.worker_busy[idx].add(start.elapsed().as_nanos() as u64);
    }
}

/// Checks one trace's packed records with every observing layer off.
///
/// Two paths, fastest first:
///
/// * **Clean lane** — for built-in models, a conservative DFA sweep over
///   the raw records ([`packed_clean`]) proves the common all-clean trace
///   diagnostic-free without decoding entries or touching the shadow
///   memory.
/// * **Packed replay** — otherwise the full checker replays the records,
///   decoding one entry at a time on the stack ([`check_packed_with`]).
///
/// Both produce identical diagnostics (the clean lane only ever proves
/// "none"). With the verdict cache on, the trace is fingerprinted first: a
/// hit replays the memoized verdict without touching the checker at all,
/// and a miss runs the lanes above and memoizes their outcome.
///
/// With timing, the flight recorder or profiling on, the worker runs
/// [`check_span_observed`] instead.
#[allow(clippy::too_many_arguments)]
fn check_span(
    shared: &Shared,
    trace_id: u64,
    words: &[PackedEntry],
    entries: u32,
    scratch: &mut CheckerScratch,
    resolver: &mut LocResolver,
    reports: &mut Vec<TraceReport>,
    tally: &mut BatchTally,
    wcache: Option<&mut WorkerCache>,
) {
    let mut miss = None;
    if let (Some(cache), Some(wc)) = (shared.verdict_cache.as_ref(), wcache) {
        let fp = wc.fingerprint(words);
        if let Some(verdict) = wc.lookup(cache, fp, false) {
            let diags = verdict.diags.clone();
            file_report(reports, tally, trace_id, entries, diags);
            return;
        }
        miss = Some((cache, wc, fp));
    }
    let diags = if shared.fast.is_some_and(|f| packed_clean(f, words)) {
        Vec::new()
    } else {
        check_packed_with(words, shared.model.as_ref(), scratch, resolver)
    };
    if let Some((cache, wc, fp)) = miss {
        wc.install(cache, fp, CachedVerdict::new(diags.clone(), None));
    }
    file_report(reports, tally, trace_id, entries, diags);
}

/// Files one checked trace: the batch tally (with its per-kind diagnostic
/// counts) and the seat's report buffer.
#[inline]
fn file_report(
    reports: &mut Vec<TraceReport>,
    tally: &mut BatchTally,
    trace_id: u64,
    entries: u32,
    diags: Vec<Diag>,
) {
    tally.traces += 1;
    tally.entries += u64::from(entries);
    for diag in &diags {
        tally.diag_kinds[diag.kind as usize] += 1;
    }
    reports.push(TraceReport { trace_id, diags });
}

/// One seat's state for the observed lane: the timing layer's and the
/// profiler's accumulators (each present only when its layer is on). Both
/// fill per entry and per trace without touching shared state, and
/// [`settle`](Self::settle) folds them into the engine once per batch — so
/// a snapshot taken mid-batch lags by at most that batch.
struct ObservedLane {
    timing: Option<TimingFold>,
    profile: Option<ProfileFold>,
}

impl ObservedLane {
    /// `None` unless timing, the flight recorder or profiling is on.
    fn new(shared: &Shared) -> Option<Self> {
        let telemetry = &shared.telemetry;
        let profiling = telemetry.profile.is_enabled();
        (telemetry.timing || profiling || !shared.recorders.is_empty()).then(|| Self {
            timing: telemetry.timing.then(TimingFold::default),
            profile: profiling.then(ProfileFold::default),
        })
    }

    /// Folds the batch's observations into the shared histograms,
    /// per-seat statistics and profile store.
    fn settle(&mut self, shared: &Shared, idx: usize) {
        if let Some(timing) = &mut self.timing {
            timing.drain_into(&shared.telemetry, idx);
        }
        if let Some(profile) = &mut self.profile {
            profile.drain_into(&shared.telemetry.profile);
        }
    }
}

/// [`check_span`] with timing, the flight recorder or profiling on — kept
/// out of line, so its state and branches stay off the unobserved lanes.
///
/// * **Instrumented replay** — with timing or the recorder on, the packed
///   walk runs with an [`Instrumented`] observer: each entry's cost lands in
///   its [`CheckerCategory`] accumulator, each step is written into the
///   recorder ring in place, and the profile fold sees the entry — all on
///   the one decode. These traces bypass the verdict cache (see
///   [`crate::cache`]): per-entry timing and capture must observe every
///   occurrence.
/// * **Profiling only** — the cache and both unobserved lanes stay in play;
///   a trace the clean lane proves is decoded once for the fold, and a
///   cache hit replays its memoized profile deltas into the fold.
///
/// A FAIL with the recorder on files a diagnosis bundle, built only when
/// the bundle queue has room.
///
/// [`CheckerCategory`]: crate::telemetry::CheckerCategory
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn check_span_observed(
    shared: &Shared,
    idx: usize,
    trace_id: u64,
    words: &[PackedEntry],
    entries: u32,
    scratch: &mut CheckerScratch,
    resolver: &mut LocResolver,
    reports: &mut Vec<TraceReport>,
    tally: &mut BatchTally,
    wcache: Option<&mut WorkerCache>,
    lane: &mut ObservedLane,
) {
    let recorder = shared.recorders.get(idx);
    let instrumented = lane.timing.is_some() || recorder.is_some();
    let mut miss = None;
    if let (Some(cache), Some(wc)) = (shared.verdict_cache.as_ref(), wcache) {
        if instrumented {
            wc.tally.bypasses += 1;
        } else {
            let fp = wc.fingerprint(words);
            if let Some(verdict) = wc.lookup(cache, fp, lane.profile.is_some()) {
                if let (Some(fold), Some(deltas)) = (lane.profile.as_mut(), &verdict.profile) {
                    fold.replay(deltas);
                }
                let diags = verdict.diags.clone();
                file_report(reports, tally, trace_id, entries, diags);
                return;
            }
            miss = Some((cache, wc, fp));
        }
    }
    let fast = shared.fast;
    let diags = if !instrumented && fast.is_some_and(|f| packed_clean(f, words)) {
        if let Some(fold) = lane.profile.as_mut() {
            fold.push_packed(words, resolver);
        }
        Vec::new()
    } else {
        let started = lane.timing.is_some().then(Instant::now);
        let mut observer = Instrumented {
            clock: lane.timing.as_mut().zip(started),
            ring: recorder.map(FlightRecorder::lock),
            trace_id,
            profile: lane.profile.as_mut(),
        };
        let diags =
            check_packed_observed(words, shared.model.as_ref(), scratch, resolver, &mut observer);
        let Instrumented { clock, ring, .. } = observer;
        if let (Some((timing, _)), Some(started)) = (clock, started) {
            timing.end_trace(started.elapsed().as_nanos() as u64, fast.is_some());
        }
        if let Some(ring) = ring {
            if diags.iter().any(|d| d.severity() == Severity::Fail) {
                file_bundle(shared, trace_id, &diags, &ring);
            }
        }
        diags
    };
    let memo = lane.profile.as_mut().and_then(|fold| fold.end_trace(&diags, miss.is_some()));
    if let Some((cache, wc, fp)) = miss {
        wc.install(cache, fp, CachedVerdict::new(diags.clone(), memo));
    }
    file_report(reports, tally, trace_id, entries, diags);
}

/// Files an ERROR bundle for a failing trace from its steps in the seat's
/// recorder ring, keeping the queue sorted by trace id. The cap is checked
/// under the queue lock first, so a failure the full queue turns away costs
/// one lock and a counter, not a window copy; a lower id than the queue's
/// highest evicts that one.
fn file_bundle(shared: &Shared, trace_id: u64, diags: &[Diag], ring: &RecorderRing) {
    let mut bundles = shared.bundles.lock();
    if bundles.len() >= MAX_BUNDLES {
        shared.bundles_dropped.fetch_add(1, Ordering::Relaxed);
        if bundles.last().is_some_and(|b| b.trace_id <= trace_id) {
            return;
        }
        bundles.pop();
    }
    let at = bundles.partition_point(|b| b.trace_id <= trace_id);
    bundles.insert(
        at,
        DiagnosisBundle::from_window(
            shared.model.name(),
            BundleReason::Error,
            trace_id,
            diags.to_vec(),
            ring.steps_of(trace_id),
        ),
    );
}

/// The instrumented lane's observer on the packed walk: with timing on, a
/// clock read per entry charged to the seat's [`TimingFold`]; with the
/// recorder on, a step written into the ring (locked once for the trace);
/// with profiling on, the entry pushed into the seat's [`ProfileFold`].
struct Instrumented<'a> {
    /// The timing fold and when the previous entry finished.
    clock: Option<(&'a mut TimingFold, Instant)>,
    ring: Option<MutexGuard<'a, RecorderRing>>,
    trace_id: u64,
    profile: Option<&'a mut ProfileFold>,
}

impl ReplayObserver for Instrumented<'_> {
    fn observe(&mut self, index: usize, entry: &Entry, checker: &TraceChecker<'_>) {
        if let Some((timing, last)) = &mut self.clock {
            let now = Instant::now();
            timing.entry(&entry.event, now.duration_since(*last).as_nanos() as u64);
            *last = now;
        }
        if let Some(ring) = &mut self.ring {
            let shadow = checker.shadow();
            let intervals = ring.push(self.trace_id, index, *entry, shadow.timestamp());
            note_intervals(intervals, &entry.event, shadow);
        }
        if let Some(fold) = &mut self.profile {
            fold.push(entry);
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // Close the plane: workers drain what is queued, then exit.
        self.shared.plane.close();
        for handle in std::mem::take(&mut *self.handles.lock()) {
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.shared.workers)
            .field("outstanding", &self.shared.outstanding.load(Ordering::Relaxed))
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::DiagKind;
    use pmtest_interval::ByteRange;
    use pmtest_trace::Event;

    fn failing_trace(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let r = ByteRange::with_len(0, 8);
        t.push(Event::Write(r).here());
        t.push(Event::IsPersist(r).here());
        t
    }

    fn clean_trace(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let r = ByteRange::with_len(0, 8);
        t.push(Event::Write(r).here());
        t.push(Event::Flush(r).here());
        t.push(Event::Fence.here());
        t.push(Event::IsPersist(r).here());
        t
    }

    #[test]
    fn recorder_captures_a_bundle_on_error() {
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::recorder_only(),
            ..EngineConfig::default()
        });
        engine.submit(clean_trace(0)).unwrap();
        engine.submit(failing_trace(1)).unwrap();
        let bundles = engine.take_bundles();
        assert_eq!(bundles.len(), 1, "only the failing trace bundles");
        let b = &bundles[0];
        assert_eq!(b.reason, crate::BundleReason::Error);
        assert_eq!(b.trace_id, 1);
        assert_eq!(b.model, "x86");
        assert_eq!(b.firing, Some(0));
        // The window is filtered to the failing trace's own steps.
        assert_eq!(b.steps.len(), 2);
        assert!(b.steps.iter().all(|s| s.trace_id == 1));
        assert_eq!(b.diags[0].kind, DiagKind::NotPersisted);
        // Drained: a second take sees nothing new.
        assert!(engine.take_bundles().is_empty());
        assert_eq!(engine.bundles_dropped(), 0);
    }

    /// A failing trace whose ranges depend on `id`, so every bundle's steps
    /// and intervals differ: two writes, one of them persisted, then an
    /// `isPersist` on the other.
    fn failing_trace_at(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let (a, b) = (ByteRange::with_len(id * 128, 8), ByteRange::with_len(id * 128 + 64, 16));
        t.push(Event::Write(a).here());
        t.push(Event::Write(b).here());
        t.push(Event::Flush(b).here());
        t.push(Event::Fence.here());
        t.push(Event::IsPersist(a).here());
        t
    }

    #[test]
    fn bundle_cap_keeps_the_first_failures_and_counts_the_rest() {
        let recorded = || {
            Engine::new(EngineConfig {
                telemetry: TelemetryConfig::recorder_only(),
                ..EngineConfig::default()
            })
        };
        let engine = recorded();
        // 40 failing traces (even ids) interleaved with clean ones, in one
        // batch on one worker.
        let traces =
            (0..80).map(|id| if id % 2 == 0 { failing_trace_at(id) } else { clean_trace(id) });
        engine.submit_batch(traces.collect()).unwrap();
        let bundles = engine.take_bundles();
        let ids: Vec<u64> = bundles.iter().map(|b| b.trace_id).collect();
        assert_eq!(ids, (0..16).map(|i| 2 * i).collect::<Vec<_>>(), "the first 16 failures");
        for bundle in &bundles {
            let alone = recorded();
            alone.submit(failing_trace_at(bundle.trace_id)).unwrap();
            let want = alone.take_bundles();
            assert_eq!(want.len(), 1);
            assert_eq!(
                bundle.to_json_lines(),
                want[0].to_json_lines(),
                "trace {}",
                bundle.trace_id
            );
        }
        assert_eq!(engine.bundles_dropped(), 24);
        assert_eq!(engine.telemetry_snapshot().counter("engine_bundles_dropped"), Some(24));
        let summary = engine.telemetry_summary();
        assert!(summary.contains("24 ERROR bundle(s) dropped"), "{summary}");
        // The drain made room: the next failure is captured again.
        engine.submit(failing_trace_at(80)).unwrap();
        let again = engine.take_bundles();
        assert_eq!(again.iter().map(|b| b.trace_id).collect::<Vec<_>>(), vec![80]);
        assert_eq!(engine.bundles_dropped(), 24);
    }

    #[test]
    fn capture_bundle_freezes_windows_on_demand() {
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::recorder_only(),
            ..EngineConfig::default()
        });
        engine.submit(clean_trace(3)).unwrap();
        let bundles = engine.capture_bundle();
        assert_eq!(bundles.len(), 1);
        assert_eq!(bundles[0].reason, crate::BundleReason::Manual);
        assert_eq!(bundles[0].trace_id, 3);
        assert_eq!(bundles[0].steps.len(), 4);
        assert!(bundles[0].diags.is_empty());
        // No ERROR fired, so nothing landed in the automatic queue.
        assert!(engine.take_bundles().is_empty());
    }

    #[test]
    fn recorder_off_captures_nothing() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert!(engine.take_bundles().is_empty());
        assert!(engine.capture_bundle().is_empty());
        assert_eq!(engine.take_report().fail_count(), 1);
    }

    #[test]
    fn recorder_does_not_change_the_report() {
        let plain = Engine::new(EngineConfig::default());
        let recorded = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::recorder_only(),
            ..EngineConfig::default()
        });
        for id in 0..8 {
            let mk = if id % 2 == 0 { failing_trace } else { clean_trace };
            plain.submit(mk(id)).unwrap();
            recorded.submit(mk(id)).unwrap();
        }
        assert_eq!(plain.take_report(), recorded.take_report());
    }

    #[test]
    fn single_worker_checks_in_submission_order() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..10 {
            engine.submit(if id % 2 == 0 { failing_trace(id) } else { clean_trace(id) }).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 10);
        assert_eq!(report.fail_count(), 5);
        let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn multiple_workers_produce_the_same_report() {
        let engine = Engine::new(EngineConfig { workers: 4, ..EngineConfig::default() });
        assert_eq!(engine.workers(), 4);
        for id in 0..100 {
            engine.submit(failing_trace(id)).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 100);
        assert_eq!(report.fail_count(), 100);
        assert!(report.iter().all(|d| d.kind == DiagKind::NotPersisted));
    }

    #[test]
    fn report_accumulates_take_drains() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert_eq!(engine.report().fail_count(), 1);
        engine.submit(failing_trace(1)).unwrap();
        assert_eq!(engine.report().fail_count(), 2, "report keeps history");
        assert_eq!(engine.take_report().fail_count(), 2);
        assert_eq!(engine.report().fail_count(), 0, "take drained");
    }

    #[test]
    fn wait_idle_on_empty_engine_returns() {
        let engine = Engine::new(EngineConfig::default());
        engine.wait_idle();
        assert!(engine.report().is_clean());
    }

    #[test]
    fn submissions_from_many_threads() {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }));
        std::thread::scope(|s| {
            for t in 0..4 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..25 {
                        engine.submit(clean_trace(t * 25 + i)).unwrap();
                    }
                });
            }
        });
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 100);
        assert!(report.is_clean());
    }

    #[test]
    fn each_producer_thread_registers_its_own_ring() {
        let engine = Arc::new(Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() }));
        std::thread::scope(|s| {
            for t in 0..3 {
                let engine = engine.clone();
                s.spawn(move || {
                    for i in 0..5 {
                        engine.submit(clean_trace(t * 5 + i)).unwrap();
                    }
                });
            }
        });
        engine.wait_idle();
        let stats = engine.stats();
        assert!(stats.rings_registered >= 3, "one ring per producer thread");
        assert_eq!(stats.traces_checked, 15);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_rejected() {
        let _ = Engine::new(EngineConfig { workers: 0, ..EngineConfig::default() });
    }

    /// `submit`, `submit_batch` and `submit_arena` all ship one sealed
    /// arena; the same traces through each must report byte-identically —
    /// empty traces included, which still get a `TraceReport`.
    #[test]
    fn every_submission_path_reports_the_same_bytes() {
        let traces: Vec<Trace> = (0..40)
            .map(|id| match id % 3 {
                0 => failing_trace(id),
                1 => clean_trace(id),
                _ => Trace::new(id),
            })
            .collect();
        let single = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        for trace in &traces {
            single.submit(trace.clone()).unwrap();
        }
        let batched = Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() });
        batched.submit_batch(Vec::new()).unwrap(); // no-op
        for chunk in traces.chunks(16) {
            batched.submit_batch(chunk.to_vec()).unwrap();
        }
        let arena_engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        arena_engine.submit_arena(TraceArena::new()).unwrap(); // no seals: no-op
        let mut arena = TraceArena::new();
        for trace in &traces {
            for entry in trace.entries() {
                arena.push(entry);
            }
            arena.seal(trace.id());
        }
        arena_engine.submit_arena(arena).unwrap();

        let expected = single.take_report();
        assert_eq!(expected.traces().len(), 40, "empty traces are reported too");
        assert_eq!(expected.fail_count(), 14);
        let ids: Vec<u64> = expected.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, (0..40).collect::<Vec<_>>(), "merge is ordered by trace id");
        let json = expected.to_json_lines();
        assert_eq!(batched.take_report().to_json_lines(), json);
        assert_eq!(arena_engine.take_report().to_json_lines(), json);

        let counts = |e: &Engine| (e.stats().batches_submitted, e.stats().traces_submitted);
        assert_eq!(counts(&single), (40, 40));
        assert_eq!(counts(&batched), (3, 40), "empty batches are not counted");
        assert_eq!(counts(&arena_engine), (1, 40), "empty arenas are not counted");
        // Every checked arena went back to the pool.
        assert_eq!(single.arena_pool().stats().released, 40);
        assert_eq!(batched.arena_pool().stats().released, 3);
        assert_eq!(arena_engine.arena_pool().stats().released, 1);
    }

    #[test]
    fn stats_track_batches_and_queue_depth() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(clean_trace(0)).unwrap();
        engine.submit_batch((1..32).map(clean_trace).collect()).unwrap();
        engine.wait_idle();
        let stats = engine.stats();
        assert_eq!(stats.batches_submitted, 2, "empty batches are not counted");
        assert_eq!(stats.traces_submitted, 32);
        assert_eq!(stats.traces_checked, 32);
        assert!(stats.queue_highwater >= 31, "batch of 31 must register in the high-water mark");
        assert!((stats.mean_batch_size() - 16.0).abs() < f64::EPSILON);
    }

    #[test]
    fn backpressure_stalls_are_counted_and_survivable() {
        // One worker with a one-slot ring: the second in-flight submission
        // must stall until the worker drains the first.
        let engine = Engine::new(EngineConfig { queue_capacity: 1, ..EngineConfig::default() });
        for id in 0..200 {
            engine.submit(failing_trace(id)).unwrap();
        }
        let report = engine.take_report();
        assert_eq!(report.traces().len(), 200, "stalled submissions still deliver");
        assert!(engine.stats().backpressure_stalls > 0, "queue of 1 must have stalled");
    }

    #[test]
    fn shutdown_returns_full_report_once() {
        let engine = Engine::new(EngineConfig { workers: 2, ..EngineConfig::default() });
        for id in 0..20 {
            engine.submit(failing_trace(id)).unwrap();
        }
        let report = engine.shutdown();
        assert_eq!(report.traces().len(), 20);
        assert_eq!(report.fail_count(), 20);
    }

    #[test]
    fn with_report_borrows_accumulated_results() {
        let engine = Engine::new(EngineConfig::default());
        engine.submit(failing_trace(0)).unwrap();
        assert_eq!(engine.with_report(Report::fail_count), 1);
        engine.submit(failing_trace(1)).unwrap();
        assert_eq!(engine.with_report(Report::fail_count), 2, "results accumulate");
        assert_eq!(engine.take_report().fail_count(), 2);
        assert_eq!(engine.with_report(|r| r.traces().len()), 0, "take drained");
    }

    #[test]
    fn telemetry_snapshot_counts_diagnostics_by_kind() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..4 {
            engine.submit(failing_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("engine_traces_checked"), Some(4));
        assert_eq!(snap.counter("engine_entries_processed"), Some(8));
        let not_persisted = snap
            .counters
            .iter()
            .find(|c| {
                c.name == "engine_diag_total"
                    && c.labels.iter().any(|(k, v)| k == "code" && v == "not_persisted")
            })
            .expect("per-kind counter registered");
        assert_eq!(not_persisted.value, 4);
        assert!(not_persisted.labels.iter().any(|(k, v)| k == "severity" && v == "FAIL"));
        assert_eq!(snap.counter_sum("engine_diag_total"), 4, "no other kind fired");
        assert!(snap.gauge("engine_queue_depth").is_some(), "sampled on submit");
        assert!(snap.gauge("arena_pool_hit_rate").is_some());
        assert!(snap.counter("engine_ring_steals").is_some(), "ingest counters exported");
        assert!(snap.counter("engine_rings_registered").unwrap() >= 1);
        assert!(snap.gauge("engine_ring_occupancy").is_some());
        // Timing layer off: histograms exist but hold no observations, and
        // the per-seat trace stats (the worker's, then the waiter's) stay
        // zero.
        assert_eq!(snap.histogram("engine_check_latency_ns").unwrap().count, 0);
        assert_eq!(engine.worker_trace_stats(), vec![TraceStats::default(); 2]);
        assert!(engine.telemetry_summary().contains("timing off"));
    }

    #[test]
    fn shadow_pool_recycles_scratch_state_across_batches() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..50 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        let recycled = snap.counter("shadow_pool_recycled").unwrap_or(0);
        let fresh = snap.counter("shadow_pool_fresh").unwrap();
        // The worker and the waiter (when `wait_idle` found batches queued)
        // each allocate at most once.
        assert!((1..=2).contains(&fresh), "at most one allocation per seat, got {fresh}");
        assert_eq!(recycled + fresh, 50, "one acquisition per single-trace batch");
        let hit = snap.gauge("shadow_pool_hit_rate").unwrap();
        assert!(hit > 0.9, "steady state must recycle, hit rate {hit}");
        // Tiny clean traces never push a segment map past the flat
        // representation.
        assert_eq!(snap.counter("engine_segmap_repr_switches"), Some(0));
    }

    #[test]
    fn queue_capacity_is_reported() {
        let engine = Engine::new(EngineConfig { queue_capacity: 42, ..EngineConfig::default() });
        assert_eq!(engine.queue_capacity(), 42);
    }

    #[test]
    fn derived_queue_capacity_keeps_the_trace_window_consistent() {
        assert_eq!(derived_queue_capacity(1), 256, "unbatched default unchanged");
        assert_eq!(derived_queue_capacity(0), 256, "degenerate batch treated as 1");
        assert_eq!(derived_queue_capacity(4), 64);
        assert_eq!(derived_queue_capacity(32), 32, "floor absorbs scheduling gaps");
        assert_eq!(derived_queue_capacity(1024), 32, "floor keeps slack for workers");
    }

    #[test]
    fn timing_layer_populates_latency_histograms_and_worker_stats() {
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::enabled(),
            ..EngineConfig::default()
        });
        for id in 0..8 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        let check = snap.histogram("engine_check_latency_ns").unwrap();
        assert_eq!(check.count, 8);
        assert!(check.p50 > 0.0 && check.p99 >= check.p50);
        let is_persist = snap.histogram_with("engine_checker_ns", "checker", "is_persist").unwrap();
        assert_eq!(is_persist.count, 8, "one isPersist per clean trace");
        let replay = snap.histogram_with("engine_checker_ns", "checker", "model_replay").unwrap();
        assert_eq!(replay.count, 24, "write + flush + fence per clean trace");
        assert_eq!(snap.histogram("engine_dispatch_latency_ns").unwrap().count, 8);
        assert!(snap.counter_sum("engine_worker_busy_ns") > 0);
        assert!(snap.gauge("engine_worker_utilization").is_some());
        let mut totals = TraceStats::default();
        for stats in engine.worker_trace_stats() {
            totals.merge(&stats);
        }
        assert_eq!(totals.writes, 8);
        assert_eq!(totals.entries, 32);
        assert_eq!(snap.counter_sum("engine_worker_entries"), 32);
        let summary = engine.telemetry_summary();
        assert!(summary.contains("8 traces checked"), "{summary}");
        assert!(summary.contains("p50"), "{summary}");
    }

    #[test]
    fn timing_charges_every_entry_to_exactly_one_checker() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            telemetry: TelemetryConfig::timing_only(),
            ..EngineConfig::default()
        });
        for chunk in 0..10u64 {
            let ids = chunk * 7..chunk * 7 + 7;
            let traces =
                ids.map(|id| if id % 3 == 0 { failing_trace_at(id) } else { clean_trace(id) });
            engine.submit_batch(traces.collect()).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        let entries = snap.counter("engine_entries_processed").unwrap();
        let charged: u64 =
            snap.histograms.iter().filter(|h| h.name == "engine_checker_ns").map(|h| h.count).sum();
        assert_eq!(charged, entries);
        assert_eq!(snap.histogram("engine_check_latency_ns").unwrap().count, 70);
        assert_eq!(snap.histogram("engine_fused_replay_ns").unwrap().count, 70);
        let stats: u64 = engine.worker_trace_stats().iter().map(|s| s.entries).sum();
        assert_eq!(stats, entries);
    }

    /// The clean lane must be invisible in results: traces it proves clean
    /// and traces it defers to the full checker land in the same report a
    /// custom (non-builtin, lane-less) model would produce.
    #[test]
    fn clean_lane_does_not_change_the_report() {
        /// x86 rules without `builtin()`: forces the dynamic-dispatch path,
        /// which never consults the clean lane.
        #[derive(Debug)]
        struct OpaqueX86(X86Model);
        impl PersistencyModel for OpaqueX86 {
            fn name(&self) -> &str {
                "x86"
            }
            fn apply(
                &self,
                shadow: &mut crate::shadow::ShadowMemory,
                entry: &pmtest_trace::Entry,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.apply(shadow, entry, diags);
            }
            fn check_persist(
                &self,
                shadow: &crate::shadow::ShadowMemory,
                range: ByteRange,
                loc: pmtest_trace::SourceLoc,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.check_persist(shadow, range, loc, diags);
            }
            fn check_ordered_before(
                &self,
                shadow: &crate::shadow::ShadowMemory,
                first: ByteRange,
                second: ByteRange,
                loc: pmtest_trace::SourceLoc,
                diags: &mut Vec<crate::diag::Diag>,
            ) {
                self.0.check_ordered_before(shadow, first, second, loc, diags);
            }
        }
        let fast = Engine::new(EngineConfig::default());
        let slow = Engine::new(EngineConfig {
            model: Arc::new(OpaqueX86(X86Model::new())),
            ..EngineConfig::default()
        });
        for id in 0..12 {
            let mk = if id % 3 == 0 { failing_trace } else { clean_trace };
            fast.submit(mk(id)).unwrap();
            slow.submit(mk(id)).unwrap();
        }
        assert_eq!(fast.take_report(), slow.take_report());
    }

    #[test]
    fn timing_layer_populates_all_five_stage_histograms() {
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::timing_only(),
            ..EngineConfig::default()
        });
        for id in 0..8 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        for stage in crate::telemetry::Stage::ALL {
            let h = snap
                .histogram_with("engine_stage_ns", "stage", stage.label())
                .unwrap_or_else(|| panic!("stage {} missing", stage.label()));
            assert_eq!(h.count, 8, "one {} observation per batch", stage.label());
        }
    }

    #[test]
    fn snapshot_exposes_ring_steal_parker_and_arena_counters() {
        let engine = Engine::new(EngineConfig::default());
        for id in 0..4 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let snap = engine.telemetry_snapshot();
        // Steal/affinity accounting: every claimed batch is one or the other.
        let steals = snap.counter("engine_ring_steals").unwrap();
        let affinity = snap.counter("engine_ring_affinity_hits").unwrap();
        assert_eq!(steals + affinity, 4, "each batch claim is a steal or an affinity hit");
        // Parker counters are present (values depend on scheduling).
        assert!(snap.counter("engine_parker_parks").is_some());
        assert!(snap.counter("engine_parker_wakes").is_some());
        assert!(snap.counter("engine_parker_recruit_cas_fails").is_some());
        // Per-ring gauges carry a ring label.
        assert!(snap.gauge("engine_ring_highwater").is_some());
        assert!(snap.gauge("engine_ring_occupancy_traces").is_some());
        assert!(snap.counter("engine_ring_pushed").is_some());
        // Arena/intern counters register even when the batched path is idle.
        assert_eq!(snap.counter("engine_arena_slab_allocs"), Some(0));
        assert_eq!(snap.counter_sum("engine_intern_hits"), 0);
        // Span accounting is exported alongside the event ring's.
        assert_eq!(snap.counter("engine_spans_dropped"), Some(0));
    }

    #[test]
    fn tracing_layer_yields_a_loadable_chrome_trace() {
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::tracing_only(),
            ..EngineConfig::default()
        });
        for id in 0..6 {
            engine.submit(clean_trace(id)).unwrap();
        }
        engine.wait_idle();
        let trace = engine.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&trace).expect("trace must validate");
        assert!(stats.pairs >= 18, "claim+replay+merge per batch, got {}", stats.pairs);
        for name in ["claim", "replay", "merge"] {
            assert!(trace.contains(name), "span {name} missing from {trace}");
        }
        // Tracing off: still a valid (empty) document.
        let engine = Engine::new(EngineConfig::default());
        engine.submit(clean_trace(0)).unwrap();
        engine.wait_idle();
        let trace = engine.chrome_trace();
        let stats = pmtest_obs::trace_event::validate_str(&trace).unwrap();
        assert_eq!(stats.events, 0, "tracing off records nothing");
    }

    #[test]
    fn scrape_endpoint_serves_prometheus_and_json() {
        use std::io::{Read as _, Write as _};
        let engine = Engine::new(EngineConfig {
            telemetry: TelemetryConfig::off().with_scrape("127.0.0.1:0"),
            ..EngineConfig::default()
        });
        for id in 0..3 {
            engine.submit(failing_trace(id)).unwrap();
        }
        engine.wait_idle();
        let addr = engine.scrape_addr().expect("scrape endpoint is live");
        let get = |path: &str| {
            let mut conn = std::net::TcpStream::connect(addr).unwrap();
            write!(conn, "GET {path} HTTP/1.1\r\nHost: pmtest\r\nConnection: close\r\n\r\n")
                .unwrap();
            let mut body = String::new();
            conn.read_to_string(&mut body).unwrap();
            body
        };
        let metrics = get("/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200"), "{metrics}");
        assert!(metrics.contains("engine_traces_checked 3"), "{metrics}");
        assert!(metrics.contains("engine_bundles_dropped 0"), "{metrics}");
        assert!(metrics.contains("engine_checker_panics 0"), "{metrics}");
        assert!(metrics.contains("engine_waiter_batches "), "{metrics}");
        assert!(metrics.contains("engine_stage_ns"), "stage histograms are exported");
        let json = get("/snapshot.json");
        assert!(json.contains("application/json"), "{json}");
        assert!(json.contains("engine_traces_checked"), "{json}");
        // No scrape configured: no endpoint.
        let plain = Engine::new(EngineConfig::default());
        assert!(plain.scrape_addr().is_none());
    }

    /// A model whose checkers panic, killing the worker thread — the only
    /// way the plane can go dead while an `Engine` is alive.
    #[derive(Debug)]
    struct PanickingModel;

    impl PersistencyModel for PanickingModel {
        fn name(&self) -> &str {
            "panicking"
        }

        fn apply(
            &self,
            _shadow: &mut crate::shadow::ShadowMemory,
            _entry: &pmtest_trace::Entry,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }

        fn check_persist(
            &self,
            _shadow: &crate::shadow::ShadowMemory,
            _range: ByteRange,
            _loc: pmtest_trace::SourceLoc,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }

        fn check_ordered_before(
            &self,
            _shadow: &crate::shadow::ShadowMemory,
            _first: ByteRange,
            _second: ByteRange,
            _loc: pmtest_trace::SourceLoc,
            _diags: &mut Vec<crate::diag::Diag>,
        ) {
            panic!("model deliberately kills the worker");
        }
    }

    /// x86 rules through the dynamic path, with a gate that holds a worker
    /// thread at the first entry it checks until a thread that is not a
    /// worker — the waiter — checks one (or 10 s pass, so a waiter that
    /// never helps fails the test instead of hanging it). A test can queue
    /// batches behind a held worker and so make the waiter claim them.
    /// With `panic_off_worker` the waiter's checks panic (after opening the
    /// gate).
    #[derive(Debug, Default)]
    struct HeldWorkerModel {
        panic_off_worker: bool,
        open: parking_lot::Mutex<bool>,
        opened: Condvar,
        /// Times a worker has been held at the closed gate.
        held: AtomicU64,
    }

    impl HeldWorkerModel {
        fn panicking_off_worker() -> Self {
            Self { panic_off_worker: true, ..Self::default() }
        }

        fn set_open(&self, open: bool) {
            *self.open.lock() = open;
            self.opened.notify_all();
        }

        /// Blocks until a worker has been held `n` times in all.
        fn wait_held(&self, n: u64) {
            while self.held.load(Ordering::SeqCst) < n {
                std::thread::yield_now();
            }
        }

        fn visit(&self) {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("pmtest-worker-"));
            if on_worker {
                let mut open = self.open.lock();
                if !*open {
                    self.held.fetch_add(1, Ordering::SeqCst);
                    let deadline = Instant::now() + std::time::Duration::from_secs(10);
                    while !*open {
                        let left = deadline.saturating_duration_since(Instant::now());
                        if self.opened.wait_for(&mut open, left).timed_out() {
                            // Nobody came: let every later entry through.
                            *open = true;
                        }
                    }
                }
            } else {
                self.set_open(true);
                assert!(!self.panic_off_worker, "model deliberately panics off the workers");
            }
        }
    }

    impl PersistencyModel for HeldWorkerModel {
        fn name(&self) -> &str {
            "x86"
        }

        fn apply(
            &self,
            shadow: &mut crate::shadow::ShadowMemory,
            entry: &pmtest_trace::Entry,
            diags: &mut Vec<crate::diag::Diag>,
        ) {
            self.visit();
            X86Model::new().apply(shadow, entry, diags);
        }

        fn check_persist(
            &self,
            shadow: &crate::shadow::ShadowMemory,
            range: ByteRange,
            loc: pmtest_trace::SourceLoc,
            diags: &mut Vec<crate::diag::Diag>,
        ) {
            self.visit();
            X86Model::new().check_persist(shadow, range, loc, diags);
        }

        fn check_ordered_before(
            &self,
            shadow: &crate::shadow::ShadowMemory,
            first: ByteRange,
            second: ByteRange,
            loc: pmtest_trace::SourceLoc,
            diags: &mut Vec<crate::diag::Diag>,
        ) {
            self.visit();
            X86Model::new().check_ordered_before(shadow, first, second, loc, diags);
        }
    }

    /// A clean-persisting trace with a duplicate flush: one WARN.
    fn warning_trace(id: u64) -> Trace {
        let mut t = Trace::new(id);
        let r = ByteRange::with_len(id * 128, 8);
        t.push(Event::Write(r).here());
        t.push(Event::Flush(r).here());
        t.push(Event::Flush(r).here());
        t.push(Event::Fence.here());
        t
    }

    /// Every `engine_diag_total` reading, by kind code.
    fn diag_totals(engine: &Engine) -> Vec<(String, u64)> {
        let snap = engine.telemetry_snapshot();
        let code = |c: &pmtest_obs::CounterSnapshot| {
            c.labels.iter().find(|(k, _)| k == "code").map(|(_, v)| v.clone()).unwrap_or_default()
        };
        snap.counters
            .iter()
            .filter(|c| c.name == "engine_diag_total")
            .map(|c| (code(c), c.value))
            .collect()
    }

    #[test]
    fn waiting_thread_checks_queued_batches_and_changes_nothing() {
        let telemetry = TelemetryConfig { timing: true, recorder: true, ..TelemetryConfig::off() };
        let model = Arc::new(HeldWorkerModel::default());
        let engine = Engine::new(EngineConfig {
            model: model.clone(),
            telemetry: telemetry.clone(),
            ..EngineConfig::default()
        });
        let reference = Engine::new(EngineConfig { telemetry, ..EngineConfig::default() });
        // Six batches of eight: 24 failing traces (more than the bundle
        // cap), 16 warning ones and 8 clean ones.
        let batch = |b: u64| -> Vec<Trace> {
            (b * 8..b * 8 + 8)
                .map(|id| match id % 6 {
                    0 | 2 | 4 => failing_trace_at(id),
                    1 | 3 => warning_trace(id),
                    _ => clean_trace(id),
                })
                .collect()
        };
        engine.submit_batch(batch(0)).unwrap();
        model.wait_held(1);
        for b in 1..6 {
            engine.submit_batch(batch(b)).unwrap();
        }
        for b in 0..6 {
            reference.submit_batch(batch(b)).unwrap();
        }
        let report = engine.take_report();
        let snap = engine.telemetry_snapshot();
        let waited = snap.counter("engine_waiter_batches").unwrap();
        assert!(waited > 0, "the held worker left the queued batches to the waiter");
        assert!(engine
            .telemetry_summary()
            .contains(&format!("({waited} batch(es) by the waiter)")));
        assert_eq!(snap.counter("engine_checker_panics"), Some(0));
        assert_eq!(snap.gauge("engine_workers"), Some(1.0), "the waiter is no worker");
        assert_eq!(report.to_json_lines(), reference.take_report().to_json_lines());
        // Both seats filed bundles; the queue kept the 16 lowest ids, sorted.
        let bundles = engine.take_bundles();
        let want = reference.take_bundles();
        assert_eq!(bundles.len(), 16);
        assert_eq!(
            bundles.iter().map(DiagnosisBundle::to_json_lines).collect::<Vec<_>>(),
            want.iter().map(DiagnosisBundle::to_json_lines).collect::<Vec<_>>()
        );
        assert_eq!(engine.bundles_dropped(), 8);
        assert_eq!(reference.bundles_dropped(), 8);
        // One TraceStats per seat, the waiter's last; together the same as
        // the reference's.
        let stats = engine.worker_trace_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats[1].entries > 0, "the waiter seat's statistics are reported");
        let sum = |stats: Vec<TraceStats>| {
            stats.iter().fold(TraceStats::default(), |mut acc, s| {
                acc.merge(s);
                acc
            })
        };
        assert_eq!(sum(stats), sum(reference.worker_trace_stats()));
    }

    #[test]
    fn per_kind_diagnostic_counts_settle_per_batch_on_both_seats() {
        let model = Arc::new(HeldWorkerModel::default());
        let engine = Engine::new(EngineConfig { model: model.clone(), ..EngineConfig::default() });
        let reference = Engine::new(EngineConfig::default());
        let traces = |range: std::ops::Range<u64>| -> Vec<Trace> {
            range
                .map(|id| match id % 3 {
                    0 => failing_trace_at(id),
                    1 => warning_trace(id),
                    _ => clean_trace(id),
                })
                .collect()
        };
        engine.submit_batch(traces(0..5)).unwrap();
        model.wait_held(1);
        for b in 1..4 {
            engine.submit_batch(traces(b * 5..b * 5 + 5)).unwrap();
        }
        reference.submit_batch(traces(0..20)).unwrap();
        engine.wait_idle();
        reference.wait_idle();
        let snap = engine.telemetry_snapshot();
        assert!(snap.counter("engine_waiter_batches").unwrap() > 0, "both seats checked");
        let diagnostics = snap.counter("engine_diagnostics").unwrap();
        assert_eq!(snap.counter_sum("engine_diag_total"), diagnostics);
        assert_eq!(diagnostics, 14, "7 failing traces with one FAIL, 7 warning ones with one WARN");
        assert_eq!(diag_totals(&engine), diag_totals(&reference));
    }

    #[test]
    fn checker_panic_on_the_waiter_never_reaches_the_caller() {
        let model = Arc::new(HeldWorkerModel::panicking_off_worker());
        let engine = Engine::new(EngineConfig { model: model.clone(), ..EngineConfig::default() });
        engine.submit(clean_trace(0)).unwrap();
        model.wait_held(1);
        // Queued behind the held worker: the waiter claims it and panics.
        engine.submit(clean_trace(1)).unwrap();
        engine.wait_idle();
        let counters = |e: &Engine| {
            let snap = e.telemetry_snapshot();
            (snap.counter("engine_checker_panics"), snap.counter("engine_waiter_batches"))
        };
        assert_eq!(counters(&engine), (Some(1), Some(0)));
        assert!(engine.telemetry_summary().contains("WARNING: 1 checker panic(s)"));
        // The retired seat does not help again: with the worker held and a
        // batch queued, the second wait only blocks until the gate opens.
        model.set_open(false);
        engine.submit(clean_trace(2)).unwrap();
        model.wait_held(2);
        engine.submit(clean_trace(3)).unwrap();
        let opener = {
            let model = model.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(50));
                model.set_open(true);
            })
        };
        engine.wait_idle();
        opener.join().unwrap();
        assert_eq!(counters(&engine), (Some(1), Some(0)), "the waiter stayed out");
        // The engine still accepts and checks submissions.
        engine.submit(clean_trace(4)).unwrap();
        let report = engine.take_report();
        let stats = engine.stats();
        let lost = stats.traces_submitted - stats.traces_checked;
        assert_eq!(lost, 1, "only the batch the waiter panicked on");
        assert_eq!(report.traces().len() as u64 + lost, stats.traces_submitted);
        let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, vec![0, 2, 3, 4]);
    }

    #[test]
    fn worker_death_counts_a_checker_panic() {
        let engine = Engine::new(EngineConfig {
            model: Arc::new(PanickingModel),
            ..EngineConfig::default()
        });
        let trace = || {
            let mut t = Trace::new(0);
            t.push(Event::Write(ByteRange::with_len(0, 8)).here());
            t
        };
        engine.submit(trace()).unwrap();
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.submit(trace()).is_ok() {
            assert!(std::time::Instant::now() < deadline, "worker death never surfaced");
            std::thread::yield_now();
        }
        assert_eq!(engine.telemetry_snapshot().counter("engine_checker_panics"), Some(1));
        assert!(engine.report().traces().is_empty());
        assert_eq!(engine.telemetry_snapshot().counter("engine_checker_panics"), Some(1));
    }

    #[test]
    fn submit_after_worker_death_is_an_error_not_a_panic() {
        let engine = Engine::new(EngineConfig {
            model: Arc::new(PanickingModel),
            ..EngineConfig::default()
        });
        let mut t = Trace::new(0);
        t.push(Event::Write(ByteRange::with_len(0, 8)).here());
        let _ = engine.submit(t); // worker dies checking this trace
                                  // Spin until the death is observable as a dead ingest plane.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let mut t = Trace::new(1);
            t.push(Event::Write(ByteRange::with_len(0, 8)).here());
            match engine.submit(t) {
                Err(SubmitError) => break,
                Ok(()) => assert!(
                    std::time::Instant::now() < deadline,
                    "worker death never surfaced as SubmitError"
                ),
            }
            std::thread::yield_now();
        }
        assert!(SubmitError.to_string().contains("no longer accepting"));
    }

    #[test]
    fn report_does_not_hang_after_worker_panic() {
        // A panicking checker must not strand its batch's accounting: the
        // abandoned batch, and any batches the dying worker pool discards
        // from the rings, all have to retire or this report blocks forever.
        let engine = Engine::new(EngineConfig {
            model: Arc::new(PanickingModel),
            queue_capacity: 4,
            ..EngineConfig::default()
        });
        for id in 0..50 {
            let mut t = Trace::new(id);
            t.push(Event::Write(ByteRange::with_len(0, 8)).here());
            // Early submissions kill the worker; later ones race the death
            // and either land in the dying ring or error out. Every accepted
            // trace must still retire.
            let _ = engine.submit(t);
        }
        let report = engine.report();
        assert!(report.traces().is_empty(), "no trace survives a panicking checker");
        assert!(engine.take_report().is_clean());
    }

    #[test]
    fn telemetry_snapshot_exports_exploration_counters() {
        use crate::explore::{ExploreConfig, RecoveryProc};
        use pmtest_pmem::crash::{CrashSim, ValuedOp};

        struct NoopProc;
        impl RecoveryProc for NoopProc {
            fn name(&self) -> &str {
                "noop"
            }

            fn check(&self, _point: usize, _image: &[u8]) -> Result<(), String> {
                Ok(())
            }
        }

        let engine = Engine::new(EngineConfig::default());
        let snap = engine.telemetry_snapshot();
        assert_eq!(snap.counter("crash_points_enumerated"), Some(0));
        assert_eq!(snap.gauge("prefix_share_hit_rate"), Some(0.0), "no sweeps yet");

        let sim = CrashSim::new(
            vec![0; 128],
            vec![
                ValuedOp::Write { range: ByteRange::with_len(0, 1), data: vec![0xAA] },
                ValuedOp::Flush(ByteRange::with_len(0, 1)),
                ValuedOp::Fence,
                ValuedOp::Write { range: ByteRange::with_len(64, 1), data: vec![1] },
                ValuedOp::Flush(ByteRange::with_len(64, 1)),
                ValuedOp::Fence,
            ],
        );
        let report = engine.explore(&sim, &NoopProc, &ExploreConfig::default());
        assert!(report.is_clean());
        assert!(report.stats.images_checked > 0);

        let snap = engine.telemetry_snapshot();
        assert_eq!(
            snap.counter("crash_points_enumerated"),
            Some(report.stats.crash_points_enumerated)
        );
        assert_eq!(snap.counter("images_checked"), Some(report.stats.images_checked));
        assert_eq!(snap.counter("prefix_share_hits"), Some(report.stats.prefix_share_hits));
        assert_eq!(snap.counter("prefix_share_misses"), Some(0), "model-mode ascending sweep");
        assert_eq!(snap.gauge("prefix_share_hit_rate"), Some(1.0));

        // A second sweep accumulates rather than resets.
        engine.explore(&sim, &NoopProc, &ExploreConfig::default());
        let snap = engine.telemetry_snapshot();
        assert_eq!(
            snap.counter("crash_points_enumerated"),
            Some(2 * report.stats.crash_points_enumerated)
        );
        assert_eq!(snap.counter("images_checked"), Some(2 * report.stats.images_checked));
    }
}
