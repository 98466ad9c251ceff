//! Engine telemetry: the typed metrics the checking pipeline exposes
//! through [`pmtest_obs`].
//!
//! The engine's counters are always on — each is one `Relaxed` atomic op on
//! an already-atomic-heavy path, which is why telemetry-off overhead is
//! within noise (see DESIGN.md §9 for the budget). The *timing* layer
//! (per-checker latency histograms, dispatch latency, worker utilization,
//! per-worker [`TraceStats`] aggregation) costs one `Instant` read per entry
//! and is opt-in via [`TelemetryConfig::timing`]; the structured
//! [`EventLog`] ring is likewise behind [`TelemetryConfig::events`].
//!
//! The layers that watch the replay itself — timing, the flight recorder
//! and profiling — run on the checker's *observed lane*. Their per-entry and
//! per-trace work lands in seat-owned accumulators ([`TimingFold`],
//! [`ProfileFold`], the seat's recorder ring), and the shared histograms,
//! `worker_stats` and [`ProfileStore`] take one fold per batch, before the
//! batch's `traces_checked` is published. A snapshot taken mid-batch can
//! therefore lag the checked traces by at most one batch per checker seat
//! (each worker, plus the thread helping inside `Engine::wait_idle`).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pmtest_interval::{ByteRange, SegmentMap};
use pmtest_obs::advisor::AdvisorReport;
use pmtest_obs::profile::site_entry;
use pmtest_obs::{
    Counter, EventLog, Gauge, Histogram, LocalHistogram, MetricsRegistry, ProfileBatch,
    ProfileStore, Site, SiteDelta, SpanSink, TelemetrySnapshot,
};
use pmtest_trace::packed::decode_next;
use pmtest_trace::{
    ArenaStats, Entry, Event, FlightRecorder, LocResolver, PackedEntry, TraceStats, TraceStatsFold,
};

use crate::cache::ProfileDeltas;
use crate::diag::{Diag, DiagKind, Severity};

/// What the engine records beyond its always-on counters.
///
/// The default is everything off: counters and the queue-depth gauge still
/// update (they are single relaxed atomics), but no clocks are read on the
/// hot path, the event ring stays empty, and the span buffers are never
/// even allocated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Record latency histograms (per-checker, per-trace, dispatch, the
    /// five pipeline stages), worker busy time / utilization, and
    /// per-worker [`TraceStats`] aggregation. Costs one `Instant` read and a
    /// few worker-local adds per trace entry, one more clock read per trace,
    /// and one fold into the shared histograms per batch; traces it times
    /// bypass the verdict cache and the clean lane.
    pub timing: bool,
    /// Record structured events (batch spans, flush causes) into the ring.
    pub events: bool,
    /// Capacity of the event ring (oldest events are overwritten).
    pub event_capacity: usize,
    /// Keep a flight-recorder ring per checker seat (each worker, plus the
    /// thread checking inside `Engine::wait_idle`) of recently replayed
    /// entries with the interval state the model assigned, and emit a diagnosis
    /// bundle whenever a checker fires an ERROR (see DESIGN.md §11). Costs
    /// one ring lock per trace and, per entry, a copy of the entry's persist
    /// intervals into the ring slot it evicts (no allocation once the ring
    /// is full). A bundle is built only while the 16-bundle queue has room;
    /// past it a FAIL costs one lock and the `engine_bundles_dropped`
    /// counter. Recorded traces bypass the verdict cache and the clean lane.
    pub recorder: bool,
    /// Steps retained per checker seat by the flight recorder.
    pub recorder_capacity: usize,
    /// Record per-thread ingest spans (ship/claim/replay/merge) into
    /// lock-free span buffers, exportable as Perfetto-loadable Chrome
    /// trace-event JSON (see DESIGN.md §14). When off — the default — the
    /// record path is one relaxed atomic load and a branch.
    pub tracing: bool,
    /// Spans retained per thread by the span buffers (newest win).
    pub tracing_capacity: usize,
    /// Aggregate a cross-trace performance profile: per-`SourceLoc`
    /// flush/fence/log counts, wasted-persist bytes, and WARN diagnostics,
    /// feeding the optimization advisor (see DESIGN.md §16). When on, a
    /// worker-owned fold rides the walk that checks each trace (a
    /// clean-lane trace is decoded once for it; a verdict-cache hit replays
    /// its memoized deltas), and the shared profile store takes one lock per
    /// batch. When off — the default — the engine pays nothing per trace.
    pub profiling: bool,
    /// When set (e.g. `"127.0.0.1:9184"`), the engine serves its live
    /// telemetry over HTTP from this address: `GET /metrics` (Prometheus
    /// text exposition) and `GET /snapshot.json`. Port `0` binds an
    /// OS-assigned port, readable from `Engine::scrape_addr`.
    pub scrape_addr: Option<String>,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        Self::off()
    }
}

impl TelemetryConfig {
    /// Counters only — the zero-cost default.
    #[must_use]
    pub fn off() -> Self {
        Self {
            timing: false,
            events: false,
            event_capacity: EventLog::DEFAULT_CAPACITY,
            recorder: false,
            recorder_capacity: FlightRecorder::DEFAULT_CAPACITY,
            tracing: false,
            tracing_capacity: pmtest_obs::DEFAULT_SPAN_CAPACITY,
            profiling: false,
            scrape_addr: None,
        }
    }

    /// Everything on: timing histograms, the event ring, the flight
    /// recorder (diagnosis bundles on ERROR), span tracing, and the
    /// cross-trace performance profile. The scrape endpoint stays off —
    /// opt in with [`with_scrape`](Self::with_scrape).
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            timing: true,
            events: true,
            recorder: true,
            tracing: true,
            profiling: true,
            ..Self::off()
        }
    }

    /// Timing histograms without the event ring.
    #[must_use]
    pub fn timing_only() -> Self {
        Self { timing: true, ..Self::off() }
    }

    /// Flight recorder only: bundles on ERROR, no timing, no event ring.
    #[must_use]
    pub fn recorder_only() -> Self {
        Self { recorder: true, ..Self::off() }
    }

    /// Span tracing only: per-thread ingest spans, no timing histograms.
    #[must_use]
    pub fn tracing_only() -> Self {
        Self { tracing: true, ..Self::off() }
    }

    /// Cross-trace performance profiling only: the advisor's site-keyed
    /// profile store, no timing histograms, no rings.
    #[must_use]
    pub fn profiling_only() -> Self {
        Self { profiling: true, ..Self::off() }
    }

    /// Turns span tracing on.
    #[must_use]
    pub fn with_tracing(mut self) -> Self {
        self.tracing = true;
        self
    }

    /// Turns cross-trace performance profiling on.
    #[must_use]
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Serves live telemetry over HTTP from `addr` (see
    /// [`scrape_addr`](Self::scrape_addr)).
    #[must_use]
    pub fn with_scrape(mut self, addr: impl Into<String>) -> Self {
        self.scrape_addr = Some(addr.into());
        self
    }
}

/// A pipeline stage of the ingest plane, as decomposed by the
/// `engine_stage_ns{stage=…}` latency histograms: one trace's life is
/// record→ring-push on the producer, the ring wait, claim (or steal) to
/// replay start on the worker, the replay itself, and the report merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Producer side: sealing the batch and pushing it into the producer's
    /// ring, including any backpressure wait.
    RecordPush,
    /// Submit to worker dequeue: time the batch sat in the ring.
    RingWait,
    /// Worker dequeue to first replay: shadow-state acquisition and batch
    /// unpacking.
    ClaimReplay,
    /// Replaying the batch through the checkers.
    Replay,
    /// Appending results to the report shard and settling the tallies.
    ReportMerge,
}

impl Stage {
    /// Every stage, in histogram registration order.
    pub const ALL: [Stage; 5] =
        [Stage::RecordPush, Stage::RingWait, Stage::ClaimReplay, Stage::Replay, Stage::ReportMerge];

    /// The `stage` label value of the stage's histogram.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Stage::RecordPush => "record_push",
            Stage::RingWait => "ring_wait",
            Stage::ClaimReplay => "claim_replay",
            Stage::Replay => "replay",
            Stage::ReportMerge => "report_merge",
        }
    }
}

/// Cost category a trace entry is attributed to in the per-checker
/// wall-time histograms (`engine_checker_ns{checker=…}`), so `isPersist`
/// cost is separable from `TX_CHECKER` maintenance and from replaying plain
/// PM operations against the model.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckerCategory {
    /// Plain PM operations replayed into the shadow memory
    /// (write/flush/fence, any flavour).
    ModelReplay,
    /// `isPersist` checkers.
    IsPersist,
    /// `isOrderedBefore` checkers.
    IsOrderedBefore,
    /// Transaction bookkeeping and the high-level checker
    /// (`TX_BEGIN`/`TX_END`/`TX_ADD`, `TX_CHECKER_START`/`END`).
    TxChecker,
    /// Scope control (exclude/include).
    Scope,
}

impl CheckerCategory {
    /// Every category, in histogram registration order.
    pub const ALL: [CheckerCategory; 5] = [
        CheckerCategory::ModelReplay,
        CheckerCategory::IsPersist,
        CheckerCategory::IsOrderedBefore,
        CheckerCategory::TxChecker,
        CheckerCategory::Scope,
    ];

    /// The category charged for processing `event`.
    #[must_use]
    pub fn of(event: &Event) -> Self {
        match event {
            Event::Write(_) | Event::Flush(_) | Event::Fence | Event::OFence | Event::DFence => {
                CheckerCategory::ModelReplay
            }
            Event::IsPersist(_) => CheckerCategory::IsPersist,
            Event::IsOrderedBefore(_, _) => CheckerCategory::IsOrderedBefore,
            Event::TxBegin
            | Event::TxEnd
            | Event::TxAdd(_)
            | Event::TxCheckerStart
            | Event::TxCheckerEnd => CheckerCategory::TxChecker,
            Event::Exclude(_) | Event::Include(_) => CheckerCategory::Scope,
        }
    }

    /// The `checker` label value of the category's histogram.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            CheckerCategory::ModelReplay => "model_replay",
            CheckerCategory::IsPersist => "is_persist",
            CheckerCategory::IsOrderedBefore => "is_ordered_before",
            CheckerCategory::TxChecker => "tx_checker",
            CheckerCategory::Scope => "scope",
        }
    }
}

/// Why a session shipped a pending trace batch to the engine
/// (`session_flush_total{cause=…}`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushCause {
    /// The per-thread batch reached `batch_capacity`.
    Capacity,
    /// A result point — `flush`, `report`, `take_report`, or `finish`.
    ResultPoint,
    /// The recording thread exited with traces still batched.
    ThreadExit,
}

impl FlushCause {
    /// The `cause` label value.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FlushCause::Capacity => "capacity",
            FlushCause::ResultPoint => "result_point",
            FlushCause::ThreadExit => "thread_exit",
        }
    }
}

/// The engine's typed metric handles, shared with its workers.
pub(crate) struct EngineTelemetry {
    registry: MetricsRegistry,
    /// Structured event ring (batch spans, flush events).
    pub(crate) events: EventLog,
    /// Whether the timing layer is on (checked by workers and dispatch).
    pub(crate) timing: bool,
    started: Instant,
    /// Submit → worker-dequeue latency, ns (timing only).
    pub(crate) dispatch_latency: Histogram,
    /// Queue depth of the chosen worker, sampled on every submit.
    pub(crate) queue_depth: Gauge,
    /// Whole-trace check latency, ns (timing only).
    pub(crate) check_latency: Histogram,
    /// Per-category entry-processing time, ns (timing only); indexed like
    /// [`CheckerCategory::ALL`].
    pub(crate) checker_ns: [Histogram; CheckerCategory::ALL.len()],
    /// Whole-trace fused-replay time on the clock-free worker path, ns,
    /// timed once per trace (timing only). The per-entry `checker_ns`
    /// histograms attribute cost per checker category; this one measures the
    /// single-pass loop the engine actually runs in production mode.
    pub(crate) fused_replay: Histogram,
    /// Flat→BTree representation switches across the workers' recycled
    /// segment maps (always on — the delta is folded in once per trace).
    pub(crate) segmap_repr_switches: Counter,
    /// FAIL/WARN production per [`DiagKind`]; indexed like [`DiagKind::ALL`].
    diag_kinds: [Counter; DiagKind::ALL.len()],
    /// Busy nanoseconds per checker seat — each worker, then the waiter
    /// (timing only).
    pub(crate) worker_busy: Vec<Counter>,
    /// Aggregated [`TraceStats`] per checker seat (timing only).
    pub(crate) worker_stats: Vec<Mutex<TraceStats>>,
    /// Traces per shipped session batch.
    pub(crate) batch_fill: Histogram,
    flush_causes: [Counter; 3],
    /// Per-stage pipeline latency, ns (timing only); indexed like
    /// [`Stage::ALL`]. Registered unconditionally so a snapshot always
    /// exposes all five stages (count 0 with timing off).
    pub(crate) stages: [Histogram; Stage::ALL.len()],
    /// Cross-trace, site-keyed performance profile feeding the advisor
    /// (profiling layer; see DESIGN.md §16). Workers fold into it once per
    /// batch; off, it is never touched.
    pub(crate) profile: ProfileStore,
    /// Lock-free per-thread span buffers (tracing layer; see DESIGN.md §14).
    pub(crate) spans: Arc<SpanSink>,
    /// Pre-interned span names for the ingest pipeline's recording sites.
    pub(crate) span_names: SpanNames,
    /// Arena word-slab reallocations, folded in at batch-ship time.
    arena_slab_allocs: Counter,
    /// Location-intern tier hits (arena / TLS / global), folded in at
    /// batch-ship time.
    intern_tiers: [Counter; 3],
}

/// Span-name ids pre-interned at engine construction so recording threads
/// never touch the intern table.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanNames {
    /// Producer: seal + ring push of one batch (includes backpressure).
    pub(crate) ship: u32,
    /// Worker: dequeue to replay start for one batch.
    pub(crate) claim: u32,
    /// Worker: replaying one batch.
    pub(crate) replay: u32,
    /// Worker: merging one batch's results into the report shard.
    pub(crate) merge: u32,
}

impl EngineTelemetry {
    /// Metric handles for an engine with `seats` checker seats (its workers
    /// plus the waiter's seat).
    pub(crate) fn new(seats: usize, config: &TelemetryConfig) -> Self {
        let registry = MetricsRegistry::new();
        let events = EventLog::with_capacity(config.event_capacity.max(1));
        events.set_enabled(config.events);
        let spans = Arc::new(SpanSink::new(config.tracing_capacity.max(1)));
        spans.set_enabled(config.tracing);
        let profile = ProfileStore::new();
        profile.set_enabled(config.profiling);
        let span_names = SpanNames {
            ship: spans.intern("ship"),
            claim: spans.intern("claim"),
            replay: spans.intern("replay"),
            merge: spans.intern("merge"),
        };
        let stages =
            Stage::ALL.map(|s| registry.histogram("engine_stage_ns", &[("stage", s.label())]));
        let intern_tiers = ["arena", "tls", "global"]
            .map(|tier| registry.counter("engine_intern_hits", &[("tier", tier)]));
        let checker_ns = CheckerCategory::ALL
            .map(|c| registry.histogram("engine_checker_ns", &[("checker", c.label())]));
        let diag_kinds = DiagKind::ALL.map(|k| {
            registry.counter(
                "engine_diag_total",
                &[("code", k.code()), ("severity", k.severity().as_str())],
            )
        });
        let worker_busy = (0..seats)
            .map(|i| {
                let worker = i.to_string();
                registry.counter("engine_worker_busy_ns", &[("worker", &worker)])
            })
            .collect();
        Self {
            events,
            timing: config.timing,
            started: Instant::now(),
            dispatch_latency: registry.histogram("engine_dispatch_latency_ns", &[]),
            queue_depth: registry.gauge("engine_queue_depth", &[]),
            check_latency: registry.histogram("engine_check_latency_ns", &[]),
            checker_ns,
            fused_replay: registry.histogram("engine_fused_replay_ns", &[]),
            segmap_repr_switches: registry.counter("engine_segmap_repr_switches", &[]),
            diag_kinds,
            worker_busy,
            worker_stats: (0..seats).map(|_| Mutex::new(TraceStats::default())).collect(),
            batch_fill: registry.histogram("session_batch_fill", &[]),
            flush_causes: [
                registry.counter("session_flush_total", &[("cause", FlushCause::Capacity.label())]),
                registry
                    .counter("session_flush_total", &[("cause", FlushCause::ResultPoint.label())]),
                registry
                    .counter("session_flush_total", &[("cause", FlushCause::ThreadExit.label())]),
            ],
            stages,
            profile,
            spans,
            span_names,
            arena_slab_allocs: registry.counter("engine_arena_slab_allocs", &[]),
            intern_tiers,
            registry,
        }
    }

    /// The latency histogram of one pipeline stage.
    pub(crate) fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// Folds one shipped arena's allocator/intern tallies into the shared
    /// counters (called once per batch — cold by construction).
    pub(crate) fn note_arena_stats(&self, stats: ArenaStats) {
        if stats.slab_allocs > 0 {
            self.arena_slab_allocs.add(stats.slab_allocs);
        }
        let ArenaStats { interns, .. } = stats;
        if interns.arena_hits > 0 {
            self.intern_tiers[0].add(interns.arena_hits);
        }
        if interns.tls_hits > 0 {
            self.intern_tiers[1].add(interns.tls_hits);
        }
        if interns.global > 0 {
            self.intern_tiers[2].add(interns.global);
        }
    }

    /// Adds one batch's diagnostic counts, indexed like [`DiagKind::ALL`]
    /// (the declaration order, so `kind as usize` indexes it).
    pub(crate) fn count_diags(&self, kinds: &[u64; DiagKind::ALL.len()]) {
        for (counter, &n) in self.diag_kinds.iter().zip(kinds) {
            if n > 0 {
                counter.add(n);
            }
        }
    }

    /// Records one shipped session batch.
    pub(crate) fn note_batch_shipped(&self, cause: FlushCause, traces: usize) {
        self.batch_fill.record(traces as u64);
        self.flush_causes[cause as usize].inc();
        if self.events.is_enabled() {
            self.events.record(
                "session.flush",
                &[("cause", cause.label().into()), ("traces", (traces as u64).into())],
            );
        }
    }

    /// Registry metrics plus derived per-worker gauges and the event ring.
    pub(crate) fn snapshot(&self) -> TelemetrySnapshot {
        let mut snap = self.registry.snapshot();
        let uptime_ns = self.started.elapsed().as_nanos() as f64;
        for (i, busy) in self.worker_busy.iter().enumerate() {
            let worker = i.to_string();
            snap.push_gauge(
                "engine_worker_utilization",
                &[("worker", &worker)],
                busy.get() as f64 / uptime_ns.max(1.0),
            );
        }
        if self.timing {
            for (i, stats) in self.worker_stats.iter().enumerate() {
                let stats = *stats.lock();
                let worker = i.to_string();
                let labels: &[(&str, &str)] = &[("worker", &worker)];
                snap.push_counter("engine_worker_entries", labels, stats.entries);
                snap.push_counter("engine_worker_writes", labels, stats.writes);
                snap.push_counter("engine_worker_fences", labels, stats.fences);
                snap.push_counter("engine_worker_ofences", labels, stats.ofences);
                snap.push_counter("engine_worker_dfences", labels, stats.dfences);
                snap.push_counter("engine_worker_epochs", labels, stats.epochs());
                snap.push_gauge(
                    "engine_worker_avg_writes_per_epoch",
                    labels,
                    stats.avg_writes_per_epoch(),
                );
                snap.push_gauge(
                    "engine_worker_max_writes_per_epoch",
                    labels,
                    stats.max_writes_per_epoch as f64,
                );
            }
        }
        snap.push_counter("engine_events_dropped", &[], self.events.dropped());
        snap.push_counter("engine_spans_dropped", &[], self.spans.dropped());
        if self.profile.is_enabled() {
            let profile = self.profile.snapshot();
            profile.fold_into(&mut snap);
            AdvisorReport::from_profile(&profile).fold_into(&mut snap);
        }
        snap.events = self.events.snapshot();
        snap
    }
}

/// The timing layer's per-worker accumulators: per-entry checker costs,
/// whole-trace check and fused-replay latencies, and the worker's
/// [`TraceStats`], all in plain integers. [`drain_into`](Self::drain_into)
/// folds them into the shared histograms and `worker_stats` once per batch,
/// so the per-entry cost is the clock read plus a few non-atomic adds.
#[derive(Default)]
pub(crate) struct TimingFold {
    /// Indexed like [`CheckerCategory::ALL`].
    checker_ns: [LocalHistogram; CheckerCategory::ALL.len()],
    check_latency: LocalHistogram,
    fused_replay: LocalHistogram,
    /// The open trace's statistics.
    trace: TraceStatsFold,
    /// Closed traces' statistics since the last drain.
    stats: TraceStats,
}

impl TimingFold {
    /// Charges one entry's processing time to its checker category and
    /// folds the entry into the open trace's statistics.
    pub(crate) fn entry(&mut self, event: &Event, ns: u64) {
        self.checker_ns[CheckerCategory::of(event) as usize].record(ns);
        self.trace.push(event);
    }

    /// Closes the open trace: its whole-check latency (also charged to the
    /// fused-replay histogram when a built-in model ran) and statistics.
    pub(crate) fn end_trace(&mut self, elapsed_ns: u64, fused: bool) {
        self.check_latency.record(elapsed_ns);
        if fused {
            self.fused_replay.record(elapsed_ns);
        }
        self.stats.merge(&std::mem::take(&mut self.trace).finish());
    }

    /// Folds everything accumulated since the last drain into `telemetry`
    /// as worker `worker`'s share, and starts over.
    pub(crate) fn drain_into(&mut self, telemetry: &EngineTelemetry, worker: usize) {
        for (shared, local) in telemetry.checker_ns.iter().zip(&mut self.checker_ns) {
            shared.absorb(local);
        }
        telemetry.check_latency.absorb(&mut self.check_latency);
        telemetry.fused_replay.absorb(&mut self.fused_replay);
        if self.stats.entries > 0 {
            telemetry.worker_stats[worker].lock().merge(&std::mem::take(&mut self.stats));
        }
    }
}

/// The profiling layer's per-worker fold (DESIGN.md §16). The walk that
/// checks a trace [`push`](Self::push)es each decoded entry; the fold
/// re-detects the wasteful persistency patterns — duplicate and unnecessary
/// flushes, duplicate undo-log appends, fences ordering no new work — per
/// source site, dialect-independently (under HOPS the checkers demote
/// flush/fence to `ForeignOperation`, but the profile still sees them).
/// [`end_trace`](Self::end_trace) attributes the trace's WARN diagnostics
/// and adds its deltas to the worker's [`ProfileBatch`], which
/// [`drain_into`](Self::drain_into) folds into the shared store once per
/// batch. The three interval sets and the site vectors are recycled, so a
/// steady-state trace allocates nothing.
#[derive(Default)]
pub(crate) struct ProfileFold {
    /// Shadow sets mirroring the checker's redundancy view: what has been
    /// written, what is clean-flushed (not re-dirtied since), and what the
    /// open transaction has already logged.
    written: SegmentMap<()>,
    flushed: SegmentMap<()>,
    logged: SegmentMap<()>,
    work_since_fence: bool,
    /// The open trace's per-site deltas, in first-seen order.
    sites: Vec<(Site, SiteDelta)>,
    /// The open trace's `(site, code)` WARN attributions.
    warns: Vec<(Site, &'static str)>,
    /// Closed traces since the last drain.
    batch: ProfileBatch,
}

/// Bytes of `r` covered by `map` (its segments are disjoint and come back
/// clipped to `r`).
fn covered_bytes(map: &SegmentMap<()>, r: ByteRange) -> u64 {
    map.overlapping(r).map(|(seg, _)| seg.len()).sum()
}

impl ProfileFold {
    /// Folds in the open trace's next entry, in program order.
    pub(crate) fn push(&mut self, entry: &Entry) {
        let site = (entry.loc.file(), entry.loc.line());
        match entry.event {
            Event::Write(r) => {
                site_entry(&mut self.sites, site).writes += 1;
                self.written.insert(r, ());
                // A rewrite re-dirties the line: a later flush is useful again.
                self.flushed.remove(r);
                self.work_since_fence = true;
            }
            Event::Flush(r) => {
                let dup = covered_bytes(&self.flushed, r);
                let unwritten = r.len() - covered_bytes(&self.written, r);
                let delta = site_entry(&mut self.sites, site);
                delta.flushes += 1;
                if dup > 0 {
                    delta.dup_flushes += 1;
                    delta.dup_flush_bytes += dup;
                }
                if unwritten > 0 {
                    delta.unnecessary_flushes += 1;
                    delta.unnecessary_flush_bytes += unwritten;
                }
                self.flushed.insert(r, ());
                self.work_since_fence = true;
            }
            Event::Fence | Event::OFence | Event::DFence => {
                let delta = site_entry(&mut self.sites, site);
                delta.fences += 1;
                if !self.work_since_fence {
                    delta.redundant_fences += 1;
                }
                self.work_since_fence = false;
            }
            Event::TxAdd(r) => {
                let dup = covered_bytes(&self.logged, r);
                let delta = site_entry(&mut self.sites, site);
                delta.logs += 1;
                if dup > 0 {
                    delta.dup_logs += 1;
                    delta.dup_log_bytes += dup;
                }
                self.logged.insert(r, ());
                self.work_since_fence = true;
            }
            Event::TxBegin | Event::TxEnd => self.logged.clear(),
            Event::IsPersist(_)
            | Event::IsOrderedBefore(_, _)
            | Event::TxCheckerStart
            | Event::TxCheckerEnd
            | Event::Exclude(_)
            | Event::Include(_) => {}
        }
    }

    /// Decodes a packed trace and folds in every entry — for traces the
    /// clean lane proved without decoding them.
    pub(crate) fn push_packed(&mut self, words: &[PackedEntry], resolver: &mut LocResolver) {
        let mut i = 0;
        while let Some((entry, next)) = decode_next(words, i, resolver) {
            self.push(&entry);
            i = next;
        }
    }

    /// Closes the open trace: attributes its WARN diagnostics to their
    /// sites, adds the trace to the batch, and resets for the next one.
    /// With `memo`, also returns the trace's deltas for the verdict cache
    /// to replay on later hits.
    pub(crate) fn end_trace(&mut self, diags: &[Diag], memo: bool) -> Option<ProfileDeltas> {
        self.warns.extend(
            diags
                .iter()
                .filter(|d| d.severity() == Severity::Warn)
                .map(|d| ((d.loc.file(), d.loc.line()), d.kind.code())),
        );
        self.batch.add_trace(&self.sites, &self.warns);
        let deltas = memo.then(|| (self.sites.clone(), self.warns.clone()));
        self.sites.clear();
        self.warns.clear();
        self.written.clear();
        self.flushed.clear();
        self.logged.clear();
        self.work_since_fence = false;
        deltas
    }

    /// Adds a memoized trace's deltas (a verdict-cache hit) to the batch.
    pub(crate) fn replay(&mut self, (ops, warns): &ProfileDeltas) {
        self.batch.add_trace(ops, warns);
    }

    /// Folds the batch into the shared store (one lock) and empties it.
    pub(crate) fn drain_into(&mut self, store: &ProfileStore) {
        store.absorb(&mut self.batch);
    }
}

/// A one-line human summary of an engine snapshot — traces checked, check
/// latency p50/p99, queue high-water, diagnostics — for examples and
/// harnesses to dogfood the telemetry API without formatting it themselves.
///
/// The line also says how many batches the thread waiting in
/// `Engine::wait_idle` checked on its own seat. When the capped telemetry
/// rings lost anything (event-ring overwrites, span-buffer overwrites), a
/// WARNING line is appended, another when ERROR diagnosis bundles were
/// dropped at the bundle-queue cap, and another when a checker panicked —
/// silent data loss in the observability layer is how regressions hide.
#[must_use]
pub fn summary_line(snap: &TelemetrySnapshot) -> String {
    let traces = snap.counter("engine_traces_checked").unwrap_or(0);
    let waiter = snap.counter("engine_waiter_batches").unwrap_or(0);
    let highwater = snap.counter("engine_queue_highwater").unwrap_or(0);
    let sev_total = |sev: &str| -> u64 {
        snap.counters
            .iter()
            .filter(|c| {
                c.name == "engine_diag_total"
                    && c.labels.iter().any(|(k, v)| k == "severity" && v == sev)
            })
            .map(|c| c.value)
            .sum()
    };
    let latency = match snap.histogram("engine_check_latency_ns") {
        Some(h) if h.count > 0 => {
            format!("check p50 {:.1}µs / p99 {:.1}µs", h.p50 / 1_000.0, h.p99 / 1_000.0)
        }
        _ => "check latency n/a (timing off)".to_owned(),
    };
    let mut line = format!(
        "telemetry: {traces} traces checked ({waiter} batch(es) by the waiter), {latency}, \
         queue high-water {highwater}, {} FAIL / {} WARN",
        sev_total("FAIL"),
        sev_total("WARN"),
    );
    let profiled = snap.counter_sum("profile_traces_profiled");
    if profiled > 0 {
        line.push_str(&format!(
            "\nadvisor: {profiled} traces profiled across {} sites — {} suggestion(s), \
             {} wasted persist bytes, {} redundant fence(s)",
            snap.gauge("profile_sites_tracked").unwrap_or(0.0) as u64,
            snap.counter_sum("advisor_suggestions"),
            snap.counter_sum("profile_wasted_persist_bytes"),
            snap.counter_sum("profile_redundant_fences"),
        ));
    }
    // Presence of the miss counter marks a cache-enabled engine (all-zero
    // counters on an idle cached engine still print, deliberately).
    if snap.counter("verdict_cache_misses").is_some() {
        let l1 = snap.counter_sum("verdict_cache_l1_hits");
        let l2 = snap.counter_sum("verdict_cache_l2_hits");
        line.push_str(&format!(
            "\nverdict cache: {:.1}% hit rate ({l1} L1 / {l2} L2), {} miss(es), \
             {} bypassed, {} eviction(s), {} bytes resident",
            snap.gauge("verdict_cache_hit_rate").unwrap_or(0.0) * 100.0,
            snap.counter_sum("verdict_cache_misses"),
            snap.counter_sum("verdict_cache_bypasses"),
            snap.counter_sum("verdict_cache_evictions"),
            snap.gauge("verdict_cache_bytes_resident").unwrap_or(0.0) as u64,
        ));
    }
    let events_dropped = snap.counter_sum("engine_events_dropped");
    let spans_dropped = snap.counter_sum("engine_spans_dropped");
    if events_dropped > 0 || spans_dropped > 0 {
        line.push_str(&format!(
            "\nWARNING: telemetry rings overflowed — {events_dropped} event(s) and \
             {spans_dropped} span(s) dropped; raise event_capacity/tracing_capacity \
             or snapshot more often"
        ));
    }
    let bundles_dropped = snap.counter_sum("engine_bundles_dropped");
    if bundles_dropped > 0 {
        line.push_str(&format!(
            "\nWARNING: diagnosis bundle queue full — {bundles_dropped} ERROR bundle(s) \
             dropped; drain take_bundles() more often"
        ));
    }
    let panics = snap.counter_sum("engine_checker_panics");
    if panics > 0 {
        line.push_str(&format!(
            "\nWARNING: {panics} checker panic(s) — the batch each was checking went \
             unreported; a dead worker pool rejects further submissions"
        ));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmtest_interval::ByteRange;

    #[test]
    fn every_event_maps_to_a_category() {
        let r = ByteRange::with_len(0, 8);
        assert_eq!(CheckerCategory::of(&Event::Write(r)), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::Flush(r)), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::Fence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::OFence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::DFence), CheckerCategory::ModelReplay);
        assert_eq!(CheckerCategory::of(&Event::IsPersist(r)), CheckerCategory::IsPersist);
        assert_eq!(
            CheckerCategory::of(&Event::IsOrderedBefore(r, r)),
            CheckerCategory::IsOrderedBefore
        );
        assert_eq!(CheckerCategory::of(&Event::TxBegin), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::TxAdd(r)), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::TxCheckerEnd), CheckerCategory::TxChecker);
        assert_eq!(CheckerCategory::of(&Event::Exclude(r)), CheckerCategory::Scope);
        // Labels are distinct (they key the histogram label set).
        let mut labels: Vec<_> = CheckerCategory::ALL.iter().map(|c| c.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CheckerCategory::ALL.len());
    }

    #[test]
    fn profile_fold_scores_each_trace_from_a_clean_slate() {
        let r = ByteRange::with_len(0, 64);
        let at = |line| pmtest_trace::SourceLoc::new("fold.rs", line);
        let mut fold = ProfileFold::default();
        // Trace 1: a write, its flush, a duplicate flush of half of it plus
        // 32 never-written bytes, a fence and a redundant fence, then a
        // write left unfenced and a log append left uncommitted.
        for (event, line) in [
            (Event::Write(r), 1),
            (Event::Flush(r), 2),
            (Event::Flush(ByteRange::with_len(32, 64)), 3),
            (Event::Fence, 4),
            (Event::Fence, 5),
            (Event::Write(r), 6),
            (Event::TxAdd(r), 7),
        ] {
            fold.push(&event.at(at(line)));
        }
        let (ops, warns) = fold.end_trace(&[], true).expect("memo requested");
        assert!(warns.is_empty());
        let site = |ops: &[(Site, SiteDelta)], line| {
            ops.iter().find(|(s, _)| s.1 == line).map(|(_, d)| *d).unwrap_or_default()
        };
        let dup = site(&ops, 3);
        assert_eq!((dup.dup_flushes, dup.dup_flush_bytes), (1, 32));
        assert_eq!((dup.unnecessary_flushes, dup.unnecessary_flush_bytes), (1, 32));
        assert_eq!((site(&ops, 4).redundant_fences, site(&ops, 5).redundant_fences), (0, 1));
        // Trace 2 starts clean: trace 1's pending write does not make its
        // first fence useful, its writes do not cover this flush, its
        // flushes do not make it a duplicate, and its log is not this one.
        fold.push(&Event::Fence.at(at(4)));
        fold.push(&Event::Flush(ByteRange::with_len(0, 96)).at(at(2)));
        fold.push(&Event::Fence.at(at(4)));
        fold.push(&Event::TxAdd(r).at(at(7)));
        let (ops, _) = fold.end_trace(&[], true).expect("memo requested");
        let flush = site(&ops, 2);
        assert_eq!((flush.unnecessary_flushes, flush.unnecessary_flush_bytes), (1, 96));
        assert_eq!(flush.dup_flushes, 0);
        assert_eq!((site(&ops, 4).fences, site(&ops, 4).redundant_fences), (2, 1));
        assert_eq!((site(&ops, 7).logs, site(&ops, 7).dup_logs), (1, 0));
        assert!(fold.end_trace(&[], false).is_none(), "no memo unless asked");
        let store = ProfileStore::new();
        fold.drain_into(&store);
        let snap = store.snapshot();
        assert_eq!(snap.traces, 3);
        let flushes: u64 = snap.sites.iter().map(|s| s.ops.flushes).sum();
        assert_eq!(flushes, 3);
    }

    #[test]
    fn diag_counters_cover_every_kind() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let mut kinds = [0; DiagKind::ALL.len()];
        for (i, kind) in DiagKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "ALL is in declaration order");
            kinds[kind as usize] += i as u64 + 1;
        }
        tel.count_diags(&kinds);
        let snap = tel.snapshot();
        for (i, kind) in DiagKind::ALL.into_iter().enumerate() {
            let counter = snap
                .counters
                .iter()
                .find(|c| {
                    c.name == "engine_diag_total"
                        && c.labels.iter().any(|(k, v)| k == "code" && v == kind.code())
                })
                .expect("per-kind counter registered");
            assert_eq!(counter.value, i as u64 + 1, "{}", kind.code());
        }
    }

    #[test]
    fn summary_line_reports_timing_state() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let s = summary_line(&tel.snapshot());
        assert!(s.contains("timing off"), "{s}");
        let tel = EngineTelemetry::new(1, &TelemetryConfig::enabled());
        tel.check_latency.record(1_500);
        let mut snap = tel.snapshot();
        snap.push_counter("engine_traces_checked", &[], 1);
        let s = summary_line(&snap);
        assert!(s.contains("1 traces checked"), "{s}");
        assert!(s.contains("p50"), "{s}");
        assert!(!s.contains("WARNING"), "no drops, no warning: {s}");
    }

    #[test]
    fn summary_line_warns_on_ring_drops() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let mut snap = tel.snapshot();
        // Simulate overflowed rings.
        snap.push_counter("engine_events_dropped", &[], 3);
        snap.push_counter("engine_spans_dropped", &[], 5);
        let s = summary_line(&snap);
        assert!(s.contains("WARNING"), "{s}");
        assert!(s.contains("3 event(s)"), "{s}");
        assert!(s.contains("5 span(s)"), "{s}");
        assert!(!s.contains("bundle"), "no bundles dropped, no bundle warning: {s}");
    }

    #[test]
    fn summary_line_warns_on_dropped_bundles() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let mut snap = tel.snapshot();
        snap.push_counter("engine_bundles_dropped", &[], 0);
        assert!(!summary_line(&snap).contains("WARNING"));
        let mut snap = tel.snapshot();
        snap.push_counter("engine_bundles_dropped", &[], 24);
        let s = summary_line(&snap);
        assert!(s.contains("WARNING: diagnosis bundle queue full — 24 ERROR bundle(s)"), "{s}");
    }

    #[test]
    fn summary_line_names_the_waiter_and_warns_on_checker_panics() {
        let tel = EngineTelemetry::new(2, &TelemetryConfig::off());
        let mut snap = tel.snapshot();
        snap.push_counter("engine_waiter_batches", &[], 7);
        snap.push_counter("engine_checker_panics", &[], 0);
        let s = summary_line(&snap);
        assert!(s.contains("(7 batch(es) by the waiter)"), "{s}");
        assert!(!s.contains("WARNING"), "{s}");
        let mut snap = tel.snapshot();
        snap.push_counter("engine_checker_panics", &[], 2);
        let s = summary_line(&snap);
        assert!(s.contains("WARNING: 2 checker panic(s)"), "{s}");
    }

    #[test]
    fn all_five_stage_histograms_register_even_when_off() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        let snap = tel.snapshot();
        for stage in Stage::ALL {
            let h = snap
                .histogram_with("engine_stage_ns", "stage", stage.label())
                .unwrap_or_else(|| panic!("stage {} must be registered", stage.label()));
            assert_eq!(h.count, 0, "timing off records nothing");
        }
        // Labels are distinct (they key the histogram label set).
        let mut labels: Vec<_> = Stage::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Stage::ALL.len());
    }

    #[test]
    fn arena_stats_fold_into_tiered_counters() {
        use pmtest_trace::InternStats;
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        tel.note_arena_stats(ArenaStats {
            slab_allocs: 2,
            interns: InternStats { arena_hits: 100, tls_hits: 7, global: 1 },
        });
        tel.note_arena_stats(ArenaStats {
            slab_allocs: 0,
            interns: InternStats { arena_hits: 50, tls_hits: 0, global: 0 },
        });
        let snap = tel.snapshot();
        assert_eq!(snap.counter("engine_arena_slab_allocs"), Some(2));
        assert_eq!(snap.counter_sum("engine_intern_hits"), 158);
    }

    #[test]
    fn tracing_layer_gates_span_recording() {
        let tel = EngineTelemetry::new(1, &TelemetryConfig::off());
        assert!(!tel.spans.is_enabled(), "tracing is off by default");
        let tel = EngineTelemetry::new(1, &TelemetryConfig::tracing_only());
        assert!(tel.spans.is_enabled());
        let h = tel.spans.register(0);
        h.record(tel.span_names.replay, 10, 5);
        let dump = tel.spans.snapshot();
        assert_eq!(dump.records.len(), 1);
        assert_eq!(dump.records[0].name, "replay");
    }
}
