//! Stress tests for the batched, sharded checking engine: many producers,
//! many workers, mixed batch sizes — no trace may be lost, and merging the
//! per-worker result shards must preserve both the trace order (by id) and
//! the program order of diagnostics *within* each trace.

use std::sync::Arc;

use pmtest::prelude::*;

/// A trace with two failing `isPersist` checkers on distinct ranges. The
/// diagnostics must come back in program order: first the checker on
/// `[lo)`, then the one on `[hi)`.
fn two_failure_trace(id: u64) -> Trace {
    let lo = ByteRange::with_len(0, 8);
    let hi = ByteRange::with_len(64, 8);
    let mut t = Trace::new(id);
    t.push(Event::Write(lo).here());
    t.push(Event::Write(hi).here());
    t.push(Event::IsPersist(lo).here()); // FAIL 1: lo never flushed
    t.push(Event::IsPersist(hi).here()); // FAIL 2: hi never flushed
    t
}

fn clean_trace(id: u64) -> Trace {
    let r = ByteRange::with_len(0, 8);
    let mut t = Trace::new(id);
    t.push(Event::Write(r).here());
    t.push(Event::Flush(r).here());
    t.push(Event::Fence.here());
    t.push(Event::IsPersist(r).here());
    t
}

#[test]
fn no_trace_lost_under_producer_worker_contention() {
    const PRODUCERS: u64 = 8;
    const TRACES_PER_PRODUCER: u64 = 250;
    // Small queue so submissions regularly stall on backpressure.
    let engine = Arc::new(Engine::new(EngineConfig {
        workers: 4,
        queue_capacity: 4,
        ..EngineConfig::default()
    }));
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let engine = engine.clone();
            s.spawn(move || {
                let base = p * TRACES_PER_PRODUCER;
                let mut batch = Vec::new();
                for i in 0..TRACES_PER_PRODUCER {
                    let id = base + i;
                    // Mix submission shapes: singles, and batches of varying
                    // size (flushed every 7 traces).
                    if p % 2 == 0 {
                        engine.submit(two_failure_trace(id)).unwrap();
                    } else {
                        batch.push(two_failure_trace(id));
                        if batch.len() == 7 {
                            engine.submit_batch(std::mem::take(&mut batch)).unwrap();
                        }
                    }
                }
                engine.submit_batch(batch).unwrap();
            });
        }
    });
    let report = engine.take_report();
    let total = PRODUCERS * TRACES_PER_PRODUCER;
    assert_eq!(report.traces().len(), total as usize, "every submitted trace is checked");
    assert_eq!(report.fail_count(), 2 * total as usize);

    // Shard merge is ordered by trace id, with every id present exactly once.
    let ids: Vec<u64> = report.traces().iter().map(|t| t.trace_id).collect();
    assert_eq!(ids, (0..total).collect::<Vec<_>>());

    // Within each trace, diagnostics keep program order regardless of which
    // worker checked it: the range-0 failure strictly before the range-64
    // failure.
    for trace in report.traces() {
        assert_eq!(trace.diags.len(), 2, "trace {}", trace.trace_id);
        assert_eq!(trace.diags[0].range, Some(ByteRange::with_len(0, 8)));
        assert_eq!(trace.diags[1].range, Some(ByteRange::with_len(64, 8)));
    }

    let stats = engine.stats();
    assert_eq!(stats.traces_submitted, total);
    assert_eq!(stats.traces_checked, total);
    assert!(stats.backpressure_stalls > 0, "queue of 4 under 8 producers must stall");
    assert!(stats.queue_highwater >= 1);
}

#[test]
fn accumulate_and_drain_survive_concurrent_submission() {
    // report() (accumulating) interleaved with ongoing submissions, then a
    // final take_report() drains everything exactly once.
    let engine = Arc::new(Engine::new(EngineConfig { workers: 3, ..EngineConfig::default() }));
    for round in 0..5u64 {
        let base = round * 100;
        std::thread::scope(|s| {
            for p in 0..4u64 {
                let engine = engine.clone();
                s.spawn(move || {
                    let ids = (base + p * 25)..(base + (p + 1) * 25);
                    engine.submit_batch(ids.map(clean_trace).collect()).unwrap();
                });
            }
        });
        let report = engine.report();
        assert_eq!(report.traces().len(), ((round + 1) * 100) as usize, "report accumulates");
        assert!(report.is_clean());
    }
    assert_eq!(engine.take_report().traces().len(), 500, "take_report drains all");
    assert_eq!(engine.report().traces().len(), 0, "drained");
}

#[test]
fn batched_sessions_with_many_threads_lose_nothing() {
    const THREADS: usize = 6;
    const TRACES_PER_THREAD: usize = 100;
    let session = PmTestSession::builder().workers(4).batch_capacity(16).queue_capacity(8).build();
    session.start();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let session = session.clone();
                s.spawn(move || {
                    session.thread_init();
                    for _ in 0..TRACES_PER_THREAD {
                        let r = ByteRange::with_len(0, 8);
                        session.record(Event::Write(r).here());
                        session.record(Event::Flush(r).here());
                        session.record(Event::Fence.here());
                        session.is_persist(r);
                        session.send_trace().expect("trace produced");
                    }
                    // 100 % 16 != 0: a partial batch is pending at thread
                    // exit and must be flushed by the slot destructor.
                })
            })
            .collect();
        // Join each handle explicitly: the scope exit itself only waits for
        // the closures to return, which happens *before* TLS destructors —
        // and the drop-flush under test runs in one.
        for h in handles {
            h.join().unwrap();
        }
    });
    let report = session.finish();
    assert_eq!(report.traces().len(), THREADS * TRACES_PER_THREAD);
    assert!(report.is_clean(), "{report}");
    let stats = session.stats();
    assert_eq!(stats.traces_submitted, (THREADS * TRACES_PER_THREAD) as u64);
    assert!(
        stats.batches_submitted < stats.traces_submitted,
        "batching must actually coalesce: {} batches for {} traces",
        stats.batches_submitted,
        stats.traces_submitted
    );
}
