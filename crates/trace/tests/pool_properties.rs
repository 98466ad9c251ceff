//! Property tests for the arena recycling pool.
//!
//! The pool's core invariant: an arena recycled through the pool can never
//! leak records from one trace into another. Every `acquire` must observe an
//! empty arena — no records, no sealed spans, no open tail — no matter what
//! interleaving of acquires and releases (with arbitrarily dirty arenas)
//! preceded it, and the stats counters must stay consistent with the
//! operation sequence.

use pmtest_trace::{ArenaPool, Event, Trace, TraceArena};
use proptest::prelude::*;

/// One step of a pool workload.
#[derive(Debug, Clone)]
enum Op {
    /// Acquire an arena, stuff `fill` records into it, keep it on the side.
    AcquireAndFill(u8),
    /// Release the oldest held arena (no-op when none are held).
    ReleaseOldest,
    /// Release a freshly allocated dirty arena of the given size.
    ReleaseForeign(u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<u8>().prop_map(Op::AcquireAndFill),
        Just(Op::ReleaseOldest),
        (1..64u8).prop_map(Op::ReleaseForeign),
    ]
}

/// Records `n` fences into `arena`: every third one closes a sealed span,
/// and whatever follows the last seal stays in the open tail.
fn fill(arena: &mut TraceArena, n: u8) {
    for i in 0..n {
        arena.push(Event::Fence.here());
        if i % 3 == 2 {
            arena.seal(u64::from(i));
        }
    }
}

fn dirty(n: u8) -> TraceArena {
    let mut arena = TraceArena::with_word_capacity(usize::from(n.max(1)));
    fill(&mut arena, n);
    arena
}

proptest! {
    /// No interleaving of acquires and dirty releases ever surfaces a
    /// non-empty arena from `acquire`.
    #[test]
    fn acquired_arenas_are_always_empty(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let pool = ArenaPool::new();
        let mut held: Vec<TraceArena> = Vec::new();
        let mut acquires = 0u64;
        let mut releases = 0u64;
        for op in &ops {
            match op {
                Op::AcquireAndFill(n) => {
                    let mut arena = pool.acquire();
                    acquires += 1;
                    prop_assert!(arena.is_empty(), "acquire returned {} stale spans", arena.sealed());
                    prop_assert_eq!(arena.open_entries(), 0, "acquire returned an open tail");
                    fill(&mut arena, *n);
                    held.push(arena);
                }
                Op::ReleaseOldest => {
                    if !held.is_empty() {
                        pool.release(held.remove(0));
                        releases += 1;
                    }
                }
                Op::ReleaseForeign(n) => {
                    pool.release(dirty(*n));
                    releases += 1;
                }
            }
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.recycled + stats.fresh, acquires);
        prop_assert_eq!(stats.released, releases);
        prop_assert!(stats.recycled <= releases, "cannot recycle more than was released");
        prop_assert!(pool.available() as u64 <= releases);
    }

    /// Round-tripping standalone traces through pooled arenas the way the
    /// engine does (copy each trace into an acquired arena, check its span,
    /// release the arena) never leaks records across traces, for any
    /// sequence of trace lengths.
    #[test]
    fn trace_round_trip_never_leaks(lens in proptest::collection::vec(0..40usize, 1..100)) {
        let pool = ArenaPool::new();
        for (id, len) in lens.iter().enumerate() {
            let mut trace = Trace::new(id as u64);
            for _ in 0..*len {
                trace.push(Event::Fence.here());
            }
            let mut arena = pool.acquire();
            prop_assert!(arena.is_empty(), "trace {} inherited {} spans", id, arena.sealed());
            arena.push_trace(&trace);
            let spans: Vec<_> = arena.traces().collect();
            prop_assert_eq!(spans.len(), 1);
            prop_assert_eq!(spans[0].0, id as u64);
            prop_assert_eq!(spans[0].1, trace.packed());
            prop_assert_eq!(spans[0].2 as usize, *len);
            pool.release(arena);
        }
        let stats = pool.stats();
        prop_assert_eq!(stats.released, lens.len() as u64);
    }
}
