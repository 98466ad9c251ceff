//! Per-worker flight recorder: a bounded ring of recently replayed entries
//! annotated with the interval state the persistency model assigned.
//!
//! The recorder is an observability aid, not part of checking: a worker
//! [`lock`](FlightRecorder::lock)s its ring once per trace and fills one
//! [`StepRecord`] after replaying each entry, and on an ERROR (or an
//! explicit capture request) the engine copies the window into a diagnosis
//! bundle. The ring is bounded so a long trace cannot grow it without limit;
//! old steps are dropped oldest-first, and once the ring is full each new
//! step is written into the slot it evicts — reusing that slot's interval
//! list — so steady-state recording allocates nothing.
//!
//! Epochs and intervals are recorded as plain `u64`s here because the trace
//! crate sits below the core crate that owns the epoch/interval types.

use std::collections::VecDeque;

use parking_lot::{Mutex, MutexGuard};
use pmtest_interval::ByteRange;

use crate::{Entry, SourceLoc};

/// One per-range persist interval as the model saw it after a step.
///
/// `end == None` means the interval is still open (flushed but not yet
/// fenced, or not flushed at all): the range is not guaranteed persistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntervalNote {
    /// The byte range this interval covers.
    pub range: ByteRange,
    /// Epoch in which the persist interval began (the write's epoch).
    pub begin: u64,
    /// Epoch in which the interval closed, if it has closed.
    pub end: Option<u64>,
    /// Source location of the write that opened the interval, if known.
    pub write_loc: Option<SourceLoc>,
}

/// One replayed entry together with the interval state observed after it.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Id of the trace this entry belonged to.
    pub trace_id: u64,
    /// Index of the entry within its trace.
    pub index: usize,
    /// The entry itself (events are `Copy`).
    pub entry: Entry,
    /// The model's epoch counter after replaying this entry.
    pub epoch: u64,
    /// Persist intervals touching the entry's own ranges after this step.
    pub intervals: Vec<IntervalNote>,
}

/// A bounded ring buffer of [`StepRecord`]s.
///
/// One recorder per engine worker; the ring persists across traces so a
/// capture sees the most recent window regardless of trace boundaries.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: Mutex<RecorderRing>,
}

/// The ring behind a [`FlightRecorder`], reached through
/// [`FlightRecorder::lock`]: the recording worker holds it for a whole
/// trace, paying the lock once rather than per step.
#[derive(Debug)]
pub struct RecorderRing {
    capacity: usize,
    steps: VecDeque<StepRecord>,
}

impl RecorderRing {
    /// Appends the step for one replayed entry, evicting the oldest once the
    /// ring is full, and returns its interval list — empty, for the caller
    /// to fill with the entry's persist intervals. A full ring writes the
    /// step into the evicted slot, so the list keeps that slot's allocation.
    pub fn push(
        &mut self,
        trace_id: u64,
        index: usize,
        entry: Entry,
        epoch: u64,
    ) -> &mut Vec<IntervalNote> {
        let step = if self.steps.len() == self.capacity {
            let mut slot = self.steps.pop_front().expect("a full ring is nonempty");
            slot.trace_id = trace_id;
            slot.index = index;
            slot.entry = entry;
            slot.epoch = epoch;
            slot.intervals.clear();
            slot
        } else {
            StepRecord { trace_id, index, entry, epoch, intervals: Vec::new() }
        };
        self.steps.push_back(step);
        &mut self.steps.back_mut().expect("just pushed").intervals
    }

    /// Copies of the retained steps that belong to `trace_id`, oldest first.
    #[must_use]
    pub fn steps_of(&self, trace_id: u64) -> Vec<StepRecord> {
        self.steps.iter().filter(|s| s.trace_id == trace_id).cloned().collect()
    }
}

impl FlightRecorder {
    /// Default window size: enough for every trace the paper's examples
    /// produce while keeping the per-worker footprint small.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// Create a recorder retaining at most `capacity` steps (min 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            capacity,
            ring: Mutex::new(RecorderRing { capacity, steps: VecDeque::with_capacity(capacity) }),
        }
    }

    /// Maximum number of steps retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Exclusive access to the ring, for a run of [`RecorderRing::push`]es.
    pub fn lock(&self) -> MutexGuard<'_, RecorderRing> {
        self.ring.lock()
    }

    /// Snapshot the current window, oldest step first.
    pub fn window(&self) -> Vec<StepRecord> {
        self.ring.lock().steps.iter().cloned().collect()
    }

    /// Number of steps currently retained.
    pub fn len(&self) -> usize {
        self.ring.lock().steps.len()
    }

    /// True when no steps have been recorded (or all were cleared).
    pub fn is_empty(&self) -> bool {
        self.ring.lock().steps.is_empty()
    }

    /// Drop every retained step.
    pub fn clear(&self) {
        self.ring.lock().steps.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Event;

    fn record(rec: &FlightRecorder, trace_id: u64, index: usize) {
        let mut ring = rec.lock();
        let intervals = ring.push(trace_id, index, Event::Fence.here(), index as u64);
        assert!(intervals.is_empty(), "a pushed step starts with no intervals");
        intervals.push(IntervalNote {
            range: ByteRange::with_len(index as u64, 1),
            begin: index as u64,
            end: None,
            write_loc: None,
        });
    }

    #[test]
    fn ring_evicts_oldest_first() {
        let rec = FlightRecorder::new(3);
        for i in 0..5 {
            record(&rec, 1, i);
        }
        let window = rec.window();
        assert_eq!(window.len(), 3);
        assert_eq!(window.iter().map(|s| s.index).collect::<Vec<_>>(), vec![2, 3, 4]);
        // Each reused slot holds only its own step's interval.
        for step in &window {
            assert_eq!(step.epoch, step.index as u64);
            assert_eq!(step.intervals.len(), 1);
            assert_eq!(step.intervals[0].begin, step.index as u64);
        }
    }

    #[test]
    fn window_spans_traces_until_cleared() {
        let rec = FlightRecorder::new(8);
        record(&rec, 1, 0);
        record(&rec, 2, 0);
        record(&rec, 1, 1);
        assert_eq!(rec.len(), 3);
        assert_eq!(rec.window()[0].trace_id, 1);
        let own: Vec<_> = rec.lock().steps_of(1).iter().map(|s| s.index).collect();
        assert_eq!(own, vec![0, 1], "steps_of filters to one trace, oldest first");
        rec.clear();
        assert!(rec.is_empty());
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let rec = FlightRecorder::new(0);
        record(&rec, 1, 0);
        record(&rec, 1, 1);
        assert_eq!(rec.capacity(), 1);
        let window = rec.window();
        assert_eq!(window.len(), 1);
        assert_eq!(window[0].index, 1);
    }
}
