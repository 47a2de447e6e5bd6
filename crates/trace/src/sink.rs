//! The request-lifecycle trace sink.
//!
//! [`TraceSink`] collects typed [`TraceEvent`]s stamped with virtual-clock
//! times. It is off by default — a disabled sink's [`TraceSink::record`]
//! is a single branch, so the decode hot loop pays nothing when nobody is
//! looking. An enabled sink appends to one buffer; each record carries an
//! emission ordinal, so records stamped with the same time keep their
//! emission order when drained in time order.
//!
//! Times are seconds on the emitting runtime's virtual clock. Each
//! record's `t_s` is the instant the event *took effect* (a transfer's
//! landing, a step's completion); events that model an interval carry
//! their start alongside (`initiated_s`), so exporters can draw spans
//! without guessing.

use crate::blame::WaitCause;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Lane id of the modelled device's execution track.
pub const DEVICE_LANE: u64 = u64::MAX;
/// Lane id of the device→host (eviction) direction of the PCIe link.
pub const LINK_D2H_LANE: u64 = u64::MAX - 1;
/// Lane id of the host→device (restore) direction of the PCIe link.
pub const LINK_H2D_LANE: u64 = u64::MAX - 2;
/// Smallest reserved lane id; anything below is a sequence id.
pub const RESERVED_LANES: u64 = u64::MAX - 7;

/// One typed event in a request's (or device's / link's) lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// The request left the waiting queue and entered the prefill queue.
    /// `arrival_s` is its trace arrival time — queue delay is the gap.
    Admitted {
        /// The request's arrival timestamp (seconds).
        arrival_s: f64,
    },
    /// Admission matched the prompt-prefix cache.
    PrefixHit {
        /// Whole pages served from the cache.
        pages: usize,
        /// Prompt tokens those pages cover (prefill skipped).
        tokens: usize,
    },
    /// One chunk of this request's prompt finished prefilling.
    PrefillChunk {
        /// Context rows the chunk ran through the model.
        tokens: usize,
    },
    /// The request emitted its first output token.
    FirstToken,
    /// The scheduler observed this request stalled or deferred for a
    /// typed cause. `t_s` is when the wait was observed (the end of the
    /// step the request sat out); the event explains the gap ending at
    /// it, so blame attribution keeps the exact-tiling discipline.
    Waiting {
        /// Why the request could not make progress.
        cause: WaitCause,
        /// When this wait began (the request's arrival for a
        /// never-admitted sequence) — anchors a Waiting-first lane.
        since_s: f64,
    },
    /// The request's decode slot emitted one token.
    DecodeStep {
        /// KV tokens the slot attended (post-sparsity read set).
        attended: usize,
        /// KV tokens the slot held cached.
        cached: usize,
    },
    /// The request was preempted under KV-page pressure.
    Preempted {
        /// Which preemption protocol resolved it ("recompute",
        /// "swap-to-host", "swap-fallback", "swap-demotion").
        policy: &'static str,
    },
    /// The victim's pages crossed to the host tier. `t_s` is the DMA
    /// completion — the instant the freed frames may be rewritten.
    SwapOut {
        /// Pages moved.
        pages: usize,
        /// When the transfer was scheduled.
        initiated_s: f64,
        /// The d2h link's busy horizon after scheduling (= completion).
        link_busy_until_s: f64,
    },
    /// The victim's pages streamed back. `t_s` is the transfer landing —
    /// the instant the sequence may rejoin the batch.
    SwapIn {
        /// Pages restored.
        pages: usize,
        /// When the restore was scheduled.
        initiated_s: f64,
        /// The h2d link's busy horizon after scheduling (= completion).
        link_busy_until_s: f64,
    },
    /// KV-sparsity eviction trimmed this sequence's page table.
    SparsityEvict {
        /// Pages dropped from the page table this pass.
        pages: usize,
    },
    /// The request emitted its last token and released its pages.
    Finished,
    /// The request was turned away at admission (open-loop shedding).
    Rejected,
    /// One mixed iteration executed on the device lane.
    Step {
        /// Prefill rows in the step.
        prefill_rows: usize,
        /// Decode slots in the step.
        decode_slots: usize,
        /// Modelled GPU seconds the step took (span = `[t_s-gpu_s, t_s]`).
        gpu_s: f64,
    },
}

impl TraceEvent {
    /// Short stable name for exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Admitted { .. } => "admitted",
            TraceEvent::PrefixHit { .. } => "prefix_hit",
            TraceEvent::PrefillChunk { .. } => "prefill_chunk",
            TraceEvent::FirstToken => "first_token",
            TraceEvent::Waiting { .. } => "waiting",
            TraceEvent::DecodeStep { .. } => "decode_step",
            TraceEvent::Preempted { .. } => "preempted",
            TraceEvent::SwapOut { .. } => "swap_out",
            TraceEvent::SwapIn { .. } => "swap_in",
            TraceEvent::SparsityEvict { .. } => "sparsity_evict",
            TraceEvent::Finished => "finished",
            TraceEvent::Rejected => "rejected",
            TraceEvent::Step { .. } => "step",
        }
    }
}

/// One recorded event: which lane, when, what, and an emission ordinal
/// that orders records stamped with the same time.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Emission ordinal (0, 1, 2, … in recording order).
    pub ord: u64,
    /// Virtual-clock time the event took effect (seconds).
    pub t_s: f64,
    /// Sequence id, or one of the reserved device/link lanes.
    pub lane: u64,
    /// The event.
    pub event: TraceEvent,
}

/// Off-by-default collector of [`TraceRecord`]s.
#[derive(Debug)]
pub struct TraceSink {
    /// `None` when disabled — `record` then returns after one branch.
    records: Option<Mutex<Vec<TraceRecord>>>,
    next_ord: AtomicU64,
    /// Head-sampling stride: keep sequence lanes with
    /// `lane % sample_every == 0` (1 = keep everything). Deterministic
    /// by request id, so two replays sample the same heads; reserved
    /// device/link lanes are always kept.
    sample_every: u64,
}

impl TraceSink {
    /// A disabled sink: recording is a no-op costing one branch.
    pub fn disabled() -> Self {
        TraceSink {
            records: None,
            next_ord: AtomicU64::new(0),
            sample_every: 1,
        }
    }

    /// An enabled sink.
    pub fn enabled() -> Self {
        TraceSink {
            records: Some(Mutex::new(Vec::new())),
            next_ord: AtomicU64::new(0),
            sample_every: 1,
        }
    }

    /// Head-samples 1-in-`every` sequence lanes (by `lane % every == 0`,
    /// so the choice is deterministic across replays). Device and link
    /// lanes are always recorded. `every == 0` is normalized to 1.
    pub fn with_sampling(mut self, every: u64) -> Self {
        self.sample_every = every.max(1);
        self
    }

    /// The head-sampling stride (1 = record every lane).
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.records.is_some()
    }

    /// Records one event at `t_s` on `lane`. No-op on a disabled sink.
    pub fn record(&self, t_s: f64, lane: u64, event: TraceEvent) {
        let Some(records) = &self.records else {
            return;
        };
        if self.sample_every > 1 && lane < RESERVED_LANES && !lane.is_multiple_of(self.sample_every)
        {
            return;
        }
        let ord = self.next_ord.fetch_add(1, Ordering::Relaxed);
        records
            .lock()
            .expect("trace sink poisoned")
            .push(TraceRecord {
                ord,
                t_s,
                lane,
                event,
            });
    }

    /// The buffer, locked (`None` when disabled).
    fn buffer(&self) -> Option<MutexGuard<'_, Vec<TraceRecord>>> {
        self.records
            .as_ref()
            .map(|r| r.lock().expect("trace sink poisoned"))
    }

    /// Records recorded so far.
    pub fn len(&self) -> usize {
        self.buffer().map_or(0, |b| b.len())
    }

    /// True when nothing has been recorded (or the sink is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies every record out, sorted by `(t_s, ord)`, leaving the sink
    /// intact (a run can be exported to Chrome *and* reduced to
    /// breakdowns from the same sink).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        time_ordered(self.buffer().map_or_else(Vec::new, |b| b.clone()))
    }

    /// Moves every record out (sorted as in [`TraceSink::snapshot`]),
    /// emptying the sink.
    pub fn drain(&self) -> Vec<TraceRecord> {
        time_ordered(
            self.buffer()
                .map_or_else(Vec::new, |mut b| std::mem::take(&mut *b)),
        )
    }
}

/// Sorts records time-major, emission-ordinal minor.
fn time_ordered(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    records.sort_by(|a, b| a.t_s.total_cmp(&b.t_s).then(a.ord.cmp(&b.ord)));
    records
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        let sink = TraceSink::disabled();
        sink.record(0.0, 1, TraceEvent::FirstToken);
        assert!(!sink.is_enabled());
        assert!(sink.is_empty());
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn records_drain_in_time_order() {
        let sink = TraceSink::enabled();
        sink.record(2.0, 1, TraceEvent::Finished);
        sink.record(1.0, 2, TraceEvent::FirstToken);
        sink.record(1.0, 3, TraceEvent::Admitted { arrival_s: 0.5 });
        assert_eq!(sink.len(), 3);
        let drained = sink.drain();
        assert_eq!(drained.len(), 3);
        // Time-major, emission-ordinal minor: the two t=1.0 records keep
        // their emission order.
        assert_eq!(drained[0].lane, 2);
        assert_eq!(drained[1].lane, 3);
        assert_eq!(drained[2].lane, 1);
        assert!(sink.is_empty(), "drain empties the sink");
    }

    #[test]
    fn snapshot_leaves_records_in_place() {
        let sink = TraceSink::enabled();
        sink.record(0.5, 7, TraceEvent::FirstToken);
        let snap = sink.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(sink.len(), 1);
        assert_eq!(sink.drain(), snap);
    }

    #[test]
    fn head_sampling_keeps_one_in_n_lanes_and_all_reserved_lanes() {
        let sink = TraceSink::enabled().with_sampling(4);
        assert_eq!(sink.sample_every(), 4);
        for lane in 0..16u64 {
            sink.record(lane as f64, lane, TraceEvent::FirstToken);
        }
        sink.record(
            20.0,
            DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: 1,
                decode_slots: 0,
                gpu_s: 0.1,
            },
        );
        let drained = sink.drain();
        let seq_lanes: Vec<u64> = drained
            .iter()
            .filter(|r| r.lane < RESERVED_LANES)
            .map(|r| r.lane)
            .collect();
        assert_eq!(seq_lanes, vec![0, 4, 8, 12]);
        assert!(drained.iter().any(|r| r.lane == DEVICE_LANE));
    }
}
