//! The queue / prefill / decode / stall breakdown: a four-phase view of
//! the blame tiling.
//!
//! [`crate::blame_spans`] is the one per-request reduction; it tiles
//! each request's `[arrival, last event]` interval into causal
//! categories. A [`SpanBreakdown`] sums those tiles by
//! [`crate::BlameCategory::phase`], in [`crate::BlameCategory::ALL`]
//! order, so the four phases sum to the request's end-to-end latency up
//! to f64 summation error — the property the acceptance test pins at
//! 1e-6 s.

use crate::blame::{blame_spans, BlameBreakdown, BlameCategory, Phase};
use crate::sink::TraceRecord;
use std::collections::BTreeMap;

/// One request's lifecycle, reduced to phase totals.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct SpanBreakdown {
    /// Trace arrival time (seconds).
    pub arrival_s: f64,
    /// Time of the request's last event.
    pub end_s: f64,
    /// Time spent waiting for admission (including re-admission waits
    /// after recompute preemption).
    pub queue_s: f64,
    /// Time spent in chunked prefill (head-of-line chunk waits included).
    pub prefill_s: f64,
    /// Time spent decoding (one token per step).
    pub decode_s: f64,
    /// Time lost to preemption, swap transfers and restore waits.
    pub stall_s: f64,
    /// Whether a `Finished` event closed the lifecycle.
    pub finished: bool,
}

impl SpanBreakdown {
    /// Sum of the four phases — `end_s - arrival_s` up to f64
    /// summation error (the gaps tile the interval).
    pub fn total_s(&self) -> f64 {
        self.queue_s + self.prefill_s + self.decode_s + self.stall_s
    }
}

impl From<&BlameBreakdown> for SpanBreakdown {
    /// Sums the blame categories into their phases, in taxonomy order.
    fn from(b: &BlameBreakdown) -> Self {
        let mut span = SpanBreakdown {
            arrival_s: b.arrival_s,
            end_s: b.end_s,
            queue_s: 0.0,
            prefill_s: 0.0,
            decode_s: 0.0,
            stall_s: 0.0,
            finished: b.finished,
        };
        for c in BlameCategory::ALL {
            *match c.phase() {
                Phase::Queue => &mut span.queue_s,
                Phase::Prefill => &mut span.prefill_s,
                Phase::Decode => &mut span.decode_s,
                Phase::Stall => &mut span.stall_s,
            } += b.e2e_by_cause[c.index()];
        }
        span
    }
}

/// Reduces a sorted record stream (as returned by `TraceSink::drain` /
/// `snapshot`) to one [`SpanBreakdown`] per sequence lane: the phase
/// view of [`blame_spans`]. Device and link lanes are skipped.
pub fn reduce_spans(records: &[TraceRecord]) -> BTreeMap<u64, SpanBreakdown> {
    blame_spans(records)
        .iter()
        .map(|(&lane, b)| (lane, b.into()))
        .collect()
}

/// Mean phase times across finished requests — the digest that lands in
/// `DecodeReport`.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct BreakdownSummary {
    /// Requests whose lifecycle closed with `Finished`.
    pub requests: usize,
    /// Mean seconds queued per finished request.
    pub mean_queue_s: f64,
    /// Mean seconds in chunked prefill.
    pub mean_prefill_s: f64,
    /// Mean seconds decoding.
    pub mean_decode_s: f64,
    /// Mean seconds stalled (preemption, swap, restore).
    pub mean_stall_s: f64,
}

impl BreakdownSummary {
    /// Summarises the finished spans of a reduction.
    pub fn of(spans: &BTreeMap<u64, SpanBreakdown>) -> Self {
        let finished: Vec<&SpanBreakdown> = spans.values().filter(|s| s.finished).collect();
        let n = finished.len().max(1) as f64;
        BreakdownSummary {
            requests: finished.len(),
            mean_queue_s: finished.iter().map(|s| s.queue_s).sum::<f64>() / n,
            mean_prefill_s: finished.iter().map(|s| s.prefill_s).sum::<f64>() / n,
            mean_decode_s: finished.iter().map(|s| s.decode_s).sum::<f64>() / n,
            mean_stall_s: finished.iter().map(|s| s.stall_s).sum::<f64>() / n,
        }
    }

    /// Sum of the mean phase times — the mean end-to-end latency.
    pub fn mean_total_s(&self) -> f64 {
        self.mean_queue_s + self.mean_prefill_s + self.mean_decode_s + self.mean_stall_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceEvent, TraceSink};

    #[test]
    fn gaps_tile_the_lifecycle_exactly() {
        let sink = TraceSink::enabled();
        // arrival 1.0, admitted 1.5 (queue 0.5), chunk 2.0 (prefill 0.5),
        // first token 2.25 (prefill 0.25), preempted 2.5 (stall 0.25),
        // re-admitted 3.0 (queue 0.5), chunk 3.5 (prefill 0.5),
        // decode 4.0 (decode 0.5), finished 4.0.
        sink.record(1.5, 9, TraceEvent::Admitted { arrival_s: 1.0 });
        sink.record(2.0, 9, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(2.25, 9, TraceEvent::FirstToken);
        sink.record(
            2.5,
            9,
            TraceEvent::Preempted {
                policy: "recompute",
            },
        );
        sink.record(3.0, 9, TraceEvent::Admitted { arrival_s: 1.0 });
        sink.record(3.5, 9, TraceEvent::PrefillChunk { tokens: 64 });
        sink.record(
            4.0,
            9,
            TraceEvent::DecodeStep {
                attended: 64,
                cached: 64,
            },
        );
        sink.record(4.0, 9, TraceEvent::Finished);
        let spans = reduce_spans(&sink.drain());
        let s = spans[&9];
        assert!(s.finished);
        assert!((s.queue_s - 1.0).abs() < 1e-12);
        assert!((s.prefill_s - 1.25).abs() < 1e-12);
        assert!((s.stall_s - 0.25).abs() < 1e-12);
        assert!((s.decode_s - 0.5).abs() < 1e-12);
        assert!((s.total_s() - (s.end_s - s.arrival_s)).abs() < 1e-12);
    }

    #[test]
    fn device_lane_is_skipped_and_summary_averages_finished_only() {
        let sink = TraceSink::enabled();
        sink.record(
            1.0,
            crate::sink::DEVICE_LANE,
            TraceEvent::Step {
                prefill_rows: 8,
                decode_slots: 2,
                gpu_s: 0.5,
            },
        );
        sink.record(0.5, 0, TraceEvent::Admitted { arrival_s: 0.0 });
        sink.record(1.0, 0, TraceEvent::FirstToken);
        sink.record(1.5, 0, TraceEvent::Finished);
        sink.record(0.5, 1, TraceEvent::Admitted { arrival_s: 0.0 });
        let spans = reduce_spans(&sink.drain());
        assert_eq!(spans.len(), 2, "device lane excluded");
        let sum = BreakdownSummary::of(&spans);
        assert_eq!(sum.requests, 1, "unfinished request not averaged");
        assert!((sum.mean_queue_s - 0.5).abs() < 1e-12);
        assert!((sum.mean_total_s() - 1.5).abs() < 1e-12);
    }
}
