//! The lifecycle fold: the one place request-lifecycle events become
//! latency samples, and the per-lane state ([`LaneFold`]) every per-lane
//! fold runs on.
//!
//! Every consumer that reads latencies off the event stream — the live
//! [`crate::MetricsHub`], [`crate::SloMonitor::observe`], the drift
//! baseline and detector, the exemplar reservoir — runs this fold, so
//! they cannot disagree on what a TTFT or an inter-token gap is. The
//! convention:
//!
//! - a lane's arrival is fixed by its first record: an `Admitted`'s
//!   `arrival_s`, a `Waiting`'s `since_s` (a request deferred before
//!   admission waits since it arrived), otherwise the record's own time;
//! - every `FirstToken` or `DecodeStep` is a token: the lane's first
//!   token closes its TTFT, each later one yields the gap since the
//!   previous token as an ITL — so the `FirstToken` a recompute
//!   re-admission emits after preemption is an ITL, penalty included;
//! - `Finished` closes the end-to-end latency and forgets the lane;
//! - `Rejected` is a rejection (a TTFT miss with no value);
//! - device and link lanes carry no request latencies.

use crate::sink::{TraceEvent, TraceRecord, RESERVED_LANES};
use crate::sketch::LatencySketch;
use std::collections::BTreeMap;

/// One latency observation read off a lane's lifecycle (seconds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencySample {
    /// Arrival to the lane's first token.
    Ttft(f64),
    /// Gap between two consecutive tokens of the lane.
    Itl(f64),
    /// Arrival to `Finished`.
    E2e(f64),
    /// The request was turned away at admission.
    Rejected,
}

/// One lane's lifecycle state: its arrival, its gap cursor and its
/// latest token. Every per-lane fold runs on it — the latency samples
/// below, [`crate::blame_spans`] and the Chrome export's sequence lanes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LaneFold {
    arrival_s: f64,
    /// Where the next gap starts: the arrival, then the latest event.
    cursor_s: f64,
    last_token_s: Option<f64>,
}

impl LaneFold {
    /// A lane whose first record is `event` at `t_s`.
    pub(crate) fn open(t_s: f64, event: &TraceEvent) -> Self {
        let arrival_s = match *event {
            TraceEvent::Admitted { arrival_s } => arrival_s,
            TraceEvent::Waiting { since_s, .. } => since_s,
            _ => t_s,
        };
        LaneFold {
            arrival_s,
            cursor_s: arrival_s,
            last_token_s: None,
        }
    }

    /// The lane's arrival, fixed by its first record.
    pub(crate) fn arrival_s(&self) -> f64 {
        self.arrival_s
    }

    /// Closes the gap ending at an event at `t_s`, returning its
    /// `(start, end)`, and advances the cursor to `end`. Per-lane streams
    /// are time-monotone; an event behind the cursor (float noise) closes
    /// an empty gap. The gaps tile `[arrival, latest event]`.
    pub(crate) fn gap(&mut self, t_s: f64) -> (f64, f64) {
        let start_s = self.cursor_s;
        self.cursor_s = start_s.max(t_s);
        (start_s, self.cursor_s)
    }

    /// Folds one of the lane's events, returning the latency it
    /// completes, if any.
    pub(crate) fn observe(&mut self, t_s: f64, event: &TraceEvent) -> Option<LatencySample> {
        match event {
            TraceEvent::FirstToken | TraceEvent::DecodeStep { .. } => {
                let sample = match self.last_token_s {
                    None => LatencySample::Ttft(t_s - self.arrival_s),
                    Some(prev) => LatencySample::Itl(t_s - prev),
                };
                self.last_token_s = Some(t_s);
                Some(sample)
            }
            TraceEvent::Finished => Some(LatencySample::E2e(t_s - self.arrival_s)),
            _ => None,
        }
    }
}

/// Per-lane fold states turning `(t_s, lane, event)` into
/// [`LatencySample`]s under the module's convention.
#[derive(Debug, Clone, Default)]
pub struct LifecycleFold {
    /// Open lanes (closed by `Finished`).
    lanes: BTreeMap<u64, LaneFold>,
}

impl LifecycleFold {
    /// A fold with no open lanes.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one event, returning the latency it completes, if any.
    pub fn observe(&mut self, t_s: f64, lane: u64, event: &TraceEvent) -> Option<LatencySample> {
        if lane >= RESERVED_LANES {
            return None;
        }
        if let TraceEvent::Rejected = event {
            return Some(LatencySample::Rejected);
        }
        let sample = self
            .lanes
            .entry(lane)
            .or_insert_with(|| LaneFold::open(t_s, event))
            .observe(t_s, event);
        if let TraceEvent::Finished = event {
            self.lanes.remove(&lane);
        }
        sample
    }
}

/// Runs a fresh [`LifecycleFold`] over a time-ordered record stream,
/// yielding each sample with the time it completed.
pub fn latency_samples(records: &[TraceRecord]) -> impl Iterator<Item = (f64, LatencySample)> + '_ {
    let mut fold = LifecycleFold::new();
    records
        .iter()
        .filter_map(move |r| fold.observe(r.t_s, r.lane, &r.event).map(|s| (r.t_s, s)))
}

/// TTFT / ITL / end-to-end sketches fed by [`LatencySample`]s.
#[derive(Debug, Clone, Default)]
pub struct LatencySketches {
    /// Time-to-first-token distribution.
    pub ttft: LatencySketch,
    /// Inter-token-latency distribution.
    pub itl: LatencySketch,
    /// End-to-end distribution.
    pub e2e: LatencySketch,
}

impl LatencySketches {
    /// Records one sample into its sketch (rejections carry no value).
    pub fn record(&mut self, sample: LatencySample) {
        match sample {
            LatencySample::Ttft(v) => self.ttft.record(v),
            LatencySample::Itl(v) => self.itl.record(v),
            LatencySample::E2e(v) => self.e2e.record(v),
            LatencySample::Rejected => {}
        }
    }

    /// Sketches every sample of a time-ordered record stream.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut out = Self::default();
        for (_, s) in latency_samples(records) {
            out.record(s);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::WaitCause;
    use crate::sink::DEVICE_LANE;

    #[test]
    fn arrival_is_fixed_by_the_first_record() {
        let waiting = TraceEvent::Waiting {
            cause: WaitCause::KvPoolExhausted,
            since_s: 1.0,
        };
        let token = TraceEvent::DecodeStep {
            attended: 1,
            cached: 1,
        };
        let mut f = LifecycleFold::new();
        assert_eq!(f.observe(1.5, 3, &waiting), None);
        assert_eq!(
            f.observe(2.0, 3, &TraceEvent::Admitted { arrival_s: 0.5 }),
            None
        );
        assert_eq!(
            f.observe(2.5, 3, &TraceEvent::FirstToken),
            Some(LatencySample::Ttft(1.5))
        );
        // No record before the token: the lane arrives with it.
        assert_eq!(f.observe(3.0, 4, &token), Some(LatencySample::Ttft(0.0)));
        assert_eq!(f.observe(3.0, DEVICE_LANE, &TraceEvent::FirstToken), None);
    }
}
