//! Online drift detection: streaming sketches against a committed
//! baseline.
//!
//! A [`DriftDetector`] folds every observation into one TTFT/ITL/e2e
//! [`LatencySketches`] triple and compares its quantiles (and the blame
//! cause mix) against a [`DriftBaseline`] captured from a known-good run.
//! The sketches are bounded by the latency dynamic range, so the
//! detector's state never grows with the run. A shift beyond tolerance
//! raises a typed [`DriftAlarm`], surfaced through `SloReport` and the
//! `trace_explain` CLI — the existing sketches become an online
//! regression alarm without any new per-request state.

use crate::blame::{blame_spans, BlameAggregate, BlameSummary};
use crate::lifecycle::{latency_samples, LatencySample, LatencySketches};
use crate::sink::TraceRecord;
use std::collections::BTreeMap;
use std::fmt;

/// What kind of shift an alarm reports. (Fieldless on purpose: the
/// vendored serde derives enums via their `Debug` form, which is clean
/// JSON for a plain tag.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize)]
pub enum DriftKind {
    /// A latency quantile moved beyond tolerance.
    QuantileShift,
    /// A blame category's share of end-to-end time moved beyond
    /// tolerance.
    CauseMixShift,
}

/// One detected shift against the baseline.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct DriftAlarm {
    /// What shifted.
    pub kind: DriftKind,
    /// The metric ("ttft" / "itl" / "e2e") or blame-cause name.
    pub metric: String,
    /// The quantile compared (0 for cause-mix alarms).
    pub quantile: f64,
    /// The baseline value (seconds, or share for cause-mix).
    pub baseline: f64,
    /// The observed value.
    pub observed: f64,
    /// Relative change `(observed - baseline) / baseline` (absolute
    /// share delta for cause-mix alarms).
    pub rel_change: f64,
}

impl fmt::Display for DriftAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            DriftKind::QuantileShift => write!(
                f,
                "drift: {} p{:.0} {:.4}s -> {:.4}s ({:+.0}%)",
                self.metric,
                self.quantile * 100.0,
                self.baseline,
                self.observed,
                self.rel_change * 100.0,
            ),
            DriftKind::CauseMixShift => write!(
                f,
                "drift: cause {} share {:.0}% -> {:.0}% ({:+.0} pts)",
                self.metric,
                self.baseline * 100.0,
                self.observed * 100.0,
                self.rel_change * 100.0,
            ),
        }
    }
}

/// Detection thresholds.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftPolicy {
    /// Quantiles compared per metric.
    pub quantiles: Vec<f64>,
    /// Minimum relative quantile change to alarm on.
    pub rel_tolerance: f64,
    /// Minimum absolute quantile change (seconds) — suppresses alarms
    /// on microscopic latencies where relative change is meaningless.
    pub abs_tolerance_s: f64,
    /// Minimum absolute change in a cause's e2e share (fraction).
    pub mix_tolerance: f64,
    /// Minimum observed sample count before quantiles are trusted.
    pub min_count: u64,
}

impl Default for DriftPolicy {
    fn default() -> Self {
        DriftPolicy {
            quantiles: vec![0.50, 0.95, 0.99],
            rel_tolerance: 0.25,
            abs_tolerance_s: 1e-3,
            mix_tolerance: 0.15,
            min_count: 20,
        }
    }
}

/// A committed reference distribution: latency sketches plus the blame
/// cause mix of a known-good run.
#[derive(Debug, Clone)]
pub struct DriftBaseline {
    /// TTFT / ITL / e2e distributions of the baseline run.
    pub latency: LatencySketches,
    /// `(cause name, e2e share)` of the baseline's blame summary.
    pub cause_share: Vec<(String, f64)>,
}

impl DriftBaseline {
    /// Captures a baseline from a known-good run's sorted records.
    pub fn from_records(records: &[TraceRecord]) -> Self {
        let mut agg = BlameAggregate::new();
        agg.fold_spans(&blame_spans(records));
        let cause_share = agg
            .summary()
            .causes
            .iter()
            .map(|c| (c.cause.clone(), c.e2e_share))
            .collect();
        DriftBaseline {
            latency: LatencySketches::from_records(records),
            cause_share,
        }
    }
}

/// Folds observations into one sketch triple and compares it (and the
/// cause mix) against the baseline.
#[derive(Debug)]
pub struct DriftDetector {
    baseline: DriftBaseline,
    policy: DriftPolicy,
    observed: LatencySketches,
    observed_mix: Vec<(String, f64)>,
}

impl DriftDetector {
    /// A detector comparing against `baseline` with `policy` thresholds.
    pub fn new(baseline: DriftBaseline, policy: DriftPolicy) -> Self {
        DriftDetector {
            baseline,
            policy,
            observed: LatencySketches::default(),
            observed_mix: Vec::new(),
        }
    }

    /// Folds a sorted record stream's latency samples into the detector
    /// and refreshes the observed cause mix from the stream's blame
    /// reduction.
    pub fn observe(&mut self, records: &[TraceRecord]) {
        for (_, sample) in latency_samples(records) {
            self.record(sample);
        }
        let mut agg = BlameAggregate::new();
        agg.fold_spans(&blame_spans(records));
        self.observe_blame(&agg.summary());
    }

    /// Records one latency sample — the incremental feed the live
    /// [`crate::MetricsHub`] uses.
    pub fn record(&mut self, sample: LatencySample) {
        self.observed.record(sample);
    }

    /// Sets the observed cause mix from an already-computed blame
    /// summary (for callers that aggregated blame themselves).
    pub fn observe_blame(&mut self, summary: &BlameSummary) {
        self.observed_mix = summary
            .causes
            .iter()
            .map(|c| (c.cause.clone(), c.e2e_share))
            .collect();
    }

    /// Compares the observations against the baseline; returned alarms
    /// are in a deterministic order (metrics × quantiles, then causes by
    /// name).
    pub fn alarms(&self) -> Vec<DriftAlarm> {
        let mut alarms = Vec::new();
        let obs = &self.observed;
        let base = &self.baseline.latency;
        for (name, base, obs) in [
            ("ttft", &base.ttft, &obs.ttft),
            ("itl", &base.itl, &obs.itl),
            ("e2e", &base.e2e, &obs.e2e),
        ] {
            if obs.count() < self.policy.min_count || base.count() == 0 {
                continue;
            }
            for &q in &self.policy.quantiles {
                let b = base.quantile(q);
                let o = obs.quantile(q);
                let abs = (o - b).abs();
                let rel = if b > 0.0 { (o - b) / b } else { f64::INFINITY };
                if abs > self.policy.abs_tolerance_s && rel.abs() > self.policy.rel_tolerance {
                    alarms.push(DriftAlarm {
                        kind: DriftKind::QuantileShift,
                        metric: name.to_string(),
                        quantile: q,
                        baseline: b,
                        observed: o,
                        rel_change: rel,
                    });
                }
            }
        }
        // Cause-mix shifts: union of baseline and observed causes, by
        // name, so dropped and newly-appearing causes both alarm. An
        // empty observed mix means no blame reduction has been fed yet
        // (the incremental latency feed carries no causes) — that is
        // "not measured", not "measured zero", so it raises nothing.
        if self.observed_mix.is_empty() {
            return alarms;
        }
        let mut shares: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for (name, s) in &self.baseline.cause_share {
            shares.entry(name).or_insert((0.0, 0.0)).0 = *s;
        }
        for (name, s) in &self.observed_mix {
            shares.entry(name).or_insert((0.0, 0.0)).1 = *s;
        }
        for (name, (b, o)) in shares {
            if (o - b).abs() > self.policy.mix_tolerance {
                alarms.push(DriftAlarm {
                    kind: DriftKind::CauseMixShift,
                    metric: name.to_string(),
                    quantile: 0.0,
                    baseline: b,
                    observed: o,
                    rel_change: o - b,
                });
            }
        }
        alarms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceEvent, TraceSink};

    /// `n` requests, one per second, each with the given ttft and one
    /// decode gap.
    fn run(n: u64, ttft: f64, itl: f64) -> Vec<TraceRecord> {
        let sink = TraceSink::enabled();
        for lane in 0..n {
            let a = lane as f64;
            sink.record(a + 0.01, lane, TraceEvent::Admitted { arrival_s: a });
            sink.record(a + ttft, lane, TraceEvent::FirstToken);
            sink.record(
                a + ttft + itl,
                lane,
                TraceEvent::DecodeStep {
                    attended: 8,
                    cached: 8,
                },
            );
            sink.record(a + ttft + itl, lane, TraceEvent::Finished);
        }
        sink.drain()
    }

    #[test]
    fn no_alarms_when_observation_matches_baseline() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base, DriftPolicy::default());
        det.observe(&run(30, 0.2, 0.05));
        assert_eq!(det.alarms(), Vec::new());
    }

    #[test]
    fn quantile_shift_beyond_tolerance_alarms() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base, DriftPolicy::default());
        det.observe(&run(30, 0.4, 0.05));
        let alarms = det.alarms();
        assert!(!alarms.is_empty());
        let ttft_p50 = alarms
            .iter()
            .find(|a| a.metric == "ttft" && a.quantile == 0.5)
            .expect("ttft p50 shifted");
        assert_eq!(ttft_p50.kind, DriftKind::QuantileShift);
        assert!(ttft_p50.rel_change > 0.5, "doubled ttft");
        assert!(alarms.iter().all(|a| a.metric != "itl"), "itl unchanged");
        assert!(ttft_p50.to_string().contains("ttft p50"));
    }

    #[test]
    fn cause_mix_shift_alarms() {
        let base = DriftBaseline::from_records(&run(30, 0.2, 0.05));
        let mut det = DriftDetector::new(base, DriftPolicy::default());
        // Same latencies, but now most of each request's time is a
        // typed kv-pool wait instead of prefill.
        let sink = TraceSink::enabled();
        for lane in 0..30u64 {
            let a = lane as f64;
            sink.record(
                a + 0.18,
                lane,
                TraceEvent::Waiting {
                    cause: crate::blame::WaitCause::KvPoolExhausted,
                    since_s: a,
                },
            );
            sink.record(a + 0.2, lane, TraceEvent::FirstToken);
            sink.record(a + 0.25, lane, TraceEvent::Finished);
        }
        det.observe(&sink.drain());
        let alarms = det.alarms();
        let mix: Vec<&DriftAlarm> = alarms
            .iter()
            .filter(|a| a.kind == DriftKind::CauseMixShift)
            .collect();
        assert!(
            mix.iter().any(|a| a.metric == "kv_pool_exhausted"),
            "new dominant cause alarms: {alarms:?}"
        );
        assert!(
            mix.iter().any(|a| a.rel_change < 0.0),
            "displaced cause alarms too"
        );
    }
}
