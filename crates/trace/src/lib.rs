//! `pit_trace`: observability for the serving stack.
//!
//! PIT's dynamic sparsity makes per-step cost data-dependent, so
//! understanding a run takes a per-step, per-sequence timeline — not just
//! a final percentile triple. This crate supplies the pieces the serving
//! crates thread through their hot loops:
//!
//! - [`LatencySketch`] — a deterministic, mergeable log-bucketed quantile
//!   sketch with a bounded relative error, replacing unbounded latency
//!   sample vectors so million-request replays run in O(1) metric memory;
//! - [`TraceSink`] / [`TraceEvent`] — an off-by-default (one branch when
//!   disabled) collector of typed request-lifecycle events stamped on the
//!   virtual clock;
//! - [`blame_spans`] / [`BlameSummary`] — the one per-request reduction:
//!   causal critical-path attribution. Typed [`WaitCause`]s recorded at
//!   every scheduler stall decision, reduced per request into
//!   categories that tile TTFT and e2e exactly, aggregated into
//!   per-cause sketches;
//! - [`reduce_spans`] / [`BreakdownSummary`] — the blame tiling's
//!   four-phase view: a queue / prefill / decode / stall breakdown
//!   whose phases sum to the end-to-end latency up to f64 summation
//!   error;
//! - [`chrome_trace_json`] — Chrome `trace_event` JSON export (device,
//!   PCIe-link and per-sequence lanes; a sequence lane paints its blame
//!   tiles), loadable in `chrome://tracing` and Perfetto;
//! - [`JsonValue`] — a minimal JSON reader for the tooling side (the
//!   vendored serde only writes), used by `tools/bench_compare` and the
//!   export validity tests;
//! - [`DeviceLedger`] — the device-time ledger: every modelled
//!   GPU-second attributed into a fixed category taxonomy with *exact*
//!   (integer-picosecond) conservation — categories tile busy time,
//!   busy + stalls + idle tile the virtual clock — plus a
//!   [`Utilization`] digest (busy fraction, MFU, link bytes);
//! - [`Exposition`] / [`parse_exposition`] — Prometheus-style text
//!   exposition writer (counters, gauges, sketch-backed summaries) and
//!   the line-format parser that round-trips it;
//! - [`LifecycleFold`] / [`latency_samples`] — the one definition of
//!   how lifecycle events become TTFT / ITL / e2e / rejection samples,
//!   shared by every consumer below; its per-lane state also owns the
//!   arrival rule and the gap cursor the blame tiling and the Chrome
//!   lanes run on;
//! - [`SloMonitor`] — windowed TTFT/ITL SLO attainment and burn-rate
//!   gauges folded from latency observations (rejections count as TTFT
//!   misses), joined with the ledger;
//! - [`ExemplarReservoir`] — bounded top-k capture of the worst
//!   requests' full event timelines (by TTFT / max-ITL / e2e), exported
//!   as highlighted Chrome-trace lanes even when global tracing is off;
//! - [`DriftDetector`] — one TTFT/ITL/e2e sketch triple compared
//!   against a committed [`DriftBaseline`], raising typed [`DriftAlarm`]s
//!   on quantile or cause-mix shifts;
//! - [`MetricsHub`] — the *live* observability plane: a thread-safe
//!   registry that serves the publisher's own report exposition
//!   (snapshotted at most once per window) plus a block of live-only
//!   gauges, and folds lifecycle events into a bounded ring of
//!   per-window digests with the SLO monitor and drift detector
//!   evaluating per-window inside the hub, so alarms fire mid-run;
//! - [`ScrapeServer`] — a std-only `TcpListener` endpoint serving
//!   `GET /metrics` (Prometheus text), `/slo` and `/series` (JSON) from
//!   a hub, with a graceful [`ShutdownHandle`].

mod blame;
mod breakdown;
mod chrome;
mod drift;
mod exemplar;
mod expo;
pub mod http;
pub mod hub;
pub mod json;
mod ledger;
mod lifecycle;
mod sink;
mod sketch;
mod slo;

pub use blame::{
    blame_spans, BlameAggregate, BlameBreakdown, BlameCategory, BlameCauseStat, BlameSummary,
    WaitCause,
};
pub use breakdown::{reduce_spans, BreakdownSummary, SpanBreakdown};
pub use chrome::{chrome_trace_json, chrome_trace_json_with_exemplars};
pub use drift::{DriftAlarm, DriftBaseline, DriftDetector, DriftKind, DriftPolicy};
pub use exemplar::{ExemplarReservoir, ExemplarSet, ExemplarTimeline};
pub use expo::{parse_exposition, Exposition, MetricFamily, MetricKind, Sample};
pub use http::{ScrapeServer, ShutdownHandle};
pub use hub::{HubConfig, HubSeries, HubSeriesWindow, MetricsHub};
pub use json::JsonValue;
pub use ledger::{DeviceLedger, StepSample, Utilization};
pub use lifecycle::{latency_samples, LatencySample, LatencySketches, LifecycleFold};
pub use sink::{
    TraceEvent, TraceRecord, TraceSink, DEVICE_LANE, LINK_D2H_LANE, LINK_H2D_LANE, RESERVED_LANES,
};
pub use sketch::{LatencySketch, DEFAULT_SKETCH_ERROR};
pub use slo::{SloMonitor, SloReport, SloTarget, SloWindowReport};
