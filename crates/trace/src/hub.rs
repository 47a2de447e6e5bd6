//! The live metrics hub: an in-flight, thread-safe registry the serving
//! loops publish into while they run.
//!
//! PRs 7–9 made every signal (sketches, ledger, blame, SLO burn, drift
//! alarms) available *post hoc*, in end-of-run reports. The
//! [`MetricsHub`] moves the same machinery online: publishers (the
//! decode loop, the threaded runtime's submitter, scheduler and
//! workers) stream lifecycle events, report snapshots and gauges into
//! the hub, and readers (the [`crate::http`] scrape server, tests,
//! `pit_top`) take consistent snapshots at any moment — an
//! [`Exposition`] for `GET /metrics`, an [`SloReport`] with live drift
//! alarms for `GET /slo`, and a bounded ring of per-window digests for
//! `GET /series`.
//!
//! Three design rules keep observation from perturbing the run:
//!
//! 1. **The hub is write-only for publishers.** Nothing the simulation
//!    computes ever depends on hub state, so a hub-attached replay's
//!    report is byte-identical to a hub-free one (asserted in the
//!    integration tests, same discipline as the trace sink's
//!    "tracing perturbs nothing" checks).
//! 2. **The hub renders the publisher's report.** It counts nothing the
//!    report counts: publishers hand it their report's own
//!    [`Exposition`] ([`MetricsHub::publish`], at most one build per
//!    window, and [`MetricsHub::publish_final`] at end of run), and
//!    `/metrics` renders that snapshot followed by a fixed block of
//!    live-only `pit_hub_*` gauges. A finished run's scrape therefore
//!    begins with its `METRICS_*.prom` document byte for byte.
//! 3. **Windowed state evaluates inside the hub.** Each observation
//!    lands in a fixed-width window on the publisher's clock; the
//!    embedded [`SloMonitor`] and [`DriftDetector`] fold the same
//!    observations, so attainment, burn rate and typed drift alarms are
//!    current *mid-run* instead of materialising at the end.

use crate::drift::{DriftAlarm, DriftBaseline, DriftDetector, DriftPolicy};
use crate::expo::Exposition;
use crate::ledger::BUSY_FRACTION;
use crate::lifecycle::{LatencySample, LatencySketches, LifecycleFold};
use crate::sink::{TraceEvent, RESERVED_LANES};
use crate::slo::{SloMonitor, SloReport, SloTarget, SloWindowReport};
use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard};

/// How the hub windows, bounds and judges its live state.
#[derive(Debug, Clone)]
pub struct HubConfig {
    /// Window width (publisher-clock seconds) for the series ring and
    /// the embedded SLO/drift evaluation.
    pub window_s: f64,
    /// Maximum windows retained in the series ring; older windows are
    /// dropped (and counted) when the run outlives the ring.
    pub ring_capacity: usize,
    /// Targets for the embedded [`SloMonitor`]; `None` disables the
    /// `/slo` attainment report (drift alarms still work).
    pub slo: Option<SloTarget>,
    /// Baseline + policy for the embedded [`DriftDetector`]; `None`
    /// disables live drift alarms.
    pub drift: Option<(DriftBaseline, DriftPolicy)>,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            window_s: 1.0,
            ring_capacity: 240,
            slo: None,
            drift: None,
        }
    }
}

/// One sealed-or-open window's digest, as served by `GET /series`.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct HubSeriesWindow {
    /// Window index (`floor(t / window_s)`).
    pub index: u64,
    /// Window start on the publisher clock (seconds).
    pub start_s: f64,
    /// Device steps charged in the window.
    pub steps: u64,
    /// Modelled GPU-busy seconds charged in the window.
    pub gpu_s: f64,
    /// Prefill tokens processed in the window.
    pub prefill_tokens: u64,
    /// Decode tokens emitted in the window.
    pub decode_tokens: u64,
    /// Requests admitted in the window.
    pub admitted: u64,
    /// Requests rejected in the window.
    pub rejected: u64,
    /// Requests finished in the window.
    pub finished: u64,
    /// Preemptions observed in the window.
    pub preemptions: u64,
    /// Peak KV occupancy gauge seen in the window.
    pub kv_occupancy_peak: f64,
    /// TTFT observations in the window.
    pub ttft_count: u64,
    /// Window TTFT p50 (0 with no observations).
    pub ttft_p50_s: f64,
    /// Window TTFT p95.
    pub ttft_p95_s: f64,
    /// ITL observations in the window.
    pub itl_count: u64,
    /// Window ITL p50.
    pub itl_p50_s: f64,
    /// Window ITL p95.
    pub itl_p95_s: f64,
    /// End-to-end completions' p50 in the window.
    pub e2e_p50_s: f64,
    /// Window burn rate against the configured SLO (0 without one), as
    /// the embedded [`SloMonitor`] reports it: rejections count as TTFT
    /// misses.
    pub burn_rate: f64,
    /// Wait seconds attributed per typed cause in the window.
    pub waits_s: BTreeMap<String, f64>,
}

/// The `GET /series` document: ring parameters plus the retained
/// windows, oldest first.
#[derive(Debug, Clone, serde::Serialize)]
pub struct HubSeries {
    /// Window width (seconds).
    pub window_s: f64,
    /// Windows evicted from the ring so far.
    pub dropped: u64,
    /// Retained windows, oldest first.
    pub windows: Vec<HubSeriesWindow>,
}

/// One window under construction (sketches kept so quantiles are exact
/// snapshots, not frozen at seal time).
#[derive(Debug, Clone)]
struct HubWindow {
    index: u64,
    latency: LatencySketches,
    steps: u64,
    gpu_s: f64,
    prefill_tokens: u64,
    decode_tokens: u64,
    admitted: u64,
    rejected: u64,
    finished: u64,
    preemptions: u64,
    kv_occupancy_peak: f64,
    waits_s: BTreeMap<String, f64>,
}

impl HubWindow {
    fn new(index: u64) -> Self {
        HubWindow {
            index,
            latency: LatencySketches::default(),
            steps: 0,
            gpu_s: 0.0,
            prefill_tokens: 0,
            decode_tokens: 0,
            admitted: 0,
            rejected: 0,
            finished: 0,
            preemptions: 0,
            kv_occupancy_peak: 0.0,
            waits_s: BTreeMap::new(),
        }
    }

    fn digest(&self, window_s: f64, slo: Option<&SloWindowReport>) -> HubSeriesWindow {
        HubSeriesWindow {
            index: self.index,
            start_s: self.index as f64 * window_s,
            steps: self.steps,
            gpu_s: self.gpu_s,
            prefill_tokens: self.prefill_tokens,
            decode_tokens: self.decode_tokens,
            admitted: self.admitted,
            rejected: self.rejected,
            finished: self.finished,
            preemptions: self.preemptions,
            kv_occupancy_peak: self.kv_occupancy_peak,
            ttft_count: self.latency.ttft.count(),
            ttft_p50_s: self.latency.ttft.quantile(0.50),
            ttft_p95_s: self.latency.ttft.quantile(0.95),
            itl_count: self.latency.itl.count(),
            itl_p50_s: self.latency.itl.quantile(0.50),
            itl_p95_s: self.latency.itl.quantile(0.95),
            e2e_p50_s: self.latency.e2e.quantile(0.50),
            burn_rate: slo.map_or(0.0, |w| w.burn_rate),
            waits_s: self.waits_s.clone(),
        }
    }
}

/// Everything the hub holds, behind one mutex: the publisher clock orders
/// these updates, and readers are occasional scrapes.
#[derive(Debug)]
struct HubState {
    /// The shared lifecycle fold turning published events into samples.
    fold: LifecycleFold,
    /// Window ring, oldest first, consecutive indices.
    ring: VecDeque<HubWindow>,
    dropped_windows: u64,
    slo: Option<SloMonitor>,
    drift: Option<DriftDetector>,
    /// Alarms refreshed at each window roll (and at `finish`).
    alarms: Vec<DriftAlarm>,
    /// Highest window index that has been rolled past (alarm cadence).
    alarmed_through: u64,
    /// The publisher's latest report exposition (empty until the first
    /// publish).
    report: Exposition,
    /// Window of the latest [`MetricsHub::publish`] build.
    published_through: Option<u64>,
    /// Latest publisher timestamp seen.
    now_s: f64,
    kv_occupancy: f64,
    kv_occupancy_peak: f64,
    queue_depth: usize,
    finished_run: bool,
}

/// The live in-flight metrics registry. Construct one per run (or share
/// across runs to aggregate), hand `&MetricsHub` to the serving loop and
/// `Arc<MetricsHub>` to the scrape server.
#[derive(Debug)]
pub struct MetricsHub {
    window_s: f64,
    ring_capacity: usize,
    state: Mutex<HubState>,
}

impl MetricsHub {
    /// A hub with the given windowing, ring bound and judges.
    pub fn new(cfg: HubConfig) -> Self {
        assert!(
            cfg.window_s.is_finite() && cfg.window_s > 0.0,
            "hub window must be positive"
        );
        assert!(cfg.ring_capacity > 0, "ring capacity must be positive");
        let slo = cfg.slo.map(|t| SloMonitor::new(t, cfg.window_s));
        let drift = cfg.drift.map(|(b, p)| DriftDetector::new(b, p));
        MetricsHub {
            window_s: cfg.window_s,
            ring_capacity: cfg.ring_capacity,
            state: Mutex::new(HubState {
                fold: LifecycleFold::new(),
                ring: VecDeque::new(),
                dropped_windows: 0,
                slo,
                drift,
                alarms: Vec::new(),
                alarmed_through: 0,
                report: Exposition::new(),
                published_through: None,
                now_s: 0.0,
                kv_occupancy: 0.0,
                kv_occupancy_peak: 0.0,
                queue_depth: 0,
                finished_run: false,
            }),
        }
    }

    /// A hub with the default config (1 s windows, 240-window ring, no
    /// SLO targets, no drift baseline).
    pub fn with_defaults() -> Self {
        Self::new(HubConfig::default())
    }

    fn lock(&self) -> MutexGuard<'_, HubState> {
        self.state.lock().expect("hub state")
    }

    fn window_index(&self, t_s: f64) -> u64 {
        (t_s.max(0.0) / self.window_s) as u64
    }

    // ------------------------------------------------------------------
    // Publisher side
    // ------------------------------------------------------------------

    /// Publishes one lifecycle event at publisher-clock `t_s` on `lane`
    /// into the `/series` ring and the SLO / drift judges. Latencies come
    /// from the shared [`LifecycleFold`], so a live hub and a post-hoc
    /// `SloMonitor::observe` agree on every observation.
    pub fn on_record(&self, t_s: f64, lane: u64, event: &TraceEvent) {
        match *event {
            TraceEvent::Step { .. } => {}
            // Transfers are stamped at their landing, which may lie ahead
            // of the publisher's clock: leave the clock alone.
            TraceEvent::SwapOut { .. } | TraceEvent::SwapIn { .. } => return,
            _ if lane >= RESERVED_LANES => return,
            _ => {}
        }
        let mut st = self.lock();
        st.now_s = st.now_s.max(t_s);
        match *event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                gpu_s,
            } => {
                let w = self.window_mut(&mut st, t_s);
                w.steps += 1;
                w.gpu_s += gpu_s;
                w.prefill_tokens += prefill_rows as u64;
                w.decode_tokens += decode_slots as u64;
            }
            TraceEvent::Admitted { .. } => self.window_mut(&mut st, t_s).admitted += 1,
            TraceEvent::Rejected => self.window_mut(&mut st, t_s).rejected += 1,
            TraceEvent::Finished => self.window_mut(&mut st, t_s).finished += 1,
            TraceEvent::Preempted { .. } => self.window_mut(&mut st, t_s).preemptions += 1,
            TraceEvent::Waiting { cause, since_s } => {
                *self
                    .window_mut(&mut st, t_s)
                    .waits_s
                    .entry(cause.name().to_string())
                    .or_default() += (t_s - since_s).max(0.0)
            }
            _ => {}
        }
        if let Some(sample) = st.fold.observe(t_s, lane, event) {
            self.observe_locked(&mut st, t_s, sample);
        }
        self.roll_alarms(&mut st);
    }

    /// Stores a snapshot of the publisher's report, running `build` at
    /// most once per newly entered window: the first publish at or past a
    /// window not yet published builds, later ones in that window return
    /// at once. `build` runs under the hub lock, so concurrent publishers
    /// store their snapshots in lock order and an older one never
    /// replaces a newer one. `build` must therefore take no lock that any
    /// thread holds while it calls into the hub.
    pub fn publish(&self, t_s: f64, build: impl FnOnce() -> Exposition) {
        let idx = self.window_index(t_s);
        let mut st = self.lock();
        if st.published_through.is_some_and(|w| idx <= w) {
            return;
        }
        st.published_through = Some(idx);
        st.report = build();
    }

    /// Stores the run's final report exposition unconditionally; call it
    /// with the returned report's [`Exposition`] before [`Self::finish`].
    pub fn publish_final(&self, report: Exposition) {
        self.lock().report = report;
    }

    /// Publishes the live KV occupancy gauge at publisher-clock `t_s`
    /// (also tracked as the peak of `t_s`'s window).
    pub fn set_kv_occupancy(&self, t_s: f64, occupancy: f64) {
        let mut st = self.lock();
        st.now_s = st.now_s.max(t_s);
        st.kv_occupancy = occupancy;
        st.kv_occupancy_peak = st.kv_occupancy_peak.max(occupancy);
        let w = self.window_mut(&mut st, t_s);
        w.kv_occupancy_peak = w.kv_occupancy_peak.max(occupancy);
    }

    /// Publishes the live admission-queue depth gauge.
    pub fn set_queue_depth(&self, depth: usize) {
        self.lock().queue_depth = depth;
    }

    /// Marks the run complete: seals the open window into the alarm
    /// evaluation and flips the `pit_hub_run_complete` gauge. Scrapes
    /// keep working after this — the endpoint outlives the replay.
    pub fn finish(&self) {
        let mut st = self.lock();
        st.finished_run = true;
        if let Some(d) = st.drift.as_ref() {
            st.alarms = d.alarms();
        }
    }

    /// Feeds one folded sample to the SLO monitor, the drift detector
    /// and the sample's window.
    fn observe_locked(&self, st: &mut HubState, t_s: f64, sample: LatencySample) {
        if let Some(m) = st.slo.as_mut() {
            m.record(t_s, sample);
        }
        if let Some(d) = st.drift.as_mut() {
            d.record(sample);
        }
        self.window_mut(st, t_s).latency.record(sample);
    }

    /// The window holding `t_s`, growing the ring forward (and evicting
    /// the oldest windows past capacity) as the clock advances.
    /// Straggler timestamps older than the ring land in the oldest
    /// retained window rather than being dropped.
    fn window_mut<'s>(&self, st: &'s mut HubState, t_s: f64) -> &'s mut HubWindow {
        let idx = self.window_index(t_s);
        if st.ring.is_empty() {
            st.ring.push_back(HubWindow::new(idx));
        }
        let hi = st.ring.back().expect("non-empty ring").index;
        if idx > hi {
            for i in (hi + 1)..=idx {
                st.ring.push_back(HubWindow::new(i));
                while st.ring.len() > self.ring_capacity {
                    st.ring.pop_front();
                    st.dropped_windows += 1;
                }
            }
        }
        let lo = st.ring.front().expect("non-empty ring").index;
        let at = idx.max(lo) - lo;
        let at = (at as usize).min(st.ring.len() - 1);
        &mut st.ring[at]
    }

    /// Refreshes drift alarms once per newly entered window, so alarms
    /// fire mid-run at window cadence rather than on every sample.
    fn roll_alarms(&self, st: &mut HubState) {
        let hi = match st.ring.back() {
            Some(w) => w.index,
            None => return,
        };
        if hi > st.alarmed_through {
            st.alarmed_through = hi;
            if let Some(d) = st.drift.as_ref() {
                st.alarms = d.alarms();
            }
        }
    }

    // ------------------------------------------------------------------
    // Reader side
    // ------------------------------------------------------------------

    /// A consistent snapshot of the hub as a Prometheus exposition: the
    /// latest published report's families, then the live-only gauges
    /// (clock, KV occupancy, queue depth, windows, alarms, run complete
    /// and, with an SLO target, attainment and worst-window burn).
    /// `parse_exposition` round-trips the rendered document.
    pub fn exposition(&self) -> Exposition {
        let st = self.lock();
        let mut out = st.report.clone();
        for (name, help, value) in [
            (
                "pit_hub_clock_seconds",
                "Latest publisher-clock timestamp seen",
                st.now_s,
            ),
            (
                "pit_hub_kv_occupancy",
                "Live KV pool occupancy (fraction)",
                st.kv_occupancy,
            ),
            (
                "pit_hub_kv_occupancy_peak",
                "Peak KV pool occupancy seen",
                st.kv_occupancy_peak,
            ),
            (
                "pit_hub_admission_queue_depth",
                "Live admission queue depth",
                st.queue_depth as f64,
            ),
            (
                "pit_hub_window_count",
                "Windows observed so far (ring + evicted)",
                st.ring.len() as f64 + st.dropped_windows as f64,
            ),
            (
                "pit_hub_drift_alarms_active",
                "Drift alarms currently firing",
                st.alarms.len() as f64,
            ),
            (
                "pit_hub_run_complete",
                "1 once the publisher marked the run finished",
                f64::from(u8::from(st.finished_run)),
            ),
        ] {
            out.gauge(name, help, value);
        }
        if let Some(m) = st.slo.as_ref() {
            let r = m.report(None);
            out.gauge(
                "pit_hub_ttft_attainment",
                "Whole-run TTFT attainment against the hub SLO",
                r.ttft_attainment,
            );
            out.gauge(
                "pit_hub_itl_attainment",
                "Whole-run ITL attainment against the hub SLO",
                r.itl_attainment,
            );
            out.gauge(
                "pit_hub_worst_window_burn_rate",
                "Hottest window's SLO burn rate so far",
                r.worst_window_burn_rate,
            );
        }
        out
    }

    /// [`Self::exposition`] rendered to the text format.
    pub fn render(&self) -> String {
        self.exposition().render()
    }

    /// The live SLO report (attainment, burn rates, per-window digests)
    /// with the current drift alarms and the published report's device
    /// busy fraction attached, or `None` when the hub was built without
    /// SLO targets.
    pub fn slo_report(&self) -> Option<SloReport> {
        let st = self.lock();
        st.slo.as_ref().map(|m| {
            let mut r = m.report(None);
            r.busy_fraction = st
                .report
                .families()
                .iter()
                .find(|f| f.name == BUSY_FRACTION)
                .and_then(|f| f.samples.first())
                .map(|s| s.value);
            r.drift = st.alarms.clone();
            r
        })
    }

    /// The `GET /slo` document: the [`SloReport`] as JSON, or a stub
    /// carrying just the alarms when no SLO target is configured.
    pub fn slo_json(&self) -> String {
        use serde::Serialize;
        match self.slo_report() {
            Some(r) => r.to_json(),
            None => {
                let st = self.lock();
                format!("{{\"target\":null,\"drift\":{}}}", st.alarms.to_json())
            }
        }
    }

    /// Drift alarms currently firing (empty without a baseline).
    pub fn alarms(&self) -> Vec<DriftAlarm> {
        self.lock().alarms.clone()
    }

    /// The window ring digested oldest-first (the `GET /series` body).
    /// Each window's burn rate is the SLO monitor's for the same window.
    pub fn series(&self) -> HubSeries {
        let st = self.lock();
        let slo = st
            .slo
            .as_ref()
            .map_or_else(Vec::new, |m| m.report(None).windows);
        HubSeries {
            window_s: self.window_s,
            dropped: st.dropped_windows,
            windows: st
                .ring
                .iter()
                .map(|w| w.digest(self.window_s, slo.get(w.index as usize)))
                .collect(),
        }
    }

    /// [`Self::series`] as JSON.
    pub fn series_json(&self) -> String {
        use serde::Serialize;
        self.series().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blame::WaitCause;

    fn step(hub: &MetricsHub, t_s: f64, gpu_s: f64) {
        hub.on_record(
            t_s,
            crate::sink::DEVICE_LANE,
            &TraceEvent::Step {
                prefill_rows: 64,
                decode_slots: 8,
                gpu_s,
            },
        );
    }

    #[test]
    fn lifecycle_fold_matches_slo_monitor_convention() {
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 16,
            slo: Some(SloTarget {
                ttft_s: 0.5,
                itl_s: 0.1,
                objective: 0.9,
            }),
            drift: None,
        });
        hub.on_record(0.1, 3, &TraceEvent::Admitted { arrival_s: 0.0 });
        hub.on_record(0.4, 3, &TraceEvent::FirstToken);
        hub.on_record(
            0.45,
            3,
            &TraceEvent::DecodeStep {
                attended: 8,
                cached: 8,
            },
        );
        hub.on_record(0.65, 3, &TraceEvent::Finished);
        // A rejection is a TTFT miss with no latency value.
        hub.on_record(0.7, 4, &TraceEvent::Rejected);
        let r = hub.slo_report().expect("slo configured");
        assert_eq!(r.windows[0].ttft_total, 2);
        assert_eq!(r.windows[0].ttft_ok, 1, "0.4s ttft within 0.5s target");
        assert_eq!(r.windows[0].itl_total, 1);
        let series = hub.series();
        assert_eq!(series.windows.len(), 1);
        assert_eq!(series.windows[0].finished, 1);
        assert_eq!(series.windows[0].rejected, 1);
        assert_eq!(series.windows[0].ttft_count, 1, "sketches hold values");
        // `/series` and `/slo` judge each window the same way.
        assert!(r.windows[0].burn_rate > 0.0, "the rejection burns budget");
        assert_eq!(series.windows[0].burn_rate, r.windows[0].burn_rate);
        let rendered = hub.render();
        let parsed = crate::expo::parse_exposition(&rendered).expect("round-trips");
        assert_eq!(parsed.render(), rendered);
        assert!(rendered.contains("\npit_hub_ttft_attainment 0.5\n"));
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 4,
            slo: None,
            drift: None,
        });
        for i in 0..10 {
            step(&hub, i as f64 + 0.5, 0.01);
        }
        let s = hub.series();
        assert_eq!(s.windows.len(), 4);
        assert_eq!(s.dropped, 6);
        assert_eq!(s.windows.first().expect("windows").index, 6);
        assert_eq!(s.windows.last().expect("windows").index, 9);
    }

    #[test]
    fn waits_land_in_their_series_window() {
        let hub = MetricsHub::with_defaults();
        hub.on_record(
            0.75,
            2,
            &TraceEvent::Waiting {
                cause: WaitCause::KvPoolExhausted,
                since_s: 0.25,
            },
        );
        let series = hub.series();
        assert_eq!(series.windows[0].waits_s["kv_pool_exhausted"], 0.5);
    }

    #[test]
    fn kv_occupancy_lands_in_the_step_window() {
        let hub = MetricsHub::with_defaults();
        step(&hub, 0.5, 0.01);
        // The publisher stamps the post-step occupancy with the step's
        // own time, ahead of the step record itself.
        hub.set_kv_occupancy(1.5, 0.9);
        step(&hub, 1.5, 0.01);
        let series = hub.series();
        assert_eq!(series.windows[0].kv_occupancy_peak, 0.0);
        assert_eq!(series.windows[1].kv_occupancy_peak, 0.9);
    }

    #[test]
    fn scrape_is_the_published_report_then_live_gauges() {
        let hub = MetricsHub::with_defaults();
        let report = |v: f64| {
            let mut e = Exposition::new();
            e.counter("pit_requests_total", "Requests served", v);
            e
        };
        let builds = std::cell::Cell::new(0);
        for (t_s, v) in [(0.1, 1.0), (0.9, 2.0), (1.2, 3.0)] {
            hub.publish(t_s, || {
                builds.set(builds.get() + 1);
                report(v)
            });
        }
        assert_eq!(builds.get(), 2, "one build per newly entered window");
        assert!(hub.render().starts_with(&report(3.0).render()));
        // A straggler from an older window never replaces the snapshot.
        hub.publish(0.5, || report(0.0));
        assert!(hub.render().starts_with(&report(3.0).render()));
        hub.publish_final(report(4.0));
        hub.finish();
        let rendered = hub.render();
        let live = rendered
            .strip_prefix(&report(4.0).render())
            .expect("the final report leads the scrape");
        let live = crate::expo::parse_exposition(live).expect("live block parses");
        assert!(live
            .families()
            .iter()
            .all(|f| f.kind == crate::expo::MetricKind::Gauge && f.name.starts_with("pit_hub_")));
        assert!(rendered.contains("\npit_hub_run_complete 1\n"));
    }

    #[test]
    fn drift_alarms_fire_mid_run_at_window_cadence() {
        // Baseline: 30 requests at 0.2s ttft. Live: 0.6s ttft — must
        // alarm while the run is still publishing (no finish() call).
        let sink = crate::sink::TraceSink::enabled();
        for lane in 0..30u64 {
            let a = lane as f64;
            sink.record(a + 0.01, lane, TraceEvent::Admitted { arrival_s: a });
            sink.record(a + 0.2, lane, TraceEvent::FirstToken);
            sink.record(a + 0.25, lane, TraceEvent::Finished);
        }
        let baseline = DriftBaseline::from_records(&sink.drain());
        let hub = MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 64,
            slo: None,
            drift: Some((baseline, DriftPolicy::default())),
        });
        for lane in 0..40u64 {
            let a = lane as f64;
            hub.on_record(a + 0.01, lane, &TraceEvent::Admitted { arrival_s: a });
            hub.on_record(a + 0.6, lane, &TraceEvent::FirstToken);
            hub.on_record(a + 0.65, lane, &TraceEvent::Finished);
        }
        let alarms = hub.alarms();
        assert!(
            alarms
                .iter()
                .any(|a| a.metric == "ttft" && a.kind == crate::drift::DriftKind::QuantileShift),
            "tripled ttft must alarm mid-run: {alarms:?}"
        );
    }
}
