//! Property tests for the causal-blame observability layer.
//!
//! The contract under test is *exact tiling*: the blame analyzer splits
//! every finished request's latency into causal categories, and those
//! tiles must sum back to the measured latency to floating-point
//! accuracy — `Σ ttft_by_cause == first_token - arrival` and
//! `Σ e2e_by_cause == end - arrival` — for every scheduling regime the
//! simulator supports (dense and sparse attention, recompute and swap
//! preemption, prefix caching, static padding). A residual would mean a
//! gap in the trace was attributed to nobody (or to two owners), and the
//! percentile tables `trace_explain` prints would silently lie.
//!
//! The Chrome export paints the same tiling: each finished lane's gap
//! segments sum to its blame end-to-end total, which is what lets
//! `trace_explain` rebuild per-cause seconds from a `TRACE_*.json`.
//!
//! The exemplar reservoir rides the same stream, so it is held to the
//! same replay discipline here: two runs produce identical exemplar
//! sets, the top-k bound holds, and collection survives a disabled or
//! head-sampled sink without perturbing the simulation.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, simulate_decode_trace_observed, simulate_decode_trace_traced,
    DecodePolicy, DecodeServeConfig, DecodeServeConfigBuilder, KvSparsityPolicy, PreemptPolicy,
};
use pit::trace::{blame_spans, chrome_trace_json, BlameBreakdown, JsonValue, TraceSink};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Tiles must close to well under a virtual-clock tick; 1e-9 s leaves
/// room only for benign f64 summation error.
const TILING_EPS: f64 = 1e-9;

/// A 2-layer OPT keeps the analytic per-step pass fast under proptest.
fn small_builder(policy: DecodePolicy) -> DecodeServeConfigBuilder {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb()).policy(policy)
}

/// The scheduling regimes whose stall paths emit distinct wait causes.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Continuous padding-free, dense attention, no pressure.
    Dense,
    /// Sliding-window KV sparsity trims the decode read set.
    SlidingWindow,
    /// Heavy-hitter KV sparsity.
    HeavyHitter,
    /// Pool a few contexts deep; victims re-prefill on re-admission.
    RecomputePressure,
    /// Same pressure; victims swap over the modelled PCIe link.
    SwapPressure,
    /// Radix-indexed prompt reuse on a shared-prefix trace.
    PrefixCached,
    /// The padded rectangle (static batching).
    StaticPadded,
}

const SCENARIOS: [Scenario; 7] = [
    Scenario::Dense,
    Scenario::SlidingWindow,
    Scenario::HeavyHitter,
    Scenario::RecomputePressure,
    Scenario::SwapPressure,
    Scenario::PrefixCached,
    Scenario::StaticPadded,
];

fn config(s: Scenario) -> DecodeServeConfig {
    let continuous = DecodePolicy::ContinuousPaddingFree { token_budget: 128 };
    match s {
        Scenario::Dense => small_builder(continuous),
        Scenario::SlidingWindow => {
            small_builder(continuous).kv_sparsity(KvSparsityPolicy::SlidingWindow { recent: 32 })
        }
        Scenario::HeavyHitter => {
            small_builder(continuous).kv_sparsity(KvSparsityPolicy::HeavyHitter {
                recent: 16,
                heavy: 16,
            })
        }
        // One worst-case summarization context plus headroom: decode
        // growth must evict, so the preemption wait causes fire.
        Scenario::RecomputePressure => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .kv_pages(64)
                .preempt(PreemptPolicy::Recompute)
        }
        Scenario::SwapPressure => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .kv_pages(64)
                .preempt(PreemptPolicy::SwapToHost)
        }
        Scenario::PrefixCached => {
            small_builder(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                .prefix_caching(true)
                .kv_pages(64)
        }
        Scenario::StaticPadded => small_builder(DecodePolicy::StaticPadded { max_batch: 16 }),
    }
    .build()
    .expect("valid scenario config")
}

fn workload(s: Scenario, n: usize, seed: u64) -> DecodeTrace {
    match s {
        // Short prompts with heavy-tailed outputs: KV growth outruns the
        // free list, so preemption actually engages.
        Scenario::RecomputePressure | Scenario::SwapPressure => DecodeTrace::poisson(
            &DatasetSpec::cola(),
            &DecodeSpec::summarization(),
            n,
            500.0,
            seed,
        ),
        // Bursty shared-prefix arrivals: admissions hit the radix index.
        Scenario::PrefixCached => {
            let spec = SharedPrefixSpec::assistants();
            let arrivals = ArrivalTrace::bursty(&DatasetSpec::mnli(), n, 400.0, 0.2, 0.4, seed);
            spec.decode_trace(
                &DecodeSpec::geometric(24.0, 1, 96),
                arrivals.arrival_s,
                seed,
            )
        }
        _ => DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(24.0, 1, 96),
            n,
            400.0,
            seed,
        ),
    }
}

/// Asserts the exact-tiling contract on one request's breakdown.
fn assert_tiles(lane: u64, b: &BlameBreakdown) {
    for (i, &t) in b.ttft_by_cause.iter().enumerate() {
        assert!(
            t >= 0.0 && b.e2e_by_cause[i] >= 0.0,
            "lane {lane}: negative tile in category {i}"
        );
    }
    if let Some(ft) = b.first_token_s {
        let residual = (b.ttft_total_s() - (ft - b.arrival_s)).abs();
        assert!(
            residual < TILING_EPS,
            "lane {lane}: TTFT tiles leave a {residual:e} s residual \
             (sum {} vs measured {})",
            b.ttft_total_s(),
            ft - b.arrival_s,
        );
    }
    let residual = (b.e2e_total_s() - (b.end_s - b.arrival_s)).abs();
    assert!(
        residual < TILING_EPS,
        "lane {lane}: e2e tiles leave a {residual:e} s residual \
         (sum {} vs measured {})",
        b.e2e_total_s(),
        b.end_s - b.arrival_s,
    );
}

/// Sums each sequence lane's gap-segment durations (seconds) in a Chrome
/// export: complete events on pid 1 whose tid a `seq <lane>` thread name
/// labels. The device and link lanes carry no such name.
fn chrome_lane_totals(json: &str) -> BTreeMap<u64, f64> {
    let v = JsonValue::parse(json).expect("export parses as JSON");
    let events = v.as_array().expect("top level is an array");
    let num = |e: &JsonValue, k: &str| e.get(k).and_then(JsonValue::as_f64);
    let mut lane_of_tid = BTreeMap::new();
    for e in events {
        let label = e
            .get("args")
            .and_then(|a| a.get("name"))
            .and_then(JsonValue::as_str);
        if let Some(lane) = label.and_then(|l| l.strip_prefix("seq ")) {
            let tid = num(e, "tid").expect("metadata has a tid") as u64;
            lane_of_tid.insert(tid, lane.parse::<u64>().expect("numeric lane"));
        }
    }
    let mut totals = BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(JsonValue::as_str) != Some("X") || num(e, "pid") != Some(1.0) {
            continue;
        }
        let tid = num(e, "tid").expect("event has a tid") as u64;
        if let Some(&lane) = lane_of_tid.get(&tid) {
            let dur_us = num(e, "dur").expect("X has dur");
            *totals.entry(lane).or_insert(0.0) += dur_us / 1e6;
        }
    }
    totals
}

proptest! {
    // Each case runs a full (small) simulation; keep the budget modest.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Exact tiling holds for every request, in every scheduling regime,
    /// at every seed — and tracing never perturbs the simulation.
    #[test]
    fn blame_tiles_latency_exactly(
        scenario_ix in 0usize..SCENARIOS.len(),
        n in 8usize..=24,
        seed in 1u64..=512,
    ) {
        let scenario = SCENARIOS[scenario_ix];
        let cfg = config(scenario);
        let trace = workload(scenario, n, seed);

        let sink = TraceSink::enabled();
        let traced = simulate_decode_trace_traced(&cfg, &trace, &sink);
        let spans = blame_spans(&sink.snapshot());

        // Every request got a lifecycle and finished it.
        prop_assert_eq!(spans.len(), trace.len(), "{:?}: one span per request", scenario);
        let mut finished = 0u64;
        for (&lane, b) in &spans {
            prop_assert!(b.finished, "{:?}: lane {} never finished", scenario, lane);
            prop_assert!(
                b.first_token_s.is_some(),
                "{:?}: lane {} finished without a first token", scenario, lane
            );
            assert_tiles(lane, b);
            finished += 1;
        }

        // The Chrome lanes paint the same tiling: each finished lane's
        // gap segments sum to its blame e2e total. Durations print as
        // shortest round-trip µs, so only summation error separates them.
        let painted = chrome_lane_totals(&chrome_trace_json(&sink.snapshot()));
        for (&lane, b) in &spans {
            let seg_s = painted.get(&lane).copied().unwrap_or(0.0);
            prop_assert!(
                (seg_s - b.e2e_total_s()).abs() < TILING_EPS,
                "{:?}: lane {} segments sum to {} s, blame e2e is {} s",
                scenario, lane, seg_s, b.e2e_total_s()
            );
        }

        // The report's aggregate saw the same population and mass.
        let blame = traced.blame.as_ref().expect("traced run carries blame");
        prop_assert_eq!(blame.requests, finished);
        let span_e2e: f64 = spans.values().map(BlameBreakdown::e2e_total_s).sum();
        prop_assert!(
            (blame.e2e_total_s - span_e2e).abs() < 1e-6,
            "{:?}: aggregate e2e {} != span sum {}", scenario, blame.e2e_total_s, span_e2e
        );

        // Observation is free: the traced report minus the trace-derived
        // blocks is the untraced report, bit for bit.
        let free = simulate_decode_trace(&cfg, &trace);
        let mut stripped = traced.clone();
        stripped.breakdown = None;
        stripped.blame = None;
        prop_assert_eq!(stripped, free, "{:?}: tracing perturbed the run", scenario);
    }
}

#[test]
fn exemplar_reservoir_is_deterministic_and_bounded() {
    let trace = workload(Scenario::SwapPressure, 32, 23);
    let cfg = config(Scenario::SwapPressure);
    let k = 3usize;

    let sink_a = TraceSink::enabled();
    let (report_a, ex_a) = simulate_decode_trace_observed(&cfg, &trace, &sink_a, k, None);
    let sink_b = TraceSink::enabled();
    let (report_b, ex_b) = simulate_decode_trace_observed(&cfg, &trace, &sink_b, k, None);

    // Bit-deterministic replay: same reports, same exemplars, same
    // captured timelines (record for record).
    assert_eq!(report_a, report_b);
    assert_eq!(ex_a, ex_b);

    for (name, list) in [("ttft", &ex_a.ttft), ("itl", &ex_a.itl), ("e2e", &ex_a.e2e)] {
        assert!(!list.is_empty(), "{name}: pressured run must have tails");
        assert!(list.len() <= k, "{name}: reservoir exceeded k={k}");
        for pair in list.windows(2) {
            assert!(
                pair[0].value_s >= pair[1].value_s,
                "{name}: exemplars not ranked worst-first"
            );
        }
        for ex in list {
            assert!(
                !ex.records.is_empty(),
                "{name}: exemplar lane {} kept no timeline",
                ex.lane
            );
            assert!(
                ex.records.iter().all(|r| r.lane == ex.lane),
                "{name}: foreign records leaked into lane {}",
                ex.lane
            );
        }
    }
}

#[test]
fn exemplars_survive_disabled_and_sampled_sinks() {
    let trace = workload(Scenario::Dense, 32, 31);
    let cfg = config(Scenario::Dense);
    let k = 2usize;

    let full_sink = TraceSink::enabled();
    let (full_report, full_ex) = simulate_decode_trace_observed(&cfg, &trace, &full_sink, k, None);

    // The reservoir buffers timelines independently of the sink, so the
    // same exemplars come back when the sink drops records — whether
    // head-sampled (1-in-5 lanes) or fully disabled.
    let sampled_sink = TraceSink::enabled().with_sampling(5);
    let (sampled_report, sampled_ex) =
        simulate_decode_trace_observed(&cfg, &trace, &sampled_sink, k, None);
    assert_eq!(
        full_ex, sampled_ex,
        "head sampling must not starve exemplars"
    );

    let disabled_sink = TraceSink::disabled();
    let (disabled_report, disabled_ex) =
        simulate_decode_trace_observed(&cfg, &trace, &disabled_sink, k, None);
    assert_eq!(
        full_ex, disabled_ex,
        "a disabled sink must not starve exemplars"
    );

    // The sink kept strictly fewer sequence records under sampling, and
    // none at all when disabled — observability stayed opt-in.
    let seq_records = |sink: &TraceSink| {
        sink.snapshot()
            .iter()
            .filter(|r| r.lane < pit::trace::RESERVED_LANES)
            .count()
    };
    assert!(seq_records(&sampled_sink) < seq_records(&full_sink));
    assert!(!disabled_sink.is_enabled());

    // And none of it perturbed the simulation: modulo the trace-derived
    // report blocks, all three runs are the same run.
    let strip = |mut r: pit::serve::DecodeReport| {
        r.breakdown = None;
        r.blame = None;
        r
    };
    let full = strip(full_report);
    assert_eq!(full, strip(sampled_report));
    assert_eq!(full, strip(disabled_report));
}

#[test]
fn zero_k_disables_the_reservoir() {
    let trace = workload(Scenario::Dense, 16, 7);
    let cfg = config(Scenario::Dense);
    let sink = TraceSink::enabled();
    let (_, ex) = simulate_decode_trace_observed(&cfg, &trace, &sink, 0, None);
    assert!(ex.ttft.is_empty() && ex.itl.is_empty() && ex.e2e.is_empty());
}
