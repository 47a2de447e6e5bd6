//! Decode-phase serving: padding-free continuous batching over a paged KV
//! cache vs. static padded batching, end to end on a seeded trace.
//!
//! The trace is open-loop (requests arrive at Poisson timestamps) with
//! MNLI-length prompts and seeded geometric output lengths; the model is
//! OPT-1.3B in fp16 on the modelled A100 — the memory-bound regime real
//! LLM serving runs in. Both policies get the same concurrency (64 slots):
//!
//! - **continuous padding-free**: a request prefills in 64-token chunks,
//!   then rejoins the batch every iteration, one token per step, with KV
//!   pages allocated on demand from `pit_kv`;
//! - **static padded**: requests batch once, prompts pad to the batch
//!   maximum, KV is reserved contiguously for the worst case, and every
//!   slot decodes until the longest output finishes.
//!
//! Both reports are dumped to `BENCH_decode.json` via
//! `DecodeReport::to_json` for CI to archive and diff with
//! `tools/bench_compare`; the continuous run's metrics are also written
//! as a Prometheus text exposition (`METRICS_decode.prom`), and a
//! re-run with tracing on feeds the windowed SLO monitor — rolling
//! TTFT/ITL attainment and burn rate joined with the device ledger's
//! busy fraction. The traced re-run also carries the causal blame
//! summary (who owns each request's latency, exactly tiled) into the
//! archived report, and an online drift detector replays the stream
//! against a baseline built from it — a throttled second run
//! (token budget halved) must raise quantile-shift alarms, surfaced on
//! the SLO report.
//!
//! ```bash
//! cargo run --release --example decode_serving
//! ```
//!
//! With `--serve-metrics <port>` the example additionally binds a live
//! scrape endpoint (`pit::trace::ScrapeServer`) on `127.0.0.1:<port>`
//! (`0` picks an ephemeral port), re-runs the continuous replay with a
//! `MetricsHub` attached so `curl /metrics`, `/slo` and `/series` (or
//! `pit_top`) observe it mid-flight, asserts the hubbed report is
//! byte-identical to the hub-free one and that the finished run's
//! `/metrics` scrape is the report's own exposition followed only by
//! live `pit_hub_*` gauges, holds the endpoint open for
//! `--hold-secs <n>` (default 0) and shuts down gracefully.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, simulate_decode_trace_observed, simulate_decode_trace_traced,
    DecodePolicy, DecodeServeConfig,
};
use pit::trace::{
    parse_exposition, DriftBaseline, DriftDetector, DriftPolicy, HubConfig, MetricKind, MetricsHub,
    ScrapeServer, SloMonitor, SloTarget, TraceSink,
};
use pit::workloads::{DatasetSpec, DecodeSpec, DecodeTrace};
use std::sync::Arc;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut serve_port: Option<String> = None;
    let mut hold_secs = 0.0_f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--serve-metrics" => {
                serve_port = Some(args.next().expect("--serve-metrics wants a port"));
            }
            "--hold-secs" => {
                hold_secs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--hold-secs wants a number");
            }
            other => panic!("unknown argument: {other}"),
        }
    }

    let spec = DatasetSpec::mnli();
    let out = DecodeSpec::geometric(128.0, 1, 512);
    let trace = DecodeTrace::poisson(&spec, &out, 160, 300.0, 31);
    println!(
        "trace: {} requests, {} prompt + {} output tokens ({} prompts, geometric outputs mean {:.0})\n",
        trace.len(),
        trace.total_prompt_tokens(),
        trace.total_output_tokens(),
        spec.name,
        out.mean_out,
    );

    let builder = || DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb());
    let free = simulate_decode_trace(
        &builder()
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .build()
            .expect("valid continuous config"),
        &trace,
    );
    println!("{free}\n");
    let padded = simulate_decode_trace(
        &builder()
            .policy(DecodePolicy::StaticPadded { max_batch: 64 })
            .build()
            .expect("valid static config"),
        &trace,
    );
    println!("{padded}\n");

    println!(
        "continuous vs static: {:.2}x tokens/s, waste {:.1}% -> {:.1}%, \
         itl p95 {:.2} -> {:.2} ms, ttft p95 {:.0} -> {:.0} ms",
        free.tokens_per_s() / padded.tokens_per_s(),
        padded.padding_waste() * 100.0,
        free.padding_waste() * 100.0,
        padded.itl.p95 * 1e3,
        free.itl.p95 * 1e3,
        padded.ttft.p95 * 1e3,
        free.ttft.p95 * 1e3,
    );

    // Where did the device time go? The ledger attributes every modelled
    // second; the categories tile busy time exactly, and busy + stalls +
    // idle tile the virtual clock.
    println!(
        "\ncontinuous device time: {:.1}% busy, {:.1}% MFU \
         (prefill attn {:.2} s, decode attn {:.2} s, dense gemm {:.2} s, idle {:.2} s)",
        free.utilization.busy_fraction * 100.0,
        free.utilization.mfu * 100.0,
        free.ledger.prefill_attention_ps as f64 / 1e12,
        free.ledger.decode_attention_ps as f64 / 1e12,
        free.ledger.dense_gemm_ps as f64 / 1e12,
        free.ledger.idle_s(),
    );
    let prom = free.exposition().render();
    std::fs::write("METRICS_decode.prom", &prom).expect("write METRICS_decode.prom");
    println!(
        "wrote Prometheus exposition to METRICS_decode.prom ({} bytes)",
        prom.len()
    );

    // The windowed SLO monitor: re-run the continuous config with tracing
    // on, replay the lifecycle stream into rolling TTFT/ITL attainment,
    // and join the device ledger so each burn reading comes with the busy
    // fraction that explains it (capacity vs scheduling).
    let sink = TraceSink::enabled();
    let traced = simulate_decode_trace_traced(
        &builder()
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
            .build()
            .expect("valid continuous config"),
        &trace,
        &sink,
    );
    let records = sink.drain();
    let mut monitor = SloMonitor::new(
        SloTarget {
            ttft_s: 0.5,
            itl_s: 0.05,
            objective: 0.99,
        },
        1.0,
    );
    monitor.observe(&records);
    let mut slo = monitor.report(Some(&traced.ledger));
    println!(
        "\nslo (ttft<=500ms, itl<=50ms, objective 99%): ttft attainment {:.1}% \
         (burn {:.2}), itl attainment {:.1}% (burn {:.2}), worst 1s window burn {:.2}, \
         device busy {:.1}%",
        slo.ttft_attainment * 100.0,
        slo.ttft_burn_rate,
        slo.itl_attainment * 100.0,
        slo.itl_burn_rate,
        slo.worst_window_burn_rate,
        slo.busy_fraction.expect("ledger joined") * 100.0,
    );

    // Causal blame: the traced run tiles every request's latency into
    // typed causes, so the tail has named owners instead of a number.
    let blame = traced.blame.as_ref().expect("traced run carries blame");
    println!("\n{blame}");

    // One JSON document with both runs, for the CI artifact. The
    // continuous side is the traced report — bit-identical ledger and
    // latencies (asserted below), plus the breakdown and blame blocks.
    let json = format!(
        "{{\"continuous\":{},\"static_padded\":{}}}",
        traced.to_json(),
        padded.to_json()
    );
    std::fs::write("BENCH_decode.json", &json).expect("write BENCH_decode.json");
    println!(
        "wrote both reports to BENCH_decode.json ({} bytes)",
        json.len()
    );

    // Online drift detection: commit this run as the baseline, then
    // replay a throttled deployment (token budget halved) against it.
    // The healthy replay must be quiet; the throttled one must raise
    // typed quantile-shift alarms — surfaced through the SLO report.
    let baseline = DriftBaseline::from_records(&records);
    let hub_baseline = baseline.clone();
    let mut healthy = DriftDetector::new(baseline.clone(), DriftPolicy::default());
    healthy.observe(&records);
    slo.drift = healthy.alarms();
    assert!(
        slo.drift.is_empty(),
        "a run compared against itself must not drift: {:?}",
        slo.drift
    );
    let throttled_sink = TraceSink::enabled();
    let throttled = simulate_decode_trace_traced(
        &builder()
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 64 })
            .build()
            .expect("valid throttled config"),
        &trace,
        &throttled_sink,
    );
    let mut detector = DriftDetector::new(baseline, DriftPolicy::default());
    detector.observe(&throttled_sink.drain());
    if let Some(b) = throttled.blame.as_ref() {
        detector.observe_blame(b);
    }
    let alarms = detector.alarms();
    println!("\ndrift vs baseline after halving the token budget:");
    for a in &alarms {
        println!("  {a}");
    }
    assert!(
        !alarms.is_empty(),
        "halving the token budget must shift the latency quantiles"
    );

    // The CI smoke test leans on these assertions.
    assert_eq!(free.requests, trace.len(), "every request served");
    assert_eq!(padded.requests, trace.len());
    assert_eq!(
        free.real_tokens, padded.real_tokens,
        "identical real work arrived"
    );
    assert_eq!(
        free.padding_waste(),
        0.0,
        "continuous batching adds zero padding"
    );
    assert!(
        padded.padding_waste() > 0.0,
        "the static rectangle pays for padding"
    );
    assert!(
        free.tokens_per_s() > padded.tokens_per_s(),
        "padding-free must serve strictly more tokens per modelled GPU-second"
    );
    assert!(
        free.itl.p95 < padded.itl.p95,
        "padding-free must beat the rectangle on inter-token p95 ({:.3} vs {:.3} ms)",
        free.itl.p95 * 1e3,
        padded.itl.p95 * 1e3,
    );
    assert!(
        free.ttft.p95 < padded.ttft.p95,
        "and on time-to-first-token"
    );
    // KV pages are conserved: the allocator reports no leaks under either
    // policy, and the decode metrics carried live occupancy all along.
    for report in [&free, &padded] {
        assert!(
            report.kv.conserved(),
            "[{}] KV pages leaked: {}",
            report.policy,
            report.kv
        );
        assert!(report.kv_peak_occupancy <= 1.0);
        assert!(report.itl.p50 > 0.0 && report.itl.p50 <= report.itl.p95);
        assert!(report.itl.p95 <= report.itl.p99);
    }
    // Paging vs worst-case reservation: the static policy burns most of
    // its allocated slots on reservation slack.
    assert!(free.kv_mean_fragmentation < padded.kv_mean_fragmentation);
    // The ledger conserves exactly, the traced re-run replayed the same
    // virtual clock, and the SLO roll-up saw every request.
    for report in [&free, &padded] {
        assert!(report.ledger.conserved(), "[{}] ledger", report.policy);
    }
    assert_eq!(traced.ledger, free.ledger, "tracing perturbs nothing");
    assert_eq!(
        slo.windows.iter().map(|w| w.ttft_total).sum::<u64>(),
        trace.len() as u64,
        "one TTFT observation per request"
    );
    println!("\npadding-free continuous batching wins on every axis ✓");

    // Live observability plane (opt-in): bind the scrape endpoint, then
    // re-run the continuous replay with a MetricsHub attached — the same
    // SLO target as the monitor above and a drift baseline from the
    // traced run, so /slo carries attainment and any firing alarms. The
    // hub is write-only for the replay, so the hubbed report must be
    // byte-identical to the hub-free traced one even while a scraper
    // hammers the endpoint.
    if let Some(port) = serve_port {
        let hub = Arc::new(MetricsHub::new(HubConfig {
            window_s: 1.0,
            ring_capacity: 240,
            slo: Some(SloTarget {
                ttft_s: 0.5,
                itl_s: 0.05,
                objective: 0.99,
            }),
            drift: Some((hub_baseline, DriftPolicy::default())),
        }));
        let server = ScrapeServer::bind(hub.clone(), &format!("127.0.0.1:{port}"))
            .expect("bind scrape endpoint");
        println!(
            "\nserving live metrics at http://{} (GET /metrics, /slo, /series, /healthz)",
            server.local_addr()
        );
        let hub_sink = TraceSink::enabled();
        let (hubbed, _) = simulate_decode_trace_observed(
            &builder()
                .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 })
                .build()
                .expect("valid continuous config"),
            &trace,
            &hub_sink,
            0,
            Some(&hub),
        );
        assert_eq!(
            hubbed.to_json(),
            traced.to_json(),
            "attaching the metrics hub must not change the report by one byte"
        );
        println!("hubbed replay report is byte-identical to the hub-free run ✓");
        // The hub serves the report's own exposition: the finished run's
        // scrape is the METRICS_*.prom document, then live-only gauges.
        let scrape = hub.render();
        let live = scrape
            .strip_prefix(&hubbed.exposition().render())
            .expect("the final scrape begins with the report's exposition");
        let live = parse_exposition(live).expect("live block parses");
        assert!(
            live.families()
                .iter()
                .all(|f| f.kind == MetricKind::Gauge && f.name.starts_with("pit_hub_")),
            "only live pit_hub_* gauges follow the report"
        );
        println!("final /metrics scrape equals the report's exposition plus live gauges ✓");
        if hold_secs > 0.0 {
            println!("holding the endpoint open for {hold_secs:.0}s (scrape away)...");
            std::thread::sleep(std::time::Duration::from_secs_f64(hold_secs));
        }
        let served = server.shutdown();
        println!("metrics endpoint closed cleanly after {served} requests");
    }
}
