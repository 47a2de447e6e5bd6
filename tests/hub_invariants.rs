//! Live-observability invariants across the whole stack: a scrape
//! endpoint attached to an in-flight replay must (1) never perturb the
//! replay — the final report is byte-identical with and without the hub,
//! even while scrapers hammer the endpoint; (2) serve only well-formed
//! payloads — every `/metrics` body round-trips through
//! `parse_exposition`, `/slo` and `/series` parse as JSON; (3) show
//! monotone counters — a later scrape never reports a smaller value for
//! any counter sample; and (4) agree with the report — a finished run's
//! `/metrics` scrape is the report's own exposition followed by live-only
//! gauges, and the lifecycle fold over the drained records, the hub's
//! `/series` ring and the SLO monitor count exactly the report's TTFT /
//! ITL / e2e samples.

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace_observed, simulate_decode_trace_traced, DecodePolicy, DecodeServeConfig,
    KvSparsityPolicy, PreemptPolicy,
};
use pit::serve::DecodeReport;
use pit::serve::{serve_trace_arrivals, AdmissionMode, BatchPolicy, Percentiles, ServeConfig};
use pit::trace::{
    parse_exposition, Exposition, HubConfig, HubSeries, HubSeriesWindow, JsonValue,
    LatencySketches, MetricKind, MetricsHub, ScrapeServer, SloMonitor, SloTarget, TraceEvent,
    TraceSink,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A 2-layer OPT keeps the analytic per-step pass fast in CI.
fn small_decode_cfg(token_budget: usize) -> DecodeServeConfig {
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget })
        .build()
        .expect("valid test config")
}

fn decode_trace(n: usize) -> DecodeTrace {
    DecodeTrace::poisson(
        &DatasetSpec::mnli(),
        &DecodeSpec::geometric(24.0, 1, 96),
        n,
        400.0,
        31,
    )
}

fn get(addr: SocketAddr, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect scrape endpoint");
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("write");
    let mut out = String::new();
    s.read_to_string(&mut out).expect("read");
    let (head, body) = out.split_once("\r\n\r\n").expect("header/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
    body.to_string()
}

/// Every counter sample in a parsed `/metrics` body, keyed by family +
/// suffix + labels so labelled families compare sample-by-sample.
fn counter_values(body: &str) -> BTreeMap<String, f64> {
    let expo = parse_exposition(body).expect("scrape parses");
    let mut out = BTreeMap::new();
    for fam in expo.families() {
        if fam.kind != MetricKind::Counter {
            continue;
        }
        for s in &fam.samples {
            let labels: Vec<String> = s.labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.insert(
                format!("{}{}{{{}}}", fam.name, s.suffix, labels.join(",")),
                s.value,
            );
        }
    }
    out
}

#[test]
fn hub_and_concurrent_scrapers_leave_the_report_byte_identical() {
    let cfg = small_decode_cfg(128);
    let trace = decode_trace(48);

    // Reference: hub-free traced run.
    let sink = TraceSink::enabled();
    let free = simulate_decode_trace_traced(&cfg, &trace, &sink);

    // Hubbed run with a live endpoint being hammered from two threads
    // for the whole duration of the replay.
    let hub = Arc::new(MetricsHub::new(HubConfig {
        window_s: 0.25,
        ring_capacity: 64,
        slo: Some(SloTarget {
            ttft_s: 0.5,
            itl_s: 0.05,
            objective: 0.99,
        }),
        drift: None,
    }));
    let server = ScrapeServer::bind(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let stop = Arc::new(AtomicBool::new(false));
    let hubbed = std::thread::scope(|s| {
        for path in ["/metrics", "/slo", "/series"] {
            let stop = stop.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let body = get(addr, path);
                    match path {
                        "/metrics" => {
                            parse_exposition(&body).expect("mid-run scrape parses");
                        }
                        _ => {
                            JsonValue::parse(&body).expect("mid-run JSON parses");
                        }
                    }
                }
            });
        }
        let hub_sink = TraceSink::enabled();
        let (hubbed, _) = simulate_decode_trace_observed(&cfg, &trace, &hub_sink, 0, Some(&hub));
        stop.store(true, Ordering::Relaxed);
        hubbed
    });
    let served = server.shutdown();
    assert!(served > 0, "scrapers reached the endpoint");
    assert_eq!(
        hubbed.to_json(),
        free.to_json(),
        "hub + concurrent scrapers must not change the report by one byte"
    );
}

#[test]
fn scrapes_round_trip_and_counters_never_decrease() {
    // A roomy pool, and a tight one where recompute preemption re-derives
    // KV: `pit_real_tokens_total` nets that rework out at commit, so a
    // snapshot taken mid-iteration could go backwards.
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    let tight = DecodeServeConfig::builder(model, DeviceSpec::a100_80gb())
        .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
        .kv_pages(64)
        .preempt(PreemptPolicy::Recompute)
        .build()
        .expect("valid tight config");
    let summarization = DecodeTrace::poisson(
        &DatasetSpec::cola(),
        &DecodeSpec::summarization(),
        48,
        400.0,
        43,
    );
    for (name, cfg, trace, window_s) in [
        ("roomy", small_decode_cfg(96), decode_trace(64), 1.0),
        ("recompute", tight, summarization, 0.05),
    ] {
        let hub = Arc::new(MetricsHub::new(HubConfig {
            window_s,
            ..HubConfig::default()
        }));
        let (report, scrapes) = scrape_until_done(&cfg, &trace, &hub);
        if name == "recompute" {
            assert!(report.recomputed_tokens > 0, "the tight pool recomputes");
        }
        assert!(
            scrapes.len() >= 2,
            "{name}: at least an in-flight and a final scrape"
        );
        let mut prev: Option<BTreeMap<String, f64>> = None;
        for body in &scrapes {
            // render ∘ parse is the identity on every served body.
            let expo = parse_exposition(body).expect("scrape parses");
            assert_eq!(&expo.render(), body, "{name}: scrape round-trips");
            let cur = counter_values(body);
            if let Some(prev) = prev.as_ref() {
                for (k, v) in prev {
                    let now = cur.get(k).unwrap_or_else(|| {
                        panic!("{name}: counter {k} disappeared between scrapes")
                    });
                    assert!(now >= v, "{name}: counter {k} went backwards: {v} -> {now}");
                }
            }
            prev = Some(cur);
        }
        let last = prev.expect("at least one scrape");
        assert_eq!(
            last.get("pit_requests_total{}").copied(),
            Some(trace.len() as f64),
            "{name}: every request finished in the final scrape"
        );
    }
}

/// Replays `trace` with `hub` behind a live endpoint, scraping
/// `/metrics` (and checking `/slo` and `/series` parse) until the run
/// completes plus two more scrapes — counters must hold steady across
/// post-run scrapes too. Returns the report and every `/metrics` body.
fn scrape_until_done(
    cfg: &DecodeServeConfig,
    trace: &DecodeTrace,
    hub: &Arc<MetricsHub>,
) -> (DecodeReport, Vec<String>) {
    let server = ScrapeServer::bind(hub.clone(), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let out = std::thread::scope(|s| {
        let scraper = s.spawn(move || {
            let mut bodies = Vec::new();
            let mut after_done = 0;
            while after_done < 3 {
                let body = get(addr, "/metrics");
                // Match the sample line, not the HELP line (whose text
                // also starts with "1").
                if body.contains("\npit_hub_run_complete 1\n") {
                    after_done += 1;
                }
                bodies.push(body);
                assert!(
                    JsonValue::parse(&get(addr, "/slo")).is_ok(),
                    "/slo parses mid-run"
                );
                assert!(
                    JsonValue::parse(&get(addr, "/series")).is_ok(),
                    "/series parses mid-run"
                );
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            bodies
        });
        let sink = TraceSink::disabled();
        let (report, _) = simulate_decode_trace_observed(cfg, trace, &sink, 0, Some(hub));
        (report, scraper.join().expect("scraper panicked"))
    });
    server.shutdown();
    out
}

#[test]
fn threaded_runtime_publishes_consistent_hub_totals() {
    for admission in [AdmissionMode::Block, AdmissionMode::RejectWhenFull] {
        let mut cfg = ServeConfig::new(BatchPolicy::PaddingFree { token_budget: 1024 });
        cfg.model.layers = 2;
        cfg.admission = admission;
        if admission == AdmissionMode::RejectWhenFull {
            // A tiny queue under the same rate sheds some arrivals.
            cfg.queue_capacity = 2;
        }
        // High rate so the replay finishes quickly in CI.
        let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 48, 2000.0, 29);
        let hub = Arc::new(MetricsHub::with_defaults());
        let report = serve_trace_arrivals(&cfg, &trace, Some(&hub));
        assert_eq!(report.requests + report.rejected, trace.len());

        let name = format!("threaded {admission:?}");
        assert_scrape_is_report_then_live(&name, &hub, &report.exposition());
        assert!(
            hub.render().contains("\npit_hub_admission_queue_depth 0\n"),
            "{name}: the finished run's queue-depth gauge drained to 0"
        );
        let series = hub.series();
        let total = |f: fn(&HubSeriesWindow) -> u64| series_total(&series, f);
        assert_eq!(
            total(|w| w.admitted),
            report.requests as u64,
            "{name}: submitter published every admission"
        );
        assert_eq!(
            total(|w| w.rejected),
            report.rejected as u64,
            "{name}: submitter published every rejection"
        );
        assert_eq!(
            total(|w| w.finished),
            report.requests as u64,
            "{name}: workers published every completion"
        );
        assert_eq!(
            total(|w| w.prefill_tokens),
            report.real_tokens as u64,
            "{name}: Step records carry the report's tokens"
        );
        assert_eq!(
            total(|w| w.steps),
            report.batches as u64,
            "{name}: one Step record per executed batch"
        );
        // Each completion's FirstToken closes one TTFT sample against the
        // submitter's admission.
        assert_eq!(total(|w| w.ttft_count), report.requests as u64);
    }
}

#[test]
fn threaded_runtime_snapshots_every_batch_without_deadlock() {
    // A 0.1 ms hub window makes nearly every batch build a snapshot
    // under the hub lock while the submitter publishes admissions under
    // the queue lock: the two locks must never be taken in both orders.
    for seed in [31, 32, 33] {
        for admission in [AdmissionMode::Block, AdmissionMode::RejectWhenFull] {
            let mut cfg = ServeConfig::new(BatchPolicy::PaddingFree { token_budget: 256 });
            cfg.model.layers = 1;
            cfg.admission = admission;
            cfg.workers = 4;
            cfg.queue_capacity = 2;
            let trace = ArrivalTrace::poisson(&DatasetSpec::mnli(), 1000, 1e5, seed);
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let hub = MetricsHub::new(HubConfig {
                    window_s: 1e-4,
                    ..HubConfig::default()
                });
                let report = serve_trace_arrivals(&cfg, &trace, Some(&hub));
                let _ = tx.send((report, hub));
            });
            let (report, hub) = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{admission:?}: the threaded runtime deadlocked"));
            assert_eq!(report.requests + report.rejected, 1000);
            assert_scrape_is_report_then_live("per-batch snapshots", &hub, &report.exposition());
        }
    }
}

/// The `_count` sample of a summary family.
fn summary_count(expo: &Exposition, family: &str) -> u64 {
    expo.families()
        .iter()
        .find(|f| f.name == family)
        .and_then(|f| f.samples.iter().find(|s| s.suffix == "_count"))
        .unwrap_or_else(|| panic!("{family}_count missing"))
        .value as u64
}

/// A finished run's scrape is `report` rendered byte for byte, followed
/// by nothing but the hub's live-only `pit_hub_*` gauges.
fn assert_scrape_is_report_then_live(name: &str, hub: &MetricsHub, report: &Exposition) {
    let body = hub.render();
    let live = body
        .strip_prefix(&report.render())
        .unwrap_or_else(|| panic!("{name}: the scrape must begin with the report's exposition"));
    let live = parse_exposition(live).expect("live block parses");
    assert!(!live.families().is_empty(), "{name}: live block present");
    for fam in live.families() {
        assert!(
            fam.kind == MetricKind::Gauge && fam.name.starts_with("pit_hub_"),
            "{name}: only live gauges follow the report, got {}",
            fam.name
        );
    }
    assert!(
        body.contains("\npit_hub_run_complete 1\n"),
        "{name}: finish() sealed the run"
    );
}

/// One `/series` field summed over every window (the ring must hold the
/// whole run).
fn series_total(series: &HubSeries, field: fn(&HubSeriesWindow) -> u64) -> u64 {
    assert_eq!(series.dropped, 0, "the ring holds the whole run");
    series.windows.iter().map(field).sum()
}

#[test]
fn every_consumer_folds_the_report_latencies() {
    // Short prompts, long summarization outputs, a pool a few contexts
    // deep: decode growth preempts, and recompute victims re-admit
    // mid-generation. The prompts are prefixes of one token stream, so
    // prefix caching has shared pages to match.
    let mut trace = DecodeTrace::poisson(
        &DatasetSpec::cola(),
        &DecodeSpec::summarization(),
        48,
        400.0,
        43,
    );
    trace.prompt_ids = trace
        .prompt_lens
        .iter()
        .map(|&n| (0..n as u32).collect())
        .collect();
    let mut model = ModelConfig::opt("1.3B");
    model.layers = 2;
    let builder = || DecodeServeConfig::builder(model.clone(), DeviceSpec::a100_80gb());
    let mut cases = Vec::new();
    for preempt in [PreemptPolicy::Recompute, PreemptPolicy::SwapToHost] {
        for prefix in [false, true] {
            for sparsity in [
                KvSparsityPolicy::Dense,
                KvSparsityPolicy::HeavyHitter {
                    recent: 128,
                    heavy: 128,
                },
            ] {
                let cfg = builder()
                    .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
                    .kv_pages(64)
                    .preempt(preempt)
                    .prefix_caching(prefix)
                    .kv_sparsity(sparsity);
                cases.push((format!("{preempt:?}/prefix={prefix}/{sparsity:?}"), cfg));
            }
        }
    }
    cases.push((
        "static".to_string(),
        builder().policy(DecodePolicy::StaticPadded { max_batch: 16 }),
    ));

    let target = SloTarget {
        ttft_s: 0.5,
        itl_s: 0.05,
        objective: 0.99,
    };
    let mut readmitted_tokens = 0;
    for (name, cfg) in cases {
        let cfg = cfg.build().expect("valid agreement config");
        let sink = TraceSink::enabled();
        let hub = MetricsHub::new(HubConfig {
            window_s: 0.25,
            ring_capacity: 64,
            slo: Some(target),
            drift: None,
        });
        let (report, _) = simulate_decode_trace_observed(&cfg, &trace, &sink, 0, Some(&hub));
        assert_eq!(report.requests, trace.len(), "{name}: every request served");
        let records = sink.drain();

        let folded = LatencySketches::from_records(&records);
        assert_eq!(
            Percentiles::from_sketch(&folded.ttft),
            report.ttft,
            "{name}: ttft"
        );
        assert_eq!(
            Percentiles::from_sketch(&folded.itl),
            report.itl,
            "{name}: itl"
        );
        assert_eq!(
            Percentiles::from_sketch(&folded.e2e),
            report.e2e,
            "{name}: e2e"
        );
        let expo = report.exposition();
        assert_eq!(
            folded.ttft.count(),
            summary_count(&expo, "pit_ttft_seconds"),
            "{name}"
        );
        assert_eq!(
            folded.e2e.count(),
            summary_count(&expo, "pit_e2e_seconds"),
            "{name}"
        );

        // Step records and the hub's `/series` windows count the
        // report's real rows: no padding, no rework left out.
        let (prefill_rows, decode_slots) = records.iter().fold((0, 0), |(p, d), r| match r.event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                ..
            } => (p + prefill_rows, d + decode_slots),
            _ => (p, d),
        });
        assert_eq!(prefill_rows, report.prefill_tokens, "{name}: step prefill");
        assert_eq!(decode_slots, report.decode_tokens, "{name}: step decode");
        assert_scrape_is_report_then_live(&name, &hub, &expo);
        let series = hub.series();
        let total = |f: fn(&HubSeriesWindow) -> u64| series_total(&series, f);
        assert_eq!(total(|w| w.prefill_tokens), report.prefill_tokens as u64);
        assert_eq!(total(|w| w.decode_tokens), report.decode_tokens as u64);
        assert_eq!(total(|w| w.ttft_count), folded.ttft.count(), "{name}");
        assert_eq!(total(|w| w.itl_count), folded.itl.count(), "{name}");
        assert_eq!(total(|w| w.finished), folded.e2e.count(), "{name}");
        let slo = hub.slo_report().expect("hub has SLO targets");
        let mut replayed = SloMonitor::new(target, 0.25);
        replayed.observe(&records);
        assert_eq!(replayed.report(None).windows, slo.windows, "{name}: slo");
        // Every decode slot's token is an ITL, plus each re-admission's
        // first token.
        let readmits: usize = {
            let mut first_tokens: BTreeMap<u64, usize> = BTreeMap::new();
            for r in records.iter().filter(|r| r.event == TraceEvent::FirstToken) {
                *first_tokens.entry(r.lane).or_default() += 1;
            }
            first_tokens.values().map(|n| n - 1).sum()
        };
        assert_eq!(
            folded.itl.count(),
            (report.decode_tokens + readmits) as u64,
            "{name}: itl count"
        );
        readmitted_tokens += readmits;
        let totals =
            |f: fn(&pit::trace::SloWindowReport) -> u64| slo.windows.iter().map(f).sum::<u64>();
        assert_eq!(
            totals(|w| w.ttft_total),
            folded.ttft.count(),
            "{name}: slo ttft"
        );
        assert_eq!(
            totals(|w| w.itl_total),
            folded.itl.count(),
            "{name}: slo itl"
        );
    }
    assert!(
        readmitted_tokens > 0,
        "some recompute victim re-admitted mid-generation"
    );
}
