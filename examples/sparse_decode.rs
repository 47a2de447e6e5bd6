//! Per-sequence KV sparsity: heavy-hitter retention vs dense caching,
//! end to end on a long-context trace at an equal device KV budget.
//!
//! The workload is the regime KV sparsity exists for: outputs far longer
//! than the retention budget (geometric mean 512 tokens, tail to 1536),
//! so late in every request the dense cache drags hundreds of context
//! tokens through attention per decoded token, and the KV pool — sized
//! between the heavy-hitter and dense live footprints — forces the dense
//! run to preempt while the compacted run fits.
//!
//! Both runs get the *same* KV-page budget and the same continuous
//! padding-free scheduler; the only difference is [`KvSparsityPolicy`]:
//!
//! - **dense**: every cached token is attended every step and nothing is
//!   ever dropped — footprint grows with the logical context;
//! - **heavy-hitter** (H2O + StreamingLLM retention): each step attends
//!   the attention-sink pages, a sliding window of recent tokens and a
//!   budget of heavy-hitter pages from the middle. Pages wholly outside
//!   the retained set are evicted back to the pool — refcount-aware, so
//!   shared or prefix-pinned frames stay resident — and the engine
//!   micro-tile packs the surviving rows (PIT Algorithm 1, (32,1)
//!   tiles), so attention cost scales with *attended* rather than
//!   *cached* tokens.
//!
//! Two wins at equal budget, both asserted below: decode steps are
//! cheaper (goodput tokens/s rises), and the compacted footprint means
//! the pool preempts less (fewer recompute re-prefills).
//!
//! Both reports are dumped to `BENCH_sparse.json` via
//! `DecodeReport::to_json` for CI to archive, and the heavy-hitter run is
//! re-executed with a live `TraceSink` to export a Chrome/Perfetto
//! timeline (`TRACE_decode.json`) of device steps, per-sequence lifecycle
//! events and PCIe link lanes.
//!
//! ```bash
//! cargo run --release --example sparse_decode
//! ```

use pit::gpusim::DeviceSpec;
use pit::models::ModelConfig;
use pit::serve::decode::{
    simulate_decode_trace, DecodePolicy, DecodeServeConfig, KvSparsityPolicy,
};
use pit::workloads::{DatasetSpec, DecodeSpec, DecodeTrace};

fn main() {
    let spec = DatasetSpec::mnli();
    let out = DecodeSpec::geometric(512.0, 64, 1536);
    let trace = DecodeTrace::poisson(&spec, &out, 64, 400.0, 43);
    println!(
        "trace: {} requests, {} prompt + {} output tokens \
         ({} prompts, geometric outputs mean {:.0}, tail to {})\n",
        trace.len(),
        trace.total_prompt_tokens(),
        trace.total_output_tokens(),
        spec.name,
        out.mean_out,
        out.max_out,
    );

    // Equal device KV budget — sparsity must win by shrinking footprints,
    // not by holding more memory. 896 pages sits between the two live
    // footprints: the dense run (mean context ~550 tokens across ~64 live
    // requests) outgrows it and preempts, while heavy-hitter retention
    // (~300 tokens per sequence) rides out the same trace inside it.
    let build = |sparsity| {
        DecodeServeConfig::builder(ModelConfig::opt("1.3B"), DeviceSpec::a100_80gb())
            .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 256 })
            .kv_pages(896)
            .kv_sparsity(sparsity)
            .verify_invariants(true)
            .build()
            .expect("valid sparse-decode config")
    };
    let dense = simulate_decode_trace(&build(KvSparsityPolicy::Dense), &trace);
    println!("{dense}\n");
    let hh = simulate_decode_trace(
        &build(KvSparsityPolicy::HeavyHitter {
            recent: 128,
            heavy: 128,
        }),
        &trace,
    );
    println!("{hh}\n");

    println!(
        "heavy-hitter vs dense at equal KV budget: {:.2}x tokens/s \
         ({:.0} -> {:.0}), preemptions {} -> {}, recompute overhead {} -> {} tokens, \
         attended {:.1}% of cached context",
        hh.tokens_per_s() / dense.tokens_per_s(),
        dense.tokens_per_s(),
        hh.tokens_per_s(),
        dense.kv.preemptions,
        hh.kv.preemptions,
        dense.recomputed_tokens,
        hh.recomputed_tokens,
        hh.attended_fraction() * 100.0,
    );

    // One JSON document with both runs, for the CI artifact.
    let json = format!(
        "{{\"dense\":{},\"heavy_hitter\":{}}}",
        dense.to_json(),
        hh.to_json()
    );
    std::fs::write("BENCH_sparse.json", &json).expect("write BENCH_sparse.json");
    println!(
        "\nwrote both reports to BENCH_sparse.json ({} bytes)",
        json.len()
    );
    println!(
        "heavy-hitter device time: {:.1}% busy, {:.1}% MFU \
         (decode attn {:.2} s vs dense run's {:.2} s, sparse conversion {:.2} s)",
        hh.utilization.busy_fraction * 100.0,
        hh.utilization.mfu * 100.0,
        hh.ledger.decode_attention_ps as f64 / 1e12,
        dense.ledger.decode_attention_ps as f64 / 1e12,
        hh.ledger.sparse_conversion_ps as f64 / 1e12,
    );
    let prom = hh.exposition().render();
    std::fs::write("METRICS_sparse.prom", &prom).expect("write METRICS_sparse.prom");
    println!(
        "wrote Prometheus exposition to METRICS_sparse.prom ({} bytes)",
        prom.len()
    );

    // Re-run the heavy-hitter config with tracing on and export a
    // Chrome `trace_event` timeline (load it at ui.perfetto.dev) with
    // the two worst request timelines per tail metric as exemplar lanes.
    let sink = pit::trace::TraceSink::enabled();
    let (traced, exemplars) = pit::serve::decode::simulate_decode_trace_observed(
        &build(KvSparsityPolicy::HeavyHitter {
            recent: 128,
            heavy: 128,
        }),
        &trace,
        &sink,
        2,
        None,
    );
    let b = traced
        .breakdown
        .expect("traced run yields a phase breakdown");
    println!(
        "traced run: queue {:.2} ms + prefill {:.2} ms + decode {:.2} ms + \
         stall {:.2} ms = {:.2} ms mean e2e over {} finished requests",
        b.mean_queue_s * 1e3,
        b.mean_prefill_s * 1e3,
        b.mean_decode_s * 1e3,
        b.mean_stall_s * 1e3,
        b.mean_total_s() * 1e3,
        b.requests,
    );
    let blame = traced.blame.as_ref().expect("traced run carries blame");
    println!("{blame}");
    for ex in &exemplars.e2e {
        println!(
            "e2e exemplar: seq {} took {:.1} ms over {} events",
            ex.lane,
            ex.value_s * 1e3,
            ex.records.len()
        );
    }
    let chrome = pit::trace::chrome_trace_json_with_exemplars(&sink.snapshot(), &exemplars);
    std::fs::write("TRACE_decode.json", &chrome).expect("write TRACE_decode.json");
    println!(
        "wrote Chrome trace to TRACE_decode.json ({} bytes)",
        chrome.len()
    );

    // The CI smoke test leans on these assertions.
    assert_eq!(dense.requests, trace.len(), "every request served");
    assert_eq!(hh.requests, trace.len());
    assert_eq!(
        dense.real_tokens, hh.real_tokens,
        "identical goodput arrived — recompute overhead is metered separately"
    );
    assert!(
        dense.kv.preemptions > 0,
        "the pool must actually be pressured (dense preempted 0 times)"
    );
    assert!(
        hh.kv.preemptions < dense.kv.preemptions,
        "the compacted footprint must preempt less ({} vs {})",
        hh.kv.preemptions,
        dense.kv.preemptions,
    );
    assert!(
        hh.tokens_per_s() > dense.tokens_per_s(),
        "attended-scaled attention must serve more goodput per GPU-second \
         ({:.0} vs {:.0})",
        hh.tokens_per_s(),
        dense.tokens_per_s(),
    );
    assert!(hh.sparsity_dropped_pages > 0, "eviction actually ran");
    assert_eq!(
        hh.kv.sparsity_evicted_pages, hh.sparsity_dropped_pages,
        "pool and metrics agree on evictions"
    );
    assert!(hh.attended_fraction() < 1.0);
    assert_eq!(dense.attended_fraction(), 1.0, "dense attends everything");
    assert!(
        !exemplars.e2e.is_empty() && exemplars.e2e.len() <= 2,
        "exemplar capture is bounded at k"
    );
    let blame_total: f64 = blame.causes.iter().map(|c| c.e2e_s).sum();
    assert!(
        (blame_total - blame.e2e_total_s).abs() < 1e-6,
        "blame causes tile the end-to-end total"
    );
    // Both drain leak-free (invariants also checked every iteration).
    for report in [&dense, &hh] {
        assert!(
            report.kv.conserved(),
            "[{}] KV pages leaked: {}",
            report.policy,
            report.kv
        );
        assert!(report.kv_peak_occupancy <= 1.0);
        assert!(report.ledger.conserved(), "[{}] ledger", report.policy);
    }
    println!("\nkv sparsity turns a smaller read set into throughput and fewer preemptions ✓");
}
