//! Serving load test: the same request lengths served under padding-free
//! continuous batching (PIT), padded-to-longest batching (stock
//! frameworks) and TurboTransformers-style length bucketing.
//!
//! Every request is queued at t = 0 and drained through the threaded
//! runtime (bounded admission with blocking backpressure, one scheduler,
//! two workers sharing a bounded JIT cache); throughput is measured in
//! real tokens per *modelled* GPU second, so the comparison reflects the
//! A100 the cost model simulates.
//!
//! ```bash
//! cargo run --release --example serving_load
//! ```

use pit::serve::{serve_trace_arrivals, BatchPolicy, ServeConfig, ServingReport};
use pit::workloads::patterns::ArrivalTrace;
use pit::workloads::DatasetSpec;

fn main() {
    let spec = DatasetSpec::mnli();
    let trace = ArrivalTrace::poisson(&spec, 256, 200.0, 11);
    let queued = ArrivalTrace {
        arrival_s: vec![0.0; trace.len()],
        ..trace
    };
    println!(
        "trace: {} requests, {} real tokens, lengths {}..{} ({})\n",
        queued.len(),
        queued.total_tokens(),
        queued.lens.iter().min().unwrap(),
        queued.lens.iter().max().unwrap(),
        spec.name,
    );

    let policies = [
        BatchPolicy::PaddedToLongest { max_batch: 16 },
        BatchPolicy::Bucketed {
            max_batch: 16,
            buckets: 4,
        },
        BatchPolicy::PaddingFree { token_budget: 2048 },
    ];
    let mut reports: Vec<ServingReport> = Vec::new();
    for policy in policies {
        let cfg = ServeConfig::new(policy);
        let report = serve_trace_arrivals(&cfg, &queued, None);
        println!("{report}\n");
        reports.push(report);
    }

    let padded = &reports[0];
    let bucketed = &reports[1];
    let free = &reports[2];
    println!(
        "padding-free vs padded-to-longest: {:.2}x tokens/s, waste {:.1}% -> {:.1}%",
        free.tokens_per_s() / padded.tokens_per_s(),
        padded.padding_waste() * 100.0,
        free.padding_waste() * 100.0,
    );
    // The CI smoke test leans on these: PIT's token-granularity batches
    // must strictly beat the padded rectangle on the same trace.
    assert!(
        free.padding_waste() < padded.padding_waste(),
        "padding-free must waste strictly less than padded-to-longest"
    );
    assert!(
        free.tokens_per_s() > padded.tokens_per_s(),
        "padding-free must serve strictly more tokens/s than padded-to-longest"
    );
    assert!(free.padding_waste() < bucketed.padding_waste());
    assert!(free.tokens_per_s() > bucketed.tokens_per_s());
    assert_eq!(free.real_tokens, padded.real_tokens, "no tokens dropped");
    println!("padding-free wins on both axes ✓");
}
