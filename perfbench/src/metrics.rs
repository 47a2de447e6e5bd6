//! Metric catalogue, summary statistics and the result line.

use crate::Args;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): every workload reports each of them.
/// `BENCHMARK.json` lists the same names, units and directions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("replay_s", "s"),
    ("sim_tokens_per_host_s", "tok/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("model_tokens_per_s", "tok/s"),
    ("model_ttft_p50_s", "s"),
    ("model_ttft_p99_s", "s"),
    ("model_itl_p50_s", "s"),
    ("model_itl_p99_s", "s"),
    ("model_op_us_p50", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`). A layer that does not run on a
/// workload reports 0 for its metrics there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("models.price_step_us_p50", "us"),
    ("models.price_step_us_p99", "us"),
    ("models.price_share", "ratio"),
    ("models.steps", "count"),
    ("serve.self_us_per_step", "us"),
    ("serve.preemptions", "count"),
    ("serve.jit_hit_rate", "ratio"),
    ("serve.prefix_hit_rate", "ratio"),
    ("kv.ops", "count"),
    ("kv.op_ns_p50", "ns"),
    ("kv.op_ns_p99", "ns"),
    ("kv.check_invariants_us", "us"),
    ("prefix.match_us_p50", "us"),
    ("prefix.match_us_p99", "us"),
    ("prefix.pages_held", "count"),
    ("swap.transfers", "count"),
    ("swap.pages", "count"),
    ("swap.link_busy_s", "s"),
    ("trace.records", "count"),
    ("trace.record_ns", "ns"),
    ("trace.reduce_s", "s"),
    ("trace.exemplar_s", "s"),
    ("trace.hub_ns_per_record", "ns"),
    ("trace.render_us", "us"),
    ("trace.observe_overhead", "ratio"),
    ("core.detect_us_p50", "us"),
    ("core.detect_us_p99", "us"),
    ("core.detect_1t_us_p50", "us"),
    ("core.select_us", "us"),
    ("core.jit_hit_rate", "ratio"),
    ("core.kernel_us_p50", "us"),
    ("core.sread_gbps", "GB/s"),
    ("core.swrite_gbps", "GB/s"),
    ("core.coverage_waste", "ratio"),
    ("core.tile_db_profile_s", "s"),
    ("workloads.trace_gen_s", "s"),
    ("bench.trace_overhead_s", "s"),
];

/// What one run found: the correctness tally, the metrics it measured
/// and the checks that failed (printed to standard error).
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a metric under its catalogue name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed check: it counts against `failed` and fails the
    /// run.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.errors.push(what);
    }

    /// Checks `ok`; on failure records `what` as a failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Prints the metrics (one `name = value unit` line each, to standard
    /// error) and the result line, and picks the exit code.
    pub fn finish(mut self, args: &Args) -> ExitCode {
        let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
        let mut json = Vec::with_capacity(catalogue.len());
        for &(name, unit) in catalogue {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                // Per-layer metrics of layers this workload bypasses are
                // zero; an end-to-end metric must always be measured.
                None if args.trace => 0.0,
                None => {
                    self.errors.push(format!("metric {name} was not measured"));
                    f64::NAN
                }
            };
            if !value.is_finite() {
                self.errors.push(format!("metric {name} is not finite"));
            }
            eprintln!("{:<26} = {value} {unit}", name);
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { value } else { 0.0 }
            ));
        }
        let error_rate = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!("{:<26} = {error_rate} ratio", "error_rate");
        for e in &self.errors {
            eprintln!("CHECK FAILED: {e}");
        }
        let correct = self.errors.is_empty() && self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// Quantile `q` of `values` by linear interpolation between closest
/// ranks (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
