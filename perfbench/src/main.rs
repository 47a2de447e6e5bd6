//! Host-clock benchmark of the PIT workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <decode_dense|prefix_swap_observed|pit_ops> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's own
//! spans off; `--trace 1` is a separate run that times each layer from
//! outside, by wrapping calls into that layer's public functions. Every
//! run checks the program's outputs; the last line of standard output is
//! one JSON object (`correct`, `attempted`, `failed`, `metrics`), and a
//! correctness or fidelity failure exits non-zero. `perfbench/README.md`
//! documents the workloads and what each metric means on each of them.

mod calib;
mod decode;
mod metrics;
mod ops;
mod spans;

use metrics::Outcome;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome: Outcome = match args.workload.as_str() {
        "decode_dense" => decode::run(decode::Kind::Dense, &args),
        "prefix_swap_observed" => decode::run(decode::Kind::PrefixSwapObserved, &args),
        "pit_ops" => ops::run(&args),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} \
                 (decode_dense | prefix_swap_observed | pit_ops)"
            );
            return ExitCode::from(2);
        }
    };
    outcome.finish(&args)
}
