//! The device-time ledger: where every modelled GPU-second went.
//!
//! Every labeled cost record the analytic engine emits is attributed into
//! a fixed category taxonomy — prefill attention, decode attention, dense
//! GEMM, sparse-format conversion, JIT search — plus the virtual-clock
//! gaps the scheduler charges outside device work: swap d2h/h2d stalls
//! and idle waits for future arrivals. Two conservation invariants hold
//! *exactly*, not to floating-point tolerance:
//!
//! ```text
//! prefill_attention + decode_attention + dense_gemm
//!     + sparse_conversion + jit_search            == busy
//! busy + swap_d2h_stall + swap_h2d_stall + idle  == clock
//! ```
//!
//! Exactness is what makes the ledger trustworthy at a glance: a category
//! can never silently leak time. It is achieved by accounting in integer
//! **picoseconds** (`u64`) — f64 addition is non-associative, so summing
//! seconds would drift apart from the clock after millions of steps,
//! while integer picoseconds add exactly and only overflow after ~200
//! simulated days. Each charge rounds once (≤ 0.5 ps of error against
//! the f64 virtual clock per charge); within a step the sub-category
//! times are clamped in a fixed order and the dense-GEMM category absorbs
//! the residual, so the five compute categories tile the step exactly.
//!
//! FLOP counts, link byte counters and the measured (wall-clock) JIT
//! search time ride along as annotations outside the conservation sums:
//! link transfers overlap device work in the model, so their busy time is
//! not a slice of the device clock.

/// One picosecond in seconds.
const PS: f64 = 1e-12;

/// Converts non-negative seconds to integer picoseconds, rounding to
/// nearest. A single charge therefore disagrees with the f64 clock by at
/// most 0.5 ps.
fn ps(seconds: f64) -> u64 {
    debug_assert!(!seconds.is_nan(), "NaN charged into ledger");
    (seconds.max(0.0) * 1e12).round() as u64
}

/// Per-step category split handed to [`DeviceLedger::charge_step`].
///
/// `gpu_s` is the step's total modelled device time; the four named
/// sub-category times are the engine's category tally of the step and
/// must sum to at most `gpu_s` (the ledger clamps and gives the
/// dense-GEMM category the residual, so small float excess cannot break
/// conservation). The remaining fields are annotations.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepSample {
    /// Total modelled device time of the step (seconds).
    pub gpu_s: f64,
    /// Attention (scores/softmax/context) time attributed to prefill rows.
    pub prefill_attention_s: f64,
    /// Attention time attributed to decode slots.
    pub decode_attention_s: f64,
    /// Sparse-format conversion overhead (PIT index construction).
    pub sparse_conversion_s: f64,
    /// Modelled Algorithm-1 kernel-search cost charged this step.
    pub jit_search_s: f64,
    /// FLOPs that served real rows.
    pub flops_useful: f64,
    /// FLOPs the modelled kernels executed (padding and tile slack
    /// included).
    pub flops_executed: f64,
    /// Cache-miss kernel searches this step ran (0 or 1 per step).
    pub jit_searches: u64,
    /// Measured wall-clock time of those searches — an annotation only,
    /// never folded into the virtual clock.
    pub jit_search_measured_s: f64,
}

/// Utilization digest derived from a [`DeviceLedger`].
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize)]
pub struct Utilization {
    /// Fraction of the virtual clock the device spent busy.
    pub busy_fraction: f64,
    /// Model-FLOPs-utilization: useful / executed FLOPs. How much of the
    /// arithmetic the device ran actually served real tokens (padding
    /// rows and micro-tile slack are executed but not useful).
    pub mfu: f64,
    /// Bytes moved device-to-host over the swap link.
    pub d2h_bytes: u64,
    /// Bytes moved host-to-device over the swap link.
    pub h2d_bytes: u64,
}

/// The device-time ledger. All `_ps` fields are integer picoseconds; see
/// the module docs for the two exact conservation invariants.
///
/// `PartialEq` and `Serialize` are hand-written (below) to exclude
/// `jit_search_measured_s`: it is *measured* wall clock, so it differs
/// run to run, and folding it into equality or serialized artifacts
/// would break the bit-determinism guarantee that everything the model
/// produces replays identically. It stays visible through the field
/// itself and the `pit_jit_search_measured_seconds` exposition gauge.
#[derive(Debug, Clone, Default)]
pub struct DeviceLedger {
    /// Attention time (scores/softmax/context) on prefill rows.
    pub prefill_attention_ps: u64,
    /// Attention time on decode slots.
    pub decode_attention_ps: u64,
    /// Dense GEMM and every other device-side kernel (embeddings,
    /// projections, FFN, layernorms, KV appends) — the residual after
    /// the named categories.
    pub dense_gemm_ps: u64,
    /// Sparse-format conversion overhead (PIT index construction).
    pub sparse_conversion_ps: u64,
    /// Modelled Algorithm-1 JIT kernel-search cost.
    pub jit_search_ps: u64,
    /// Total device busy time: the five categories above sum to this
    /// exactly.
    pub busy_ps: u64,
    /// Virtual-clock gaps waiting on device-to-host swap transfers.
    pub swap_d2h_stall_ps: u64,
    /// Virtual-clock gaps waiting on host-to-device restore transfers.
    pub swap_h2d_stall_ps: u64,
    /// Scheduler idle: waiting for a future arrival with nothing to run.
    pub idle_ps: u64,
    /// The virtual clock: `busy + d2h stall + h2d stall + idle`, exactly.
    pub clock_ps: u64,
    /// FLOPs that served real rows (annotation).
    pub flops_useful: f64,
    /// FLOPs the modelled kernels executed (annotation).
    pub flops_executed: f64,
    /// Cache-miss kernel searches run.
    pub jit_searches: u64,
    /// Measured wall-clock total of those searches (annotation; the
    /// modelled cost is what `jit_search_ps` charges).
    pub jit_search_measured_s: f64,
    /// Bytes moved device-to-host over the swap link (annotation; link
    /// time overlaps device time and is not a clock slice).
    pub d2h_bytes: u64,
    /// Swap-link d2h busy seconds (annotation).
    pub d2h_busy_s: f64,
    /// Bytes moved host-to-device over the swap link (annotation).
    pub h2d_bytes: u64,
    /// Swap-link h2d busy seconds (annotation).
    pub h2d_busy_s: f64,
}

/// Every modelled field — everything except the measured-wall-clock
/// annotation `jit_search_measured_s`. Equality and serialization both
/// range over exactly this set, so two replays of the same config are
/// `==` and byte-identical on disk even though their measured search
/// times differ.
macro_rules! modelled_fields {
    ($m:ident) => {
        $m!(
            prefill_attention_ps,
            decode_attention_ps,
            dense_gemm_ps,
            sparse_conversion_ps,
            jit_search_ps,
            busy_ps,
            swap_d2h_stall_ps,
            swap_h2d_stall_ps,
            idle_ps,
            clock_ps,
            flops_useful,
            flops_executed,
            jit_searches,
            d2h_bytes,
            d2h_busy_s,
            h2d_bytes,
            h2d_busy_s
        )
    };
}

impl PartialEq for DeviceLedger {
    fn eq(&self, other: &Self) -> bool {
        macro_rules! all_eq {
            ($($f:ident),*) => { $(self.$f == other.$f)&&* };
        }
        modelled_fields!(all_eq)
    }
}

impl serde::Serialize for DeviceLedger {
    fn json(&self, out: &mut String) {
        // Same layout the derive would emit — a JSON object with the
        // fields in declaration order — minus the measured annotation.
        macro_rules! emit {
            ($($f:ident),*) => {{
                let mut first = true;
                $(
                    out.push(if first { '{' } else { ',' });
                    first = false;
                    serde::write_json_str(out, stringify!($f));
                    out.push(':');
                    serde::Serialize::json(&self.$f, out);
                )*
                let _ = first;
                out.push('}');
            }};
        }
        modelled_fields!(emit)
    }
}

/// The busy-fraction gauge's family name, read back by the metrics hub's
/// `/slo` report.
pub(crate) const BUSY_FRACTION: &str = "pit_device_busy_fraction";

impl DeviceLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges one device step. The step's total converts to picoseconds
    /// once; the sub-categories are clamped (in declaration order) so
    /// they can never exceed it, and dense GEMM receives the residual —
    /// the five categories therefore tile the step exactly.
    pub fn charge_step(&mut self, s: &StepSample) {
        let step_ps = ps(s.gpu_s);
        let mut rem = step_ps;
        let prefill = ps(s.prefill_attention_s).min(rem);
        rem -= prefill;
        let decode = ps(s.decode_attention_s).min(rem);
        rem -= decode;
        let sparse = ps(s.sparse_conversion_s).min(rem);
        rem -= sparse;
        let jit = ps(s.jit_search_s).min(rem);
        rem -= jit;
        self.prefill_attention_ps += prefill;
        self.decode_attention_ps += decode;
        self.sparse_conversion_ps += sparse;
        self.jit_search_ps += jit;
        self.dense_gemm_ps += rem;
        self.busy_ps += step_ps;
        self.clock_ps += step_ps;
        self.flops_useful += s.flops_useful;
        self.flops_executed += s.flops_executed;
        self.jit_searches += s.jit_searches;
        self.jit_search_measured_s += s.jit_search_measured_s;
    }

    /// Charges a scheduler-idle gap (waiting on a future arrival).
    pub fn charge_idle(&mut self, seconds: f64) {
        let t = ps(seconds);
        self.idle_ps += t;
        self.clock_ps += t;
    }

    /// Charges a virtual-clock gap spent waiting on a d2h swap transfer.
    pub fn charge_d2h_stall(&mut self, seconds: f64) {
        let t = ps(seconds);
        self.swap_d2h_stall_ps += t;
        self.clock_ps += t;
    }

    /// Charges a virtual-clock gap spent waiting on an h2d restore.
    pub fn charge_h2d_stall(&mut self, seconds: f64) {
        let t = ps(seconds);
        self.swap_h2d_stall_ps += t;
        self.clock_ps += t;
    }

    /// Folds swap-link transfer counters in as annotations.
    pub fn add_link_counters(
        &mut self,
        d2h_bytes: u64,
        d2h_busy_s: f64,
        h2d_bytes: u64,
        h2d_busy_s: f64,
    ) {
        self.d2h_bytes += d2h_bytes;
        self.d2h_busy_s += d2h_busy_s;
        self.h2d_bytes += h2d_bytes;
        self.h2d_busy_s += h2d_busy_s;
    }

    /// Folds another ledger into this one (all fields add).
    pub fn merge(&mut self, other: &DeviceLedger) {
        self.prefill_attention_ps += other.prefill_attention_ps;
        self.decode_attention_ps += other.decode_attention_ps;
        self.dense_gemm_ps += other.dense_gemm_ps;
        self.sparse_conversion_ps += other.sparse_conversion_ps;
        self.jit_search_ps += other.jit_search_ps;
        self.busy_ps += other.busy_ps;
        self.swap_d2h_stall_ps += other.swap_d2h_stall_ps;
        self.swap_h2d_stall_ps += other.swap_h2d_stall_ps;
        self.idle_ps += other.idle_ps;
        self.clock_ps += other.clock_ps;
        self.flops_useful += other.flops_useful;
        self.flops_executed += other.flops_executed;
        self.jit_searches += other.jit_searches;
        self.jit_search_measured_s += other.jit_search_measured_s;
        self.d2h_bytes += other.d2h_bytes;
        self.d2h_busy_s += other.d2h_busy_s;
        self.h2d_bytes += other.h2d_bytes;
        self.h2d_busy_s += other.h2d_busy_s;
    }

    /// Device busy time in seconds.
    pub fn busy_s(&self) -> f64 {
        self.busy_ps as f64 * PS
    }

    /// Scheduler idle time in seconds.
    pub fn idle_s(&self) -> f64 {
        self.idle_ps as f64 * PS
    }

    /// The accounted virtual clock in seconds.
    pub fn clock_s(&self) -> f64 {
        self.clock_ps as f64 * PS
    }

    /// Both conservation invariants, checked exactly in integers.
    pub fn conserved(&self) -> bool {
        let categories = self.prefill_attention_ps
            + self.decode_attention_ps
            + self.dense_gemm_ps
            + self.sparse_conversion_ps
            + self.jit_search_ps;
        let clock = self.busy_ps + self.swap_d2h_stall_ps + self.swap_h2d_stall_ps + self.idle_ps;
        categories == self.busy_ps && clock == self.clock_ps
    }

    /// Appends the ledger's Prometheus families to an exposition — the
    /// `pit_device_*` / `pit_link_*` / `pit_jit_*` family set both
    /// serving reports write. The live [`crate::MetricsHub`] serves the
    /// report's exposition itself, so a scraped document and a committed
    /// `METRICS_*.prom` artifact carry these families from one writer.
    pub fn exposition_into(&self, out: &mut crate::expo::Exposition) {
        let u = self.utilization();
        out.gauge(
            BUSY_FRACTION,
            "Device busy seconds over the virtual clock",
            u.busy_fraction,
        );
        out.gauge(
            "pit_device_mfu",
            "Useful over executed FLOPs (model FLOP utilisation)",
            u.mfu,
        );
        for (name, help, ps) in [
            (
                "pit_device_prefill_attention_seconds_total",
                "Busy seconds in prefill attention",
                self.prefill_attention_ps,
            ),
            (
                "pit_device_decode_attention_seconds_total",
                "Busy seconds in decode attention",
                self.decode_attention_ps,
            ),
            (
                "pit_device_dense_gemm_seconds_total",
                "Busy seconds in dense GEMM and elementwise work",
                self.dense_gemm_ps,
            ),
            (
                "pit_device_sparse_conversion_seconds_total",
                "Busy seconds building sparse-format indices",
                self.sparse_conversion_ps,
            ),
            (
                "pit_device_jit_search_seconds_total",
                "Busy seconds in Algorithm-1 kernel search",
                self.jit_search_ps,
            ),
            (
                "pit_device_busy_seconds_total",
                "Device busy seconds (sum of the category counters)",
                self.busy_ps,
            ),
            (
                "pit_device_swap_d2h_stall_seconds_total",
                "Virtual-clock seconds stalled on device-to-host swaps",
                self.swap_d2h_stall_ps,
            ),
            (
                "pit_device_swap_h2d_stall_seconds_total",
                "Virtual-clock seconds stalled on host-to-device restores",
                self.swap_h2d_stall_ps,
            ),
            (
                "pit_device_idle_seconds_total",
                "Virtual-clock seconds the device sat idle",
                self.idle_ps,
            ),
            (
                "pit_device_clock_seconds_total",
                "Virtual clock covered by the ledger",
                self.clock_ps,
            ),
        ] {
            out.counter(name, help, ps as f64 / 1e12);
        }
        out.counter(
            "pit_link_d2h_bytes_total",
            "Bytes moved device to host over the swap link",
            u.d2h_bytes as f64,
        );
        out.counter(
            "pit_link_h2d_bytes_total",
            "Bytes moved host to device over the swap link",
            u.h2d_bytes as f64,
        );
        out.counter(
            "pit_jit_searches_total",
            "Algorithm-1 searches actually run (cache misses)",
            self.jit_searches as f64,
        );
        out.gauge(
            "pit_jit_search_measured_seconds",
            "Measured search wall time (annotation; the modelled cost is charged)",
            self.jit_search_measured_s,
        );
    }

    /// The utilization digest.
    pub fn utilization(&self) -> Utilization {
        Utilization {
            busy_fraction: if self.clock_ps == 0 {
                0.0
            } else {
                self.busy_ps as f64 / self.clock_ps as f64
            },
            mfu: if self.flops_executed <= 0.0 {
                0.0
            } else {
                self.flops_useful / self.flops_executed
            },
            d2h_bytes: self.d2h_bytes,
            h2d_bytes: self.h2d_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_tile_busy_and_busy_plus_gaps_tile_clock() {
        let mut l = DeviceLedger::new();
        l.charge_step(&StepSample {
            gpu_s: 1.5e-3,
            prefill_attention_s: 0.4e-3,
            decode_attention_s: 0.3e-3,
            sparse_conversion_s: 0.05e-3,
            jit_search_s: 40e-6,
            flops_useful: 1e9,
            flops_executed: 2e9,
            jit_searches: 1,
            jit_search_measured_s: 17e-6,
        });
        l.charge_idle(2.0e-3);
        l.charge_d2h_stall(0.7e-3);
        l.charge_h2d_stall(0.1e-3);
        assert!(l.conserved());
        assert_eq!(l.busy_ps, 1_500_000_000);
        assert_eq!(
            l.clock_ps,
            1_500_000_000 + 2_000_000_000 + 700_000_000 + 100_000_000
        );
        // Dense GEMM got the residual.
        assert_eq!(
            l.dense_gemm_ps,
            l.busy_ps
                - l.prefill_attention_ps
                - l.decode_attention_ps
                - l.sparse_conversion_ps
                - l.jit_search_ps
        );
        let u = l.utilization();
        assert!((u.mfu - 0.5).abs() < 1e-12);
        assert!(u.busy_fraction > 0.0 && u.busy_fraction < 1.0);
        assert_eq!(l.jit_searches, 1);
        assert!((l.jit_search_measured_s - 17e-6).abs() < 1e-18);
    }

    #[test]
    fn oversized_subcategories_clamp_instead_of_breaking_conservation() {
        let mut l = DeviceLedger::new();
        // Float noise can make classified sub-times sum past gpu_s; the
        // clamp order (prefill, decode, sparse, jit) eats the excess.
        l.charge_step(&StepSample {
            gpu_s: 1.0e-6,
            prefill_attention_s: 0.8e-6,
            decode_attention_s: 0.8e-6,
            sparse_conversion_s: 0.8e-6,
            jit_search_s: 0.8e-6,
            ..Default::default()
        });
        assert!(l.conserved());
        assert_eq!(l.busy_ps, 1_000_000);
        assert_eq!(l.prefill_attention_ps, 800_000);
        assert_eq!(l.decode_attention_ps, 200_000);
        assert_eq!(l.sparse_conversion_ps, 0);
        assert_eq!(l.jit_search_ps, 0);
        assert_eq!(l.dense_gemm_ps, 0);
    }

    #[test]
    fn merge_adds_every_field_and_preserves_conservation() {
        let mut a = DeviceLedger::new();
        a.charge_step(&StepSample {
            gpu_s: 1e-3,
            decode_attention_s: 0.25e-3,
            ..Default::default()
        });
        a.charge_idle(0.5e-3);
        let mut b = DeviceLedger::new();
        b.charge_step(&StepSample {
            gpu_s: 2e-3,
            prefill_attention_s: 1e-3,
            ..Default::default()
        });
        b.charge_d2h_stall(1e-3);
        b.add_link_counters(4096, 1e-4, 2048, 5e-5);
        let mut m = a.clone();
        m.merge(&b);
        assert!(m.conserved());
        assert_eq!(m.busy_ps, a.busy_ps + b.busy_ps);
        assert_eq!(m.clock_ps, a.clock_ps + b.clock_ps);
        assert_eq!(m.d2h_bytes, 4096);
        assert_eq!(m.h2d_bytes, 2048);
    }

    #[test]
    fn rounding_error_against_f64_clock_is_bounded_per_charge() {
        // One million 1.0000000004999e-6 s charges: each rounds once, so
        // the ps total sits within 0.5 ps * charges of the f64 sum.
        let mut l = DeviceLedger::new();
        let step = 1.0000000004999e-6;
        let n = 1_000_000u64;
        let mut f64_clock = 0.0;
        for _ in 0..n {
            l.charge_idle(step);
            f64_clock += step;
        }
        assert!(l.conserved());
        let err = (l.clock_s() - f64_clock).abs();
        assert!(err <= 0.5e-12 * n as f64 + 1e-9, "err {err}");
    }

    #[test]
    fn measured_search_time_is_outside_equality_and_serialization() {
        use serde::Serialize;
        let mut a = DeviceLedger::new();
        a.charge_step(&StepSample {
            gpu_s: 1e-3,
            jit_search_s: 24e-6,
            jit_searches: 1,
            jit_search_measured_s: 11e-6,
            ..Default::default()
        });
        // Same modelled run, different measured wall clock: still equal,
        // still the same bytes on disk.
        let mut b = a.clone();
        b.jit_search_measured_s = 99e-6;
        assert_eq!(a, b, "measured annotation must not break equality");
        assert_eq!(a.to_json(), b.to_json());
        assert!(
            !a.to_json().contains("jit_search_measured_s"),
            "measured annotation must not leak into serialized artifacts"
        );
        // Every modelled field still participates.
        let mut c = a.clone();
        c.jit_searches += 1;
        assert_ne!(a, c);
        assert!(a.to_json().contains("\"jit_searches\":1"));
    }

    #[test]
    fn empty_ledger_is_conserved_with_zero_utilization() {
        let l = DeviceLedger::new();
        assert!(l.conserved());
        let u = l.utilization();
        assert_eq!(u.busy_fraction, 0.0);
        assert_eq!(u.mfu, 0.0);
    }
}
