//! The analytic execution engine: frameworks, operator recording, memory.

use pit_gpusim::{CostModel, DeviceSpec, KernelStats, SimContext};
use pit_kernels::baselines::cublas;
use pit_kernels::dense;
use pit_kernels::tiles::TileDb;
use pit_tensor::DType;

/// Execution strategy under evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Framework {
    /// Stock PyTorch: padded batches, sequential expert loop.
    PyTorch,
    /// PyTorch with the best sparse backend, converting formats per batch.
    PyTorchS,
    /// Tutel MoE: einsum one-hot dispatch, capacity = max expert load.
    Tutel,
    /// DeepSpeed inference: fused kernels, scatter dispatch, padded experts.
    DeepSpeed,
    /// MegaBlocks: block-sparse grouped expert GEMM (fp16 only).
    MegaBlocks,
    /// TurboTransformers: length-bucketed re-batching (BERT only).
    TurboTransformer,
    /// Longformer-S: pattern-specialised sparse attention (Longformer only).
    LongformerS,
    /// TVM/Ansor: ahead-of-time tuned dense kernels.
    Tvm,
    /// PIT, all optimisations on.
    Pit,
    /// PIT without the sparse-MoE optimisation (Figure 8 ablation).
    PitNoSparseMoe,
    /// PIT without the ReLU activation-sparsity optimisation (Figure 10
    /// ablation).
    PitNoActivation,
}

impl Framework {
    /// Display name used in figures.
    pub fn name(self) -> &'static str {
        match self {
            Framework::PyTorch => "PyTorch",
            Framework::PyTorchS => "PyTorch-S",
            Framework::Tutel => "Tutel",
            Framework::DeepSpeed => "DeepSpeed",
            Framework::MegaBlocks => "MegaBlocks",
            Framework::TurboTransformer => "TurboTransformer",
            Framework::LongformerS => "Longformer-S",
            Framework::Tvm => "TVM",
            Framework::Pit => "PIT",
            Framework::PitNoSparseMoe => "PIT w/o Sparse MoE",
            Framework::PitNoActivation => "PIT w/o activation",
        }
    }

    /// Whether the framework is a PIT variant (padding-free token GEMMs).
    pub fn is_pit(self) -> bool {
        matches!(
            self,
            Framework::Pit | Framework::PitNoSparseMoe | Framework::PitNoActivation
        )
    }

    /// Whether elementwise chains are fused into single kernels (reduces
    /// both memory passes and activation footprint).
    pub fn fused_elementwise(self) -> bool {
        matches!(
            self,
            Framework::DeepSpeed | Framework::TurboTransformer | Framework::Tvm
        )
    }
}

/// Device-time ledger category of one charged operator.
///
/// The taxonomy matches `pit_trace::DeviceLedger`: attention streaming
/// (scores / softmax / context), sparse-format conversion (PIT index
/// construction), JIT kernel search, and the dense-GEMM residual that
/// absorbs everything else (embeddings, projections, FFN, layernorms,
/// KV appends, launch overheads). Labelled records take theirs from
/// [`categorize_label`]; [`crate::decode::run_step`] names its operators'
/// categories directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCategory {
    /// Attention score/softmax/context work (`*.scores`, `*.softmax`,
    /// `*.context`).
    Attention,
    /// Sparse-format conversion: PIT index building (`*.index`).
    SparseConversion,
    /// Algorithm-1 kernel search (`jit.search`).
    JitSearch,
    /// Everything else — dense GEMMs and elementwise/normalisation work.
    DenseGemm,
}

/// Classifies a record label into its ledger category.
pub fn categorize_label(label: &str) -> CostCategory {
    if label.ends_with(".scores") || label.ends_with(".softmax") || label.ends_with(".context") {
        CostCategory::Attention
    } else if label.ends_with(".index") {
        CostCategory::SparseConversion
    } else if label == "jit.search" {
        CostCategory::JitSearch
    } else {
        CostCategory::DenseGemm
    }
}

/// Category totals over everything charged to an engine, the raw
/// material of the device-time ledger. Attention is one bucket here; the
/// serving layer splits it into prefill vs decode using the step shape
/// (the engine charges one fused attention kernel per layer and cannot
/// know which rows were prefill).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CostTally {
    /// Seconds in attention records.
    pub attention_s: f64,
    /// Seconds in sparse-format conversion records.
    pub sparse_conversion_s: f64,
    /// Seconds in JIT-search records.
    pub jit_search_s: f64,
    /// Seconds in everything else.
    pub dense_s: f64,
    /// FLOPs that served real work, summed over all charged operators.
    pub flops_useful: f64,
    /// FLOPs the modelled kernels executed.
    pub flops_executed: f64,
}

/// Host-side time PyTorch spends per expert in the sequential MoE loop
/// (Python iteration, `index_select`, activation and two GEMM launches —
/// roughly seven launches plus eager-mode Python dispatch per expert; order
/// of magnitude from profiling reports of naive MoE loops).
pub const PYTORCH_PER_EXPERT_HOST_S: f64 = 0.25e-3;

/// One priced operator: what charging it adds to an engine's totals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Charge {
    /// Ledger category its latency lands in.
    pub category: CostCategory,
    /// Modelled kernel statistics.
    pub stats: KernelStats,
    /// GEMM-class work, also summed into [`Engine::gemm_time_s`].
    pub gemm: bool,
}

/// The analytic execution engine for one run.
///
/// Every charged operator updates running totals — the modelled latency,
/// the per-category [`CostTally`] and [`Engine::gemm_time_s`] — in charge
/// order, so each total is the same f64 sum a pass over the charges would
/// give. The labelled helpers (`gemm`, `softmax`, `host_overhead`, ...)
/// also append an [`pit_gpusim::OpRecord`] that figure code reads back by
/// label; [`crate::decode::run_step`] charges without records.
#[derive(Debug)]
pub struct Engine {
    /// Simulation ledger (labelled records + memory tracker).
    ctx: SimContext,
    /// Profiled tile database for the device (fixed at construction: the
    /// `gemm_flops` reference throughput is priced from it).
    pub db: TileDb,
    /// Precision under evaluation (fixed at construction, like `db`).
    pub dtype: DType,
    /// Execution strategy under evaluation.
    pub framework: Framework,
    /// Number of identical devices (tensor-parallel degree); latencies of
    /// GEMM-class work divide across devices, memory divides too, and each
    /// layer pays one all-reduce.
    pub devices: usize,
    /// Accumulated latency of GEMM-class charges (used by the training
    /// simulation: backward ≈ 2× the forward GEMM time).
    pub gemm_time_s: f64,
    /// Sustained dense-GEMM throughput (FLOP/s) of the best tile on a
    /// 2048³ GEMM, the rate `gemm_flops` prices raw FLOPs at.
    reference_flops_per_s: f64,
    /// Modelled latency of everything charged so far (seconds).
    total_s: f64,
    /// Category totals of everything charged so far.
    tally: CostTally,
}

/// NVLink all-reduce bus bandwidth per device pair (bytes/s), for the
/// multi-GPU OPT runs.
const NVLINK_BW: f64 = 150.0e9;

impl Engine {
    /// Creates an engine on one device.
    pub fn new(device: DeviceSpec, dtype: DType, framework: Framework) -> Self {
        let ctx = SimContext::new(device);
        let db = TileDb::profile(ctx.cost());
        let reference = cublas::gemm_cost_only(ctx.cost(), &db, 2048, 2048, 2048, dtype);
        Engine {
            reference_flops_per_s: reference.flops_executed / reference.latency_s,
            ctx,
            db,
            dtype,
            framework,
            devices: 1,
            gemm_time_s: 0.0,
            total_s: 0.0,
            tally: CostTally::default(),
        }
    }

    /// Sets the tensor-parallel degree.
    pub fn with_devices(mut self, devices: usize) -> Self {
        self.devices = devices.max(1);
        self
    }

    /// The cost model.
    pub fn cost(&self) -> &CostModel {
        self.ctx.cost()
    }

    /// Element size in bytes for the current dtype.
    pub fn elem(&self) -> usize {
        self.dtype.size_bytes()
    }

    /// The simulation ledger: labelled records and the memory tracker.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    /// Adds one priced operator to the running totals, without a record.
    pub(crate) fn charge(&mut self, charge: Charge) {
        let latency = charge.stats.latency_s;
        self.total_s += latency;
        match charge.category {
            CostCategory::Attention => self.tally.attention_s += latency,
            CostCategory::SparseConversion => self.tally.sparse_conversion_s += latency,
            CostCategory::JitSearch => self.tally.jit_search_s += latency,
            CostCategory::DenseGemm => self.tally.dense_s += latency,
        }
        self.tally.flops_useful += charge.stats.flops_useful;
        self.tally.flops_executed += charge.stats.flops_executed;
        if charge.gemm {
            self.gemm_time_s += latency;
        }
    }

    /// Charges a priced operator and appends its labelled record.
    fn record_charge(&mut self, label: impl Into<String>, charge: Charge) {
        self.charge(charge);
        self.ctx.record(label, charge.stats);
    }

    /// Records a kernel priced outside the engine under `label`'s ledger
    /// category (not GEMM-class: it does not count toward
    /// [`Engine::gemm_time_s`]).
    pub(crate) fn record(&mut self, label: impl Into<String>, stats: KernelStats) {
        let label = label.into();
        let charge = Charge {
            category: categorize_label(&label),
            stats,
            gemm: false,
        };
        self.record_charge(label, charge);
    }

    /// Prices a dense GEMM `[m,k]×[k,n]` through the library's best tile,
    /// split across the tensor-parallel devices; `None` when any dimension
    /// is zero.
    pub(crate) fn price_gemm(
        &self,
        category: CostCategory,
        m: usize,
        k: usize,
        n: usize,
    ) -> Option<Charge> {
        if m == 0 || k == 0 || n == 0 {
            return None;
        }
        let mut stats = cublas::gemm_cost_only(
            self.cost(),
            &self.db,
            m,
            k.div_ceil(self.devices),
            n,
            self.dtype,
        );
        stats.latency_s = stats.latency_s.max(self.cost().device().kernel_launch_s);
        Some(Charge {
            category,
            stats,
            gemm: true,
        })
    }

    /// Records a dense GEMM `[m,k]×[k,n]` through the library's best tile,
    /// split across the tensor-parallel devices.
    pub fn gemm(&mut self, label: &str, m: usize, k: usize, n: usize) {
        if let Some(charge) = self.price_gemm(categorize_label(label), m, k, n) {
            self.record_charge(label, charge);
        }
    }

    /// Prices GEMM-class work given raw FLOPs and touched bytes: latency is
    /// `flops / sustained-GEMM-throughput`, bounded below by the memory
    /// time of the touched bytes. `None` for no FLOPs.
    pub(crate) fn price_gemm_flops(
        &self,
        category: CostCategory,
        flops: f64,
        bytes: f64,
    ) -> Option<Charge> {
        if flops <= 0.0 {
            return None;
        }
        let d = self.devices as f64;
        let compute = flops / self.reference_flops_per_s / d;
        let memory = bytes / self.cost().device().bw_total() / d;
        let stats = KernelStats {
            flops_useful: flops,
            flops_executed: flops,
            bytes_read: bytes,
            bytes_written: 0.0,
            tiles_executed: 0,
            latency_s: compute.max(memory) + self.cost().device().kernel_launch_s,
        };
        Some(Charge {
            category,
            stats,
            gemm: true,
        })
    }

    /// Records GEMM-class work given raw FLOPs and touched bytes (used for
    /// attention score/context products whose shapes are per-sequence).
    /// Latency is `flops / sustained-GEMM-throughput`, bounded below by the
    /// memory time of the touched bytes.
    pub fn gemm_flops(&mut self, label: &str, flops: f64, bytes: f64) {
        if let Some(charge) = self.price_gemm_flops(categorize_label(label), flops, bytes) {
            self.record_charge(label, charge);
        }
    }

    /// Records a GEMM whose reduction axis is cut to `k_frac` of `k` by
    /// sparsity coverage (PIT's k-axis merging), including the gather
    /// factor.
    pub fn gemm_k_covered(&mut self, label: &str, m: usize, k: usize, n: usize, k_frac: f64) {
        let k_eff = ((k as f64 * k_frac).ceil() as usize).max(1);
        let mut stats = cublas::gemm_cost_only(
            self.cost(),
            &self.db,
            m,
            k_eff.div_ceil(self.devices),
            n,
            self.dtype,
        );
        stats.latency_s *= self.cost().gather_factor();
        stats.flops_useful = 2.0 * (m * n) as f64 * (k as f64 * k_frac);
        let charge = Charge {
            category: categorize_label(label),
            stats,
            gemm: true,
        };
        self.record_charge(label, charge);
    }

    /// Prices an elementwise kernel over `numel` elements with `n_inputs`
    /// read streams, honouring the framework's fusion behaviour; `None`
    /// for no elements.
    pub(crate) fn price_elementwise(
        &self,
        category: CostCategory,
        numel: usize,
        n_inputs: usize,
    ) -> Option<Charge> {
        if numel == 0 {
            return None;
        }
        let mut stats = dense::elementwise_cost(
            self.cost(),
            numel.div_ceil(self.devices),
            self.dtype,
            n_inputs,
        );
        if self.framework.fused_elementwise() {
            // Fusion halves the number of memory round-trips of an
            // elementwise chain.
            stats.latency_s = stats.latency_s * 0.5 + self.cost().device().kernel_launch_s * 0.5;
        }
        Some(Charge {
            category,
            stats,
            gemm: false,
        })
    }

    /// Records an elementwise kernel over `numel` elements with `n_inputs`
    /// read streams, honouring the framework's fusion behaviour.
    pub fn elementwise(&mut self, label: &str, numel: usize, n_inputs: usize) {
        if let Some(charge) = self.price_elementwise(categorize_label(label), numel, n_inputs) {
            self.record_charge(label, charge);
        }
    }

    /// Prices a softmax over `rows × cols`; `None` when empty.
    pub(crate) fn price_softmax(
        &self,
        category: CostCategory,
        rows: usize,
        cols: usize,
    ) -> Option<Charge> {
        if rows == 0 || cols == 0 {
            return None;
        }
        let stats = dense::softmax_cost(self.cost(), rows.div_ceil(self.devices), cols, self.dtype);
        Some(Charge {
            category,
            stats,
            gemm: false,
        })
    }

    /// Records a softmax over `rows × cols`.
    pub fn softmax(&mut self, label: &str, rows: usize, cols: usize) {
        if let Some(charge) = self.price_softmax(categorize_label(label), rows, cols) {
            self.record_charge(label, charge);
        }
    }

    /// Prices a LayerNorm over `rows × cols`; `None` when empty.
    pub(crate) fn price_layernorm(
        &self,
        category: CostCategory,
        rows: usize,
        cols: usize,
    ) -> Option<Charge> {
        if rows == 0 || cols == 0 {
            return None;
        }
        let stats =
            dense::layernorm_cost(self.cost(), rows.div_ceil(self.devices), cols, self.dtype);
        Some(Charge {
            category,
            stats,
            gemm: false,
        })
    }

    /// Records a LayerNorm over `rows × cols`.
    pub fn layernorm(&mut self, label: &str, rows: usize, cols: usize) {
        if let Some(charge) = self.price_layernorm(categorize_label(label), rows, cols) {
            self.record_charge(label, charge);
        }
    }

    /// Records a fixed host-side overhead (Python loops, driver work).
    pub fn host_overhead(&mut self, label: &str, seconds: f64) {
        self.record(
            label,
            KernelStats {
                latency_s: seconds,
                ..Default::default()
            },
        );
    }

    /// Records the per-layer tensor-parallel all-reduce of `bytes`.
    pub fn allreduce(&mut self, label: &str, bytes: f64) {
        if self.devices <= 1 {
            return;
        }
        // Ring all-reduce: 2 * (d-1)/d * bytes over the link.
        let d = self.devices as f64;
        let latency = 2.0 * (d - 1.0) / d * bytes / NVLINK_BW + 10.0e-6;
        self.record(
            label,
            KernelStats {
                latency_s: latency,
                bytes_read: bytes,
                bytes_written: bytes,
                ..Default::default()
            },
        );
    }

    /// Allocates persistent (whole-run) memory such as weights; divided
    /// across tensor-parallel devices. Returns nothing — persistent
    /// allocations live until the run ends.
    pub fn alloc_persistent(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        self.ctx.memory_mut().alloc(per_device);
    }

    /// Allocates a retained buffer (framework workspaces the caching
    /// allocator never returns, e.g. per-layer dispatch buffers).
    pub fn alloc_retained(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        self.ctx.memory_mut().alloc(per_device);
    }

    /// Tracks a transient peak: allocates, immediately frees, so only the
    /// high-water mark is affected.
    pub fn transient_peak(&mut self, bytes: usize) {
        let per_device = bytes.div_ceil(self.devices);
        let id = self.ctx.memory_mut().alloc(per_device);
        self.ctx.memory_mut().free(id);
    }

    /// Total modelled latency so far (ms).
    pub fn latency_ms(&self) -> f64 {
        self.total_s * 1e3
    }

    /// Ledger-category totals of everything charged so far, summed in
    /// charge order as each operator is charged (labelled records and
    /// [`crate::decode::run_step`]'s unrecorded charges alike).
    pub fn cost_tally(&self) -> CostTally {
        self.tally
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine(fw: Framework) -> Engine {
        Engine::new(DeviceSpec::a100_80gb(), DType::F32, fw)
    }

    #[test]
    fn gemm_records_latency() {
        let mut e = engine(Framework::PyTorch);
        e.gemm("test", 1024, 1024, 1024);
        assert!(e.latency_ms() > 0.0);
        assert_eq!(e.ctx().records().len(), 1);
    }

    #[test]
    fn k_coverage_reduces_latency() {
        let mut a = engine(Framework::Pit);
        let mut b = engine(Framework::Pit);
        a.gemm_k_covered("cov", 4096, 4096, 4096, 0.1);
        b.gemm("full", 4096, 4096, 4096);
        assert!(a.latency_ms() < b.latency_ms());
    }

    #[test]
    fn fusion_halves_elementwise() {
        let mut fused = engine(Framework::DeepSpeed);
        let mut plain = engine(Framework::PyTorch);
        fused.elementwise("e", 1 << 24, 1);
        plain.elementwise("e", 1 << 24, 1);
        assert!(fused.latency_ms() < plain.latency_ms());
    }

    #[test]
    fn tensor_parallel_divides_gemm_and_adds_allreduce() {
        let mut single = engine(Framework::PyTorch);
        let mut multi =
            Engine::new(DeviceSpec::v100_32gb(), DType::F32, Framework::PyTorch).with_devices(8);
        single.gemm("g", 4096, 8192, 4096);
        multi.gemm("g", 4096, 8192, 4096);
        assert!(multi.latency_ms() < single.latency_ms());
        multi.allreduce("ar", 64.0 * 1024.0 * 1024.0);
        assert!(multi.ctx().latency_of_s("ar") > 0.0);
    }

    #[test]
    fn cost_tally_tiles_total_latency() {
        let mut e = engine(Framework::Pit);
        e.gemm("l0.qkv", 512, 1024, 3072);
        e.gemm_flops("l0.scores", 1.0e9, 4.0e6);
        e.softmax("l0.softmax", 512, 512);
        e.gemm_flops("l0.context", 1.0e9, 4.0e6);
        e.host_overhead("jit.search", 50e-6);
        e.host_overhead("pit.index", 8e-6);
        let t = e.cost_tally();
        assert!(t.attention_s > 0.0);
        assert!((t.jit_search_s - 50e-6).abs() < 1e-15);
        assert!((t.sparse_conversion_s - 8e-6).abs() < 1e-15);
        assert!(t.dense_s > 0.0);
        let sum = t.attention_s + t.sparse_conversion_s + t.jit_search_s + t.dense_s;
        let total = e.latency_ms() / 1e3;
        assert!((sum - total).abs() <= 1e-12 * total.max(1.0));
        assert!(t.flops_useful > 0.0);
        assert!(t.flops_executed >= t.flops_useful);
    }

    #[test]
    fn categorize_matches_run_step_labels() {
        assert_eq!(categorize_label("l7.scores"), CostCategory::Attention);
        assert_eq!(categorize_label("l7.softmax"), CostCategory::Attention);
        assert_eq!(categorize_label("l7.context"), CostCategory::Attention);
        assert_eq!(
            categorize_label("pit.index"),
            CostCategory::SparseConversion
        );
        assert_eq!(categorize_label("jit.search"), CostCategory::JitSearch);
        for dense in ["embed", "l7.qkv", "l7.out", "l7.fc1", "l7.act", "head"] {
            assert_eq!(categorize_label(dense), CostCategory::DenseGemm);
        }
    }

    #[test]
    fn transient_peak_only_moves_high_water_mark() {
        let mut e = engine(Framework::Pit);
        e.transient_peak(1 << 30);
        assert_eq!(e.ctx().memory().current_bytes(), 0);
        assert_eq!(e.ctx().memory().peak_bytes(), 1 << 30);
    }
}
