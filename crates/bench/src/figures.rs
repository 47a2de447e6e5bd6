//! One regenerator per figure/table of the paper's evaluation.

use crate::table::{gib, ms, Table};
use pit_core::detector::detect_mask;
use pit_core::microtile::MicroTile;
use pit_core::selection::select_kernel;
use pit_gpusim::cost::TileDims;
use pit_gpusim::{CostModel, DeviceSpec};
use pit_kernels::baselines::{blocksparse, cublas, cusparse, sparta, sputnik};
use pit_kernels::tiles::TileDb;
use pit_kernels::wmma;
use pit_models::training::{run_pruning_step, run_training_step};
use pit_models::{run_inference, Framework, ModelConfig};
use pit_sparse::formats::convert_cost;
use pit_sparse::{cover_count, generate};
use pit_tensor::DType;
use pit_workloads::{patterns, DatasetSpec};

const N: usize = 4096;

fn v100() -> CostModel {
    CostModel::new(DeviceSpec::v100_32gb())
}

/// Figure 3a: latency and wasted computation of fixed tile shapes vs PIT on
/// fine-grained activation sparsity (SpMM 4096³ on V100).
pub fn fig03a() -> String {
    let cost = v100();
    let db = TileDb::profile(&cost);
    let mut t = Table::new(
        "Figure 3a — latency & wasted computation of tile sizes",
        &[
            "sparsity%",
            "8x8 ms",
            "16x16 ms",
            "32x32 ms",
            "PIT ms",
            "8x8 waste%",
            "32x32 waste%",
        ],
    )
    .caption("SpMM 4096x4096x4096 fp32, fine-grained (1x1) sparsity, V100");
    for sp in [0.90, 0.95, 0.99, 0.999] {
        let mask = generate::granular_random(N, N, 1, 1, sp, 17);
        let mut fixed_ms = Vec::new();
        let mut wastes = Vec::new();
        for side in [8usize, 16, 32] {
            let tile = TileDims::new(side, side, side);
            let cov = cover_count(&mask, side, side);
            let lat =
                cost.tiled_gemm_latency(cov.nonzero_tiles * N.div_ceil(side), tile, side, 4, false);
            fixed_ms.push(lat * 1e3);
            wastes.push(cov.after_cover_sparsity() * 100.0);
        }
        let sel = select_kernel(&cost, &db, &[mask], N, DType::F32);
        t.row(vec![
            format!("{}", sp * 100.0),
            ms(fixed_ms[0]),
            ms(fixed_ms[1]),
            ms(fixed_ms[2]),
            ms(sel.predicted_cost_s * 1e3),
            format!("{:.1}", wastes[0]),
            format!("{:.1}", wastes[2]),
        ]);
    }
    t.render()
}

/// Figure 3b: conversion overhead vs computation of sparse libraries
/// against dense cuBLAS (SpMM 4096³).
pub fn fig03b() -> String {
    let cost = v100();
    let db = TileDb::profile(&cost);
    let dense = cublas::gemm_cost_only(&cost, &db, N, N, N, DType::F32).latency_s * 1e3;
    let mut t = Table::new(
        "Figure 3b — sparse-format conversion overheads",
        &[
            "sparsity%",
            "system",
            "compute ms",
            "convert ms",
            "total ms",
            "cuBLAS ms",
        ],
    )
    .caption("SpMM 4096^3 fp32 on V100; SparTA convert = AOT compile (seconds!)");
    for sp in [0.70, 0.90, 0.99] {
        let nnz = ((N * N) as f64 * (1.0 - sp)) as usize;
        let cu = cusparse::spmm_cost_only(&cost, N, N, N, nnz, DType::F32).latency_s * 1e3;
        let cu_conv = cusparse::conversion_cost(&cost, N, N, nnz, DType::F32) * 1e3;
        let sp_ = sputnik::spmm_cost_only(&cost, N, N, N, nnz, DType::F32).latency_s * 1e3;
        let sp_conv = sputnik::conversion_cost(&cost, N, N, nnz, DType::F32) * 1e3;
        let mask = generate::granular_random(1024, 1024, 1, 1, sp, 3);
        let sparta_ms =
            sparta::spmm_cost_only(&cost, &mask, 1024, DType::F32).latency_s * 1e3 * 64.0;
        let sparta_conv = sparta::compile_cost() * 1e3;
        for (name, c, v) in [
            ("cuSPARSE", cu, cu_conv),
            ("Sputnik", sp_, sp_conv),
            ("SparTA", sparta_ms, sparta_conv),
        ] {
            t.row(vec![
                format!("{}", sp * 100.0),
                name.to_string(),
                ms(c),
                ms(v),
                ms(c + v),
                ms(dense),
            ]);
        }
    }
    t.render()
}

fn moe_frameworks(dtype: DType) -> Vec<Framework> {
    let mut fws = vec![
        Framework::PyTorch,
        Framework::PyTorchS,
        Framework::Tutel,
        Framework::DeepSpeed,
    ];
    if dtype == DType::F16 {
        fws.push(Framework::MegaBlocks); // fp16-only kernels (§5.1).
    }
    fws.push(Framework::PitNoSparseMoe);
    fws.push(Framework::Pit);
    fws
}

/// Figure 8: Switch Transformer end-to-end latency and memory.
pub fn fig08() -> String {
    let mut t = Table::new(
        "Figure 8 — Switch Transformer (A100)",
        &[
            "dtype",
            "batch",
            "experts",
            "framework",
            "latency ms",
            "convert ms",
            "mem GiB",
        ],
    )
    .caption("MNLI-like lengths; OOM marks runs exceeding 80 GB");
    for dtype in [DType::F16, DType::F32] {
        for batch in [32usize, 8] {
            let lens = DatasetSpec::mnli().sample_lengths(batch, 11);
            for experts in [64usize, 128, 256] {
                let cfg = ModelConfig::switch_transformer(experts);
                for fw in moe_frameworks(dtype) {
                    let r = run_inference(&cfg, &lens, DeviceSpec::a100_80gb(), dtype, fw, 1, 11);
                    t.row(vec![
                        dtype.to_string(),
                        batch.to_string(),
                        experts.to_string(),
                        r.framework.clone(),
                        ms(r.latency_ms),
                        ms(r.convert_ms),
                        gib(r.peak_gib, r.oom),
                    ]);
                }
            }
        }
    }
    t.render()
}

/// Figure 9: Swin-MoE latency and memory (fp16, A100).
pub fn fig09() -> String {
    let mut t = Table::new(
        "Figure 9 — Swin-MoE (A100, fp16)",
        &["batch", "experts", "framework", "latency ms", "mem GiB"],
    )
    .caption("Fixed-resolution vision tokens (196/sample)");
    for batch in [32usize, 8] {
        let lens = vec![196usize; batch];
        for experts in [8usize, 16, 32] {
            let cfg = ModelConfig::swin_moe(experts);
            for fw in moe_frameworks(DType::F16) {
                if fw == Framework::PitNoSparseMoe {
                    continue;
                }
                let r = run_inference(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F16, fw, 1, 13);
                t.row(vec![
                    batch.to_string(),
                    experts.to_string(),
                    r.framework.clone(),
                    ms(r.latency_ms),
                    gib(r.peak_gib, r.oom),
                ]);
            }
        }
    }
    t.render()
}

/// Figure 10: OPT-13B/30B inference on 8×V100, Alpaca-like lengths.
pub fn fig10() -> String {
    let mut t = Table::new(
        "Figure 10 — OPT inference (8xV100, fp32, batch 32)",
        &[
            "model",
            "framework",
            "latency ms",
            "convert ms",
            "mem GiB (aggregate)",
        ],
    );
    let lens = DatasetSpec::alpaca().sample_lengths(32, 17);
    for size in ["13B", "30B"] {
        let cfg = ModelConfig::opt(size);
        for fw in [
            Framework::PyTorch,
            Framework::PyTorchS,
            Framework::DeepSpeed,
            Framework::PitNoActivation,
            Framework::Pit,
        ] {
            let r = run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 8, 17);
            t.row(vec![
                cfg.name.clone(),
                r.framework.clone(),
                ms(r.latency_ms),
                ms(r.convert_ms),
                gib(r.peak_gib, r.oom),
            ]);
        }
    }
    t.render()
}

/// Figure 11: BERT on twelve datasets (V100, fp32, batch 32).
pub fn fig11() -> String {
    let mut t = Table::new(
        "Figure 11 — BERT-base per dataset (V100, fp32, batch 32)",
        &[
            "dataset",
            "framework",
            "latency ms",
            "convert ms",
            "mem GiB",
        ],
    );
    let cfg = ModelConfig::bert_base();
    for spec in DatasetSpec::bert_suite() {
        let lens = spec.sample_lengths(32, 19);
        for fw in [
            Framework::PyTorch,
            Framework::PyTorchS,
            Framework::DeepSpeed,
            Framework::TurboTransformer,
            Framework::Pit,
        ] {
            let r = run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 19);
            t.row(vec![
                spec.name.to_string(),
                r.framework.clone(),
                ms(r.latency_ms),
                ms(r.convert_ms),
                gib(r.peak_gib, r.oom),
            ]);
        }
    }
    t.render()
}

/// Figure 12: Longformer base/large at 2k/4k tokens (V100, fp32).
pub fn fig12() -> String {
    let mut t = Table::new(
        "Figure 12 — Longformer (V100, fp32)",
        &["config", "framework", "latency ms", "convert ms", "mem GiB"],
    );
    for size in ["base", "large"] {
        for seq in [2048usize, 4096] {
            let cfg = ModelConfig::longformer(size);
            let lens = DatasetSpec::arxiv(seq).sample_lengths(1, 23);
            for fw in [
                Framework::PyTorch,
                Framework::PyTorchS,
                Framework::LongformerS,
                Framework::DeepSpeed,
                Framework::Pit,
            ] {
                let r = run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 23);
                t.row(vec![
                    format!("{size}-{}k", seq / 1024),
                    r.framework.clone(),
                    ms(r.latency_ms),
                    ms(r.convert_ms),
                    gib(r.peak_gib, r.oom),
                ]);
            }
        }
    }
    t.render()
}

/// Figure 13: Museformer at 1k–32k tokens (V100, fp32).
pub fn fig13() -> String {
    let mut t = Table::new(
        "Figure 13 — Museformer (V100, fp32)",
        &["max seq", "framework", "latency ms", "mem GiB"],
    );
    let cfg = ModelConfig::museformer();
    for seq in [1024usize, 4096, 7168, 15360, 20480, 24576, 32768] {
        let lens = vec![seq];
        for fw in [
            Framework::PyTorch,
            Framework::PyTorchS,
            Framework::DeepSpeed,
            Framework::Pit,
        ] {
            let r = run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 29);
            t.row(vec![
                format!("{}k", seq / 1024),
                r.framework.clone(),
                ms(r.latency_ms),
                gib(r.peak_gib, r.oom),
            ]);
        }
    }
    t.render()
}

/// Figure 14: OPT training step latency and memory (A100, batch 8).
pub fn fig14() -> String {
    let mut t = Table::new(
        "Figure 14 — OPT training (A100, fp32, batch 8)",
        &["model", "framework", "latency ms", "convert ms", "mem GiB"],
    );
    let lens = DatasetSpec::alpaca().sample_lengths(8, 31);
    for size in ["125M", "350M", "1.3B"] {
        let cfg = ModelConfig::opt(size);
        for fw in [
            Framework::PyTorch,
            Framework::PyTorchS,
            Framework::DeepSpeed,
            Framework::Pit,
        ] {
            let r = run_training_step(&cfg, &lens, DeviceSpec::a100_80gb(), DType::F32, fw, 31);
            t.row(vec![
                cfg.name.clone(),
                r.framework.clone(),
                ms(r.latency_ms),
                ms(r.convert_ms),
                gib(r.peak_gib, r.oom),
            ]);
        }
    }
    t.render()
}

/// Figure 15: iterative-pruning sparse training (V100, batch 32).
pub fn fig15() -> String {
    let mut t = Table::new(
        "Figure 15 — magnitude iterative pruning, BERT (V100, fp32)",
        &[
            "block",
            "sparsity%",
            "framework",
            "latency ms",
            "convert ms",
            "mem GiB",
        ],
    );
    let lens = DatasetSpec::mnli().sample_lengths(32, 37);
    for gran in [(32usize, 64usize), (32, 1)] {
        for sp in [0.50, 0.80, 0.90, 0.94, 0.96, 0.98] {
            for fw in [Framework::PyTorch, Framework::PyTorchS, Framework::Pit] {
                let r = run_pruning_step(gran, sp, &lens, DeviceSpec::v100_32gb(), fw);
                t.row(vec![
                    format!("{}x{}", gran.0, gran.1),
                    format!("{}", sp * 100.0),
                    r.framework.clone(),
                    ms(r.latency_ms),
                    ms(r.convert_ms),
                    gib(r.peak_gib, r.oom),
                ]);
            }
        }
    }
    t.render()
}

/// Figure 16: SpMM micro-benchmark across sparsity granularities.
pub fn fig16() -> String {
    let cost = v100();
    let db = TileDb::profile(&cost);
    let mut t = Table::new(
        "Figure 16 — SpMM 4096^3 across granularities (V100, fp32)",
        &[
            "granularity",
            "sparsity%",
            "cuSPARSE ms",
            "Sputnik ms",
            "OpenAI-BS ms",
            "SparTA ms",
            "PIT ms",
        ],
    )
    .caption("Static patterns; conversion/compile time excluded (as in the paper)");
    for gran in [(32usize, 1usize), (1, 64), (32, 64)] {
        for sp in [0.50, 0.90, 0.95, 0.99] {
            let mask = generate::granular_random(N, N, gran.0, gran.1, sp, 41);
            let nnz = mask.nnz();
            let cu = cusparse::spmm_cost_only(&cost, N, N, N, nnz, DType::F32).latency_s;
            let sp_ = sputnik::spmm_cost_only(&cost, N, N, N, nnz, DType::F32).latency_s;
            let blocks = cover_count(&mask, 32, 32).nonzero_tiles;
            let bs =
                blocksparse::dsd_cost_only(&cost, blocks, 32, 32, N, N, nnz, DType::F32).latency_s;
            let sa = sparta::spmm_cost_only(&cost, &mask, N, DType::F32).latency_s;
            let pit = select_kernel(&cost, &db, &[mask], N, DType::F32).predicted_cost_s;
            t.row(vec![
                format!("{}x{}", gran.0, gran.1),
                format!("{}", sp * 100.0),
                ms(cu * 1e3),
                ms(sp_ * 1e3),
                ms(bs * 1e3),
                ms(sa * 1e3),
                ms(pit * 1e3),
            ]);
        }
    }
    t.render()
}

/// Figure 17: PIT on Tensor Cores (wmma) under 32×1 vs 32×64 granularity.
pub fn fig17() -> String {
    let cost = CostModel::new(DeviceSpec::a100_80gb());
    let db = TileDb::profile(&cost);
    let mut t = Table::new(
        "Figure 17 — PIT with Tensor Core (A100, fp16, SpMM 4096^3)",
        &["sparsity%", "32x1 ms", "32x64 ms", "dense wmma ms"],
    )
    .caption("PIT micro-tiles feed wmma fragments despite the fixed fragment shapes");
    let dense = wmma::gemm_tc_cost_only(&cost, N, N, N, wmma::default_tile()).latency_s * 1e3;
    for sp in [
        0.0, 0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90, 0.95, 0.99,
    ] {
        let m1 = generate::granular_random(N, N, 32, 1, sp, 43);
        let m64 = generate::granular_random(N, N, 32, 64, sp, 44);
        let l1 = select_kernel(&cost, &db, &[m1], N, DType::F16).predicted_cost_s;
        let l64 = select_kernel(&cost, &db, &[m64], N, DType::F16).predicted_cost_s;
        t.row(vec![
            format!("{}", sp * 100.0),
            ms(l1 * 1e3),
            ms(l64 * 1e3),
            ms(dense),
        ]);
    }
    t.render()
}

/// Figure 18: online index-construction latency, PIT vs PyTorch-S.
pub fn fig18() -> String {
    let cost = v100();
    let mut t = Table::new(
        "Figure 18 — index construction on a 4096x4096 tensor (V100)",
        &["tile", "sparsity%", "PyTorch-S ms", "PIT ms", "speedup"],
    )
    .caption("PyTorch-S: cuSPARSE CSR at 1x1, Triton layout at 16x16/32x32");
    for (mh, mw) in [(1usize, 1usize), (16, 16), (32, 32)] {
        for sp in [0.50, 0.90, 0.95, 0.99] {
            let mask = generate::granular_random(N, N, mh.max(1), mw.max(1), sp, 47);
            let nnz_tiles = cover_count(&mask, mh, mw).nonzero_tiles;
            let baseline = if (mh, mw) == (1, 1) {
                convert_cost::csr_via_nonzero_sort(&cost, N, N, mask.nnz(), 4)
            } else {
                convert_cost::triton_layout(&cost, N, N, mh, mw, nnz_tiles, 4)
            };
            // PIT: one value scan + unordered block-aggregated appends.
            let pit = cost.scan_pass((N * N * 4) as f64) + cost.index_append(nnz_tiles);
            t.row(vec![
                format!("{mh}x{mw}"),
                format!("{}", sp * 100.0),
                ms(baseline * 1e3),
                ms(pit * 1e3),
                format!("{:.1}x", baseline / pit),
            ]);
        }
    }
    t.render()
}

/// Figure 19: end-to-end conversion overhead of PIT vs baselines on BERT.
pub fn fig19() -> String {
    let mut t = Table::new(
        "Figure 19 — end-to-end conversion overhead, BERT on GLUE (V100)",
        &[
            "dataset",
            "framework",
            "latency ms",
            "convert ms",
            "convert %",
        ],
    );
    let cfg = ModelConfig::bert_base();
    for spec in DatasetSpec::glue() {
        let lens = spec.sample_lengths(32, 53);
        for fw in [
            Framework::PyTorch,
            Framework::Tvm,
            Framework::PyTorchS,
            Framework::Pit,
        ] {
            let r = run_inference(&cfg, &lens, DeviceSpec::v100_32gb(), DType::F32, fw, 1, 53);
            let pct = if r.latency_ms > 0.0 {
                100.0 * r.convert_ms / r.latency_ms
            } else {
                0.0
            };
            t.row(vec![
                spec.name.to_string(),
                r.framework.clone(),
                ms(r.latency_ms),
                ms(r.convert_ms),
                format!("{pct:.1}"),
            ]);
        }
    }
    t.render()
}

/// Activation rows each sequence contributes to Figure 20's ReLU study.
const RELU_ROWS_PER_SEQ: usize = 8;

/// Figure 20's ReLU study at one batch size: the pattern hashes of 300
/// batches of `batch × RELU_ROWS_PER_SEQ` activation rows (256 wide, 95%
/// sparse).
fn fig20_relu_patterns(batch: usize) -> Vec<u64> {
    patterns::relu_pattern_hashes(batch * RELU_ROWS_PER_SEQ, 256, 0.95, 300, 61)
}

/// Figure 20: sparsity-pattern repetition (hit-ratio) study.
pub fn fig20() -> String {
    let mut t = Table::new(
        "Figure 20 — dynamic sparsity pattern repetition (MNLI traversal)",
        &["pattern", "batch", "batches seen", "cumulative hit ratio"],
    )
    .caption("A hit = the batch's sparsity pattern appeared before (§5.6)");
    for batch in [8usize, 32] {
        let curve = patterns::seqlen_study(&DatasetSpec::mnli(), batch, 1000, 59);
        for seen in [1usize, 10, 100, 300, 1000] {
            t.row(vec![
                "seq-length".to_string(),
                batch.to_string(),
                seen.to_string(),
                format!("{:.4}", curve[seen - 1]),
            ]);
        }
    }
    for batch in [8usize, 32] {
        let curve = patterns::cumulative_hit_ratio(fig20_relu_patterns(batch));
        for seen in [1usize, 10, 100, 300] {
            t.row(vec![
                "ReLU".to_string(),
                batch.to_string(),
                seen.to_string(),
                format!("{:.4}", curve[seen - 1]),
            ]);
        }
    }
    t.render()
}

/// Table 3: micro-tile online search results.
pub fn table3() -> String {
    let cost = v100();
    let db = TileDb::profile(&cost);
    let mut t = Table::new(
        "Table 3 — micro-tile online search (SpMM 4096^3, V100, fp32)",
        &[
            "granularity",
            "sparsity%",
            "micro-tile",
            "after-cover%",
            "dense kernel",
            "latency ms",
            "search us",
        ],
    );
    for gran in [(2usize, 1usize), (4, 1), (8, 1), (32, 1)] {
        for sp in [0.95, 0.99] {
            let mask = generate::granular_random(N, N, gran.0, gran.1, sp, 67);
            let sel = select_kernel(&cost, &db, &[mask], N, DType::F32);
            let (micro, tile) = match sel.rule {
                Some(rule) => (rule.micro.to_string(), rule.tile.to_string()),
                None => ("dense".to_string(), "dense".to_string()),
            };
            t.row(vec![
                format!("({},{})", gran.0, gran.1),
                format!("{}", sp * 100.0),
                micro,
                format!("{:.2}", sel.after_cover_sparsity * 100.0),
                tile,
                ms(sel.predicted_cost_s * 1e3),
                format!("{}", sel.search_time.as_micros()),
            ]);
        }
    }
    t.render()
}

/// Supplementary: real wall-clock of the parallel unordered detector (the
/// host-side counterpart of Figure 18's PIT bars).
pub fn detector_wallclock() -> String {
    let cost = v100();
    let mut t = Table::new(
        "Detector wall-clock (host, parallel unordered index construction)",
        &["tile", "threads", "wall us", "tiles found"],
    );
    let mask = generate::granular_random(2048, 2048, 1, 1, 0.95, 71);
    for (mh, mw) in [(1usize, 8usize), (16, 16), (32, 32)] {
        for threads in [1usize, 4] {
            let start = std::time::Instant::now();
            let idx = detect_mask(&cost, &mask, MicroTile::new(mh, mw), threads);
            let wall = start.elapsed().as_micros();
            t.row(vec![
                format!("{mh}x{mw}"),
                threads.to_string(),
                wall.to_string(),
                idx.len().to_string(),
            ]);
        }
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig03a_has_rows_and_crossover_direction() {
        let s = fig03a();
        assert!(s.contains("99.9"));
        assert!(s.lines().count() >= 7, "{s}");
    }

    #[test]
    fn fig18_pit_always_faster() {
        let s = fig18();
        for line in s.lines().skip(4) {
            if let Some(x) = line.split_whitespace().last() {
                if let Some(stripped) = x.strip_suffix('x') {
                    let v: f64 = stripped.parse().unwrap();
                    assert!(v > 1.0, "PIT slower in line: {line}");
                }
            }
        }
    }

    #[test]
    fn fig20_ratios_are_low() {
        let s = fig20();
        assert!(s.contains("seq-length"));
        assert!(s.contains("ReLU"));
    }

    #[test]
    fn fig20_relu_curves_follow_the_batch() {
        // Random ReLU patterns do not repeat at either size, so both
        // curves read 0 throughout (the paper's point). Each batch label
        // must still be the curve of its own batch's activations.
        let small = fig20_relu_patterns(8);
        let large = fig20_relu_patterns(32);
        assert_eq!(small.len(), large.len());
        assert!(small.iter().all(|h| !large.contains(h)));
    }

    #[test]
    fn table3_selects_k_axis_micro_tiles() {
        let s = table3();
        // Every (g,1) granularity must select a (h,1)-shaped micro-tile.
        assert!(s.contains(", 1)"), "{s}");
        assert!(!s.contains("dense  dense"), "fell back to dense:\n{s}");
    }
}
