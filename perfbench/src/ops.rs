//! The `pit_ops` workload: a seeded stream of `Pit` operator calls, each
//! with a fresh dynamic mask, on the paper's own host path (online
//! detector, Algorithm-1 selection, SRead/SWrite, real f32 kernels).
//!
//! One pass is `ROUNDS_PER_PASS` rounds of every operator kind.
//! Every output is compared with a naive f64 reference computed here; the
//! traced run splits each call into the public calls `Pit` makes and
//! checks that they reproduce the fused call bit for bit.

use crate::calib::Calibrator;
use crate::metrics::{median, peak_rss_mb, quantile, Outcome};
use crate::spans::Tracer;
use crate::Args;
use pit::core::detector::detect_mask;
use pit::core::jit::{JitCache, KernelKey};
use pit::core::kernels;
use pit::core::ops::Pit;
use pit::core::primitives::{sread_rows, swrite_rows};
use pit::core::{select_kernel, MatmulAxis};
use pit::gpusim::{DeviceSpec, KernelStats};
use pit::kernels::baselines::cublas;
use pit::sparse::generate;
use pit::sparse::Mask;
use pit::tensor::{DType, Tensor};
use std::hint::black_box;
use std::time::Instant;

const DTYPE: DType = DType::F32;
/// Rounds of `ROUND` per pass.
const ROUNDS_PER_PASS: usize = 6;
/// Set-ups per end-to-end run (`setup_s` is their median).
const SETUP_REPEATS: usize = 3;
/// Fewest timed passes per end-to-end run.
const MIN_PASSES: usize = 3;
/// Host threads `Pit::new` gives the online detector (its default).
const DETECT_THREADS: usize = 4;
/// Hidden width of the row-sparse and MoE activations; sequence length
/// and head width of the attention scores.
const HIDDEN: usize = 512;
const SEQ: usize = 512;
const HEAD: usize = 64;
const EXPERTS: usize = 8;
/// Output tolerance against the f64 reference: |out − ref| ≤ TOL·(1 + |ref|).
const TOL: f64 = 1e-3;

#[derive(Clone, Copy, Debug, PartialEq)]
enum OpKind {
    /// `matmul_dyn_sparse` on ReLU activations (mask found from values).
    DynRelu,
    /// `matmul_masked` on a (32,1)-granular mask.
    Masked32x1,
    /// `matmul_masked` on a (1,64)-granular mask.
    Masked1x64,
    /// `matmul_rows` on a dynamic sequence-length row list.
    Rows,
    /// `sdd` on a Longformer mask.
    Sdd,
    /// `moe_gemm` under skewed top-1 routing.
    Moe,
}

const KINDS: [OpKind; 6] = [
    OpKind::DynRelu,
    OpKind::Masked32x1,
    OpKind::Masked1x64,
    OpKind::Rows,
    OpKind::Sdd,
    OpKind::Moe,
];

/// One round of the stream. ReLU activations come twice: they are the
/// most common dynamic sparsity (every FFN layer), and an odd number of
/// calls per round keeps the median call inside one kind's latency range
/// instead of on the gap between two kinds.
const ROUND: [OpKind; 7] = [
    OpKind::DynRelu,
    OpKind::Masked32x1,
    OpKind::DynRelu,
    OpKind::Masked1x64,
    OpKind::Rows,
    OpKind::Sdd,
    OpKind::Moe,
];

/// `(m, k, n)` of each kind. The three masked kinds get distinct shapes
/// because `Pit`'s JIT cache keys selections by shape.
fn dims(kind: OpKind) -> (usize, usize, usize) {
    match kind {
        OpKind::DynRelu => (512, 512, 256),
        OpKind::Masked32x1 => (512, 768, 256),
        OpKind::Masked1x64 => (768, 512, 256),
        OpKind::Rows => (512, HIDDEN, 256),
        OpKind::Sdd => (SEQ, HEAD, SEQ),
        OpKind::Moe => (512, 256, 256),
    }
}

/// splitmix64: derives independent per-call seeds from the run seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[lo, hi)` from a seed.
fn uniform(seed: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * (mix(seed) >> 11) as f64 / (1u64 << 53) as f64
}

/// Weights shared by every call of a kind (a layer's parameters do not
/// change between calls; its activations and masks do).
struct Weights {
    b: Vec<Tensor>,
    experts: Vec<Tensor>,
}

/// One call's inputs and its reference output.
struct OpInput {
    kind: OpKind,
    a: Tensor,
    /// Second activation operand (`sdd`'s keys).
    a2: Option<Tensor>,
    mask: Option<Mask>,
    rows: Vec<u32>,
    routing: Vec<Vec<usize>>,
    reference: Vec<f32>,
}

impl OpInput {
    /// Activation rows the call serves (its tokens).
    fn tokens(&self) -> usize {
        match self.kind {
            OpKind::Rows => self.rows.len(),
            _ => self.a.shape().dim(0),
        }
    }
}

fn kind_index(kind: OpKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("listed kind")
}

fn weights(seed: u64) -> Weights {
    Weights {
        b: KINDS
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                let (_, k, n) = dims(kind);
                Tensor::random([k, n], mix(seed ^ (0xb0 + i as u64)))
            })
            .collect(),
        experts: (0..EXPERTS)
            .map(|e| {
                let (_, h, f) = dims(OpKind::Moe);
                Tensor::random([h, f], mix(seed ^ (0xe0 + e as u64)))
            })
            .collect(),
    }
}

/// Naive f64 reference of `a·b` over the listed rows (others stay zero),
/// skipping zero activations, and optionally masked on the output.
fn reference_matmul(a: &Tensor, b: &Tensor, rows: &[usize], out_mask: Option<&Mask>) -> Vec<f32> {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let (ad, bd) = (a.data(), b.data());
    let mut out = vec![0.0f32; m * n];
    let mut acc = vec![0.0f64; n];
    for &i in rows {
        acc.iter_mut().for_each(|x| *x = 0.0);
        for kk in 0..k {
            let av = ad[i * k + kk] as f64;
            if av == 0.0 {
                continue;
            }
            for (j, x) in acc.iter_mut().enumerate() {
                *x += av * bd[kk * n + j] as f64;
            }
        }
        for j in 0..n {
            if out_mask.is_none_or(|mk| mk.get(i, j)) {
                out[i * n + j] = acc[j] as f32;
            }
        }
    }
    out
}

/// Generates call `idx` of the stream, the `nth` of `of` calls of its
/// kind. Sparsity and window size are stratified over their ranges (call
/// `nth` draws from the `nth` slice), so every pass covers each range
/// evenly and the seed moves only where in its slice each call lands.
fn gen_input(
    kind: OpKind,
    idx: usize,
    (nth, of): (usize, usize),
    seed: u64,
    w: &Weights,
) -> OpInput {
    let s = mix(seed ^ mix(idx as u64 + 1));
    let stratum = |salt: u64, lo: f64, hi: f64| {
        lo + (hi - lo) * (nth as f64 + uniform(s ^ salt, 0.0, 1.0)) / of as f64
    };
    let (m, k, _) = dims(kind);
    let b = &w.b[kind_index(kind)];
    let all_rows: Vec<usize> = (0..m).collect();
    let mut input = OpInput {
        kind,
        a: Tensor::zeros([1, 1]),
        a2: None,
        mask: None,
        rows: Vec::new(),
        routing: Vec::new(),
        reference: Vec::new(),
    };
    match kind {
        OpKind::DynRelu | OpKind::Masked32x1 | OpKind::Masked1x64 => {
            let sparsity = stratum(1, 0.90, 0.99);
            let mask = match kind {
                OpKind::DynRelu => generate::relu_activation_mask(m, k, sparsity, s),
                OpKind::Masked32x1 => generate::granular_random(m, k, 32, 1, sparsity, s),
                _ => generate::granular_random(m, k, 1, 64, sparsity, s),
            };
            input.a = mask.apply(&Tensor::random([m, k], s ^ 2));
            input.reference = reference_matmul(&input.a, b, &all_rows, None);
            if kind != OpKind::DynRelu {
                input.mask = Some(mask);
            }
        }
        OpKind::Rows => {
            // A padded batch of 16 sequences of up to 32 tokens.
            let max_len = m / 16;
            let lens: Vec<usize> = (0..16)
                .map(|i| 1 + (uniform(s ^ (i + 3), 0.0, max_len as f64) as usize).min(max_len - 1))
                .collect();
            let mask = generate::token_row_mask(&lens, max_len, k);
            let rows = mask.nonzero_rows();
            input.a = mask.apply(&Tensor::random([m, k], s ^ 2));
            input.reference = reference_matmul(&input.a, b, &rows, None);
            input.rows = rows.iter().map(|&r| r as u32).collect();
        }
        OpKind::Sdd => {
            let window = stratum(1, 32.0, 129.0) as usize;
            let globals: Vec<usize> = (0..1 + (mix(s ^ 4) % 4) as usize)
                .map(|g| (mix(s ^ (5 + g as u64)) % SEQ as u64) as usize)
                .collect();
            let mask = generate::longformer_mask(SEQ, window, &globals);
            input.a = Tensor::random([SEQ, HEAD], s ^ 2);
            let keys_t = Tensor::random([HEAD, SEQ], s ^ 3);
            input.reference = reference_matmul(&input.a, &keys_t, &all_rows, Some(&mask));
            input.a2 = Some(keys_t);
            input.mask = Some(mask);
        }
        OpKind::Moe => {
            let plan = generate::RoutingPlan::sample(m, EXPERTS, 1.2, s);
            input.a = Tensor::random([m, k], s ^ 2);
            input.routing = plan.expert_token_lists();
            let n = w.experts[0].shape().dim(1);
            let mut reference = vec![0.0f32; m * n];
            for (e, tokens) in input.routing.iter().enumerate() {
                let part = reference_matmul(&input.a, &w.experts[e], tokens, None);
                for &t in tokens {
                    reference[t * n..(t + 1) * n].copy_from_slice(&part[t * n..(t + 1) * n]);
                }
            }
            input.reference = reference;
        }
    }
    input
}

/// The pass: `ROUNDS_PER_PASS` rounds of `ROUND`.
fn gen_stream(seed: u64, w: &Weights) -> Vec<OpInput> {
    (0..ROUNDS_PER_PASS * ROUND.len())
        .map(|i| {
            let kind = ROUND[i % ROUND.len()];
            let per_round = ROUND.iter().filter(|&&k| k == kind).count();
            let before = ROUND[..i % ROUND.len()]
                .iter()
                .filter(|&&k| k == kind)
                .count();
            let nth = (i / ROUND.len()) * per_round + before;
            gen_input(kind, i, (nth, ROUNDS_PER_PASS * per_round), seed, w)
        })
        .collect()
}

/// What one call returned: its output, modelled device seconds (detection
/// included) and kernel statistics.
struct CallResult {
    tensor: Tensor,
    modelled_s: f64,
    stats: KernelStats,
}

/// The fused call, as a user makes it.
fn call(pit: &Pit, w: &Weights, op: &OpInput) -> Result<CallResult, String> {
    let b = &w.b[kind_index(op.kind)];
    let exec = match op.kind {
        OpKind::DynRelu => pit.matmul_dyn_sparse(&op.a, b, DTYPE),
        OpKind::Masked32x1 | OpKind::Masked1x64 => {
            pit.matmul_masked(&op.a, op.mask.as_ref().expect("masked op"), b, DTYPE)
        }
        OpKind::Sdd => pit.sdd(
            &op.a,
            op.a2.as_ref().expect("sdd keys"),
            op.mask.as_ref().expect("sdd mask"),
            DTYPE,
        ),
        OpKind::Rows | OpKind::Moe => {
            let out = if op.kind == OpKind::Rows {
                pit.matmul_rows(&op.a, &op.rows, b, None, DTYPE)
            } else {
                pit.moe_gemm(&op.a, &w.experts, &op.routing, DTYPE)
            }
            .map_err(|e| format!("{:?}: {e:?}", op.kind))?;
            return Ok(CallResult {
                modelled_s: out.stats.latency_s,
                stats: out.stats,
                tensor: out.tensor,
            });
        }
    }
    .map_err(|e| format!("{:?}: {e:?}", op.kind))?;
    Ok(CallResult {
        modelled_s: exec.total_latency_s(),
        stats: exec.output.stats,
        tensor: exec.output.tensor,
    })
}

/// Largest violation of the output tolerance (≤ 1 passes).
fn tolerance_ratio(got: &Tensor, reference: &[f32]) -> f64 {
    if got.data().len() != reference.len() {
        return f64::INFINITY;
    }
    got.data()
        .iter()
        .zip(reference)
        .map(|(&g, &r)| (g as f64 - r as f64).abs() / (TOL * (1.0 + (r as f64).abs())))
        .fold(0.0, f64::max)
}

struct Setup {
    pit: Pit,
    weights: Weights,
    stream: Vec<OpInput>,
    gen_s: f64,
    tile_db_s: f64,
    total_s: f64,
}

/// Generates the stream and references, profiles the tile database and
/// warms the JIT cache with one call of each kind.
fn setup(seed: u64, out: &mut Outcome) -> Setup {
    let start = Instant::now();
    let weights = weights(seed);
    let stream = gen_stream(seed, &weights);
    let gen_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let pit = Pit::new(DeviceSpec::a100_80gb());
    let tile_db_s = t.elapsed().as_secs_f64();
    for op in &stream[..ROUND.len()] {
        out.attempted += 1;
        match call(&pit, &weights, op) {
            Ok(r) => {
                let ratio = tolerance_ratio(&r.tensor, &op.reference);
                out.check(ratio <= 1.0, || {
                    format!("warm-up {:?}: error {ratio:.3}x tolerance", op.kind)
                });
            }
            Err(e) => out.fail(e),
        }
    }
    Setup {
        pit,
        weights,
        stream,
        gen_s,
        tile_db_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

pub fn run(args: &Args) -> Outcome {
    if args.trace {
        traced(args)
    } else {
        end_to_end(args)
    }
}

fn end_to_end(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    let mut setup_raw = Vec::with_capacity(SETUP_REPEATS);
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        drop(s.take());
        cal.sample();
        let fresh = setup(args.seed, &mut out);
        setup_raw.push(fresh.total_s);
        s = Some(fresh);
    }
    let s = s.expect("set up at least once");

    let start = Instant::now();
    let mut pass_s = Vec::new();
    let mut call_ms = Vec::new();
    let mut modelled: Vec<f64> = Vec::new();
    while pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        cal.sample();
        let first_pass = pass_s.is_empty();
        let mut total = 0.0;
        for (i, op) in s.stream.iter().enumerate() {
            out.attempted += 1;
            let t = Instant::now();
            let result = call(&s.pit, &s.weights, op);
            let dt = t.elapsed().as_secs_f64();
            total += dt;
            call_ms.push(dt * 1e3);
            match result {
                Ok(r) => {
                    let ratio = tolerance_ratio(&r.tensor, &op.reference);
                    out.check(ratio <= 1.0, || {
                        format!("call {i} ({:?}): error {ratio:.3}x tolerance", op.kind)
                    });
                    if first_pass {
                        modelled.push(r.modelled_s);
                    } else {
                        out.check(modelled[i] == r.modelled_s, || {
                            format!("call {i} ({:?}): modelled latency changed", op.kind)
                        });
                    }
                }
                Err(e) => {
                    if first_pass {
                        modelled.push(f64::NAN);
                    }
                    out.fail(e);
                }
            }
        }
        pass_s.push(total);
    }
    cal.sample();
    let speed = cal.factor();
    let replay_s = median(&pass_s) * speed;
    let tokens: usize = s.stream.iter().map(OpInput::tokens).sum();
    eprintln!(
        "pit_ops: {} calls per pass, {} passes in {:.1} s, seed {}; \
         raw host seconds: setup {:.4}, pass {:.4}",
        s.stream.len(),
        pass_s.len(),
        start.elapsed().as_secs_f64(),
        args.seed,
        median(&setup_raw),
        median(&pass_s),
    );
    out.set("setup_s", median(&setup_raw) * speed);
    out.set("replay_s", replay_s);
    out.set("sim_tokens_per_host_s", tokens as f64 / replay_s);
    out.set("op_ms_p50", quantile(&call_ms, 0.5) * speed);
    // The tail of one pass, median over passes: a contention burst on
    // the shared host stretches a few calls of a few passes, and a p99
    // over every call of the run moves by up to ±15% with where those
    // land.
    let pass_p99: Vec<f64> = call_ms
        .chunks(s.stream.len())
        .map(|pass| quantile(pass, 0.99))
        .collect();
    out.set("op_ms_p99", median(&pass_p99) * speed);
    // Modelled metrics of a closed loop with one caller: a call's only
    // result arrives its modelled latency after issue (TTFT), and
    // consecutive results are the next call's latency apart (ITL).
    out.set(
        "model_tokens_per_s",
        tokens as f64 / modelled.iter().sum::<f64>(),
    );
    out.set("model_ttft_p50_s", quantile(&modelled, 0.5));
    out.set("model_ttft_p99_s", quantile(&modelled, 0.99));
    out.set("model_itl_p50_s", quantile(&modelled[1..], 0.5));
    out.set("model_itl_p99_s", quantile(&modelled[1..], 0.99));
    out.set("model_op_us_p50", quantile(&modelled, 0.5) * 1e6);
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

/// Tracer-side state of the split-up calls.
struct Split<'a> {
    pit: &'a Pit,
    weights: &'a Weights,
    cache: JitCache,
    tr: &'a mut Tracer,
    sread_bytes: f64,
    swrite_bytes: f64,
}

impl Split<'_> {
    /// Runs `op` as the public calls `Pit` makes for it, one span each,
    /// plus a single-threaded detection and an SRead/SWrite round trip
    /// over its active rows measured beside them.
    fn call(&mut self, idx: u64, op: &OpInput) -> Result<Tensor, String> {
        let cost = self.pit.cost();
        let db = self.pit.tile_db();
        let b = &self.weights.b[kind_index(op.kind)];
        let (m, k, n) = (op.a.shape().dim(0), op.a.shape().dim(1), b.shape().dim(1));
        let tc = DTYPE.tensor_core_eligible();
        let err = |e| format!("{:?} split: {e:?}", op.kind);
        let tensor = match op.kind {
            OpKind::DynRelu | OpKind::Masked32x1 | OpKind::Masked1x64 => {
                let derived;
                let mask = match &op.mask {
                    Some(mk) => mk,
                    None => {
                        derived = self
                            .tr
                            .time("core.mask_from_values", idx, || Mask::from_tensor(&op.a));
                        &derived
                    }
                };
                let key = KernelKey {
                    op: "spmm",
                    dims: [m, k, n],
                    dtype: DTYPE,
                };
                let cache = &self.cache;
                let selection = self.tr.time("core.select", idx, || {
                    cache.get_or_select(key, || {
                        select_kernel(cost, db, std::slice::from_ref(mask), n, DTYPE)
                    })
                });
                match selection.rule {
                    None => {
                        self.tr
                            .time("core.kernel", idx, || {
                                cublas::gemm(cost, db, &op.a, b, DTYPE)
                            })
                            .map_err(err)?
                            .tensor
                    }
                    Some(rule) => {
                        let index = self.tr.time("core.detect", idx, || {
                            detect_mask(cost, mask, rule.micro, DETECT_THREADS)
                        });
                        black_box(self.tr.time("core.detect_1t", idx, || {
                            detect_mask(cost, mask, rule.micro, 1)
                        }));
                        match rule.axis {
                            MatmulAxis::M => {
                                let rows = index.nonzero_grid_rows();
                                self.tr
                                    .time("core.kernel", idx, || {
                                        kernels::spmm_m_axis(
                                            cost, &op.a, b, &rows, rule.tile, DTYPE,
                                        )
                                    })
                                    .map_err(err)?
                                    .tensor
                            }
                            MatmulAxis::K if rule.micro.h == 1 => {
                                let out = self
                                    .tr
                                    .time("core.kernel", idx, || pit::tensor::ops::matmul(&op.a, b))
                                    .map_err(err)?;
                                black_box(kernels::spmm_segment_cost(
                                    cost,
                                    m,
                                    n,
                                    mask.nnz(),
                                    rule.micro.w as f64,
                                    DTYPE,
                                ));
                                out
                            }
                            MatmulAxis::K => {
                                self.tr
                                    .time("core.kernel", idx, || {
                                        kernels::spmm_k_axis(
                                            cost, &op.a, b, &index, rule.tile, DTYPE,
                                        )
                                    })
                                    .map_err(err)?
                                    .tensor
                            }
                            MatmulAxis::N => return Err("A-sparse selection picked N".into()),
                        }
                    }
                }
            }
            OpKind::Rows => {
                let tile = self.tr.time("core.select", idx, || {
                    db.best_dense_tile(cost, op.rows.len().max(1), k, n, tc)
                        .dims
                });
                self.tr
                    .time("core.kernel", idx, || {
                        kernels::spmm_m_axis(cost, &op.a, b, &op.rows, tile, DTYPE)
                    })
                    .map_err(err)?
                    .tensor
            }
            OpKind::Sdd => {
                let keys = op.a2.as_ref().expect("sdd keys");
                let mask = op.mask.as_ref().expect("sdd mask");
                let n = keys.shape().dim(1);
                let tile = self.tr.time("core.select", idx, || {
                    db.best_dense_tile(cost, m, k, n.min(64), tc).dims
                });
                self.tr
                    .time("core.kernel", idx, || {
                        kernels::sdd_m_axis(cost, &op.a, keys, mask, tile, DTYPE)
                    })
                    .map_err(err)?
                    .tensor
            }
            OpKind::Moe => {
                let experts = &self.weights.experts;
                let f = experts[0].shape().dim(1);
                let max_cnt = op.routing.iter().map(Vec::len).max().unwrap_or(0);
                let tile = self.tr.time("core.select", idx, || {
                    db.best_dense_tile(cost, max_cnt.max(1), k, f, tc).dims
                });
                self.tr
                    .time("core.kernel", idx, || {
                        kernels::moe_gemm(cost, &op.a, experts, &op.routing, tile, DTYPE)
                    })
                    .map_err(err)?
                    .tensor
            }
        };
        self.sread_swrite(idx, op, &tensor);
        Ok(tensor)
    }

    /// SRead of the call's active activation rows and SWrite of the same
    /// output rows into a fresh buffer, timed as their own spans.
    fn sread_swrite(&mut self, idx: u64, op: &OpInput, output: &Tensor) {
        let rows: Vec<u32> = match op.kind {
            OpKind::Rows => op.rows.clone(),
            OpKind::Moe => op.routing.iter().flatten().map(|&t| t as u32).collect(),
            _ => (0..op.a.shape().dim(0) as u32)
                .filter(|&r| {
                    let cols = op.a.shape().dim(1);
                    op.a.data()[r as usize * cols..(r as usize + 1) * cols]
                        .iter()
                        .any(|&v| v != 0.0)
                })
                .collect(),
        };
        let packed = self.tr.time("core.sread", idx, || sread_rows(&op.a, &rows));
        self.sread_bytes += (packed.numel() * 4) as f64;
        let tile = sread_rows(output, &rows);
        let mut dst = Tensor::zeros(output.shape().clone());
        self.tr
            .time("core.swrite", idx, || swrite_rows(&tile, &rows, &mut dst));
        self.swrite_bytes += (tile.numel() * 4) as f64;
        black_box((packed, dst));
    }
}

fn traced(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let s = setup(args.seed, &mut out);

    // Fused baseline pass: the outputs the split-up calls must reproduce.
    let mut fused = Vec::with_capacity(s.stream.len());
    let mut executed = 0.0;
    let mut useful = 0.0;
    for op in &s.stream {
        out.attempted += 1;
        match call(&s.pit, &s.weights, op) {
            Ok(r) => {
                executed += r.stats.flops_executed;
                useful += r.stats.flops_useful;
                fused.push(Some(r.tensor));
            }
            Err(e) => {
                out.fail(e);
                fused.push(None);
            }
        }
    }

    let mut tr = Tracer::new();
    let mut split = Split {
        pit: &s.pit,
        weights: &s.weights,
        cache: JitCache::new(),
        tr: &mut tr,
        sread_bytes: 0.0,
        swrite_bytes: 0.0,
    };
    let refeed_start = Instant::now();
    let mut passes = 0;
    while passes == 0 || (passes < 20 && refeed_start.elapsed().as_secs_f64() < args.seconds) {
        for (i, op) in s.stream.iter().enumerate() {
            out.attempted += 1;
            let id = split.tr.begin("pit_ops.call", i as u64);
            let got = split.call(i as u64, op);
            split.tr.end(id);
            match (got, &fused[i]) {
                (Ok(t), Some(f)) => {
                    let same = t.shape() == f.shape()
                        && t.data()
                            .iter()
                            .zip(f.data())
                            .all(|(x, y)| x.to_bits() == y.to_bits());
                    out.check(same, || {
                        format!(
                            "call {i} ({:?}): split-up output differs from fused",
                            op.kind
                        )
                    });
                }
                (Err(e), _) => out.fail(e),
                (Ok(_), None) => {}
            }
        }
        passes += 1;
    }
    let (sread_bytes, swrite_bytes) = (split.sread_bytes, split.swrite_bytes);
    let cache = std::mem::take(&mut split.cache);
    drop(split);

    let us =
        |layer: &str| -> Vec<f64> { tr.durations_ns(layer).iter().map(|ns| ns / 1e3).collect() };
    let detect = us("core.detect");
    out.set("core.detect_us_p50", quantile(&detect, 0.5));
    out.set("core.detect_us_p99", quantile(&detect, 0.99));
    out.set(
        "core.detect_1t_us_p50",
        quantile(&us("core.detect_1t"), 0.5),
    );
    let select = us("core.select");
    out.set(
        "core.select_us",
        select.iter().sum::<f64>() / select.len().max(1) as f64,
    );
    out.set("core.jit_hit_rate", cache.hit_rate());
    out.set("core.kernel_us_p50", quantile(&us("core.kernel"), 0.5));
    out.set(
        "core.sread_gbps",
        sread_bytes / tr.total_s("core.sread") / 1e9,
    );
    out.set(
        "core.swrite_gbps",
        swrite_bytes / tr.total_s("core.swrite") / 1e9,
    );
    out.set("core.coverage_waste", executed / useful);
    out.set("core.tile_db_profile_s", s.tile_db_s);
    out.set("workloads.trace_gen_s", s.gen_s);
    out.set(
        "bench.trace_overhead_s",
        tr.len() as f64 / passes as f64 * Tracer::empty_span_cost_s(),
    );
    match tr.write_out("pit_ops", args.seed) {
        Ok(path) => eprintln!("wrote {} spans to {path}", tr.len()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    eprintln!(
        "pit_ops traced run: {} calls per pass, {passes} split-up passes, {:.1} s",
        s.stream.len(),
        start.elapsed().as_secs_f64()
    );
    out
}
