//! The two decode-serving workloads.
//!
//! `decode_dense` replays a Poisson MNLI trace through continuous
//! padding-free batching with dense KV and no observation: step pricing
//! dominates and the prefix, swap and observation layers are bypassed.
//! `prefix_swap_observed` replays bursty shared-prefix traffic with prefix
//! caching, swap-to-host preemption, heavy-hitter KV sparsity, a tight
//! pool and per-iteration invariant checks, observed through an enabled
//! sink, tail exemplars and a live hub: the KV, prefix, swap and trace
//! layers all do their work. Both run OPT-1.3B on the modelled A100.
//!
//! The traced run measures the layers from outside: it rebuilds every
//! step's `StepShape` from the trace and prices it again, replays the KV /
//! prefix / swap operations the trace implies into fresh instances, and
//! re-feeds the recorded stream into a fresh sink, the span reducers,
//! an exemplar reservoir and a fresh hub.

use crate::calib::Calibrator;
use crate::metrics::{median, peak_rss_mb, quantile, Outcome};
use crate::spans::Tracer;
use crate::Args;
use pit::core::ops::Pit;
use pit::kv::{KvConfig, KvError, PageId, PagedKvCache};
use pit::models::decode::{run_step, DecodeSlot, StepShape};
use pit::models::{Engine, Framework};
use pit::prefix::{PrefixMatch, RadixPrefixIndex};
use pit::serve::decode::{
    simulate_decode_trace, simulate_decode_trace_observed, simulate_decode_trace_traced,
    DecodePolicy, DecodeServeConfig, KvSparsityPolicy, PreemptPolicy,
};
use pit::serve::DecodeReport;
use pit::swap::{plan_swap_out, PageDesc, SwapEngine};
use pit::trace::{
    blame_spans, reduce_spans, BlameAggregate, BreakdownSummary, ExemplarReservoir, MetricsHub,
    TraceEvent, TraceRecord, TraceSink, RESERVED_LANES,
};
use pit::workloads::{ArrivalTrace, DatasetSpec, DecodeSpec, DecodeTrace, SharedPrefixSpec};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

#[derive(Clone, Copy, PartialEq)]
pub enum Kind {
    Dense,
    PrefixSwapObserved,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Dense => "decode_dense",
            Kind::PrefixSwapObserved => "prefix_swap_observed",
        }
    }
}

/// `decode_dense`: requests and Poisson rate. 50 rps loads OPT-1.3B at a
/// 128-row budget to about 80% of the modelled device, so the queue stays
/// bounded and the p99 TTFT is a property of the load, not of one burst.
const DENSE_REQUESTS: usize = 4000;
const DENSE_RATE_RPS: f64 = 50.0;
/// `prefix_swap_observed`: requests, burst rate and on/off phase means.
/// Short 800 rps bursts (400 rps on average, about 6x what the pool
/// serves) bring the 2000 requests in within ~5 s, so a backlog builds
/// and TTFT is set by total work and throughput rather than by where the
/// bursts land (with fewer, longer bursts it swings by ±10% between
/// seeds). The device pool is tight enough to preempt and swap. The
/// sparsity window (256 recent + 64 heavy tokens) leaves decode growth
/// enough room to force swap-outs without collapsing the prefix hit rate.
const PSO_REQUESTS: usize = 2000;
const PSO_BURST_RPS: f64 = 800.0;
const PSO_ON_S: f64 = 0.1;
const PSO_OFF_S: f64 = 0.1;
const PSO_KV_PAGES: usize = 640;
/// Tail exemplars kept per metric by the observed replay.
const EXEMPLAR_K: usize = 4;

/// Set-ups per end-to-end run (`setup_s` is their median).
const SETUP_REPEATS: usize = 3;
/// Fewest timed replays per end-to-end run, whatever `--seconds` says.
const MIN_REPLAYS: usize = 5;
/// Rounds of the traced run (an untraced replay, an observed replay and a
/// re-feed pass each): at least the first, more while `--seconds` allows.
const TRACED_ROUNDS: (usize, usize) = (2, 4);
/// One `kv.op` span per this many KV calls (the calls in between run
/// unspanned; the layer's total is the sampled total times this stride).
const KV_SPAN_EVERY: u64 = 8;

fn trace_for(kind: Kind, seed: u64) -> DecodeTrace {
    match kind {
        Kind::Dense => DecodeTrace::poisson(
            &DatasetSpec::mnli(),
            &DecodeSpec::geometric(128.0, 1, 512),
            DENSE_REQUESTS,
            DENSE_RATE_RPS,
            seed,
        ),
        Kind::PrefixSwapObserved => {
            let arrivals = ArrivalTrace::bursty(
                &DatasetSpec::mnli(),
                PSO_REQUESTS,
                PSO_BURST_RPS,
                PSO_ON_S,
                PSO_OFF_S,
                seed,
            );
            SharedPrefixSpec::assistants().decode_trace(
                &DecodeSpec::geometric(96.0, 1, 384),
                arrivals.arrival_s,
                seed,
            )
        }
    }
}

fn config_for(kind: Kind) -> DecodeServeConfig {
    let base = DecodeServeConfig::builder(
        pit::models::ModelConfig::opt("1.3B"),
        pit::gpusim::DeviceSpec::a100_80gb(),
    )
    .policy(DecodePolicy::ContinuousPaddingFree { token_budget: 128 });
    match kind {
        Kind::Dense => base,
        Kind::PrefixSwapObserved => base
            .kv_pages(PSO_KV_PAGES)
            .prefix_caching(true)
            .preempt(PreemptPolicy::SwapToHost)
            .kv_sparsity(KvSparsityPolicy::HeavyHitter {
                recent: 256,
                heavy: 64,
            })
            .verify_invariants(true),
    }
    .build()
    .expect("benchmark decode config is valid")
}

/// Inputs and references one set-up produces.
struct Setup {
    trace: DecodeTrace,
    cfg: DecodeServeConfig,
    /// The warm-up replay: traced on `decode_dense` (its step records give
    /// the modelled per-step latency), untraced on `prefix_swap_observed`
    /// (the reference the observed replays must reproduce).
    warmup: DecodeReport,
    warmup_records: Vec<TraceRecord>,
    trace_gen_s: f64,
    tile_db_s: f64,
    total_s: f64,
}

fn setup(kind: Kind, seed: u64) -> Setup {
    let start = Instant::now();
    let trace = trace_for(kind, seed);
    let trace_gen_s = start.elapsed().as_secs_f64();
    let cfg = config_for(kind);
    let t = Instant::now();
    black_box(Pit::new(cfg.device().clone()));
    let tile_db_s = t.elapsed().as_secs_f64();
    let (warmup, warmup_records) = match kind {
        Kind::Dense => {
            let sink = TraceSink::enabled();
            let r = simulate_decode_trace_traced(&cfg, &trace, &sink);
            (r, sink.drain())
        }
        Kind::PrefixSwapObserved => (simulate_decode_trace(&cfg, &trace), Vec::new()),
    };
    Setup {
        trace,
        cfg,
        warmup,
        warmup_records,
        trace_gen_s,
        tile_db_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// One replay as the workload runs it, timed from the call to its
/// return. `observed` selects the sink + exemplars + hub entry point.
/// Returns the report, its host seconds and, if asked, the records.
fn replay(s: &Setup, observed: bool, keep_records: bool) -> (DecodeReport, f64, Vec<TraceRecord>) {
    if !observed {
        let t = Instant::now();
        let r = simulate_decode_trace(&s.cfg, &s.trace);
        return (r, t.elapsed().as_secs_f64(), Vec::new());
    }
    let t = Instant::now();
    let sink = TraceSink::enabled();
    let hub = MetricsHub::with_defaults();
    let (r, exemplars) =
        simulate_decode_trace_observed(&s.cfg, &s.trace, &sink, EXEMPLAR_K, Some(&hub));
    let secs = t.elapsed().as_secs_f64();
    black_box(exemplars);
    let records = if keep_records {
        sink.drain()
    } else {
        Vec::new()
    };
    (r, secs, records)
}

/// Goodput rows every served request owes: its prompt once plus one row
/// per generated token but the last.
fn expected_goodput_rows(t: &DecodeTrace) -> usize {
    t.prompt_lens
        .iter()
        .zip(&t.output_lens)
        .map(|(&p, &o)| p + o.max(1) - 1)
        .sum()
}

/// Per-replay correctness: every request finished and the pool drained
/// with its books balanced. Without prefix caching the goodput rows must
/// also add up to the trace's (a prefix hit on re-admission after a
/// recompute preemption makes the report's row counts inexact; there the
/// generated tokens are counted from the trace records instead, see
/// [`check_generated`]).
fn check_report(out: &mut Outcome, what: &str, r: &DecodeReport, s: &Setup) {
    let t = &s.trace;
    out.check(r.requests == t.len(), || {
        format!("{what}: {} of {} requests finished", r.requests, t.len())
    });
    out.check(r.kv.conserved() && r.kv.live_pages == 0, || {
        format!("{what}: KV pool not conserved: {:?}", r.kv)
    });
    if !s.cfg.prefix_caching() {
        let want = expected_goodput_rows(t);
        out.check(r.real_tokens == want, || {
            format!(
                "{what}: served rows {} != trace total {want}",
                r.real_tokens
            )
        });
    }
}

/// Every request generated exactly its trace output length, counted from
/// the lifecycle records (first tokens, decode steps and re-prefills that
/// complete a preempted context), and finished once.
fn check_generated(out: &mut Outcome, records: &[TraceRecord], t: &DecodeTrace) {
    let mut seqs = SeqProgress::for_trace(t);
    let mut finished = 0usize;
    for r in emission_order(records.to_vec()) {
        let lane = r.lane as usize;
        match r.event {
            TraceEvent::PrefixHit { tokens, .. } => seqs[lane].prefilled = tokens,
            TraceEvent::Preempted { policy } if policy != "swap-to-host" => {
                seqs[lane].prefilled = 0
            }
            TraceEvent::PrefillChunk { tokens } => {
                seqs[lane].land_chunk(tokens);
            }
            TraceEvent::DecodeStep { .. } => seqs[lane].generated += 1,
            TraceEvent::Finished => finished += 1,
            _ => {}
        }
    }
    let generated: usize = seqs.iter().map(|s| s.generated).sum();
    let want: usize = seqs.iter().map(|s| s.target).sum();
    let wrong = seqs.iter().filter(|s| s.generated != s.target).count();
    out.check(wrong == 0 && generated == want, || {
        format!("{wrong} requests generated the wrong token count ({generated} vs {want})")
    });
    out.check(finished == t.len(), || {
        format!("{finished} Finished records for {} requests", t.len())
    });
}

/// Latency distributions and ledger of two replays of the same trace must
/// agree exactly (observation perturbs nothing).
fn same_ledger_and_latency(a: &DecodeReport, b: &DecodeReport) -> bool {
    a.ledger == b.ledger
        && a.ttft == b.ttft
        && a.ttft_hit == b.ttft_hit
        && a.ttft_miss == b.ttft_miss
        && a.itl == b.itl
        && a.e2e == b.e2e
        && a.gpu_time_s == b.gpu_time_s
}

fn step_gpu_s(records: &[TraceRecord]) -> Vec<f64> {
    records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::Step { gpu_s, .. } => Some(gpu_s),
            _ => None,
        })
        .collect()
}

pub fn run(kind: Kind, args: &Args) -> Outcome {
    if args.trace {
        traced(kind, args)
    } else {
        end_to_end(kind, args)
    }
}

fn end_to_end(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut cal = Calibrator::new();
    let mut setup_raw = Vec::with_capacity(SETUP_REPEATS);
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        drop(s.take());
        cal.sample();
        let fresh = setup(kind, args.seed);
        setup_raw.push(fresh.total_s);
        s = Some(fresh);
    }
    let mut s = s.expect("set up at least once");
    check_report(&mut out, "warm-up replay", &s.warmup, &s);
    out.attempted += s.trace.len() as u64;

    let observed = kind == Kind::PrefixSwapObserved;
    let start = Instant::now();
    let mut raw = Vec::new();
    let mut per_iter_ms = Vec::new();
    let mut first: Option<(DecodeReport, String)> = None;
    let mut step_records = std::mem::take(&mut s.warmup_records);
    while raw.len() < MIN_REPLAYS || start.elapsed().as_secs_f64() < args.seconds {
        cal.sample();
        let (r, dt, records) = replay(&s, observed, first.is_none() && observed);
        if !records.is_empty() {
            step_records = records;
        }
        out.attempted += s.trace.len() as u64;
        check_report(&mut out, "timed replay", &r, &s);
        // The untraced and observed entry points must agree on what the
        // device did and how long every request waited.
        out.check(same_ledger_and_latency(&r, &s.warmup), || {
            "timed replay: ledger or latency differs from the warm-up replay".into()
        });
        per_iter_ms.push(dt * 1e3 / r.iterations.max(1) as f64);
        raw.push(dt);
        let json = r.to_json();
        match &first {
            None => first = Some((r, json)),
            Some((_, j)) => out.check(*j == json, || {
                "timed replay: report differs from the first replay (non-deterministic)".into()
            }),
        }
    }
    cal.sample();
    let speed = cal.factor();
    let (r, _) = first.expect("at least one replay");
    let replay_s = median(&raw) * speed;
    let tokens = s.trace.total_prompt_tokens() + s.trace.total_output_tokens();
    eprintln!(
        "{}: seed {}, {} requests, {} iterations ({} swap preemptions, {} swap \
         fallbacks, prefix hit rate {:.3}), {} replays in {:.1} s; raw host \
         seconds: setup {:.4}, replay {:.4}",
        kind.name(),
        args.seed,
        s.trace.len(),
        r.iterations,
        r.swap_preemptions,
        r.swap_fallbacks,
        r.prefix_hit_rate(),
        raw.len(),
        start.elapsed().as_secs_f64(),
        median(&setup_raw),
        median(&raw),
    );
    out.set("setup_s", median(&setup_raw) * speed);
    out.set("replay_s", replay_s);
    out.set("sim_tokens_per_host_s", tokens as f64 / replay_s);
    out.set("op_ms_p50", quantile(&per_iter_ms, 0.5) * speed);
    out.set("op_ms_p99", quantile(&per_iter_ms, 0.99) * speed);
    out.set("model_tokens_per_s", r.tokens_per_s());
    out.set("model_ttft_p50_s", r.ttft.p50);
    out.set("model_ttft_p99_s", r.ttft.p99);
    out.set("model_itl_p50_s", r.itl.p50);
    out.set("model_itl_p99_s", r.itl.p99);
    check_generated(&mut out, &step_records, &s.trace);
    let steps = step_gpu_s(&step_records);
    out.check(steps.len() == r.iterations, || {
        format!(
            "{} step records for {} iterations",
            steps.len(),
            r.iterations
        )
    });
    out.set("model_op_us_p50", median(&steps) * 1e6);
    out.set("peak_rss_mb", peak_rss_mb());
    out
}

// ---------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------

/// Per-request progress the trace implies, shared by the step-shape
/// rebuild and the KV replay.
#[derive(Clone, Default)]
struct SeqProgress {
    prompt: usize,
    target: usize,
    generated: usize,
    prefilled: usize,
}

impl SeqProgress {
    fn for_trace(t: &DecodeTrace) -> Vec<SeqProgress> {
        t.prompt_lens
            .iter()
            .zip(&t.output_lens)
            .map(|(&prompt, &o)| SeqProgress {
                prompt,
                target: o.max(1),
                ..Default::default()
            })
            .collect()
    }

    /// Lands a prefill chunk; true when it completes the context (the
    /// request then emits a token).
    fn land_chunk(&mut self, c: usize) -> bool {
        self.prefilled += c;
        if self.prefilled >= (self.prompt + self.generated).max(1) {
            self.generated += 1;
            return true;
        }
        false
    }

    fn done(&self) -> bool {
        self.generated >= self.target
    }
}

/// Records in emission order (the sink sorts by time; the scheduler's
/// program order is the global ordinal).
fn emission_order(mut records: Vec<TraceRecord>) -> Vec<TraceRecord> {
    records.sort_by_key(|r| r.ord);
    records
}

/// One step rebuilt from the trace, with what the `Step` record says.
struct RebuiltStep {
    shape: StepShape,
    prefill_rows: usize,
    decode_slots: usize,
    gpu_s: f64,
}

/// Rebuilds every step's `StepShape` from the `Step`, `PrefillChunk`,
/// `DecodeStep`, `PrefixHit` and `Preempted` records.
fn rebuild_steps(records: &[TraceRecord], t: &DecodeTrace) -> Vec<RebuiltStep> {
    let mut seqs = SeqProgress::for_trace(t);
    let mut steps: Vec<RebuiltStep> = Vec::new();
    for r in records {
        let lane = r.lane as usize;
        match &r.event {
            TraceEvent::Step {
                prefill_rows,
                decode_slots,
                gpu_s,
            } => steps.push(RebuiltStep {
                shape: StepShape::default(),
                prefill_rows: *prefill_rows,
                decode_slots: *decode_slots,
                gpu_s: *gpu_s,
            }),
            TraceEvent::PrefixHit { tokens, .. } => seqs[lane].prefilled = *tokens,
            TraceEvent::Preempted { policy } if *policy != "swap-to-host" => {
                seqs[lane].prefilled = 0
            }
            TraceEvent::PrefillChunk { tokens } => {
                let s = &mut seqs[lane];
                let step = steps.last_mut().expect("chunks land after a step");
                step.shape.chunks.push((*tokens, s.prefilled + tokens));
                s.land_chunk(*tokens);
            }
            TraceEvent::DecodeStep { attended, cached } => {
                let step = steps.last_mut().expect("tokens land after a step");
                step.shape.decode.push(DecodeSlot {
                    attended: *attended,
                    cached: *cached,
                });
                seqs[lane].generated += 1;
            }
            _ => {}
        }
    }
    steps
}

/// Prices one step the way the serving loop does: a fresh engine, the
/// PIT index-build charge, the transformer stack, the category tally.
/// (The loop's JIT-search charge on cache misses is left out; the ledger
/// reports it separately.) Returns modelled GPU seconds.
fn price(cfg: &DecodeServeConfig, framework: Framework, shape: &StepShape) -> f64 {
    let mut eng = Engine::new(cfg.device().clone(), cfg.dtype(), framework);
    if framework.is_pit() {
        let rows = shape.rows();
        let index_s = eng.cost().index_append(rows)
            + eng.cost().scan_pass((rows * 4) as f64)
            + eng.cost().index_append(shape.decode_slots());
        eng.host_overhead("pit.index", index_s);
    }
    run_step(&mut eng, cfg.model(), shape);
    black_box(eng.cost_tally());
    eng.latency_ms() / 1e3
}

/// Fresh KV pool, prefix index and swap engine fed the operations the
/// trace implies, with spans around the calls.
struct KvReplay<'a> {
    cfg: &'a DecodeServeConfig,
    trace: &'a DecodeTrace,
    tr: &'a mut Tracer,
    kv: PagedKvCache,
    index: Option<RadixPrefixIndex>,
    swap: Option<SwapEngine>,
    seqs: Vec<SeqProgress>,
    pending_match: BTreeMap<u64, PrefixMatch>,
    pending_swap_out: BTreeMap<u64, Vec<PageId>>,
    /// Swap victims the replay left device-resident (see `divergences`).
    left_resident: BTreeSet<u64>,
    ops: u64,
    /// Operations the replay could not mirror because its prefix-index
    /// history differs from the loop's: prefix hits its index could not
    /// serve (allocated fresh instead) and swap-outs whose victim pages
    /// its index still pins (left resident; the link still carries the
    /// trace's pages).
    divergences: u64,
}

impl<'a> KvReplay<'a> {
    fn new(cfg: &'a DecodeServeConfig, trace: &'a DecodeTrace, tr: &'a mut Tracer) -> Self {
        let base = cfg.kv_config();
        // The loop's pool plus a quarter: like the loop, the replay evicts
        // prefix-index leaves only when an operation needs the frames,
        // but it cannot see when the loop chose to, so its index history
        // drifts; the slack keeps that drift from running it dry.
        let kv_cfg = KvConfig::new(base.page_size, base.num_pages + base.num_pages / 4)
            .with_page_bytes(base.page_bytes)
            .with_host_pages(base.host_pages);
        KvReplay {
            cfg,
            trace,
            tr,
            kv: PagedKvCache::new(kv_cfg),
            index: cfg
                .prefix_caching()
                .then(|| RadixPrefixIndex::new(base.page_size)),
            swap: matches!(cfg.preempt(), PreemptPolicy::SwapToHost)
                .then(|| SwapEngine::new(cfg.device(), base.page_bytes.max(1))),
            seqs: SeqProgress::for_trace(trace),
            pending_match: BTreeMap::new(),
            pending_swap_out: BTreeMap::new(),
            left_resident: BTreeSet::new(),
            ops: 0,
            divergences: 0,
        }
    }

    /// One KV call; every `KV_SPAN_EVERY`-th is spanned.
    fn kv_op<T>(&mut self, req: u64, f: impl FnOnce(&mut PagedKvCache) -> T) -> T {
        let spanned = self.ops.is_multiple_of(KV_SPAN_EVERY);
        self.ops += 1;
        if spanned {
            let id = self.tr.begin("kv.op", req);
            let out = f(&mut self.kv);
            self.tr.end(id);
            out
        } else {
            f(&mut self.kv)
        }
    }

    /// A growing KV call; on running out of device frames, evicts
    /// prefix-index leaves until the call's shortfall is freed (leaves
    /// still shared with live sequences free nothing, so this may drop
    /// more of the index than the loop would) and retries.
    fn kv_grow(
        &mut self,
        req: u64,
        f: impl Fn(&mut PagedKvCache) -> Result<usize, KvError>,
    ) -> Result<usize, String> {
        loop {
            match self.kv_op(req, &f) {
                Ok(n) => return Ok(n),
                Err(KvError::OutOfPages { needed, free })
                    if self.evict_index(req, needed - free) => {}
                Err(e) => return Err(format!("KV replay of seq {req}: {e:?}")),
            }
        }
    }

    /// Releases prefix-index LRU leaves until `want` frames came back or
    /// the index is empty; returns whether any frame came back.
    fn evict_index(&mut self, req: u64, want: usize) -> bool {
        let want = want.max(1);
        let mut freed = 0;
        while freed < want {
            let Some(ix) = self.index.as_mut().filter(|ix| !ix.is_empty()) else {
                break;
            };
            let evicted = self
                .tr
                .time("prefix.evict", req, || ix.evict_lru(want - freed));
            if evicted.is_empty() {
                break;
            }
            freed += self
                .kv_op(req, |kv| kv.release_pages(&evicted))
                .expect("index pages were retained");
        }
        freed > 0
    }

    /// Frees a finished or recompute-preempted sequence.
    fn release(&mut self, id: u64, preempt: bool) -> Result<(), String> {
        self.kv_op(id, |kv| if preempt { kv.preempt(id) } else { kv.free(id) })
            .map(drop)
            .map_err(|e| format!("KV replay free of seq {id}: {e:?}"))
    }

    /// A request emitted a token: grow its context or free it.
    fn token(&mut self, id: u64) -> Result<(), String> {
        if self.seqs[id as usize].done() {
            self.release(id, false)
        } else {
            self.kv_grow(id, |kv| kv.extend(id, 1)).map(drop)
        }
    }

    fn apply(&mut self, r: &TraceRecord) -> Result<(), String> {
        let id = r.lane;
        if id >= RESERVED_LANES {
            if matches!(r.event, TraceEvent::Step { .. }) && self.cfg.verify_invariants() {
                let kv = &self.kv;
                self.tr
                    .time("kv.check_invariants", 0, || kv.check_invariants())
                    .map_err(|e| format!("KV replay invariants: {e}"))?;
                if let Some(ix) = self.index.as_ref() {
                    self.tr
                        .time("prefix.check_invariants", 0, || ix.check_invariants())
                        .map_err(|e| format!("prefix replay invariants: {e}"))?;
                }
            }
            return Ok(());
        }
        let page = self.kv.config().page_size;
        match &r.event {
            TraceEvent::Admitted { .. } => {
                if let Some(ix) = self.index.as_mut() {
                    let prompt = &self.trace.prompt_ids[id as usize];
                    let m = self.tr.time("prefix.match", id, || ix.match_prefix(prompt));
                    self.pending_match.insert(id, m);
                }
            }
            TraceEvent::PrefixHit { pages, tokens } => {
                let m = self.pending_match.remove(&id).unwrap_or(PrefixMatch {
                    pages: Vec::new(),
                    tokens: 0,
                });
                let (pages, tokens) = (*pages, *tokens);
                if m.tokens >= tokens && m.pages.len() >= pages {
                    let shared = m.pages[..pages].to_vec();
                    self.kv_op(id, |kv| kv.alloc_shared(id, &shared, tokens))
                        .map_err(|e| format!("KV replay share for seq {id}: {e:?}"))?;
                } else {
                    self.divergences += 1;
                    self.kv_grow(id, |kv| kv.alloc(id, tokens))?;
                }
                self.seqs[id as usize].prefilled = tokens;
            }
            TraceEvent::PrefillChunk { tokens } => {
                let c = *tokens;
                if self.kv.seq_tokens(id).is_none() {
                    self.kv_grow(id, |kv| kv.alloc(id, c))?;
                } else {
                    self.kv_grow(id, |kv| kv.extend(id, c))?;
                }
                if self.seqs[id as usize].land_chunk(c) {
                    self.publish_prompt(id, page)?;
                    self.token(id)?;
                }
            }
            TraceEvent::DecodeStep { .. } => {
                self.seqs[id as usize].generated += 1;
                self.token(id)?;
            }
            TraceEvent::Finished if self.kv.seq_tokens(id).is_some() => {
                return Err(format!("KV replay: finished seq {id} still holds pages"));
            }
            TraceEvent::Preempted { policy } => {
                if *policy == "swap-to-host" {
                    let descs: Vec<PageDesc> = self
                        .kv
                        .seq_pages(id)
                        .ok_or_else(|| format!("KV replay: swap victim {id} holds no pages"))?
                        .iter()
                        .map(|&p| PageDesc {
                            page: p,
                            refs: self.kv.page_refs(p),
                            ext_refs: self.kv.page_ext_refs(p),
                        })
                        .collect();
                    let plan = self.tr.time("swap.plan", id, || plan_swap_out(&descs));
                    self.pending_swap_out.insert(id, plan);
                } else {
                    self.left_resident.remove(&id);
                    self.release(id, true)?;
                    self.seqs[id as usize].prefilled = 0;
                }
            }
            TraceEvent::SwapOut {
                pages, initiated_s, ..
            } => {
                let plan = self
                    .pending_swap_out
                    .remove(&id)
                    .ok_or_else(|| format!("swap-out of seq {id} without a preemption"))?;
                if plan.len() == *pages {
                    self.kv_op(id, |kv| kv.swap_out(id, &plan))
                        .map_err(|e| format!("KV replay swap-out of seq {id}: {e:?}"))?;
                } else {
                    self.divergences += 1;
                    self.left_resident.insert(id);
                }
                let eng = self.swap.as_mut().expect("swap records need a swap engine");
                self.tr
                    .time("swap.transfer", id, || eng.swap_out(*initiated_s, *pages));
            }
            TraceEvent::SwapIn {
                pages, initiated_s, ..
            } => {
                let moved = if self.left_resident.remove(&id) {
                    *pages
                } else {
                    self.kv_grow(id, |kv| kv.swap_in(id))?
                };
                if moved != *pages {
                    return Err(format!(
                        "swap-in of seq {id}: trace moved {pages} pages, replay {moved}"
                    ));
                }
                let eng = self.swap.as_mut().expect("swap records need a swap engine");
                self.tr
                    .time("swap.transfer", id, || eng.swap_in(*initiated_s, moved));
            }
            TraceEvent::SparsityEvict { pages } => {
                let len = self
                    .kv
                    .seq_tokens(id)
                    .ok_or_else(|| format!("KV replay: evicting seq {id} holds no pages"))?;
                let positions = self.cfg.kv_sparsity().evict_positions(len, page);
                let table = self.kv.seq_pages(id).expect("checked above");
                let victims: Vec<_> = positions.iter().map(|&p| table[p]).collect();
                if victims.len() != *pages {
                    return Err(format!(
                        "sparsity eviction of seq {id}: trace dropped {pages} pages, replay {}",
                        victims.len()
                    ));
                }
                self.kv_op(id, |kv| kv.release_seq_pages(id, &victims))
                    .map_err(|e| format!("KV replay eviction of seq {id}: {e:?}"))?;
            }
            _ => {}
        }
        Ok(())
    }

    /// A completed prefill publishes its whole-page prompt to the index.
    fn publish_prompt(&mut self, id: u64, page: usize) -> Result<(), String> {
        let Some(ix) = self.index.as_mut() else {
            return Ok(());
        };
        let full = self.seqs[id as usize].prompt / page;
        if full == 0 {
            return Ok(());
        }
        let pages = self.kv.seq_pages(id).expect("prefilled seq holds pages")[..full].to_vec();
        let ids = &self.trace.prompt_ids[id as usize][..full * page];
        let adopted = self.tr.time("prefix.insert", id, || ix.insert(ids, &pages));
        if !adopted.is_empty() {
            self.kv_op(id, |kv| kv.retain_pages(&adopted))
                .map_err(|e| format!("KV replay retain for seq {id}: {e:?}"))?;
        }
        Ok(())
    }

    /// Drains the index and checks the pool's books balance.
    fn finish(mut self) -> Result<KvReplayResult, String> {
        if let Some(mut ix) = self.index.take() {
            let held = ix.drain_all();
            if !held.is_empty() {
                self.kv_op(0, |kv| kv.release_pages(&held))
                    .map_err(|e| format!("KV replay index drain: {e:?}"))?;
            }
        }
        let stats = self.kv.stats();
        if !(stats.conserved() && stats.live_pages == 0) {
            return Err(format!("KV replay did not drain: {stats:?}"));
        }
        Ok(KvReplayResult {
            ops: self.ops,
            swap: self.swap.map(|e| e.stats()),
            divergences: self.divergences,
        })
    }
}

struct KvReplayResult {
    ops: u64,
    swap: Option<pit::swap::SwapStats>,
    divergences: u64,
}

/// Re-feeds the recorded stream into a fresh sink, the span reducers, an
/// exemplar reservoir and a fresh hub, one span around each.
fn refeed_trace_layer(tr: &mut Tracer, records: &[TraceRecord]) {
    let sink = TraceSink::enabled();
    tr.time("trace.sink", 0, || {
        for r in records {
            sink.record(r.t_s, r.lane, r.event.clone());
        }
    });
    let hub = MetricsHub::with_defaults();
    tr.time("trace.hub", 0, || {
        for r in records {
            hub.on_record(r.t_s, r.lane, &r.event);
        }
        hub.finish();
    });
    tr.time("trace.exemplar", 0, || {
        let mut reservoir = ExemplarReservoir::new(EXEMPLAR_K);
        let mut timelines: BTreeMap<u64, Vec<TraceRecord>> = BTreeMap::new();
        for r in records.iter().filter(|r| r.lane < RESERVED_LANES) {
            timelines.entry(r.lane).or_default().push(r.clone());
            if matches!(r.event, TraceEvent::Finished) {
                let timeline = timelines.remove(&r.lane).expect("pushed above");
                reservoir.offer(r.lane, &timeline);
            }
        }
        black_box(reservoir.finish());
    });
    let drained = sink.drain();
    tr.time("trace.reduce", 0, || {
        let spans = reduce_spans(&drained);
        black_box(BreakdownSummary::of(&spans));
        let mut agg = BlameAggregate::new();
        agg.fold_spans(&blame_spans(&drained));
        black_box(agg.summary());
    });
    black_box(tr.time("trace.render", 0, || hub.render()));
}

fn traced(kind: Kind, args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let s = setup(kind, args.seed);
    check_report(&mut out, "warm-up replay", &s.warmup, &s);
    out.attempted += s.trace.len() as u64;

    // The records every re-feed pass replays, from one observed replay.
    let (report, _, recs) = replay(&s, true, true);
    out.attempted += s.trace.len() as u64;
    check_report(&mut out, "observed replay", &report, &s);
    check_generated(&mut out, &recs, &s.trace);
    let records = emission_order(recs);

    let framework = s.cfg.policy().framework();
    let steps = rebuild_steps(&records, &s.trace);
    let mut shape_errors = 0;
    for (k, st) in steps.iter().enumerate() {
        if st.shape.chunk_tokens() != st.prefill_rows || st.shape.decode_slots() != st.decode_slots
        {
            shape_errors += 1;
            if shape_errors <= 3 {
                eprintln!(
                    "step {k}: rebuilt {} chunk rows / {} slots, trace {} / {}",
                    st.shape.chunk_tokens(),
                    st.shape.decode_slots(),
                    st.prefill_rows,
                    st.decode_slots
                );
            }
        }
    }
    out.check(shape_errors == 0, || {
        format!("{shape_errors} rebuilt step shapes disagree with their Step records")
    });
    out.check(steps.len() == report.iterations, || {
        format!(
            "rebuilt {} steps, report has {} iterations",
            steps.len(),
            report.iterations
        )
    });

    // Rounds: an untraced replay, an observed replay, then one re-feed
    // pass of every layer, so each pass is timed next to the replays it
    // is compared with.
    let mut tr = Tracer::new();
    let mut untraced_s = Vec::new();
    let mut observed_s = Vec::new();
    let mut pass_children_s = Vec::new();
    let mut pass_price_s = Vec::new();
    let mut kv_result = None;
    let rounds_start = Instant::now();
    let mut round = 0;
    while round < TRACED_ROUNDS.0
        || (round < TRACED_ROUNDS.1 && rounds_start.elapsed().as_secs_f64() < args.seconds)
    {
        let (u, du, _) = replay(&s, false, false);
        let (o, dobs, _) = replay(&s, true, false);
        out.attempted += 2 * s.trace.len() as u64;
        check_report(&mut out, "untraced replay", &u, &s);
        check_report(&mut out, "observed replay", &o, &s);
        out.check(same_ledger_and_latency(&u, &o), || {
            "observed replay's ledger or latency differs from the untraced replay's".into()
        });
        untraced_s.push(du);
        observed_s.push(dobs);

        let before = tr.len();
        let pass_id = tr.begin("bench.refeed_pass", round as u64);
        let mut priced_gpu_s = 0.0;
        for (k, st) in steps.iter().enumerate() {
            priced_gpu_s += tr.time("models.price", k as u64, || {
                price(&s.cfg, framework, &st.shape)
            });
        }
        let mut kv = KvReplay::new(&s.cfg, &s.trace, &mut tr);
        let mut kv_error = None;
        for r in &records {
            if let Err(e) = kv.apply(r) {
                kv_error = Some(e);
                break;
            }
        }
        let result = match kv_error {
            Some(e) => Err(e),
            None => kv.finish(),
        };
        refeed_trace_layer(&mut tr, &records);
        tr.end(pass_id);

        if round == 0 {
            // Fidelity: the re-priced steps add up to the loop's device
            // time once the loop's modelled JIT-search charges are added.
            let traced_gpu_s: f64 = steps.iter().map(|st| st.gpu_s).sum();
            let jit_s = report.ledger.jit_search_ps as f64 / 1e12;
            let gap = (traced_gpu_s - (priced_gpu_s + jit_s)).abs();
            eprintln!(
                "re-priced {} steps: {priced_gpu_s:.6} s + JIT search {jit_s:.6} s \
                 vs traced {traced_gpu_s:.6} s",
                steps.len()
            );
            out.check(gap <= 1e-9 * traced_gpu_s.max(1.0) + 1e-6, || {
                format!("re-priced device time misses the trace's by {gap:.3e} s")
            });
            match result {
                Ok(r) => kv_result = Some(r),
                Err(e) => out.fail(e),
            }
        }
        // Child time of this pass, from its own spans.
        let pass_spans = tr.spans_since(before);
        let sum = |layer: &str| -> f64 {
            pass_spans
                .iter()
                .filter(|sp| sp.layer == layer)
                .map(|sp| sp.dur_ns())
                .sum::<f64>()
                / 1e9
        };
        let price_s = sum("models.price");
        let mut children = price_s
            + sum("kv.op") * KV_SPAN_EVERY as f64
            + sum("kv.check_invariants")
            + sum("prefix.match")
            + sum("prefix.insert")
            + sum("prefix.evict")
            + sum("prefix.check_invariants")
            + sum("swap.plan")
            + sum("swap.transfer");
        if kind == Kind::PrefixSwapObserved {
            // The observed loop records, publishes, keeps exemplars and
            // reduces spans itself; the untraced loop does none of it.
            children +=
                sum("trace.sink") + sum("trace.hub") + sum("trace.exemplar") + sum("trace.reduce");
        }
        pass_children_s.push(children);
        pass_price_s.push(price_s);
        round += 1;
    }

    // Accounting uses the fastest replay and the fastest pass: on a
    // shared host the minimum is the least-disturbed estimate of each.
    // The check allows the replays' own spread in this run as noise: the
    // children of the fastest pass must fit in the slowest replay.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let replays = match kind {
        Kind::Dense => &untraced_s,
        Kind::PrefixSwapObserved => &observed_s,
    };
    let replay_s = fastest(replays);
    let slowest_s = replays.iter().copied().fold(0.0, f64::max);
    let children_s = fastest(&pass_children_s);
    out.check(children_s <= slowest_s, || {
        format!(
            "measured child time {children_s:.4} s exceeds every replay \
             ({replay_s:.4}..{slowest_s:.4} s)"
        )
    });
    let n_steps = steps.len().max(1) as f64;
    let price_us: Vec<f64> = tr
        .durations_ns("models.price")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    out.set("models.price_step_us_p50", quantile(&price_us, 0.5));
    out.set("models.price_step_us_p99", quantile(&price_us, 0.99));
    out.set("models.price_share", fastest(&pass_price_s) / replay_s);
    out.set("models.steps", steps.len() as f64);
    out.set(
        "serve.self_us_per_step",
        (replay_s - children_s) / n_steps * 1e6,
    );
    let mut by_policy: BTreeMap<&str, usize> = BTreeMap::new();
    for r in &records {
        if let TraceEvent::Preempted { policy } = r.event {
            *by_policy.entry(policy).or_default() += 1;
        }
    }
    eprintln!("preemptions by policy: {by_policy:?}");
    out.set(
        "serve.preemptions",
        by_policy.values().sum::<usize>() as f64,
    );
    out.set("serve.jit_hit_rate", report.cache.hit_rate());
    out.set("serve.prefix_hit_rate", report.prefix_hit_rate());

    if let Some(kvr) = &kv_result {
        out.set("kv.ops", kvr.ops as f64);
        eprintln!(
            "KV replay: {} operations, {} not mirrored exactly (prefix-index history differs)",
            kvr.ops, kvr.divergences
        );
        match (&kvr.swap, &report.swap) {
            (Some(mine), Some(theirs)) => {
                out.check(
                    mine.out_pages == theirs.out_pages
                        && mine.in_pages == theirs.in_pages
                        && mine.out_transfers == theirs.out_transfers
                        && mine.in_transfers == theirs.in_transfers,
                    || format!("swap replay {mine:?} differs from the loop's {theirs:?}"),
                );
                let ((_, d2h_s), (_, h2d_s)) = mine.link_counters();
                out.set(
                    "swap.transfers",
                    (mine.out_transfers + mine.in_transfers) as f64,
                );
                out.set("swap.pages", (mine.out_pages + mine.in_pages) as f64);
                out.set("swap.link_busy_s", d2h_s + h2d_s);
            }
            (None, None) => {}
            _ => out.fail("swap engine present on only one side".into()),
        }
    }
    let kv_ns = tr.durations_ns("kv.op");
    out.set("kv.op_ns_p50", quantile(&kv_ns, 0.5));
    out.set("kv.op_ns_p99", quantile(&kv_ns, 0.99));
    out.set(
        "kv.check_invariants_us",
        median(&tr.durations_ns("kv.check_invariants")) / 1e3,
    );
    let match_us: Vec<f64> = tr
        .durations_ns("prefix.match")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    out.set("prefix.match_us_p50", quantile(&match_us, 0.5));
    out.set("prefix.match_us_p99", quantile(&match_us, 0.99));
    if let Some(p) = &report.prefix {
        out.set("prefix.pages_held", p.pages_held as f64);
    }

    let n_rec = records.len().max(1) as f64;
    let per_pass = |layer: &str| median(&tr.durations_ns(layer)) / 1e9;
    out.set("trace.records", records.len() as f64);
    out.set("trace.record_ns", per_pass("trace.sink") * 1e9 / n_rec);
    out.set("trace.reduce_s", per_pass("trace.reduce"));
    out.set("trace.exemplar_s", per_pass("trace.exemplar"));
    out.set(
        "trace.hub_ns_per_record",
        per_pass("trace.hub") * 1e9 / n_rec,
    );
    out.set("trace.render_us", per_pass("trace.render") * 1e6);
    out.set(
        "trace.observe_overhead",
        median(&observed_s) / median(&untraced_s),
    );
    out.set("core.tile_db_profile_s", s.tile_db_s);
    out.set("workloads.trace_gen_s", s.trace_gen_s);
    out.set(
        "bench.trace_overhead_s",
        tr.len() as f64 / round as f64 * Tracer::empty_span_cost_s(),
    );
    match tr.write_out(kind.name(), args.seed) {
        Ok(path) => eprintln!("wrote {} spans to {path}", tr.len()),
        Err(e) => eprintln!("could not write spans: {e}"),
    }
    eprintln!(
        "{} traced run: {} steps, {} records, {round} rounds, {:.1} s",
        kind.name(),
        steps.len(),
        records.len(),
        start.elapsed().as_secs_f64()
    );
    out
}
