//! The traced run: one pass per workload that times the calls into each
//! layer's public functions from outside the program and turns the spans
//! into the per-layer ledger.
//!
//! The pass first runs one untraced repetition (its `SweepResult` gives
//! the scheduler, transport-ladder, cache and gather figures and the
//! counted flops of the real sweep), then drives the same seeded inputs
//! serially through the calls a point makes, in order:
//!
//! 1. `Device::at_kz` once per momentum (and gate profile);
//! 2. `SigmaCache::self_energy` per side, and on a miss a cacheless
//!    `qtx_obc::self_energy` for the bare solve, so that
//!    `cache.insert_us` = miss − solve;
//! 3. `transport::solve_with_obc`, with the `qtx_solver` call timed
//!    again on an identically built `ObcSystem`;
//! 4. for `resonance_refine`, `sweep_refined` as a single span followed
//!    by `checkpoint::save`/`load` of its records.
//!
//! Each call records a span (name, start, end, parent, point id) in
//! memory; the spans are written to a JSON-lines file when the pass ends.
//! A span's self time is its duration minus its children's. Flops are
//! `qtx_linalg::flops_total` deltas (exact: the walk is serial) and peak
//! bytes come from the calling thread's `ZMat` ledger.
//!
//! `trace.unattributed_frac` is the share of the point spans that no
//! child span covers. `trace.overhead_frac` compares the walk with the
//! untraced sweep: the traced per-point work, without the duplicated
//! calls (the bare OBC solve and the second solver call), over the
//! sweep's Σ `wall_ms`, minus 1. The walk is serial and the sweep runs
//! on every core, so contention alone makes it negative.
//!
//! `linalg.ceiling_frac` is the sweep's counted flop rate over
//! `workers ×` the single-thread zgemm rate at the workload's block size,
//! measured in the same process just before the sweep.

use crate::measure::{median, zgemm_gflops, Metric};
use crate::workloads::{self, RefineTarget, Rep, Setup, Tally, Workload};
use qtx_core::transport::solve_with_obc;
use qtx_core::{checkpoint, refined_fingerprint, DeviceK, Scheduler, SigmaCache, TransportConfig};
use qtx_linalg::{alloc_count, flops_total, live_bytes, peak_bytes, reset_peak_bytes, Workspace};
use qtx_machine::DeadlineModel;
use qtx_obc::{Eta, ObcResult, Side};
use qtx_solver::{bcr_solve, btd_lu_solve_ws, ObcSystem, SolverKind, SplitSolve};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded call.
struct Span {
    name: &'static str,
    start: f64,
    end: f64,
    parent: Option<usize>,
    point: Option<u32>,
    flops: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end - self.start) * 1e3
    }
}

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, point: Option<u32>) -> usize {
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { name, start, end: start, parent, point, flops: flops_total() });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        let s = &mut self.spans[id];
        s.end = self.epoch.elapsed().as_secs_f64();
        s.flops = flops_total() - s.flops;
    }

    /// Runs `f` inside a span.
    fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<u32>,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let id = self.open(name, parent, point);
        let r = f();
        self.close(id);
        (id, r)
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Mean duration (ms) of the spans called `name`; 0 when there are none.
    fn mean_ms(&self, name: &str) -> f64 {
        mean(self.named(name).map(Span::ms))
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \
                 \"parent\": {}, \"point\": {}, \"flops\": {}}}",
                s.name,
                s.start,
                s.end,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.point.map_or("null".into(), |p| p.to_string()),
                s.flops
            );
        }
        std::fs::write(path, out)
    }
}

fn median_or_zero(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        median(v)
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = it.fold((0usize, 0.0), |(n, s), x| (n + 1, s + x));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Per-solve counters the spans do not carry.
#[derive(Default)]
struct Counters {
    feast_iterations: Vec<f64>,
    feast_linear_solves: Vec<f64>,
    /// Cache-miss span duration minus its bare solve (ms); its median is
    /// `cache.insert_us`.
    insert_ms: Vec<f64>,
    /// Solver peak `ZMat` bytes above the live footprint, and fresh
    /// allocations, per standalone solve.
    solver_peak_bytes: Vec<f64>,
    solver_allocs: Vec<f64>,
    /// Transport span minus the standalone solver span (ms).
    transport_self_ms: Vec<f64>,
}

/// The Eq. 5 solve `transport::solve_with_obc_eta` runs, with the same
/// partition rule, on a system assembled the same way.
fn solve_system(solver: SolverKind, sys: &ObcSystem, ws: &Workspace) {
    let out = match solver {
        SolverKind::SplitSolve { partitions } => {
            let p = partitions.min(sys.num_blocks().next_power_of_two() / 2).max(1);
            let p = if p.is_power_of_two() { p } else { 1 };
            SplitSolve::new(p.min(sys.num_blocks())).solve_ws(sys, None, ws).map(|r| r.0)
        }
        SolverKind::BtdLu => btd_lu_solve_ws(sys, ws),
        SolverKind::Bcr => bcr_solve(sys),
    };
    std::hint::black_box(out.expect("standalone solve"));
}

/// The serial walk: its spans, its counters, the Σ cache it goes through
/// and the solver workspace it keeps across points (as the transport
/// layer keeps one per thread).
struct Walk {
    tr: Tracer,
    ct: Counters,
    cache: Arc<SigmaCache>,
    ws: Workspace,
    /// Configuration of the device being walked.
    cfg: TransportConfig,
}

impl Walk {
    /// One side's Σ through the cache, plus the bare solve on a miss.
    fn sigma(
        &mut self,
        root: usize,
        point: u32,
        dk: &DeviceK,
        hash: u64,
        e: f64,
        side: Side,
    ) -> ObcResult {
        let (tr, ct, cache, obc) = (&mut self.tr, &mut self.ct, &self.cache, self.cfg.obc);
        let lead = match side {
            Side::Left => &dk.lead_l,
            Side::Right => &dk.lead_r,
        };
        let miss = cache.lookup_exact(hash, e, 0.0, side, obc).is_none();
        let bare = |tr: &mut Tracer, ct: &mut Counters| {
            let (id, solved) = tr.span("obc.self_energy", Some(root), Some(point), || {
                qtx_obc::self_energy(lead, e, Eta::ZERO, side, obc).expect("bare Σ")
            });
            if let Some(st) = solved.stats {
                ct.feast_iterations.push(st.iterations as f64);
                ct.feast_linear_solves.push(st.linear_solves as f64);
            }
            id
        };
        // The bare solve runs before the cache miss on every other point,
        // so that warm-up order does not bias `cache.insert_us`.
        let bare_first = (miss && point % 2 == 1).then(|| bare(tr, ct));
        let name = if miss { "cache.miss" } else { "cache.hit" };
        let (id, r) = tr.span(name, Some(root), Some(point), || {
            cache.self_energy(lead, hash, e, 0.0, side, obc).expect("Σ")
        });
        if miss {
            let b = bare_first.unwrap_or_else(|| bare(tr, ct));
            ct.insert_ms.push(tr.spans[id].ms() - tr.spans[b].ms());
        }
        r
    }

    /// Walks one point through the layers, recording its spans.
    fn point(&mut self, dk: &DeviceK, hashes: (u64, u64), e: f64, point: u32) {
        let cfg = self.cfg;
        let root = self.tr.open("point", None, Some(point));
        let obc_l = self.sigma(root, point, dk, hashes.0, e, Side::Left);
        let obc_r = self.sigma(root, point, dk, hashes.1, e, Side::Right);
        let tr = &mut self.tr;
        let (t_id, res) = tr.span("transport.solve_with_obc", Some(root), Some(point), || {
            solve_with_obc(dk, e, &cfg, &obc_l, &obc_r, None)
        });
        std::hint::black_box(res.expect("transport solve"));
        let sys = ObcSystem {
            a: dk.es_minus_h(e),
            sigma_l: obc_l.sigma.into(),
            sigma_r: obc_r.sigma.into(),
            rhs_top: obc_l.injection,
            rhs_bottom: obc_r.injection,
        };
        reset_peak_bytes();
        let live = live_bytes();
        let allocs = alloc_count();
        let ws = &self.ws;
        let (s_id, ()) =
            tr.span("solver.solve", Some(root), Some(point), || solve_system(cfg.solver, &sys, ws));
        let ct = &mut self.ct;
        ct.solver_allocs.push((alloc_count() - allocs) as f64);
        ct.solver_peak_bytes.push(peak_bytes().saturating_sub(live) as f64);
        ct.transport_self_ms.push(tr.spans[t_id].ms() - tr.spans[s_id].ms());
        tr.close(root);
    }
}

/// Scheduler tasks the sweep's points map to: one per point, or with
/// `Batching::Auto` one per chunk of `DeadlineModel::batch_points`
/// points, doubled by the Σ-prefetch split. For `resonance_refine` this
/// counts the final grid as one pass (a lower bound: rounds split chunks).
fn scheduler_tasks(s: &Setup, rep: &Rep) -> f64 {
    let auto = s.workload == Workload::ResonanceRefine;
    let mut tasks = 0usize;
    for (dev, sweep) in s.devices.iter().zip(&rep.sweeps) {
        let b = dev.block_size();
        let size = if auto { DeadlineModel::default().batch_points(b, dev.n_slabs, b) } else { 1 };
        let mut per_k = std::collections::BTreeMap::new();
        for r in &sweep.records {
            *per_k.entry(r.k_idx).or_insert(0usize) += 1;
        }
        let chunks: usize = per_k.values().map(|n| n.div_ceil(size)).sum();
        tasks += if auto { 2 * chunks } else { chunks };
    }
    tasks as f64
}

/// The traced pass; returns the check tally of its untraced repetition
/// and every per-layer metric.
pub fn traced_run(
    w: Workload,
    seed: u64,
    inputs: &workloads::Inputs,
    sched: &Arc<Scheduler>,
    scratch: &Path,
) -> (Tally, Vec<Metric>) {
    let s = workloads::setup(w, inputs, sched);
    let target = (w == Workload::ResonanceRefine)
        .then(|| RefineTarget::new(&s, sched, scratch.to_path_buf()));
    let ceiling = zgemm_gflops(s.block_size());

    let loop_sched = workloads::loop_scheduler(w, sched);
    let rep = workloads::run_rep(&s, &loop_sched, target.as_ref());
    let tally = workloads::check(&s, std::slice::from_ref(&rep), target.as_ref(), sched, seed);
    let records: Vec<_> = rep.records().collect();
    let wall_ms_sum: f64 = records.iter().map(|r| r.wall_ms).sum();
    let health = |f: fn(&qtx_core::SweepHealth) -> u64| -> f64 {
        rep.sweeps.iter().map(|r| f(&r.health)).sum::<u64>() as f64
    };
    let cache_hits = health(|h| h.cache_hits);
    let cache_misses = health(|h| h.cache_misses);

    // ── The serial walk ──
    let mut walk = Walk {
        tr: Tracer::new(),
        ct: Counters::default(),
        // Cold workloads walk on a fresh cache, the warm one on set-up's.
        cache: s
            .warm_cache
            .clone()
            .unwrap_or_else(|| Arc::new(SigmaCache::new(qtx_core::CacheConfig::default()))),
        ws: Workspace::new(),
        cfg: s.devices[0].config,
    };
    let tr = &mut walk.tr;
    let mut refine_metrics = [0.0; 4];
    let mut ckpt = [0.0; 3];
    if let Some(t) = &target {
        let _ = std::fs::remove_file(&t.checkpoint);
        let (engine, c) = workloads::cold_engine(&s.devices[0], &loop_sched);
        let opts = workloads::refine_opts(c, Some(t.checkpoint.clone()));
        let (_, refined) = tr.span("refine.sweep_refined", None, None, || {
            engine.sweep_refined(&s.plan, workloads::N_RANKS, &opts, &t.cfg).expect("refine")
        });
        let i = workloads::current_ua(&s.devices[0], &refined.result);
        refine_metrics = [
            refined.rounds as f64,
            refined.result.records.len() as f64,
            refined.points_added as f64,
            (i - t.i_ref).abs() / t.i_ref.abs(),
        ];
        let bytes = std::fs::metadata(&t.checkpoint).map_or(0, |m| m.len());
        let fp = refined_fingerprint(&s.plan, &t.cfg);
        let copy = scratch.join("resonance-copy.qtxswp");
        let (save, saved) = tr.span("checkpoint.save", None, None, || {
            checkpoint::save_with_fingerprint(&copy, fp, &refined.result.records)
        });
        saved.expect("checkpoint save");
        let (load, loaded) =
            tr.span("checkpoint.load", None, None, || checkpoint::load_with_fingerprint(&copy, fp));
        let loaded = loaded.expect("checkpoint load");
        assert_eq!(loaded.len(), refined.result.records.len(), "checkpoint round trip");
        ckpt = [bytes as f64, tr.spans[save].ms(), tr.spans[load].ms()];
        let _ = std::fs::remove_file(&copy);
        let _ = std::fs::remove_file(&t.checkpoint);
    }

    let mut point = 0u32;
    for (p_idx, sweep) in rep.sweeps.iter().enumerate() {
        let dev = &s.devices[p_idx];
        walk.cfg = dev.config;
        let mut folded: Option<(u64, DeviceK, (u64, u64))> = None;
        for rec in &sweep.records {
            if folded.as_ref().map(|f| f.0) != Some(rec.kz.to_bits()) {
                let (_, dk) = walk.tr.span("device.at_kz", None, None, || dev.at_kz(rec.kz));
                let hashes = (dk.lead_l.content_hash(), dk.lead_r.content_hash());
                folded = Some((rec.kz.to_bits(), dk, hashes));
            }
            let (_, dk, hashes) = folded.as_ref().expect("folded");
            walk.point(dk, *hashes, rec.e, point);
            point += 1;
        }
    }
    let (tr, ct) = (&walk.tr, &walk.ct);
    let trace_path = scratch.join(format!("trace-{}-{seed}.jsonl", w.name()));
    if let Err(e) = tr.write(&trace_path) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    // ── The ledger ──
    // With `Batching::Auto` and a cache the sweep computes Σ in separate
    // prefetch tasks, so a record's `wall_ms` covers the interior solve
    // only; the walk's Σ spans are then left out of the comparison too.
    let sigma_prefetched = w == Workload::ResonanceRefine;
    let root_ms: f64 = tr.named("point").map(Span::ms).sum();
    let mut child_ms = 0.0;
    let mut uncompared_ms = 0.0;
    for c in tr.spans.iter().filter(|c| c.parent.is_some()) {
        child_ms += c.ms();
        let sigma = matches!(c.name, "cache.hit" | "cache.miss");
        if matches!(c.name, "obc.self_energy" | "solver.solve") || (sigma && sigma_prefetched) {
            uncompared_ms += c.ms();
        }
    }
    let bare: Vec<&Span> = tr.named("obc.self_energy").collect();
    let bare_ms: f64 = bare.iter().map(|s| s.ms()).sum();
    let bare_flops: f64 = bare.iter().map(|s| s.flops as f64).sum();
    let solves: Vec<&Span> = tr.named("solver.solve").collect();
    let solver_ms: f64 = solves.iter().map(|s| s.ms()).sum();
    let solver_flops: f64 = solves.iter().map(|s| s.flops as f64).sum();
    let per = |x: f64, n: usize| if n == 0 { 0.0 } else { x / n as f64 };
    let rate = |flops: f64, ms: f64| if ms > 0.0 { flops / ms / 1e6 } else { 0.0 };
    let workers = loop_sched.workers() as f64;
    let linalg_gflops = rep.flops as f64 / rep.wall_s / 1e9;
    let folds: Vec<&Span> = tr.named("device.at_kz").collect();

    let m = vec![
        Metric::new("cp2k.build_ms", s.build_ms, "ms"),
        Metric::new("energygrid.plan_ms", s.plan_ms, "ms"),
        Metric::new("energygrid.points", s.plan.total_points() as f64, "count"),
        Metric::new("device.fold_ms", folds.iter().map(|s| s.ms()).sum(), "ms"),
        Metric::new("device.folds", folds.len() as f64, "count"),
        Metric::new("obc.solves", rep.obc_solves as f64, "count"),
        Metric::new("obc.ms_per_solve", per(bare_ms, bare.len()), "ms"),
        Metric::new("obc.gflop_per_solve", per(bare_flops, bare.len()) / 1e9, "GFlop"),
        Metric::new("obc.gflops", rate(bare_flops, bare_ms), "GFlop/s"),
        Metric::new(
            "obc.feast_iterations_per_solve",
            mean(ct.feast_iterations.iter().copied()),
            "count",
        ),
        Metric::new(
            "obc.feast_linear_solves_per_solve",
            mean(ct.feast_linear_solves.iter().copied()),
            "count",
        ),
        Metric::new("cache.hits", cache_hits, "count"),
        Metric::new("cache.misses", cache_misses, "count"),
        Metric::new(
            "cache.hit_ratio",
            per(cache_hits, (cache_hits + cache_misses) as usize),
            "ratio",
        ),
        Metric::new("cache.hit_us", tr.mean_ms("cache.hit") * 1e3, "us"),
        Metric::new("cache.insert_us", median_or_zero(&ct.insert_ms) * 1e3, "us"),
        Metric::new("cache.bytes", rep.cache.bytes as f64, "B"),
        Metric::new("cache.evictions", rep.cache.evictions as f64, "count"),
        Metric::new("solver.ms_per_solve", per(solver_ms, solves.len()), "ms"),
        Metric::new("solver.gflop_per_solve", per(solver_flops, solves.len()) / 1e9, "GFlop"),
        Metric::new("solver.gflops", rate(solver_flops, solver_ms), "GFlop/s"),
        Metric::new(
            "solver.peak_matrix_mb",
            ct.solver_peak_bytes.iter().copied().fold(0.0, f64::max) / (1u64 << 20) as f64,
            "MB",
        ),
        Metric::new(
            "solver.fresh_allocs_per_solve",
            mean(ct.solver_allocs.iter().copied()),
            "count",
        ),
        Metric::new(
            "transport.self_ms_per_point",
            mean(ct.transport_self_ms.iter().copied()),
            "ms",
        ),
        Metric::new(
            "transport.attempts_per_point",
            per(records.iter().map(|r| r.attempts as f64).sum(), records.len()),
            "count",
        ),
        Metric::new("transport.escalated", health(|h| h.escalated as u64), "count"),
        Metric::new("scheduler.tasks", scheduler_tasks(&s, &rep), "count"),
        Metric::new("scheduler.busy_frac", wall_ms_sum / (workers * rep.wall_s * 1e3), "ratio"),
        Metric::new("scheduler.retries", health(|h| h.sched_retries), "count"),
        Metric::new("scheduler.stragglers", health(|h| h.stragglers as u64), "count"),
        Metric::new("scheduler.panics", health(|h| h.panics), "count"),
        Metric::new(
            "mpi.comm_virtual_ms",
            rep.sweeps.iter().map(|r| r.comm_seconds).sum::<f64>() * 1e3,
            "ms",
        ),
        Metric::new("refine.rounds", refine_metrics[0], "count"),
        Metric::new("refine.points_solved", refine_metrics[1], "count"),
        Metric::new("refine.points_added", refine_metrics[2], "count"),
        Metric::new("refine.current_rel_err", refine_metrics[3], "ratio"),
        Metric::new("checkpoint.bytes", ckpt[0], "B"),
        Metric::new("checkpoint.save_ms", ckpt[1], "ms"),
        Metric::new("checkpoint.load_ms", ckpt[2], "ms"),
        Metric::new("linalg.gflop_per_point", per(rep.flops as f64, rep.points()) / 1e9, "GFlop"),
        Metric::new("linalg.gflops", linalg_gflops, "GFlop/s"),
        Metric::new("linalg.zgemm_ceiling_gflops", ceiling, "GFlop/s"),
        Metric::new("linalg.ceiling_frac", linalg_gflops / (workers * ceiling), "ratio"),
        Metric::new("trace.unattributed_frac", (root_ms - child_ms) / root_ms, "ratio"),
        Metric::new("trace.overhead_frac", (root_ms - uncompared_ms) / wall_ms_sum - 1.0, "ratio"),
    ];
    (tally, m)
}

/// The counters that must repeat exactly between two traced runs of one
/// seed; a counter that drifts cannot back a count-based claim.
pub const DETERMINISTIC: [&str; 17] = [
    "energygrid.points",
    "device.folds",
    "obc.solves",
    "obc.gflop_per_solve",
    "obc.feast_iterations_per_solve",
    "obc.feast_linear_solves_per_solve",
    "cache.hits",
    "cache.misses",
    "solver.gflop_per_solve",
    "transport.attempts_per_point",
    "scheduler.tasks",
    "linalg.gflop_per_point",
    "refine.rounds",
    "refine.points_solved",
    "refine.points_added",
    "refine.current_rel_err",
    "checkpoint.bytes",
];

/// The printed value of metric `name` in a result line, as text.
pub fn metric_text<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&key)? + key.len();
    let len = line[start..].find(',')?;
    Some(&line[start..start + len])
}
