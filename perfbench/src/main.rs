//! `qtx-perfbench` — the repository's end-to-end (k, E) sweep benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` sets the workload up three
//! to nine times (`setup_s` is the median), then repeats it in a closed loop for
//! `--seconds` (and at least [`Workload::min_reps`] times), checks every
//! output and prints the end-to-end metrics (`point_ms_p50`/`p90` are
//! medians over windows of ≥ 100 points of each window's quantile).
//! `--trace 1` makes the single traced pass of [`ledger`] and prints the
//! per-layer metrics instead.
//! The last line of standard output is the result:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`; the line
//! before it records the environment.
//!
//! `--repeat-check` runs the traced pass twice in child processes and
//! exits non-zero unless every counter in [`ledger::DETERMINISTIC`]
//! repeats exactly.
//!
//! The workloads, what the seed draws and why each was chosen are
//! documented in [`workloads`].

mod ledger;
mod measure;
mod workloads;

use measure::{json_str, median, percentile, result_line, Metric};
use qtx_core::{Scheduler, SchedulerConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;
use workloads::{Inputs, RefineTarget, Workload};

/// Set-ups per timed run: at least `SETUP_MIN`, more while they have taken
/// less than `SETUP_BUDGET_S`, at most `SETUP_MAX`; `setup_s` is their
/// median.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

/// Where runs write their checkpoint and trace files, relative to the
/// repository root (the build directory, ignored by git).
const SCRATCH: &str = ".bench_build/perfbench-scratch";

const USAGE: &str = "usage: qtx-perfbench --workload <utb_kz_cold|wire_gate_warm|dft_film_cold|\
                     resonance_refine> --seed <n> --seconds <s> --trace <0|1> [--repeat-check]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat_check: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut repeat_check = false;
    while let Some(flag) = it.next() {
        if flag == "--repeat-check" {
            repeat_check = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        repeat_check,
    })
}

/// Refuses to measure with fault injection armed: injected failures
/// would be counted as the program's.
fn refuse_fault_injection() -> Result<(), String> {
    if std::env::var_os("QTX_FAULT_INJECT").is_some() {
        return Err("QTX_FAULT_INJECT is set; unset it to benchmark".into());
    }
    if qtx_linalg::fault::armed() {
        return Err("fault injection is armed in this build".into());
    }
    Ok(())
}

/// The commit measured: `git rev-parse HEAD` where the checkout is a git
/// repository, else an FNV-1a fingerprint of the sources the build reads.
fn commit() -> String {
    if Path::new(".git").exists() {
        if let Ok(out) = Command::new("git").args(["rev-parse", "HEAD"]).output() {
            let head = String::from_utf8_lossy(&out.stdout).trim().to_string();
            if out.status.success() && !head.is_empty() {
                return head;
            }
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", ".cargo", "crates", "shims", "perfbench"] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let bytes = std::fs::read(f).unwrap_or_default();
        for b in f.to_string_lossy().bytes().chain(bytes) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("source-fnv:{h:016x}")
}

fn collect_sources(p: &Path, out: &mut Vec<PathBuf>) {
    if p.is_dir() {
        for e in std::fs::read_dir(p).into_iter().flatten().flatten() {
            collect_sources(&e.path(), out);
        }
    } else if p.extension().is_some_and(|x| x == "rs" || x == "toml" || x == "lock") {
        out.push(p.to_path_buf());
    }
}

/// One JSON line recording what was measured and on what.
fn environment_line(args: &Args, workers: usize) -> String {
    let ignored: Vec<String> = ["QTX_SCHED_WORKERS", "QTX_OBC_CACHE_BYTES"]
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{}: {}", json_str(k), json_str(&v))))
        .collect();
    format!(
        "{{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {workers}, \
         \"kernel\": {}, \"forced_kernel\": {}, \"commit\": {}, \"ignored_env\": {{{}}}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        args.trace,
        json_str(qtx_linalg::kernel::active_variant().name()),
        json_str(&std::env::var("QTX_FORCE_KERNEL").unwrap_or_default()),
        json_str(&commit()),
        ignored.join(", ")
    )
}

/// Point samples per window of [`point_windows`].
const WINDOW_POINTS: usize = 100;

/// `PointRecord::wall_ms` of the run, cut into windows of consecutive
/// repetitions holding at least [`WINDOW_POINTS`] points each (a short
/// tail joins the last full window; a run with fewer points is one
/// window).
fn point_windows(reps: &[workloads::Rep]) -> Vec<Vec<f64>> {
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut open = Vec::new();
    for r in reps {
        open.extend(r.records().map(|p| p.wall_ms));
        if open.len() >= WINDOW_POINTS {
            windows.push(std::mem::take(&mut open));
        }
    }
    match windows.last_mut() {
        Some(last) => last.extend(open),
        None => windows.push(open),
    }
    windows
}

/// Median over the windows of each window's `q`-quantile: a stretch of
/// stolen CPU time that covers less than half of the windows moves it
/// little, where it would set the run-wide 90th percentile.
fn windowed_percentile(windows: &[Vec<f64>], q: f64) -> f64 {
    median(&windows.iter().map(|w| percentile(w, q)).collect::<Vec<_>>())
}

/// The untraced run: set-up, the closed loop of repetitions, the checks
/// and the end-to-end metrics.
fn timed_run(args: &Args, inputs: &Inputs, sched: &Arc<Scheduler>, scratch: &Path) -> String {
    let w = args.workload;
    let mut setup_s: Vec<f64> = Vec::with_capacity(SETUP_MAX);
    let mut setup = None;
    while setup_s.len() < SETUP_MIN
        || (setup_s.len() < SETUP_MAX && setup_s.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous set-up first so its memory is not held twice.
        drop(setup.take());
        let t = Instant::now();
        setup = Some(workloads::setup(w, inputs, sched));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    let t_target = Instant::now();
    let target = (w == Workload::ResonanceRefine)
        .then(|| RefineTarget::new(&setup, sched, scratch.to_path_buf()));
    let target_s = t_target.elapsed().as_secs_f64();

    if let Err(e) = measure::reset_peak_rss() {
        eprintln!("cannot reset VmHWM ({e}); peak_rss_mb includes set-up");
    }
    let loop_sched = workloads::loop_scheduler(w, sched);
    let t_run = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < w.min_reps() || t_run.elapsed().as_secs_f64() < args.seconds {
        reps.push(workloads::run_rep(&setup, &loop_sched, target.as_ref()));
    }
    let peak_rss = measure::peak_rss_mb().unwrap_or(f64::NAN);
    if let Some(t) = &target {
        let _ = std::fs::remove_file(&t.checkpoint);
    }

    let measure_s = t_run.elapsed().as_secs_f64();
    let t_check = Instant::now();
    let tally = workloads::check(&setup, &reps, target.as_ref(), sched, args.seed);
    eprintln!(
        "phases: {} set-ups {:.2} s, reference {target_s:.2} s, measured {measure_s:.2} s, \
         checks {:.2} s",
        setup_s.len(),
        setup_s.iter().sum::<f64>(),
        t_check.elapsed().as_secs_f64()
    );
    let sweep_s: Vec<f64> = reps.iter().map(|r| r.wall_s).collect();
    let point_ms: Vec<f64> = reps.iter().flat_map(|r| r.records().map(|p| p.wall_ms)).collect();
    let windows = point_windows(&reps);
    println!(
        "{{\"reps\": {}, \"points\": {}, \"sweep_s\": [{}], \"problems\": [{}]}}",
        reps.len(),
        point_ms.len(),
        sweep_s.iter().map(|v| format!("{v:.4}")).collect::<Vec<_>>().join(", "),
        tally.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", ")
    );
    let metrics = [
        Metric::new("sweep_s", median(&sweep_s), "s"),
        Metric::new("point_ms_p50", windowed_percentile(&windows, 0.5), "ms"),
        Metric::new("point_ms_p90", windowed_percentile(&windows, 0.9), "ms"),
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("peak_rss_mb", peak_rss, "MB"),
    ];
    let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    result_line(correct, tally.attempted, tally.failed, &metrics)
}

/// Runs the traced pass twice in child processes and compares the
/// deterministic counters.
fn repeat_check(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut lines = Vec::new();
    for _ in 0..2 {
        let out = Command::new(&exe)
            .args(["--workload", args.workload.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", "1", "--trace", "1"])
            .output();
        match out {
            Ok(o) if o.status.success() => {
                let text = String::from_utf8_lossy(&o.stdout).to_string();
                lines.push(text.lines().last().unwrap_or_default().to_string());
            }
            other => {
                eprintln!("traced child run failed: {other:?}");
                return ExitCode::from(1);
            }
        }
    }
    let mut drift = Vec::new();
    for name in ledger::DETERMINISTIC {
        let (a, b) = (ledger::metric_text(&lines[0], name), ledger::metric_text(&lines[1], name));
        if a.is_none() || a != b {
            drift.push(format!("{}: {a:?} vs {b:?}", json_str(name)));
        }
    }
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"counters\": {}, \"drifted\": [{}]}}",
        json_str(args.workload.name()),
        args.seed,
        ledger::DETERMINISTIC.len(),
        drift.join(", ")
    );
    if drift.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = refuse_fault_injection() {
        eprintln!("refusing to run: {e}");
        return ExitCode::from(3);
    }
    if args.repeat_check {
        return repeat_check(&args);
    }
    let scratch = PathBuf::from(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("cannot create {SCRATCH}: {e}");
        return ExitCode::from(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let sched = Arc::new(Scheduler::new(SchedulerConfig { workers, ..SchedulerConfig::default() }));
    let inputs = Inputs::draw(args.seed);
    println!("{}", environment_line(&args, workers));
    let line = if args.trace {
        let (tally, metrics) =
            ledger::traced_run(args.workload, args.seed, &inputs, &sched, &scratch);
        if !tally.problems.is_empty() {
            eprintln!("check problems: {:?}", tally.problems);
        }
        let correct = tally.failed == 0 && metrics.iter().all(|m| m.value.is_finite());
        result_line(correct, tally.attempted, tally.failed, &metrics)
    } else {
        timed_run(&args, &inputs, &sched, &scratch)
    };
    println!("{line}");
    ExitCode::SUCCESS
}
