//! Emits `BENCH_eig.json`: the Hermitian eigensolver (`eigh`:
//! tridiagonalization + implicit QL) against the general non-Hermitian
//! pipeline (`eig`: Hessenberg + shifted complex QR + back-substituted
//! eigenvectors) on the Hermitian problems the transport pipeline solves.
//!
//! * `gram` — eigenvalues and eigenvectors of a positive semidefinite
//!   Gram matrix `PᴴP` at the FEAST/Beyn subspace sizes (28/128/248).
//! * `bands` — eigenvalues only of a Hermitian-definite pencil
//!   `H·c = E·S·c` at the lead band-structure sizes (20 for the
//!   tight-binding leads, 120 for the Dft3sp basis).
//!
//! Both solvers run in one process on identical inputs; every case
//! asserts that the spectra agree before timing. Run with
//! `cargo run --release -p qtx-bench --bin bench_eig_json [output-path]
//! [--quick]`; `--quick` lowers the repetitions for the CI
//! smoke/regression-gate profile (same shapes).

use qtx_bench::{print_table, Row};
use qtx_linalg::{
    c64, eig_generalized_ws, eig_ws, eigh_generalized_ws, eigh_ws, zherk, Complex64, EighJob, Op,
    Workspace, ZMat,
};
use std::fmt::Write as _;
use std::time::Instant;

/// Median seconds of `a` and of `b`, sampled alternately so both see the
/// same machine load (the gated figure is their ratio).
fn median_pair(mut a: impl FnMut(), mut b: impl FnMut(), reps: usize) -> (f64, f64) {
    let time = |f: &mut dyn FnMut()| {
        let t0 = Instant::now();
        f();
        t0.elapsed().as_secs_f64()
    };
    let (mut sa, mut sb): (Vec<f64>, Vec<f64>) =
        (0..reps.max(3)).map(|_| (time(&mut a), time(&mut b))).unzip();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    (sa[sa.len() / 2], sb[sb.len() / 2])
}

fn sorted_re(values: &[Complex64]) -> Vec<f64> {
    let mut v: Vec<f64> = values.iter().map(|z| z.re).collect();
    v.sort_by(f64::total_cmp);
    v
}

fn max_gap(x: &[f64], y: &[f64]) -> f64 {
    x.iter().zip(y).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
}

fn main() {
    let mut out_path = "BENCH_eig.json".to_string();
    let mut quick = false;
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else {
            out_path = arg;
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ws = Workspace::new();
    let mut entries = String::new();
    let mut rows = Vec::new();

    // ── Gram matrices (FEAST orthonormalize_rank / Beyn moments) ──
    for &n in &[28usize, 128, 248] {
        let p = ZMat::random(2 * n + 16, n, 1);
        let mut g = ZMat::zeros(n, n);
        zherk(1.0, p.view(), Op::Adjoint, 0.0, &mut g);
        let reps = if quick { (2048 / n).clamp(3, 15) } else { (8192 / n).clamp(5, 61) };
        let run_eigh = || {
            let d = eigh_ws(&g, EighJob::ValuesAndVectors, &ws).expect("eigh");
            ws.recycle(d.vectors.expect("vectors"));
        };
        let run_eig = || ws.recycle(eig_ws(&g, &ws).expect("eig").vectors);
        let new = eigh_ws(&g, EighJob::ValuesAndVectors, &ws).expect("eigh");
        let old = sorted_re(&eig_ws(&g, &ws).expect("eig").values);
        let gap = max_gap(&new.values, &old);
        assert!(gap < 1e-9 * g.norm_max().max(1.0), "gram n = {n}: spectra differ by {gap:.2e}");
        let (t_new, t_old) = median_pair(run_eigh, run_eig, reps);
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"gram\", \"n\": {n}, \"eigh_ms\": {:.4}, \"eig_ms\": {:.4}, \
             \"eigh_speedup\": {:.3}, \"max_value_gap\": {gap:.3e}}},",
            t_new * 1e3,
            t_old * 1e3,
            t_old / t_new,
        );
        rows.push(Row::new(
            format!("gram {n} (vectors)"),
            vec![t_new * 1e3, t_old * 1e3, t_old / t_new],
        ));
    }

    // ── Band structure pencils (LeadBlocks::bands_at) ──
    for &n in &[20usize, 120] {
        let mut h = ZMat::random(n, n, 2);
        h.hermitianize();
        let b = ZMat::random(n, n, 3);
        let mut s = ZMat::identity(n).scaled(c64(n as f64, 0.0));
        zherk(1.0, b.view(), Op::Adjoint, 1.0, &mut s);
        let reps = if quick { (1200 / n).clamp(5, 31) } else { (6000 / n).clamp(11, 201) };
        let run_eigh =
            || drop(eigh_generalized_ws(&h, &s, EighJob::ValuesOnly, &ws).expect("eigh"));
        let run_eig = || ws.recycle(eig_generalized_ws(&h, &s, &ws).expect("eig").vectors);
        let new = eigh_generalized_ws(&h, &s, EighJob::ValuesOnly, &ws).expect("eigh");
        let old = sorted_re(&eig_generalized_ws(&h, &s, &ws).expect("eig").values);
        let gap = max_gap(&new.values, &old);
        assert!(gap < 1e-10 * h.norm_max().max(1.0), "bands n = {n}: spectra differ by {gap:.2e}");
        let (t_new, t_old) = median_pair(run_eigh, run_eig, reps);
        let _ = writeln!(
            entries,
            "    {{\"kind\": \"bands\", \"n\": {n}, \"eigh_ms\": {:.4}, \"eig_ms\": {:.4}, \
             \"eigh_speedup\": {:.3}, \"max_value_gap\": {gap:.3e}}},",
            t_new * 1e3,
            t_old * 1e3,
            t_old / t_new,
        );
        rows.push(Row::new(
            format!("bands {n} (values)"),
            vec![t_new * 1e3, t_old * 1e3, t_old / t_new],
        ));
    }

    let entries = entries.trim_end().trim_end_matches(',').to_string();
    let json = format!(
        "{{\n  \"bench\": \"Hermitian eigh vs general eig on Hermitian problems\",\n  \
         \"cores\": {cores},\n  \"target_cpu\": \"native\",\n  \"quick\": {quick},\n  \
         \"flags_note\": \"eigh_speedup = eig_ms / eigh_ms on identical inputs; gram = \
         eigenvalues + eigenvectors of a PSD Gram matrix, bands = eigenvalues only of a \
         Hermitian-definite pencil\",\n  \
         \"results\": [\n{entries}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write BENCH_eig.json");
    print_table(
        "Hermitian eigenproblems: eigh (new) vs eig (general)",
        &["case", "eigh ms", "eig ms", "speedup"],
        &rows,
    );
    println!("\nwrote {out_path}");
}
