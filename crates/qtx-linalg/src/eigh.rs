//! Dense Hermitian eigensolvers (`zheev`/`zhegv`-lite).
//!
//! Every Hermitian eigenproblem of the transport pipeline goes through
//! this module: the lead band structure `H(k)·c = E·S(k)·c` that places
//! the energy grid at the subband edges (Table II), the Gram matrices
//! `PᴴP` / `A₀ᴴA₀` whose spectra truncate the FEAST and Beyn subspaces
//! (§3.A), and the CP2K-side `H·c = E·S·c` of the Mulliken SCF. The
//! non-Hermitian pencils (companion, Rayleigh–Ritz, shift-invert, Beyn's
//! reduced matrix) stay on the general [`crate::eig`] pipeline.
//!
//! The algorithm is the LAPACK `zheev` one:
//!
//! 1. Householder reduction of the lower triangle to a real symmetric
//!    tridiagonal `T = Qᴴ·A·Q` (`zhetd2`: one Hermitian matrix-vector
//!    product and one rank-2 update per column). The shared
//!    [`crate::qr`] reflector convention returns a real `β`, so the
//!    off-diagonal is already real — the phase scaling that makes a
//!    complex Hermitian tridiagonal real is folded into the last
//!    (length-one) reflector,
//! 2. implicitly shifted QL on the real tridiagonal (Wilkinson shift,
//!    Givens chase), the rotations applied to `Q`'s columns only when
//!    eigenvectors are requested — eigenvalues alone cost `O(n²)` here,
//! 3. `Q` itself assembled by replaying the reflectors backwards as
//!    compact-WY panels on the gemm/trmm substrate (`zungtr`), only when
//!    eigenvectors are requested.
//!
//! Hermitian-definite problems `A·x = λ·S·x` reduce through the Cholesky
//! factor `S = L·Lᴴ` (derived from the blocked pivot-free LDLᴴ, `L·√D`)
//! to the standard problem `C = L⁻¹·A·L⁻ᴴ` with two triangular solves;
//! eigenvectors come back through `L⁻ᴴ`, so `XᴴSX = I` holds to rounding.
//!
//! Values are real and ascending. All dense temporaries cycle through the
//! caller's [`Workspace`], like [`crate::eig::eig_ws`].

use crate::complex::{c64, Complex64};
use crate::flops::{counts, flops_add};
use crate::ldl::ldl_factor_nopiv_ws;
use crate::qr::{apply_panel_wy, build_t, stage_v, zlarfg};
use crate::trsm::{trsm_unc, Diag, Side, UpLo};
use crate::workspace::Workspace;
use crate::zmat::ZMat;
use crate::{gemm::Op, LinalgError, Result};

/// Panel width of the blocked `Q` assembly (matches the Hessenberg panels).
const NB: usize = 32;

/// QL sweeps allowed per eigenvalue before reporting non-convergence
/// (LAPACK `dsteqr` allows 30; the Wilkinson-shifted chase needs 2–3).
const MAX_SWEEPS: usize = 60;

/// What [`eigh_ws`] / [`eigh_generalized_ws`] compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EighJob {
    /// Eigenvalues only (`O(n²)` after the reduction).
    ValuesOnly,
    /// Eigenvalues and eigenvectors.
    ValuesAndVectors,
}

/// Eigenvalues (real, ascending) and optionally eigenvectors of a
/// Hermitian (or Hermitian-definite) problem.
#[derive(Debug, Clone)]
pub struct EighDecomposition {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Column `k` pairs with `values[k]`: orthonormal (`VᴴV = I`) for the
    /// standard problem, `S`-orthonormal (`XᴴSX = I`) for the generalized
    /// one. `None` for [`EighJob::ValuesOnly`]. Pool-backed when returned
    /// by a `_ws` entry point (recycle it when spent).
    pub vectors: Option<ZMat>,
}

/// Eigenvalues and eigenvectors of a Hermitian matrix (fresh workspace).
pub fn eigh(a: &ZMat) -> Result<EighDecomposition> {
    eigh_ws(a, EighJob::ValuesAndVectors, &Workspace::new())
}

/// Eigenpairs of the Hermitian-definite pencil `A·x = λ·S·x` (fresh
/// workspace).
pub fn eigh_generalized(a: &ZMat, s: &ZMat) -> Result<EighDecomposition> {
    eigh_generalized_ws(a, s, EighJob::ValuesAndVectors, &Workspace::new())
}

/// Hermitian eigensolver over pooled scratch. Only the lower triangle of
/// `a` is referenced. Non-finite input is rejected with
/// [`LinalgError::NonFinite`] before any work is done.
pub fn eigh_ws(a: &ZMat, job: EighJob, ws: &Workspace) -> Result<EighDecomposition> {
    assert!(a.is_square(), "eigh requires a square matrix");
    reject_non_finite(a, "eigh")?;
    eigh_owned(ws.copy_of(a), job, ws)
}

/// Hermitian-definite generalized eigensolver `A·x = λ·S·x` over pooled
/// scratch. `a` must be Hermitian (full storage) and `s` Hermitian
/// positive definite; an indefinite or singular `s` returns
/// [`LinalgError::NotPositiveDefinite`] with the first failing pivot.
pub fn eigh_generalized_ws(
    a: &ZMat,
    s: &ZMat,
    job: EighJob,
    ws: &Workspace,
) -> Result<EighDecomposition> {
    assert!(a.is_square(), "eigh_generalized requires square matrices");
    if (s.rows(), s.cols()) != (a.rows(), a.cols()) {
        return Err(LinalgError::DimensionMismatch {
            expected: (a.rows(), a.cols()),
            got: (s.rows(), s.cols()),
        });
    }
    reject_non_finite(a, "eigh_generalized")?;
    reject_non_finite(s, "eigh_generalized")?;
    let n = a.rows();
    let l = cholesky_ws(s, ws)?;
    // C = L⁻¹·A·L⁻ᴴ: two triangular solves on the same stored triangle.
    flops_add(counts::zhegst(n));
    let mut c = ws.copy_of(a);
    trsm_unc(Side::Left, UpLo::Lower, Op::None, Diag::NonUnit, l.view(), c.view_mut());
    trsm_unc(Side::Right, UpLo::Lower, Op::Adjoint, Diag::NonUnit, l.view(), c.view_mut());
    let mut dec = match eigh_owned(c, job, ws) {
        Ok(dec) => dec,
        Err(e) => {
            ws.recycle(l);
            return Err(e);
        }
    };
    if let Some(v) = dec.vectors.as_mut() {
        // X = L⁻ᴴ·Y, so XᴴSX = YᴴL⁻¹·L·Lᴴ·L⁻ᴴY = YᴴY = I.
        flops_add(counts::ztrsm(n, n));
        trsm_unc(Side::Left, UpLo::Lower, Op::Adjoint, Diag::NonUnit, l.view(), v.view_mut());
    }
    ws.recycle(l);
    Ok(dec)
}

fn reject_non_finite(a: &ZMat, op: &'static str) -> Result<()> {
    match a.non_finite_count() {
        0 => Ok(()),
        count => Err(LinalgError::NonFinite { op, count }),
    }
}

/// Cholesky factor `S = L·Lᴴ` (lower triangle of the returned pooled
/// matrix) from the blocked pivot-free LDLᴴ: `L_chol = L·√D`.
fn cholesky_ws(s: &ZMat, ws: &Workspace) -> Result<ZMat> {
    let mut l = match ldl_factor_nopiv_ws(s, ws) {
        Ok(f) => f.into_packed(),
        Err(LinalgError::SingularPivot { index, magnitude }) => {
            return Err(LinalgError::NotPositiveDefinite { index, pivot: magnitude });
        }
        Err(e) => return Err(e),
    };
    let n = l.rows();
    for j in 0..n {
        let dj = l[(j, j)].re;
        if dj <= 0.0 {
            ws.recycle(l);
            return Err(LinalgError::NotPositiveDefinite { index: j, pivot: dj });
        }
        let r = dj.sqrt();
        let col = l.col_mut(j);
        col[j] = c64(r, 0.0);
        for z in col[j + 1..].iter_mut() {
            *z = z.scale(r);
        }
    }
    Ok(l)
}

/// Solves the standard problem on an owned (pool-backed) working copy,
/// which is consumed: its lower triangle is overwritten by the reduction
/// and the buffer is recycled into `ws`.
fn eigh_owned(mut w: ZMat, job: EighJob, ws: &Workspace) -> Result<EighDecomposition> {
    let n = w.rows();
    let mut d = vec![0.0; n];
    let mut e = vec![0.0; n];
    let mut tau = ws.take_scratch(n, 1);
    let mut x = ws.take_scratch(n, 1);
    flops_add(counts::zhetrd(n));
    tridiagonalize(&mut w, &mut d, &mut e, &mut tau, x.col_mut(0));
    ws.recycle(x);
    let mut vectors = match job {
        EighJob::ValuesOnly => None,
        EighJob::ValuesAndVectors => {
            flops_add(counts::zungtr(n));
            Some(assemble_q(&w, &tau, ws))
        }
    };
    ws.recycle(w);
    ws.recycle(tau);
    flops_add(counts::zsteqr(n, vectors.is_some()));
    // Finite input can still overflow near f64::MAX: report, never return NaNs.
    let outcome = tridiagonal_ql(&mut d, &mut e, vectors.as_mut()).and_then(|()| {
        match d.iter().filter(|v| !v.is_finite()).count() {
            0 => Ok(()),
            count => Err(LinalgError::NonFinite { op: "eigh", count }),
        }
    });
    if let Err(err) = outcome {
        if let Some(v) = vectors {
            ws.recycle(v);
        }
        return Err(err);
    }
    sort_ascending(&mut d, vectors.as_mut());
    Ok(EighDecomposition { values: d, vectors })
}

/// `zhetd2`-style reduction of the lower triangle of `w` to the real
/// tridiagonal `(d, e)` (`e[k]` couples `k` and `k+1`; `e[n−1] = 0`).
/// Reflector `k` acts on rows `k+1..n`: its tail is left in
/// `w[k+2.., k]` (implicit unit head) and its coefficient in `tau[k]`.
/// `x` is an `n`-long scratch column.
fn tridiagonalize(w: &mut ZMat, d: &mut [f64], e: &mut [f64], tau: &mut ZMat, x: &mut [Complex64]) {
    let n = w.rows();
    for k in 0..n.saturating_sub(1) {
        d[k] = w[(k, k)].re;
        let tau_k = zlarfg(&mut w.col_mut(k)[k + 1..n]);
        let beta = w[(k + 1, k)];
        e[k] = beta.re;
        tau[(k, 0)] = tau_k;
        if tau_k == Complex64::ZERO {
            continue;
        }
        let m = n - k - 1;
        // v (unit head made explicit for the products) and the trailing
        // block A₂₂ = w[k+1.., k+1..] live in disjoint columns.
        let (left, right) = w.as_mut_slice().split_at_mut((k + 1) * n);
        let v = &mut left[k * n + k + 1..(k + 1) * n];
        v[0] = Complex64::ONE;
        let x = &mut x[..m];
        // x = τ·A₂₂·v (lower-triangle hemv: one pass does the column AXPY
        // and the conjugated dot of each stored column).
        x.fill(Complex64::ZERO);
        for j in 0..m {
            let col = &right[j * n + k + 1 + j..(j + 1) * n];
            let vj = v[j];
            let mut acc = vj.scale(col[0].re);
            for ((xi, &aij), &vi) in x[j + 1..].iter_mut().zip(&col[1..]).zip(&v[j + 1..]) {
                *xi = xi.mul_add(aij, vj);
                acc = acc.mul_add(aij.conj(), vi);
            }
            x[j] += acc;
        }
        for xi in x.iter_mut() {
            *xi *= tau_k;
        }
        // x ← x − ½·τ·(xᴴv)·v, then A₂₂ ← A₂₂ − v·xᴴ − x·vᴴ (lower).
        let alpha = -(tau_k * Complex64::dot_conj(x, v)).scale(0.5);
        for (xi, &vi) in x.iter_mut().zip(v.iter()) {
            *xi = xi.mul_add(alpha, vi);
        }
        for j in 0..m {
            let col = &mut right[j * n + k + 1 + j..(j + 1) * n];
            let (cx, cv) = (-x[j].conj(), -v[j].conj());
            for ((aij, &vi), &xi) in col.iter_mut().zip(&v[j..]).zip(&x[j..]) {
                *aij = aij.mul_add(vi, cx).mul_add(xi, cv);
            }
            col[0].im = 0.0;
        }
        v[0] = beta;
    }
    if n > 0 {
        d[n - 1] = w[(n - 1, n - 1)].re;
        e[n - 1] = 0.0;
    }
}

/// Assembles `Q = H₀·H₁···H_{n−2}` from the reflectors [`tridiagonalize`]
/// left in `w`/`tau` (`zungtr`): panels of [`NB`] reflectors are
/// aggregated into compact-WY form and replayed backwards onto the
/// identity, each touching only the block it can change.
fn assemble_q(w: &ZMat, tau: &ZMat, ws: &Workspace) -> ZMat {
    let n = w.rows();
    let mut q = ws.take(n, n);
    for i in 0..n {
        q[(i, i)] = Complex64::ONE;
    }
    let nr = n.saturating_sub(1);
    if nr == 0 {
        return q;
    }
    let mut vbuf = ws.take_scratch(n, NB);
    let mut tbuf = ws.take_scratch(NB, nr);
    let mut sbuf = ws.take_scratch(NB, NB);
    let mut wbuf = ws.take_scratch(NB, n);
    let mut k0 = (nr - 1) / NB * NB;
    loop {
        let kb = NB.min(nr - k0);
        let nv = n - 1 - k0;
        stage_v(&w.block_view(k0 + 1, k0, nv, kb), &mut vbuf);
        let v = vbuf.block_view(0, 0, nv, kb);
        build_t(v, tau, &mut sbuf, &mut tbuf, 0, k0, kb);
        // Columns ≤ k0 of rows k0+1.. are still identity zeros.
        apply_panel_wy(
            v,
            tbuf.block_view(0, k0, kb, kb),
            false,
            q.block_view_mut(k0 + 1, k0 + 1, nv, nv),
            &mut wbuf,
        );
        if k0 == 0 {
            break;
        }
        k0 -= NB;
    }
    for m in [vbuf, tbuf, sbuf, wbuf] {
        ws.recycle(m);
    }
    q
}

/// Implicit-shift QL on the real symmetric tridiagonal `(d, e)` (EISPACK
/// `tql2` / `dsteqr` with a Wilkinson shift). Eigenvalues land in `d`
/// (unsorted); when `z` is given, every Givens rotation of the chase is
/// applied to its column pair, turning `Q` into the eigenvector matrix.
///
/// A coupling deflates when it is negligible against its two diagonal
/// neighbours (relative accuracy where the matrix allows it) **or**
/// against `‖T‖`: the rank-deficient Gram matrices of the contour
/// projectors carry eigenvalues far below `ε·‖T‖`, where the sweeps'
/// own rounding (of order `ε·‖T‖`) keeps the couplings from ever passing
/// the purely local test.
fn tridiagonal_ql(d: &mut [f64], e: &mut [f64], mut z: Option<&mut ZMat>) -> Result<()> {
    let n = d.len();
    let norm = d.iter().zip(e.iter()).map(|(a, b)| a.abs() + b.abs()).fold(0.0, f64::max);
    let floor = (f64::EPSILON * norm).max(f64::MIN_POSITIVE);
    for l in 0..n {
        let mut sweeps = 0;
        loop {
            // Smallest m ≥ l with a negligible coupling e[m].
            let mut m = l;
            while m + 1 < n {
                let dd = d[m].abs() + d[m + 1].abs();
                if e[m].abs() <= f64::EPSILON * dd || e[m].abs() <= floor {
                    break;
                }
                m += 1;
            }
            if m == l {
                break;
            }
            sweeps += 1;
            if sweeps > MAX_SWEEPS {
                return Err(LinalgError::NoConvergence { remaining: n - l });
            }
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = g.hypot(1.0);
            g = d[m] - d[l] + e[l] / (g + if g >= 0.0 { r } else { -r });
            let (mut s, mut c, mut p) = (1.0f64, 1.0f64, 0.0f64);
            let mut restarted = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = f.hypot(g);
                e[i + 1] = r;
                if r == 0.0 {
                    // Underflow split: deflate and restart the sweep.
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    restarted = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                if let Some(z) = z.as_deref_mut() {
                    let (zi, zi1) = z.two_cols_mut(i, i + 1);
                    for (a, b) in zi.iter_mut().zip(zi1.iter_mut()) {
                        let (x, y) = (*a, *b);
                        *b = x.scale(s) + y.scale(c);
                        *a = x.scale(c) - y.scale(s);
                    }
                }
            }
            if restarted {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
    Ok(())
}

/// Sorts eigenvalues ascending, permuting eigenvector columns alongside
/// (selection sort: at most `n` column swaps).
fn sort_ascending(d: &mut [f64], mut z: Option<&mut ZMat>) {
    let n = d.len();
    for i in 0..n {
        let mut k = i;
        for j in i + 1..n {
            if d[j] < d[k] {
                k = j;
            }
        }
        if k != i {
            d.swap(i, k);
            if let Some(z) = z.as_deref_mut() {
                let (a, b) = z.two_cols_mut(i, k);
                a.swap_with_slice(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eig::{eig, eig_generalized};
    use crate::flops::FlopScope;
    use crate::gemm::gemm;

    fn hermitian(n: usize, seed: u64) -> ZMat {
        let mut a = ZMat::random(n, n, seed);
        a.hermitianize();
        a
    }

    fn hpd(n: usize, seed: u64) -> ZMat {
        let b = ZMat::random(n, n, seed);
        let mut s = ZMat::identity(n).scaled(c64(n as f64 * 0.5, 0.0));
        gemm(Complex64::ONE, &b, Op::Adjoint, &b, Op::None, Complex64::ONE, &mut s);
        s.hermitianize();
        s
    }

    /// Hermitian matrix with a prescribed real spectrum: `U·diag(λ)·Uᴴ`
    /// for a random unitary `U`.
    fn with_spectrum(lams: &[f64], seed: u64) -> ZMat {
        let n = lams.len();
        let u = crate::qr::orthonormalize(&ZMat::random(n, n, seed));
        let diag: Vec<Complex64> = lams.iter().map(|&l| c64(l, 0.0)).collect();
        let ud = &u * &ZMat::from_diag(&diag);
        let mut a = ZMat::zeros(n, n);
        gemm(Complex64::ONE, &ud, Op::None, &u, Op::Adjoint, Complex64::ZERO, &mut a);
        a.hermitianize();
        a
    }

    /// Worst column residual ‖A·x − λ·S·x‖ (S = I when `s` is `None`).
    fn residual(a: &ZMat, s: Option<&ZMat>, dec: &EighDecomposition) -> f64 {
        let v = dec.vectors.as_ref().expect("vectors requested");
        let av = a * v;
        let sv = match s {
            Some(s) => s * v,
            None => v.clone(),
        };
        let mut worst: f64 = 0.0;
        for (k, &lam) in dec.values.iter().enumerate() {
            let r: f64 = av
                .col(k)
                .iter()
                .zip(sv.col(k))
                .map(|(x, y)| (*x - y.scale(lam)).norm_sqr())
                .sum::<f64>()
                .sqrt();
            worst = worst.max(r);
        }
        worst
    }

    /// ‖XᴴSX − I‖_max (S = I when `s` is `None`).
    fn orth_defect(x: &ZMat, s: Option<&ZMat>) -> f64 {
        let sx = match s {
            Some(s) => s * x,
            None => x.clone(),
        };
        let mut g = ZMat::zeros(x.cols(), x.cols());
        gemm(Complex64::ONE, x, Op::Adjoint, &sx, Op::None, Complex64::ZERO, &mut g);
        g.max_diff(&ZMat::identity(x.cols()))
    }

    fn sorted_re(values: &[Complex64]) -> Vec<f64> {
        let mut v: Vec<f64> = values.iter().map(|z| z.re).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn max_gap(x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len());
        x.iter().zip(y).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn matches_eig_on_random_hermitian() {
        for n in [0usize, 1, 2, 31, 96, 130, 200] {
            let a = hermitian(n, 100 + n as u64);
            let dec = eigh(&a).unwrap();
            assert_eq!(dec.values.len(), n);
            assert!(dec.values.windows(2).all(|w| w[0] <= w[1]), "n = {n}: not ascending");
            let reference = sorted_re(&eig(&a).unwrap().values);
            let scale = a.norm_max().max(1.0) * (n.max(1) as f64);
            assert!(max_gap(&dec.values, &reference) < 1e-11 * scale, "n = {n}: values drift");
            assert!(residual(&a, None, &dec) < 1e-11 * scale, "n = {n}: residual");
            let v = dec.vectors.as_ref().unwrap();
            assert!(orth_defect(v, None) < 1e-12 * n.max(1) as f64, "n = {n}: VᴴV ≠ I");
            let vals = eigh_ws(&a, EighJob::ValuesOnly, &Workspace::new()).unwrap();
            assert!(vals.vectors.is_none());
            assert!(max_gap(&vals.values, &dec.values) < 1e-12 * scale, "n = {n}: job drift");
        }
    }

    #[test]
    fn clustered_degenerate_and_diagonal_spectra() {
        // Exact degeneracies (3× and 4×) and a tight cluster.
        let mut lams = vec![-1.0, -1.0, -1.0, 0.5, 2.0, 2.0, 2.0, 2.0];
        lams.extend((0..8).map(|i| 3.0 + 1e-10 * i as f64));
        lams.extend((0..8).map(|i| i as f64 * 0.37 - 1.2));
        let a = with_spectrum(&lams, 7);
        let dec = eigh(&a).unwrap();
        let mut want = lams.clone();
        want.sort_by(f64::total_cmp);
        assert!(max_gap(&dec.values, &want) < 1e-12 * lams.len() as f64 * 4.0);
        assert!(residual(&a, None, &dec) < 1e-12 * 100.0);
        assert!(orth_defect(dec.vectors.as_ref().unwrap(), None) < 1e-12 * 30.0);
        // Diagonal input: nothing to reduce, exact values and unit vectors.
        let diag: Vec<Complex64> =
            [4.0, -3.0, 0.0, 4.0, 1e-300].iter().map(|&x| c64(x, 0.0)).collect();
        let dec = eigh(&ZMat::from_diag(&diag)).unwrap();
        assert_eq!(dec.values, vec![-3.0, 0.0, 1e-300, 4.0, 4.0]);
        assert!(orth_defect(dec.vectors.as_ref().unwrap(), None) == 0.0);
        // The zero matrix.
        let dec = eigh(&ZMat::zeros(6, 6)).unwrap();
        assert!(dec.values.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rank_deficient_gram_converges_and_keeps_the_rank() {
        // The FEAST/Beyn shape: PᴴP of a tall P whose rank (4) is far
        // below its width, plus noise — all but four eigenvalues sit at or
        // below the ε·‖G‖ rounding floor of the Gram product itself.
        let n = 128;
        let low = (&ZMat::random(240, 4, 42) * &ZMat::random(4, n, 42)).scaled(c64(30.0, 0.0));
        for noise in [1e-15, 1e-10] {
            let p = &low + &ZMat::random(240, n, 43).scaled(c64(noise, 0.0));
            let mut g = ZMat::zeros(n, n);
            crate::herk::zherk(1.0, p.view(), Op::Adjoint, 0.0, &mut g);
            let dec = eigh(&g).unwrap();
            let lmax = *dec.values.last().unwrap();
            let rank = dec.values.iter().filter(|&&l| l > 1e-13 * lmax).count();
            assert_eq!(rank, 4, "noise {noise:e}");
            let reference = eig(&g).unwrap().values;
            assert_eq!(reference.iter().filter(|l| l.re > 1e-13 * lmax).count(), 4);
            assert!(residual(&g, None, &dec) < 1e-12 * lmax * n as f64);
            assert!(orth_defect(dec.vectors.as_ref().unwrap(), None) < 1e-12 * n as f64);
        }
    }

    #[test]
    fn complex_phases_on_the_last_coupling() {
        // n = 2 with a complex off-diagonal: only the length-one reflector
        // phase-scales the coupling to real.
        let a = ZMat::from_rows(2, 2, &[(1.0, 0.0), (0.3, -0.4), (0.3, 0.4), (-2.0, 0.0)]);
        let dec = eigh(&a).unwrap();
        let want = sorted_re(&eig(&a).unwrap().values);
        assert!(max_gap(&dec.values, &want) < 1e-14);
        assert!(residual(&a, None, &dec) < 1e-14);
    }

    #[test]
    fn generalized_matches_eig_generalized_with_s_orthonormal_vectors() {
        for (n, seed) in [(1usize, 1u64), (5, 2), (40, 3), (120, 4)] {
            let a = hermitian(n, seed);
            let s = hpd(n, seed + 50);
            let dec = eigh_generalized(&a, &s).unwrap();
            let reference = sorted_re(&eig_generalized(&a, &s).unwrap().values);
            let scale = a.norm_max().max(1.0) * n as f64;
            assert!(max_gap(&dec.values, &reference) < 1e-10 * scale, "n = {n}: values");
            assert!(residual(&a, Some(&s), &dec) < 1e-10 * scale, "n = {n}: residual");
            let x = dec.vectors.as_ref().unwrap();
            assert!(orth_defect(x, Some(&s)) < 1e-12 * n as f64, "n = {n}: XᴴSX ≠ I");
        }
    }

    #[test]
    fn indefinite_overlap_is_a_typed_error() {
        let a = hermitian(4, 9);
        let mut s = ZMat::identity(4);
        s[(2, 2)] = c64(-0.5, 0.0);
        match eigh_generalized(&a, &s) {
            Err(LinalgError::NotPositiveDefinite { index, pivot }) => {
                assert_eq!(index, 2);
                assert!(pivot <= 0.0);
            }
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
        // A singular overlap fails the same way (zero pivot).
        let mut s = ZMat::identity(4);
        s[(0, 0)] = Complex64::ZERO;
        assert!(matches!(
            eigh_generalized(&a, &s),
            Err(LinalgError::NotPositiveDefinite { index: 0, .. })
        ));
    }

    #[test]
    fn non_finite_input_is_a_typed_error() {
        let ws = Workspace::new();
        for bad in [f64::NAN, f64::INFINITY] {
            let mut a = hermitian(6, 11);
            a[(4, 1)] = c64(bad, 0.0);
            for job in [EighJob::ValuesOnly, EighJob::ValuesAndVectors] {
                assert!(matches!(
                    eigh_ws(&a, job, &ws),
                    Err(LinalgError::NonFinite { op: "eigh", count: 1 })
                ));
            }
            let s = ZMat::identity(6);
            assert!(matches!(
                eigh_generalized_ws(&a, &s, EighJob::ValuesOnly, &ws),
                Err(LinalgError::NonFinite { .. })
            ));
            assert!(matches!(
                eigh_generalized_ws(&s, &a, EighJob::ValuesOnly, &ws),
                Err(LinalgError::NonFinite { .. })
            ));
        }
    }

    #[test]
    fn recycled_pool_is_bit_identical_and_allocation_free() {
        let ws = Workspace::new();
        let a = hermitian(70, 21);
        let s = hpd(70, 22);
        let fresh = eigh_generalized(&a, &s).unwrap();
        // Dirty the pool with a larger problem, then solve through it.
        let decoy =
            eigh_generalized_ws(&hermitian(80, 23), &hpd(80, 24), EighJob::ValuesAndVectors, &ws)
                .unwrap();
        ws.recycle(decoy.vectors.unwrap());
        let before = ws.fresh_allocations();
        let pooled = eigh_generalized_ws(&a, &s, EighJob::ValuesAndVectors, &ws).unwrap();
        assert_eq!(ws.fresh_allocations(), before, "warm pool must not allocate");
        assert_eq!(pooled.values, fresh.values);
        assert!(pooled.vectors.as_ref().unwrap().max_diff(fresh.vectors.as_ref().unwrap()) == 0.0);
    }

    #[test]
    fn counts_reduction_tridiagonalisation_and_ql_by_formula() {
        let n = 48;
        let a = hermitian(n, 31);
        let s = hpd(n, 32);
        let ws = Workspace::new();
        let scope = FlopScope::start();
        eigh_ws(&a, EighJob::ValuesOnly, &ws).unwrap();
        assert_eq!(scope.elapsed(), counts::zhetrd(n) + counts::zsteqr(n, false));
        let scope = FlopScope::start();
        eigh_ws(&a, EighJob::ValuesAndVectors, &ws).unwrap();
        assert_eq!(
            scope.elapsed(),
            counts::zhetrd(n) + counts::zungtr(n) + counts::zsteqr(n, true)
        );
        let scope = FlopScope::start();
        eigh_generalized_ws(&a, &s, EighJob::ValuesOnly, &ws).unwrap();
        assert_eq!(
            scope.elapsed(),
            counts::zhetrf(n) + counts::zhegst(n) + counts::zhetrd(n) + counts::zsteqr(n, false)
        );
        // Far below the general pipeline it replaces.
        let scope = FlopScope::start();
        eig(&a).unwrap();
        assert!(
            scope.elapsed() > 2 * (counts::zhetrd(n) + counts::zungtr(n) + counts::zsteqr(n, true))
        );
    }
}
