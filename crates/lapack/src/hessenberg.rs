//! Shared-memory Hessenberg reduction: `A = Q·H·Qᵀ`.
//!
//! Three routines mirroring LAPACK:
//!
//! * [`gehd2`] — the unblocked Level-2 reduction (paper §3.3). Used as the
//!   correctness oracle and for trailing remainders of the blocked code.
//! * [`lahr2`] — the panel kernel: reduces `nb` columns and accumulates the
//!   WY factors `V`, `T` and `Y = A·V·T` needed by the blocked updates
//!   (paper §3.4, Eq. 1).
//! * [`gehrd`] — the blocked reduction (Algorithm 1 of the paper): per panel,
//!   `lahr2`, then the right update `A ← A − Y·Vᵀ` (a GEMM) and the left
//!   update `A ← A − V·Tᵀ·Vᵀ·A` (a LARFB).
//!
//! Reflectors are stored below the first subdiagonal of `A` (LAPACK
//! convention); `tau[c]` is the scalar of the reflector that annihilates
//! column `c` below the subdiagonal. [`orghr`] assembles the orthogonal `Q`,
//! and [`extract_h`] the Hessenberg `H`.
//!
//! All indices are 0-based: the reflector for column `c` has its implicit
//! unit at row `c + 1` and acts on rows `c+1..n`.

use crate::householder::{larf_left, larf_right, larfb, larfg};
use ft_dense::level1::{axpy, scal};
use ft_dense::level2::{gemv, trmv};
use ft_dense::level3::{gemm, trmm};
use ft_dense::{Diag, Matrix, Side, Trans, UpLo};

/// Default panel width used by [`gehrd`] when callers have no preference.
pub const DEFAULT_NB: usize = 32;

/// Unblocked Hessenberg reduction of the full matrix (LAPACK `dgehd2`).
///
/// On exit the upper triangle and first subdiagonal of `a` hold `H`; the
/// reflectors are stored below the first subdiagonal; `tau` (length ≥ n−1,
/// or empty for n ≤ 1) holds the reflector scalars.
pub fn gehd2(a: &mut Matrix, tau: &mut [f64]) {
    gehd2_range(a, 0, tau);
}

/// Unblocked reduction of columns `k0..n−2` assuming columns `0..k0` are
/// already reduced (used for the remainder block of [`gehrd`]).
pub fn gehd2_range(a: &mut Matrix, k0: usize, tau: &mut [f64]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "gehd2: matrix must be square");
    if n > 1 {
        assert!(tau.len() >= n - 1, "gehd2: tau too short");
    }
    let lda = n;
    for c in k0..n.saturating_sub(2) {
        // Generate the reflector annihilating A(c+2..n, c).
        let (tau_c, beta) = {
            let col = a.col_mut(c);
            let (head, tail) = col[c + 1..].split_at_mut(1);
            let t = larfg(&mut head[0], tail);
            (t, head[0])
        };
        tau[c] = tau_c;
        a[(c + 1, c)] = 1.0;
        let v: Vec<f64> = (c + 1..n).map(|i| a[(i, c)]).collect();

        // Similarity transform: A ← H·A·H (H symmetric).
        {
            // Right: A(0..n, c+1..n) ← A(0..n, c+1..n)·H
            let buf = a.as_mut_slice();
            larf_right(tau_c, &v, n, n - c - 1, &mut buf[(c + 1) * lda..], lda);
            // Left: A(c+1..n, c+1..n) ← H·A(c+1..n, c+1..n)
            larf_left(tau_c, &v, n - c - 1, n - c - 1, &mut buf[(c + 1) + (c + 1) * lda..], lda);
        }
        a[(c + 1, c)] = beta;
    }
}

/// Panel kernel (LAPACK `dlahr2`): reduce panel columns `k..k+nb` of the
/// `n×n` matrix `a` in place and accumulate the blocked factors.
///
/// On exit:
/// * the panel columns of `a` hold the reduced Hessenberg entries on and
///   above the subdiagonal and the reflectors `V` below (reflector `j`'s
///   unit at row `k+j+1` is stored *explicitly restored* to the subdiagonal
///   value; use the offsets documented in [`gehrd`] when reading `V`);
/// * `tau[0..nb]` holds the reflector scalars;
/// * `t` (`nb×nb`) holds the upper triangular WY factor `T`;
/// * `y` (`n×nb`) holds `Y = Â·V·T` where `Â` is the matrix state at panel
///   entry (full height: rows `0..n`).
///
/// Requires `k + nb + 1 < n` (the last reflector needs a nonempty tail) —
/// callers route smaller remainders to [`gehd2_range`].
pub fn lahr2(a: &mut Matrix, k: usize, nb: usize, tau: &mut [f64], t: &mut Matrix, y: &mut Matrix) {
    let n = a.rows();
    assert_eq!(a.cols(), n);
    assert!(nb >= 1);
    assert!(k + nb + 1 < n, "lahr2: panel does not fit (k={k}, nb={nb}, n={n})");
    assert!(tau.len() >= nb);
    assert!(t.rows() >= nb && t.cols() >= nb);
    assert!(y.rows() >= n && y.cols() >= nb);
    let lda = n;
    let ldt = t.rows();
    let ldy = y.rows();

    let mut ei = 0.0f64;
    for j in 0..nb {
        let c = k + j; // global column being reduced
        let u = c + 1; // unit row of its reflector

        if j > 0 {
            // ---- Update column c with the j previous reflectors ----------
            // Right update: A(k+1..n, c) −= Y(k+1..n, 0..j) · V(k+j, 0..j)ᵀ.
            // Row k+j of V: entry l is stored at a(k+j, k+l); the entry for
            // l = j−1 is the implicit unit, still physically 1 here.
            let vrow: Vec<f64> = (0..j).map(|l| a[(k + j, k + l)]).collect();
            {
                let (ydone, _) = y.as_slice().split_at(j * ldy + ldy);
                let bcol = &mut a.as_mut_slice()[c * lda + (k + 1)..c * lda + n];
                gemv(Trans::No, n - k - 1, j, -1.0, &ydone[k + 1..], ldy, &vrow, 1.0, bcol);
            }

            // Left update: b ← b − V·Tᵀ·Vᵀ·b where b = A(k+1..n, c) and
            // V = reflector columns 0..j (rows k+1..n). Split
            // V = [V1 (j×j unit lower-tri, rows k+1..=k+j); V2 (below)].
            {
                let (vpart, ccol) = a.as_mut_slice().split_at_mut(c * lda);
                let v1 = &vpart[k * lda + (k + 1)..]; // V1 at (k+1, k), lda
                let v2 = &vpart[k * lda + (k + j + 1)..]; // V2 at (k+j+1, k), lda
                let b = &mut ccol[k + 1..n]; // rows k+1..n of column c
                let (b1, b2) = b.split_at_mut(j); // rows k+1..=k+j | k+j+1..n

                // w = V1ᵀ·b1
                let mut w = b1.to_vec();
                trmv(UpLo::Lower, Trans::Yes, Diag::Unit, j, v1, lda, &mut w);
                // w += V2ᵀ·b2
                gemv(Trans::Yes, n - k - j - 1, j, 1.0, v2, lda, b2, 1.0, &mut w);
                // w ← Tᵀ·w
                trmv(UpLo::Upper, Trans::Yes, Diag::NonUnit, j, t.as_slice(), ldt, &mut w);
                // b2 −= V2·w
                gemv(Trans::No, n - k - j - 1, j, -1.0, v2, lda, &w, 1.0, b2);
                // b1 −= V1·w
                trmv(UpLo::Lower, Trans::No, Diag::Unit, j, v1, lda, &mut w);
                axpy(-1.0, &w, b1);
            }
            // Restore the previous reflector's unit position to its
            // subdiagonal value β (it was 1 while serving as V).
            a[(k + j, c - 1)] = ei;
        }

        // ---- Generate the reflector for column c -------------------------
        let tau_j = {
            let col = a.col_mut(c);
            let (head, tail) = col[u..].split_at_mut(1);
            larfg(&mut head[0], tail)
        };
        tau[j] = tau_j;
        ei = a[(u, c)];
        a[(u, c)] = 1.0;

        // ---- Y(k+1..n, j) = A(k+1..n, c+1..n)·v, v = A(u..n, c) ----------
        {
            let abuf = a.as_slice();
            let trailing = &abuf[(c + 1) * lda + (k + 1)..];
            let v = &abuf[c * lda + u..c * lda + n];
            let ycol = &mut y.as_mut_slice()[j * ldy + (k + 1)..j * ldy + n];
            gemv(Trans::No, n - k - 1, n - c - 1, 1.0, trailing, lda, v, 0.0, ycol);
        }

        // ---- tcol = V(u..n, 0..j)ᵀ·v (v is zero above its unit) ----------
        let mut tcol = vec![0.0; j];
        {
            let abuf = a.as_slice();
            let vprev = &abuf[k * lda + u..];
            let v = &abuf[c * lda + u..c * lda + n];
            gemv(Trans::Yes, n - u, j, 1.0, vprev, lda, v, 0.0, &mut tcol);
        }

        // ---- Y(:, j) −= Y(:, 0..j)·tcol ; Y(:, j) ·= τⱼ -------------------
        {
            let (ydone, ycur) = y.as_mut_slice().split_at_mut(j * ldy);
            let ycol = &mut ycur[k + 1..n];
            if j > 0 {
                gemv(Trans::No, n - k - 1, j, -1.0, &ydone[k + 1..], ldy, &tcol, 1.0, ycol);
            }
            scal(tau_j, ycol);
        }

        // ---- T(0..j, j) -----------------------------------------------
        scal(-tau_j, &mut tcol);
        trmv(UpLo::Upper, Trans::No, Diag::NonUnit, j, t.as_slice(), ldt, &mut tcol);
        for (l, v) in tcol.iter().enumerate() {
            t[(l, j)] = *v;
        }
        t[(j, j)] = tau_j;
    }
    // Restore the last reflector's unit position.
    a[(k + nb, k + nb - 1)] = ei;

    // ---- Top part of Y: Y(0..=k, :) = A(0..=k, k+1..n)·V·T --------------
    // = A(0..=k, k+1..=k+nb)·V1 + A(0..=k, k+nb+1..n)·V2, then ·T.
    for jj in 0..nb {
        for i in 0..=k {
            y[(i, jj)] = a[(i, k + 1 + jj)];
        }
    }
    {
        let abuf = a.as_slice();
        let ybuf = y.as_mut_slice();
        let v1 = &abuf[k * lda + (k + 1)..]; // nb×nb unit lower tri at (k+1, k)
        trmm(Side::Right, UpLo::Lower, Trans::No, Diag::Unit, k + 1, nb, 1.0, v1, lda, ybuf, ldy);
        if n > k + nb + 1 {
            let atop = &abuf[(k + nb + 1) * lda..]; // A(0.., k+nb+1..)
            let v2 = &abuf[k * lda + (k + nb + 1)..]; // V rows k+nb+1..n
            gemm(Trans::No, Trans::No, k + 1, nb, n - k - nb - 1, 1.0, atop, lda, v2, lda, 1.0, ybuf, ldy);
        }
        trmm(Side::Right, UpLo::Upper, Trans::No, Diag::NonUnit, k + 1, nb, 1.0, t.as_slice(), ldt, ybuf, ldy);
    }
    // NOTE: a(k+nb, k+nb-1) currently holds β (restored above). gehrd's
    // right update needs it set to 1 again; it does so itself around the
    // GEMM, exactly like LAPACK.
}

/// Blocked Hessenberg reduction (LAPACK `dgehrd`; Algorithm 1 of the paper).
///
/// Reduces `a` in place with panel width `nb`. Reflector storage and `tau`
/// conventions match [`gehd2`], and the two routines produce the same
/// factorization up to roundoff.
pub fn gehrd(a: &mut Matrix, nb: usize, tau: &mut [f64]) {
    let n = a.rows();
    assert_eq!(a.cols(), n, "gehrd: matrix must be square");
    if n > 1 {
        assert!(tau.len() >= n - 1, "gehrd: tau too short");
    }
    let nb = nb.max(1);
    let lda = n;
    if n <= 2 || nb == 1 {
        gehd2(a, tau);
        return;
    }

    let mut t = Matrix::zeros(nb, nb);
    let mut y = Matrix::zeros(n, nb);
    let mut k = 0;
    while k + nb + 1 < n {
        lahr2(a, k, nb, &mut tau[k..k + nb], &mut t, &mut y);

        // ---- Right update of trailing columns: A(:, k+nb..n) −= Y·V_bᵀ ----
        // V_b = V rows k+nb..n (row r of V belongs to trailing column r).
        let ei = a[(k + nb, k + nb - 1)];
        a[(k + nb, k + nb - 1)] = 1.0;
        {
            let (vpart, cpart) = a.as_mut_slice().split_at_mut((k + nb) * lda);
            let vb = &vpart[k * lda + (k + nb)..];
            gemm(Trans::No, Trans::Yes, n, n - k - nb, nb, -1.0, y.as_slice(), y.rows(), vb, lda, 1.0, cpart, lda);
        }
        a[(k + nb, k + nb - 1)] = ei;

        // ---- Top rows of the within-panel columns -------------------------
        // A(0..=k, k+1..k+nb) −= Y(0..=k, 0..nb−1)·V1′ᵀ where V1′ is the
        // (nb−1)×(nb−1) unit lower triangle of V at rows k+1..k+nb−1.
        if nb > 1 {
            let mut w = Matrix::from_fn(k + 1, nb - 1, |i, jj| y[(i, jj)]);
            let v1p = &a.as_slice()[k * lda + (k + 1)..];
            trmm(
                Side::Right,
                UpLo::Lower,
                Trans::Yes,
                Diag::Unit,
                k + 1,
                nb - 1,
                1.0,
                v1p,
                lda,
                w.as_mut_slice(),
                k + 1,
            );
            for jj in 0..nb - 1 {
                for i in 0..=k {
                    a[(i, k + 1 + jj)] -= w[(i, jj)];
                }
            }
        }

        // ---- Left update: A(k+1..n, k+nb..n) ← Qᵀ·A(k+1..n, k+nb..n) ------
        {
            let (vpart, cpart) = a.as_mut_slice().split_at_mut((k + nb) * lda);
            let v = &vpart[k * lda + (k + 1)..];
            larfb(
                Side::Left,
                Trans::Yes,
                n - k - 1,
                n - k - nb,
                nb,
                v,
                lda,
                t.as_slice(),
                t.rows(),
                &mut cpart[k + 1..],
                lda,
            );
        }

        k += nb;
    }
    // Remainder: unblocked.
    gehd2_range(a, k, tau);
}

/// Extract the Hessenberg matrix `H` from the output of [`gehrd`]/[`gehd2`]
/// (zeroing the stored reflectors below the first subdiagonal).
pub fn extract_h(a: &Matrix) -> Matrix {
    let n = a.rows();
    Matrix::from_fn(n, n, |i, j| if i > j + 1 { 0.0 } else { a[(i, j)] })
}

/// Assemble the orthogonal factor `Q = H₀·H₁⋯H_{n−3}` from the reflectors
/// stored by [`gehrd`]/[`gehd2`] (LAPACK `dorghr`).
pub fn orghr(a: &Matrix, tau: &[f64]) -> Matrix {
    let n = a.rows();
    let mut q = Matrix::identity(n);
    if n < 3 {
        return q;
    }
    let ldq = n;
    // Apply reflectors in reverse; columns 0..=c of Q stay identity while
    // reflector c is applied, so only the trailing block is touched.
    for c in (0..n - 2).rev() {
        if tau[c] == 0.0 {
            continue;
        }
        let mut v = vec![0.0; n - c - 1];
        v[0] = 1.0;
        for (idx, i) in (c + 2..n).enumerate() {
            v[idx + 1] = a[(i, c)];
        }
        let qbuf = q.as_mut_slice();
        larf_left(tau[c], &v, n - c - 1, n - c - 1, &mut qbuf[(c + 1) + (c + 1) * ldq..], ldq);
    }
    q
}

/// Convenience: reduce a copy of `a`, returning `(H, Q)` with `A ≈ Q·H·Qᵀ`.
///
/// ```
/// use ft_dense::gen::uniform;
/// use ft_lapack::{hessenberg, hessenberg_residual, is_hessenberg};
///
/// let a = uniform(32, 32, 7);
/// let (h, q) = hessenberg(&a, 8);
/// assert!(is_hessenberg(&h));
/// assert!(hessenberg_residual(&a, &h, &q) < 3.0); // the paper's r_t
/// ```
pub fn hessenberg(a: &Matrix, nb: usize) -> (Matrix, Matrix) {
    let n = a.rows();
    let mut work = a.clone();
    let mut tau = vec![0.0; n.saturating_sub(1)];
    gehrd(&mut work, nb, &mut tau);
    (extract_h(&work), orghr(&work, &tau))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::residual::{hessenberg_residual, is_hessenberg, orthogonality_residual};
    use ft_dense::gen::uniform;

    fn check_factorization(a0: &Matrix, afact: &Matrix, tau: &[f64], tol: f64) {
        let h = extract_h(afact);
        assert!(is_hessenberg(&h));
        let q = orghr(afact, tau);
        let orth = orthogonality_residual(&q);
        assert!(orth < tol, "Q not orthogonal: {orth}");
        let r = hessenberg_residual(a0, &h, &q);
        assert!(r < tol, "residual too large: {r}");
    }

    #[test]
    fn gehd2_reduces_random_matrices() {
        for n in [1usize, 2, 3, 4, 7, 16, 33] {
            let a0 = uniform(n, n, n as u64);
            let mut a = a0.clone();
            let mut tau = vec![0.0; n.saturating_sub(1)];
            gehd2(&mut a, &mut tau);
            check_factorization(&a0, &a, &tau, 10.0);
        }
    }

    #[test]
    fn gehrd_matches_gehd2() {
        for n in [5usize, 12, 29, 64] {
            for nb in [1usize, 2, 4, 8, 100] {
                let a0 = uniform(n, n, 7 + n as u64);
                let mut a1 = a0.clone();
                let mut tau1 = vec![0.0; n - 1];
                gehd2(&mut a1, &mut tau1);
                let mut a2 = a0.clone();
                let mut tau2 = vec![0.0; n - 1];
                gehrd(&mut a2, nb, &mut tau2);
                check_factorization(&a0, &a2, &tau2, 10.0);
                // Same factorization up to roundoff (identical reflector
                // sign conventions make H unique here).
                let h1 = extract_h(&a1);
                let h2 = extract_h(&a2);
                let d = h1.max_abs_diff(&h2);
                assert!(d < 1e-10, "n={n} nb={nb}: H mismatch {d}");
            }
        }
    }

    #[test]
    fn lahr2_consistent_with_blocked_update() {
        // One panel of lahr2 + manual updates must equal gehd2 on the same
        // columns. Exercised indirectly by gehrd_matches_gehd2; here we
        // additionally validate the Y identity: Y = Â·V·T.
        let n = 20;
        let nb = 4;
        let a0 = uniform(n, n, 99);
        let mut a = a0.clone();
        let mut tau = vec![0.0; nb];
        let mut t = Matrix::zeros(nb, nb);
        let mut y = Matrix::zeros(n, nb);
        lahr2(&mut a, 0, nb, &mut tau, &mut t, &mut y);

        // Materialize V (unit at row j+1 for panel k=0).
        let mut v = Matrix::zeros(n, nb);
        for j in 0..nb {
            v[(j + 1, j)] = 1.0;
            for i in j + 2..n {
                v[(i, j)] = a[(i, j)];
            }
        }
        // Y should equal A0·V·T.
        let mut av = Matrix::zeros(n, nb);
        ft_dense::level3::gemm(Trans::No, Trans::No, n, nb, n, 1.0, a0.as_slice(), n, v.as_slice(), n, 0.0, av.as_mut_slice(), n);
        let mut avt = Matrix::zeros(n, nb);
        ft_dense::level3::gemm(
            Trans::No,
            Trans::No,
            n,
            nb,
            nb,
            1.0,
            av.as_slice(),
            n,
            t.as_slice(),
            nb,
            0.0,
            avt.as_mut_slice(),
            n,
        );
        let d = avt.max_abs_diff(&y);
        assert!(d < 1e-12, "Y ≠ A·V·T: {d}");
    }

    #[test]
    fn hessenberg_convenience() {
        let a = uniform(24, 24, 5);
        let (h, q) = hessenberg(&a, 6);
        assert!(is_hessenberg(&h));
        assert!(hessenberg_residual(&a, &h, &q) < 10.0);
    }

    #[test]
    fn already_hessenberg_is_fixed_point() {
        // Reducing an upper Hessenberg matrix must leave it essentially
        // unchanged (all reflectors are identity).
        let n = 10;
        let a0 = ft_dense::gen::diag_dominant_hessenberg(&(0..n).map(|i| i as f64 + 1.0).collect::<Vec<_>>(), 3);
        let mut a = a0.clone();
        let mut tau = vec![0.0; n - 1];
        gehrd(&mut a, 4, &mut tau);
        assert!(tau.iter().all(|&t| t == 0.0));
        assert!(a.max_abs_diff(&a0) < 1e-14);
    }
}
