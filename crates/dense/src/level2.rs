//! Level-2 BLAS: matrix-vector kernels on column-major storage.
//!
//! Each kernel takes the matrix as a raw slice plus an explicit leading
//! dimension, so callers can address sub-matrices by offsetting into a larger
//! buffer exactly as LAPACK does with `A(i,j)` arguments.

use crate::counters::add_flops;
use crate::{Diag, Trans, UpLo};

/// General matrix-vector product:
/// `y ← α·op(A)·x + β·y` where `op(A)` is `A` (`m×n`) or `Aᵀ`.
///
/// `x` has length `n` for [`Trans::No`], `m` for [`Trans::Yes`]; `y` the
/// other one. Register-blocked by columns, yet bitwise equal to one AXPY
/// (or one dot) per column on every ISA (DESIGN.md §14.2).
pub fn gemv(trans: Trans, m: usize, n: usize, alpha: f64, a: &[f64], lda: usize, x: &[f64], beta: f64, y: &mut [f64]) {
    assert!(lda >= m.max(1), "gemv: lda {lda} < m {m}");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "gemv: A buffer too small");
    }
    let (xlen, ylen) = match trans {
        Trans::No => (n, m),
        Trans::Yes => (m, n),
    };
    assert_eq!(x.len(), xlen, "gemv: x length");
    assert_eq!(y.len(), ylen, "gemv: y length");

    if beta != 1.0 {
        if beta == 0.0 {
            y.fill(0.0);
        } else {
            for yi in y.iter_mut() {
                *yi *= beta;
            }
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    add_flops(2 * m as u64 * n as u64);

    match trans {
        Trans::No => {
            // Column sweep y += (alpha·x[j])·A(:,j), skipping t == 0 columns.
            // Nonzero columns are gathered AXPY_COLS at a time and applied in
            // one pass over y: each y[i] still takes its terms one by one in
            // column order, only y is loaded and stored once per block.
            let mut offs = [0; AXPY_COLS];
            let mut ts = [0.0; AXPY_COLS];
            let mut k = 0;
            for (j, &xj) in x.iter().enumerate() {
                let t = alpha * xj;
                if t == 0.0 {
                    continue;
                }
                offs[k] = j * lda;
                ts[k] = t;
                k += 1;
                if k == AXPY_COLS {
                    axpy_cols(y, a, &offs, &ts);
                    k = 0;
                }
            }
            // The last k < AXPY_COLS columns: four at once if there are as
            // many, the rest one at a time.
            let mut c = 0;
            if k >= 4 {
                axpy_cols::<4>(y, a, &std::array::from_fn(|c| offs[c]), &std::array::from_fn(|c| ts[c]));
                c = 4;
            }
            for c in c..k {
                axpy_cols::<1>(y, a, &[offs[c]], &[ts[c]]);
            }
        }
        Trans::Yes => {
            // Dot per column: y[j] += alpha·(A(:,j)·x), DOT_COLS columns per
            // pass in independent accumulators. A short last block repeats
            // its final column and drops the duplicate sums.
            for j0 in (0..n).step_by(DOT_COLS) {
                let w = DOT_COLS.min(n - j0);
                let offs: [usize; DOT_COLS] = std::array::from_fn(|c| (j0 + c.min(w - 1)) * lda);
                let s = dot_cols(a, &offs, x);
                for c in 0..w {
                    y[j0 + c] += alpha * s[c];
                }
            }
        }
    }
}

/// Nonzero columns applied per pass over `y` in [`gemv`]'s `Trans::No` path.
const AXPY_COLS: usize = 8;
/// Columns whose dot products [`gemv`]'s `Trans::Yes` path runs at once.
const DOT_COLS: usize = 4;
/// Rows per batch of products in [`dot_cols`].
const DOT_ROWS: usize = 8;

/// `y[i] = (((y[i] + t₀·c₀[i]) + t₁·c₁[i]) + …)` where `cₖ` is the column
/// of `a` starting at `offs[k]`: `K` AXPYs fused into one pass, each element
/// summing in the same order as `K` separate ones.
#[inline(always)]
fn axpy_cols<const K: usize>(y: &mut [f64], a: &[f64], offs: &[usize; K], ts: &[f64; K]) {
    let m = y.len();
    let cols: [&[f64]; K] = std::array::from_fn(|c| &a[offs[c]..offs[c] + m]);
    for (i, yi) in y.iter_mut().enumerate() {
        let mut acc = *yi;
        for c in 0..K {
            acc += ts[c] * cols[c][i];
        }
        *yi = acc;
    }
}

/// The dot products `cₖ·x` for the `K` columns of `a` starting at `offs`,
/// each summed from `0.0` strictly in row order. Products are formed
/// `DOT_ROWS` rows at a time (they are independent, so they vectorize);
/// only the sums are sequential, and the `K` chains overlap.
#[inline(always)]
fn dot_cols<const K: usize>(a: &[f64], offs: &[usize; K], x: &[f64]) -> [f64; K] {
    let m = x.len();
    let cols: [&[f64]; K] = std::array::from_fn(|c| &a[offs[c]..offs[c] + m]);
    let mut s = [0.0; K];
    let mut xs = x.chunks_exact(DOT_ROWS);
    for (r, xr) in xs.by_ref().enumerate() {
        let i = r * DOT_ROWS;
        let mut p = [[0.0; DOT_ROWS]; K];
        for c in 0..K {
            for l in 0..DOT_ROWS {
                p[c][l] = cols[c][i + l] * xr[l];
            }
        }
        for c in 0..K {
            for pl in p[c] {
                s[c] += pl;
            }
        }
    }
    for i in m - xs.remainder().len()..m {
        for c in 0..K {
            s[c] += cols[c][i] * x[i];
        }
    }
    s
}

/// Rank-1 update: `A ← α·x·yᵀ + A` with `A` being `m×n`.
pub fn ger(m: usize, n: usize, alpha: f64, x: &[f64], y: &[f64], a: &mut [f64], lda: usize) {
    assert!(lda >= m.max(1));
    assert_eq!(x.len(), m, "ger: x length");
    assert_eq!(y.len(), n, "ger: y length");
    if m > 0 && n > 0 {
        assert!(a.len() >= lda * (n - 1) + m, "ger: A buffer too small");
    }
    if alpha == 0.0 {
        return;
    }
    add_flops(2 * m as u64 * n as u64);
    for j in 0..n {
        let t = alpha * y[j];
        if t == 0.0 {
            continue;
        }
        let col = &mut a[j * lda..j * lda + m];
        for i in 0..m {
            col[i] += t * x[i];
        }
    }
}

/// Triangular matrix-vector product: `x ← op(A)·x` where `A` is an `n×n`
/// upper or lower triangular matrix, optionally with an implicit unit
/// diagonal (the part outside the selected triangle is never referenced).
pub fn trmv(uplo: UpLo, trans: Trans, diag: Diag, n: usize, a: &[f64], lda: usize, x: &mut [f64]) {
    assert!(lda >= n.max(1));
    assert_eq!(x.len(), n, "trmv: x length");
    if n == 0 {
        return;
    }
    assert!(a.len() >= lda * (n - 1) + n, "trmv: A buffer too small");
    add_flops(n as u64 * n as u64);

    let unit = matches!(diag, Diag::Unit);
    match (uplo, trans) {
        (UpLo::Upper, Trans::No) => {
            // x[i] = sum_{j>=i} A(i,j) x[j]; process columns left→right,
            // scattering into earlier x entries (they are finalized in order).
            for j in 0..n {
                let t = x[j];
                if t != 0.0 {
                    let col = &a[j * lda..];
                    for i in 0..j {
                        x[i] += t * col[i];
                    }
                }
                if !unit {
                    x[j] = t * a[j + j * lda];
                }
            }
        }
        (UpLo::Upper, Trans::Yes) => {
            // x[j] = sum_{i<=j} A(i,j) x[i]; right→left using dots.
            for j in (0..n).rev() {
                let col = &a[j * lda..];
                let mut s = if unit { x[j] } else { x[j] * col[j] };
                for i in 0..j {
                    s += col[i] * x[i];
                }
                x[j] = s;
            }
        }
        (UpLo::Lower, Trans::No) => {
            for j in (0..n).rev() {
                let t = x[j];
                if t != 0.0 {
                    let col = &a[j * lda..];
                    for i in j + 1..n {
                        x[i] += t * col[i];
                    }
                }
                if !unit {
                    x[j] = t * a[j + j * lda];
                }
            }
        }
        (UpLo::Lower, Trans::Yes) => {
            for j in 0..n {
                let col = &a[j * lda..];
                let mut s = if unit { x[j] } else { x[j] * col[j] };
                for i in j + 1..n {
                    s += col[i] * x[i];
                }
                x[j] = s;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Matrix;

    fn gemv_naive(trans: Trans, a: &Matrix, x: &[f64]) -> Vec<f64> {
        let (m, n) = (a.rows(), a.cols());
        match trans {
            Trans::No => (0..m).map(|i| (0..n).map(|j| a[(i, j)] * x[j]).sum()).collect(),
            Trans::Yes => (0..n).map(|j| (0..m).map(|i| a[(i, j)] * x[i]).sum()).collect(),
        }
    }

    #[test]
    fn gemv_matches_naive() {
        let a = Matrix::from_fn(4, 3, |i, j| (i + 1) as f64 * 0.5 + j as f64);
        let x = [1.0, -2.0, 0.5];
        let mut y = vec![1.0; 4];
        gemv(Trans::No, 4, 3, 2.0, a.as_slice(), 4, &x, 3.0, &mut y);
        let nv = gemv_naive(Trans::No, &a, &x);
        for i in 0..4 {
            assert!((y[i] - (2.0 * nv[i] + 3.0)).abs() < 1e-14);
        }

        let x2 = [1.0, 2.0, 3.0, 4.0];
        let mut y2 = vec![0.0; 3];
        gemv(Trans::Yes, 4, 3, 1.0, a.as_slice(), 4, &x2, 0.0, &mut y2);
        let nv2 = gemv_naive(Trans::Yes, &a, &x2);
        for j in 0..3 {
            assert!((y2[j] - nv2[j]).abs() < 1e-14);
        }
    }

    #[test]
    fn gemv_beta_zero_clears_nan() {
        // beta = 0 must overwrite y even if it contains NaN (BLAS convention).
        let a = Matrix::identity(2);
        let mut y = vec![f64::NAN; 2];
        gemv(Trans::No, 2, 2, 1.0, a.as_slice(), 2, &[1.0, 2.0], 0.0, &mut y);
        assert_eq!(y, vec![1.0, 2.0]);
    }

    #[test]
    fn gemv_submatrix_via_lda() {
        // Address the 2x2 bottom-right block of a 3x3 matrix via offset + lda.
        let a = Matrix::from_fn(3, 3, |i, j| (3 * i + j) as f64);
        let off = 1 + 3; // (1,1)
        let mut y = vec![0.0; 2];
        gemv(Trans::No, 2, 2, 1.0, &a.as_slice()[off..], 3, &[1.0, 1.0], 0.0, &mut y);
        // block = [[4,5],[7,8]]
        assert_eq!(y, vec![9.0, 15.0]);
    }

    #[test]
    fn ger_rank1() {
        let mut a = Matrix::zeros(2, 3);
        let lda = a.ld();
        ger(2, 3, 2.0, &[1.0, 2.0], &[1.0, 0.0, -1.0], a.as_mut_slice(), lda);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(1, 0)], 4.0);
        assert_eq!(a[(1, 2)], -4.0);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn trmv_all_variants_match_naive() {
        let n = 5;
        let a = Matrix::from_fn(n, n, |i, j| ((i * n + j) % 7) as f64 + 1.0);
        let x0: Vec<f64> = (0..n).map(|i| i as f64 - 2.0).collect();
        for uplo in [UpLo::Upper, UpLo::Lower] {
            for trans in [Trans::No, Trans::Yes] {
                for diag in [Diag::Unit, Diag::NonUnit] {
                    // Build the dense triangular matrix explicitly.
                    let t = Matrix::from_fn(n, n, |i, j| {
                        let inside = match uplo {
                            UpLo::Upper => i <= j,
                            UpLo::Lower => i >= j,
                        };
                        if i == j {
                            match diag {
                                Diag::Unit => 1.0,
                                Diag::NonUnit => a[(i, j)],
                            }
                        } else if inside {
                            a[(i, j)]
                        } else {
                            0.0
                        }
                    });
                    let expect = gemv_naive(trans, &t, &x0);
                    let mut x = x0.clone();
                    trmv(uplo, trans, diag, n, a.as_slice(), n, &mut x);
                    for i in 0..n {
                        assert!((x[i] - expect[i]).abs() < 1e-12, "{uplo:?} {trans:?} {diag:?} i={i}: {} vs {}", x[i], expect[i]);
                    }
                }
            }
        }
    }

    #[test]
    fn trmv_empty() {
        let mut x: Vec<f64> = vec![];
        trmv(UpLo::Upper, Trans::No, Diag::NonUnit, 0, &[], 1, &mut x);
    }
}
