//! Cross-ISA kernel-equivalence battery: the packed register-tiled GEMM
//! (and the pre-packed-A variant) under **every detected ISA and a sweep of
//! thread counts** against two oracles over seeded *adversarial* shapes —
//! everything that exercises fringe/remainder tiles, the KC block boundary,
//! zero-padding, and strided sub-matrix views.
//!
//! Oracles and tolerances (the DESIGN.md §14 determinism contract):
//!
//! * the naive triple-loop [`gemm_naive`] anchors absolute correctness;
//! * the forced-scalar packed kernel is the bitwise reference for its own
//!   contraction class: scalar results must match it to **0 ulp** at every
//!   thread count;
//! * fused ISAs (AVX2/AVX-512/NEON) differ from scalar only by the fused
//!   multiply-add rounding in the k-loop, so they must stay within
//!   `2·(k+2)·ε·(|α|·Σ|a||b| + |β·c|)` of the scalar reference per element
//!   (≤ 2 ulp · K) — and must be **bitwise identical to each other** and
//!   across thread counts;
//! * `gemm` and `gemm_packed_a` must agree to 0 ulp in every configuration.
//!
//! A second battery pins the register-blocked level-2 `gemv` to **0 ulp**
//! against the column-at-a-time loop it replaced (kept here, never in the
//! library): blocking groups columns but must not reorder any element's
//! mul-then-add sequence, nor apply a column whose `α·x[j]` is zero.
//!
//! The battery counts every (ISA × threads) configuration it actually ran;
//! a host that silently exercised only the scalar path fails the assertion,
//! and CI pins the expected ISA set via `FT_REQUIRE_ISAS` (comma-separated
//! names that must be both detected and exercised).
//!
//! The ABFT layer routes checksum-column updates through these exact
//! kernels; a silent fringe-tile bug would corrupt checksums in ways the
//! recovery math then faithfully propagates. This suite exists so that can
//! never happen silently — on any ISA.
//!
//! Deterministic: the seed is fixed (override with `FT_FUZZ_SEED` to
//! explore a different corner of the space; CI pins it).

use ft_dense::level2::gemv;
use ft_dense::level3::{
    blocking, detected_isas, gemm, gemm_naive, gemm_packed_a, set_isa_override, set_threads_override, PackedA, MR, NR,
};
use ft_dense::rng::Xoshiro256;
use ft_dense::simd::Isa;
use ft_dense::{Matrix, Trans, EPS};
use std::collections::BTreeSet;
use std::sync::{Mutex, MutexGuard};

/// ISA/thread overrides are process-global; every test that flips them (or
/// relies on them being stable across two calls) holds this lock.
static OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// Lock + RAII reset: overrides always return to the env defaults, even if
/// the test panics mid-sweep.
struct OverrideGuard(#[allow(dead_code)] MutexGuard<'static, ()>);

impl OverrideGuard {
    fn take() -> OverrideGuard {
        OverrideGuard(OVERRIDE_LOCK.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

impl Drop for OverrideGuard {
    fn drop(&mut self) {
        set_isa_override(None);
        set_threads_override(None);
    }
}

fn fuzz_seed() -> u64 {
    std::env::var("FT_FUZZ_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0xC0FFEE)
}

/// The interesting extents for any of m/n/k: tiny shapes (1..=17 covers
/// every MR/NR fringe combination), the register-tile edges, and the KC
/// cache-block boundary where the fused-β handoff (β on the first k-block,
/// accumulate afterwards) happens.
fn interesting_extents() -> Vec<usize> {
    let kc = blocking().kc;
    let mut v: Vec<usize> = (1..=17).collect();
    v.extend_from_slice(&[MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 2 * MR + 3, 3 * NR + 1]);
    v.extend_from_slice(&[kc - 1, kc, kc + 1]);
    v.sort_unstable();
    v.dedup();
    v
}

const COEFFS: [f64; 4] = [0.0, 1.0, -1.0, 0.5];

/// Thread counts every configuration sweeps (`FT_GEMM_THREADS ∈ {1,2,4}`).
const THREAD_SWEEP: [usize; 3] = [1, 2, 4];

/// Fill an `(rows × cols)` buffer with leading dimension `ld`, garbage in
/// the stride gaps (NaN — so any kernel touching out-of-window memory is
/// caught by the comparison, and any β=0 read of C poisons the result).
fn strided_with_nan_gaps(rng: &mut Xoshiro256, rows: usize, cols: usize, ld: usize) -> Vec<f64> {
    let len = if cols == 0 { 0 } else { ld * (cols - 1) + rows };
    let mut buf = vec![f64::NAN; len];
    for j in 0..cols {
        for i in 0..rows {
            buf[i + j * ld] = rng.range_f64(-1.0, 1.0);
        }
    }
    buf
}

/// Per-element magnitude bound `|α|·Σ_l |a(i,l)·b(l,j)| + |β·c(i,j)|` — the
/// condition-style denominator of the fused-vs-scalar rounding bound.
#[allow(clippy::too_many_arguments)]
fn abs_magnitude(
    transa: Trans,
    transb: Trans,
    m: usize,
    n: usize,
    k: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &[f64],
    ldb: usize,
    beta: f64,
    c0: &[f64],
    ldc: usize,
) -> Matrix {
    let at = |i: usize, l: usize| match transa {
        Trans::No => a[i + l * lda],
        Trans::Yes => a[l + i * lda],
    };
    let bt = |l: usize, j: usize| match transb {
        Trans::No => b[l + j * ldb],
        Trans::Yes => b[j + l * ldb],
    };
    Matrix::from_fn(m, n, |i, j| {
        let mut s = 0.0;
        for l in 0..k {
            s += (at(i, l) * bt(l, j)).abs();
        }
        let ct = if beta == 0.0 { 0.0 } else { (beta * c0[i + j * ldc]).abs() };
        alpha.abs() * s + ct
    })
}

#[test]
fn cross_isa_differential_battery() {
    let _guard = OverrideGuard::take();
    let isas = detected_isas();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed());
    let extents = interesting_extents();
    let pick = |rng: &mut Xoshiro256, v: &[usize]| v[rng.range_usize(0, v.len())];
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);

    let mut exercised: BTreeSet<&'static str> = BTreeSet::new();
    let mut configs_run: usize = 0;

    for round in 0..rounds {
        let m = pick(&mut rng, &extents);
        let n = pick(&mut rng, &extents);
        let k = pick(&mut rng, &extents);
        let transa = if rng.next_below(2) == 0 { Trans::No } else { Trans::Yes };
        let transb = if rng.next_below(2) == 0 { Trans::No } else { Trans::Yes };
        let alpha = COEFFS[rng.range_usize(0, COEFFS.len())];
        let beta = COEFFS[rng.range_usize(0, COEFFS.len())];

        let (ar, ac) = if transa.is_trans() { (k, m) } else { (m, k) };
        let (br, bc) = if transb.is_trans() { (n, k) } else { (k, n) };
        // Strided views: ld strictly larger than rows half the time, with
        // NaN poison in the gaps.
        let lda = ar.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let ldb = br.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let ldc = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let a = strided_with_nan_gaps(&mut rng, ar, ac, lda);
        let b = strided_with_nan_gaps(&mut rng, br, bc, ldb);
        let c0 = strided_with_nan_gaps(&mut rng, m, n, ldc);

        let label =
            format!("round {round}: m={m} n={n} k={k} {transa:?}{transb:?} α={alpha} β={beta} lda={lda} ldb={ldb} ldc={ldc}");

        let mut c_ref = c0.clone();
        gemm_naive(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_ref, ldc);
        let want = Matrix::from_strided(m, n, &c_ref, ldc);
        // β = 0 with NaN-poisoned C must still produce finite output.
        if beta != 0.0 || c0.iter().all(|v| v.is_finite()) {
            assert!(want.as_slice().iter().all(|v| v.is_finite()), "oracle produced non-finite values: {label}");
        }
        let mag = abs_magnitude(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &c0, ldc);

        // Bitwise reference per contraction class: forced-scalar, 1 thread.
        set_isa_override(Some(Isa::Scalar));
        set_threads_override(Some(1));
        let mut c_scalar = c0.clone();
        gemm(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c_scalar, ldc);

        let pa = PackedA::pack(transa, m, k, &a, lda);
        // First fused result seen this round — every other fused config
        // must match it to 0 ulp (cross-vector-ISA determinism).
        let mut fused_ref: Option<(Vec<f64>, &'static str, usize)> = None;

        for &isa in isas {
            for &t in &THREAD_SWEEP {
                set_isa_override(Some(isa));
                set_threads_override(Some(t));
                let clabel = format!("{label} [isa={} threads={t}]", isa.name());

                let mut c1 = c0.clone();
                gemm(transa, transb, m, n, k, alpha, &a, lda, &b, ldb, beta, &mut c1, ldc);
                let mut c2 = c0.clone();
                gemm_packed_a(&pa, transb, n, alpha, &b, ldb, beta, &mut c2, ldc);

                // Pre-packed path is bitwise the pack-on-the-fly path.
                for (x, y) in c1.iter().zip(&c2) {
                    assert_eq!(x.to_bits(), y.to_bits(), "gemm vs gemm_packed_a drift: {clabel}");
                }
                // Outside the m×n window, C must be untouched (stride gaps
                // keep their NaN poison; bytes compare equal via to_bits).
                for (idx, (&new, &old)) in c1.iter().zip(c0.iter()).enumerate() {
                    let j = idx / ldc;
                    let i = idx % ldc;
                    if i >= m || j >= n {
                        assert_eq!(new.to_bits(), old.to_bits(), "touched C outside the window at ({i},{j}): {clabel}");
                    }
                }
                // Absolute correctness vs the naive oracle.
                let got = Matrix::from_strided(m, n, &c1, ldc);
                let d = got.max_abs_diff(&want);
                assert!(d < 1e-12 * (k.max(1) as f64), "vs naive: diff {d} at {clabel}");

                if isa.fused() {
                    // Fused class: per-element rounding bound vs scalar…
                    for j in 0..n {
                        for i in 0..m {
                            let diff = (c1[i + j * ldc] - c_scalar[i + j * ldc]).abs();
                            let bound = 2.0 * (k as f64 + 2.0) * EPS * mag[(i, j)];
                            assert!(
                                diff <= bound,
                                "fused-vs-scalar bound broken at ({i},{j}): diff {diff:e} > {bound:e} at {clabel}"
                            );
                        }
                    }
                    // …and 0 ulp vs every other fused ISA and thread count.
                    match &fused_ref {
                        None => fused_ref = Some((c1, isa.name(), t)),
                        Some((f, fisa, ft)) => {
                            for (x, y) in c1.iter().zip(f) {
                                assert_eq!(
                                    x.to_bits(),
                                    y.to_bits(),
                                    "fused ISAs disagree bitwise ({} t={t} vs {fisa} t={ft}): {label}",
                                    isa.name()
                                );
                            }
                        }
                    }
                } else {
                    // Scalar class: bitwise stable at every thread count.
                    for (x, y) in c1.iter().zip(&c_scalar) {
                        assert_eq!(x.to_bits(), y.to_bits(), "scalar class not bitwise stable: {clabel}");
                    }
                }
                exercised.insert(isa.name());
                configs_run += 1;
            }
        }
    }

    // Skip counter: every detected ISA ran every thread count, every round.
    assert_eq!(configs_run, rounds * isas.len() * THREAD_SWEEP.len(), "battery silently skipped configurations");
    for isa in isas {
        assert!(exercised.contains(isa.name()), "detected ISA {} never exercised", isa.name());
    }
    // CI pins the hardware contract: these ISAs must exist AND have run.
    if let Ok(req) = std::env::var("FT_REQUIRE_ISAS") {
        for name in req.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let isa = Isa::from_name(name).unwrap_or_else(|| panic!("FT_REQUIRE_ISAS contains unknown ISA {name:?}"));
            assert!(
                detected_isas().contains(&isa) && exercised.contains(isa.name()),
                "FT_REQUIRE_ISAS={req}: ISA {name} was not exercised (detected: {:?})",
                detected_isas().iter().map(|i| i.name()).collect::<Vec<_>>()
            );
        }
    }
}

/// β = 0 must *never* read C — NaN in every C slot, finite everywhere
/// after — on every detected ISA.
#[test]
fn beta_zero_never_reads_c_any_shape_any_isa() {
    let _guard = OverrideGuard::take();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x5EED);
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        for &m in &[1usize, MR - 1, MR, MR + 1, 13, 2 * MR + 1] {
            for &n in &[1usize, NR - 1, NR, NR + 1, 11, 2 * NR + 1] {
                let k = 1 + (rng.next_below(16) as usize);
                let a = Matrix::from_fn(m, k, |_, _| rng.range_f64(-1.0, 1.0));
                let b = Matrix::from_fn(k, n, |_, _| rng.range_f64(-1.0, 1.0));
                let mut c = vec![f64::NAN; m * n];
                gemm(Trans::No, Trans::No, m, n, k, 1.0, a.as_slice(), m, b.as_slice(), k, 0.0, &mut c, m);
                assert!(c.iter().all(|v| v.is_finite()), "β=0 read C at m={m} n={n} k={k} isa={}", isa.name());
                let pa = PackedA::pack(Trans::No, m, k, a.as_slice(), m);
                let mut c2 = vec![f64::NAN; m * n];
                gemm_packed_a(&pa, Trans::No, n, 1.0, b.as_slice(), k, 0.0, &mut c2, m);
                assert!(c2.iter().all(|v| v.is_finite()), "packed-A β=0 read C at m={m} n={n} k={k} isa={}", isa.name());
            }
        }
    }
}

/// A pre-packed A must give *bitwise* the same answer as the pack-on-the-fly
/// path on every ISA: both run the identical register tile over identical
/// packed bytes, and the recovery replay upstairs relies on kernel
/// determinism.
#[test]
fn prepacked_bitwise_equals_packed_any_isa() {
    let _guard = OverrideGuard::take();
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0xB17);
    let kc = blocking().kc;
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        for &(m, k) in &[
            (5usize, 3usize),
            (MR + 1, NR + 1),
            (40, 17),
            (9, kc + 2),
            (2 * MR + 5, 2 * MR),
        ] {
            let n = 1 + (rng.next_below(12) as usize);
            let a = Matrix::from_fn(m, k, |_, _| rng.range_f64(-1.0, 1.0));
            let b = Matrix::from_fn(k, n, |_, _| rng.range_f64(-1.0, 1.0));
            let c0: Vec<f64> = (0..m * n).map(|_| rng.range_f64(-1.0, 1.0)).collect();
            let mut c1 = c0.clone();
            gemm(Trans::No, Trans::No, m, n, k, -0.5, a.as_slice(), m, b.as_slice(), k, 0.5, &mut c1, m);
            let pa = PackedA::pack(Trans::No, m, k, a.as_slice(), m);
            let mut c2 = c0.clone();
            gemm_packed_a(&pa, Trans::No, n, -0.5, b.as_slice(), k, 0.5, &mut c2, m);
            for (x, y) in c1.iter().zip(&c2) {
                assert_eq!(x.to_bits(), y.to_bits(), "m={m} n={n} k={k} isa={}", isa.name());
            }
        }
    }
}

/// The column-at-a-time `gemv` loop: one AXPY per column with a nonzero
/// `α·x[j]` (`Trans::No`), one sequential dot per column (`Trans::Yes`).
/// The bitwise reference for the register-blocked library kernel.
#[allow(clippy::too_many_arguments)]
fn gemv_column_reference(
    trans: Trans,
    m: usize,
    n: usize,
    alpha: f64,
    a: &[f64],
    lda: usize,
    x: &[f64],
    beta: f64,
    y: &mut [f64],
) {
    if beta == 0.0 {
        y.fill(0.0);
    } else if beta != 1.0 {
        y.iter_mut().for_each(|v| *v *= beta);
    }
    if alpha == 0.0 || m == 0 || n == 0 {
        return;
    }
    for j in 0..n {
        let col = &a[j * lda..j * lda + m];
        match trans {
            Trans::No => {
                let t = alpha * x[j];
                if t != 0.0 {
                    for i in 0..m {
                        y[i] += t * col[i];
                    }
                }
            }
            Trans::Yes => {
                let mut s = 0.0;
                for i in 0..m {
                    s += col[i] * x[i];
                }
                y[j] += alpha * s;
            }
        }
    }
}

/// Seeded `gemv` battery, 0 ulp against [`gemv_column_reference`]: both
/// transposes; extents around every block width (so `n` is often not a
/// multiple of it); `lda > m` with NaN in the stride gaps; `x` with exact
/// `±0.0` entries (skipped columns), `y` holding `−0.0` (a wrongly applied
/// zero column would flip it to `+0.0`); `α = 0`; `β` of 0 over an
/// all-NaN `y`, 1 and 0.5. Counts each case so none is skipped silently.
#[test]
fn gemv_blocked_bitwise_equals_column_loop() {
    let mut rng = Xoshiro256::seed_from_u64(fuzz_seed() ^ 0x6E3F);
    let rounds: usize = std::env::var("FT_FUZZ_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(400);
    let extents: Vec<usize> = (0..=19).chain([31, 32, 33, 63, 65, 130]).collect();
    let pick = |rng: &mut Xoshiro256, v: &[usize]| v[rng.range_usize(0, v.len())];
    let mut seen = [0usize; 7];

    for round in 0..rounds {
        let trans = if round % 2 == 0 { Trans::No } else { Trans::Yes };
        let (m, n) = (pick(&mut rng, &extents), pick(&mut rng, &extents));
        let lda = m.max(1) + (rng.next_below(2) as usize) * rng.range_usize(1, 6);
        let alpha = [0.0, 1.0, -1.0, 0.5, rng.range_f64(-2.0, 2.0)][rng.range_usize(0, 5)];
        let beta = [0.0, 1.0, 0.5][rng.range_usize(0, 3)];
        let (xlen, ylen) = if trans.is_trans() { (m, n) } else { (n, m) };
        let a = strided_with_nan_gaps(&mut rng, m, n, lda);
        let x: Vec<f64> = (0..xlen)
            .map(|_| match rng.next_below(8) {
                0 | 1 => 0.0,
                2 => -0.0,
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect();
        let y0: Vec<f64> = (0..ylen)
            .map(|_| match (beta == 0.0, rng.next_below(4)) {
                (true, _) => f64::NAN,
                (false, 0) => -0.0,
                _ => rng.range_f64(-1.0, 1.0),
            })
            .collect();

        let mut want = y0.clone();
        gemv_column_reference(trans, m, n, alpha, &a, lda, &x, beta, &mut want);
        let mut got = y0.clone();
        gemv(trans, m, n, alpha, &a, lda, &x, beta, &mut got);
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "round {round}: {trans:?} m={m} n={n} lda={lda} α={alpha} β={beta}: y[{i}] = {g:e}, column loop {w:e}"
            );
        }

        let zero_col = !trans.is_trans() && x.iter().any(|v| alpha * v == 0.0);
        let cases = [
            !trans.is_trans() && n % 8 != 0 && n > 8,
            trans.is_trans() && n % 4 != 0 && n > 4,
            lda > m && n > 1,
            zero_col && alpha != 0.0 && m > 0,
            y0.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()),
            alpha == 0.0,
            beta == 0.0 && ylen > 0,
        ];
        for (count, hit) in seen.iter_mut().zip(cases) {
            *count += hit as usize;
        }
    }
    assert!(seen.iter().all(|&c| c > 0), "gemv battery skipped a case: {seen:?}");
}
