//! Differential golden tests: the distributed reduction — fault-tolerant
//! (`ft_pdgehrd`, both variants) and plain (`pdgehrd`) — against the
//! sequential shared-memory `gehrd` on the same seeded random matrices.
//!
//! Two obligations per (grid × nb × variant) leg:
//!
//! * **Backward stability**: the distributed factorization's Hessenberg
//!   residual `‖QᵀAQ − H‖/‖A‖` obeys the same bound as the sequential one
//!   (both paths run the identical Householder math, so neither may be
//!   "differently stable");
//! * **Spectrum preservation**: the eigenvalues of the distributed `H`
//!   match the eigenvalues of the sequential `H` to 1e-10 after sorting —
//!   the quantity the whole pipeline exists to compute.
//!
//! The 1×1 grid leg runs the *plain* `pdgehrd` (the FT encoder requires
//! Q ≥ 2 so checksum copies land on distinct process columns — a 1×1 grid
//! has nowhere redundant to put them); 2×2 and 2×3 run both FT variants.
//!
//! The QR battery mirrors the Hessenberg one for the framework's second
//! solver (`ft_pdgeqrf` vs sequential `geqrf`) with an **eigen-free**
//! oracle: scaled `‖A − QR‖` and `‖QᵀQ − I‖` residuals, plus entrywise
//! agreement of `R` and `tau` with the sequential factorization to 1e-10.
//! And the golden-hash test pins the Hessenberg output **bitwise** to the
//! values captured before the solver-agnostic refactor — the safety net
//! that the `FtSolver` framework changed nothing about the paper's solver.

use abft_hessenberg::dense::gen::{uniform_entry, uniform_indexed_matrix};
use abft_hessenberg::dense::Matrix;
use abft_hessenberg::hess::{ft_pdgehrd, ft_pdgeqrf, Encoded, Variant};
use abft_hessenberg::lapack::{
    extract_h, extract_r, gehrd, geqrf, hessenberg_eigenvalues, hessenberg_residual, is_hessenberg, is_upper_triangular, orghr,
    orgqr, orthogonality_residual, qr_residual, Eigenvalue, RESIDUAL_THRESHOLD,
};
use abft_hessenberg::pblas::{pdgehrd, pdgeqrf, Desc, DistMatrix};
use abft_hessenberg::runtime::{run_spmd, FaultScript};

const N: usize = 32;
const RESIDUAL_BOUND: f64 = 3.0;
const EIG_TOL: f64 = 1e-10;

/// Sequential golden path: shared-memory blocked `gehrd`.
fn sequential_reference(n: usize, nb: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut a = uniform_indexed_matrix(n, n, seed);
    let mut tau = vec![0.0; n - 1];
    gehrd(&mut a, nb, &mut tau);
    (a, tau)
}

/// Eigenvalues sorted lexicographically by (re, im) for set comparison.
fn sorted_eigs(h: &Matrix) -> Vec<Eigenvalue> {
    let mut e = hessenberg_eigenvalues(h).expect("QR iteration converged");
    e.sort_by(|a, b| (a.re, a.im).partial_cmp(&(b.re, b.im)).unwrap());
    e
}

fn max_eig_dist(a: &[Eigenvalue], b: &[Eigenvalue]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| ((x.re - y.re).powi(2) + (x.im - y.im).powi(2)).sqrt())
        .fold(0.0, f64::max)
}

/// Assert the two obligations for a distributed factorization gathered as
/// `(afact, tau)` against the sequential reference.
fn check_against_sequential(label: &str, n: usize, seed: u64, afact: &Matrix, tau: &[f64], seq_h: &Matrix, seq_res: f64) {
    let a0 = uniform_indexed_matrix(n, n, seed);
    let h = extract_h(afact);
    assert!(is_hessenberg(&h), "{label}: H not Hessenberg");
    let q = orghr(afact, tau);
    let res = hessenberg_residual(&a0, &h, &q);
    assert!(
        res < RESIDUAL_BOUND && res < 10.0 * seq_res.max(0.5),
        "{label}: residual {res} vs sequential {seq_res}"
    );
    let d = max_eig_dist(&sorted_eigs(&h), &sorted_eigs(seq_h));
    assert!(d < EIG_TOL, "{label}: eigenvalue drift {d}");
}

#[test]
fn differential_plain_1x1_and_ft_grids() {
    for nb in [4usize, 8] {
        let seed = 4000 + nb as u64;
        let (seq_a, seq_tau) = sequential_reference(N, nb, seed);
        let seq_h = extract_h(&seq_a);
        let seq_res = {
            let a0 = uniform_indexed_matrix(N, N, seed);
            hessenberg_residual(&a0, &seq_h, &orghr(&seq_a, &seq_tau))
        };
        assert!(seq_res < RESIDUAL_BOUND, "sequential reference residual {seq_res}");

        // 1×1 grid: plain pdgehrd (ft_pdgehrd requires Q ≥ 2, see module doc).
        {
            let out = run_spmd(1, 1, FaultScript::none(), move |ctx| {
                let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: N, n: N, nb }, |i, j| uniform_entry(seed, i, j));
                let mut tau = vec![0.0; N - 1];
                pdgehrd(&ctx, &mut a, &mut tau);
                (a.gather_all(&ctx, 620), tau)
            });
            let (ag, tau) = out.into_iter().next().unwrap();
            check_against_sequential(&format!("plain 1x1 nb={nb}"), N, seed, &ag, &tau, &seq_h, seq_res);
        }

        // 2×2 and 2×3 grids: the fault-tolerant reduction, both variants.
        for (p, q) in [(2usize, 2usize), (2, 3)] {
            for variant in [Variant::NonDelayed, Variant::Delayed] {
                let out = run_spmd(p, q, FaultScript::none(), move |ctx| {
                    let mut enc = Encoded::from_global_fn(&ctx, N, nb, |i, j| uniform_entry(seed, i, j));
                    let mut tau = vec![0.0; N - 1];
                    ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("fault-free run");
                    (enc.gather_logical(&ctx, 622), tau)
                });
                let (ag, tau) = out.into_iter().next().unwrap();
                check_against_sequential(&format!("ft {p}x{q} nb={nb} {variant:?}"), N, seed, &ag, &tau, &seq_h, seq_res);
            }
        }
    }
}

/// The eigenvalue witness end to end: the spectrum computed through the
/// distributed FT path must match the spectrum of the *original* matrix as
/// computed by the pure sequential pipeline — not just match another
/// reduction of the same math.
#[test]
fn differential_spectrum_vs_original_matrix() {
    let (nb, seed) = (4usize, 77u64);
    let seq = {
        let (a, _) = sequential_reference(N, nb, seed);
        sorted_eigs(&extract_h(&a))
    };
    let out = run_spmd(2, 3, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, N, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; N - 1];
        ft_pdgehrd(&ctx, &mut enc, Variant::Delayed, &mut tau).expect("fault-free run");
        enc.gather_logical(&ctx, 624)
    });
    let dist = sorted_eigs(&extract_h(&out.into_iter().next().unwrap()));
    let d = max_eig_dist(&seq, &dist);
    assert!(d < EIG_TOL, "spectrum drift {d}");
}

/// Assert the QR obligations for a distributed factorization gathered as
/// `(afact, tau)`: scaled residual + orthogonality under the shared
/// threshold, and `R`/`tau` parity with the sequential `geqrf` to 1e-10
/// (both paths run the identical Householder column math, so the
/// factorizations agree far below the stability bound).
fn check_qr_against_sequential(label: &str, n: usize, seed: u64, afact: &Matrix, tau: &[f64], seq_a: &Matrix, seq_tau: &[f64]) {
    let a0 = uniform_indexed_matrix(n, n, seed);
    let r = extract_r(afact);
    assert!(is_upper_triangular(&r), "{label}: R not triangular");
    let q = orgqr(afact, tau);
    let res = qr_residual(&a0, &q, &r);
    let orth = orthogonality_residual(&q);
    assert!(res < RESIDUAL_BOUND.min(RESIDUAL_THRESHOLD), "{label}: QR residual {res}");
    assert!(orth < RESIDUAL_BOUND.min(RESIDUAL_THRESHOLD), "{label}: orthogonality {orth}");
    let dr = r.max_abs_diff(&extract_r(seq_a));
    assert!(dr < EIG_TOL, "{label}: |R − R_seq| = {dr}");
    let dt = tau.iter().zip(seq_tau).map(|(a, b)| (a - b).abs()).fold(0.0f64, f64::max);
    assert!(dt < EIG_TOL, "{label}: |tau − tau_seq| = {dt}");
}

#[test]
fn differential_qr_plain_1x1_and_ft_grids() {
    for nb in [4usize, 8] {
        let seed = 4100 + nb as u64;
        let (seq_a, seq_tau) = {
            let mut a = uniform_indexed_matrix(N, N, seed);
            let mut tau = vec![0.0; N];
            geqrf(&mut a, nb, &mut tau);
            (a, tau)
        };
        check_qr_against_sequential(&format!("sequential nb={nb}"), N, seed, &seq_a, &seq_tau, &seq_a, &seq_tau);

        // 1×1 grid: plain pdgeqrf (ft_pdgeqrf requires Q ≥ 2, as for
        // Hessenberg — the checksum copies need distinct process columns).
        {
            let out = run_spmd(1, 1, FaultScript::none(), move |ctx| {
                let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: N, n: N, nb }, |i, j| uniform_entry(seed, i, j));
                let mut tau = vec![0.0; N];
                pdgeqrf(&ctx, &mut a, &mut tau);
                (a.gather_all(&ctx, 630), tau)
            });
            let (ag, tau) = out.into_iter().next().unwrap();
            check_qr_against_sequential(&format!("plain qr 1x1 nb={nb}"), N, seed, &ag, &tau, &seq_a, &seq_tau);
        }

        // 2×2 and 2×3 grids: the fault-tolerant QR, both variants.
        for (p, q) in [(2usize, 2usize), (2, 3)] {
            for variant in [Variant::NonDelayed, Variant::Delayed] {
                let out = run_spmd(p, q, FaultScript::none(), move |ctx| {
                    let mut enc = Encoded::from_global_fn(&ctx, N, nb, |i, j| uniform_entry(seed, i, j));
                    let mut tau = vec![0.0; N];
                    ft_pdgeqrf(&ctx, &mut enc, variant, &mut tau).expect("fault-free run");
                    (enc.gather_logical(&ctx, 632), tau)
                });
                let (ag, tau) = out.into_iter().next().unwrap();
                check_qr_against_sequential(&format!("ft qr {p}x{q} nb={nb} {variant:?}"), N, seed, &ag, &tau, &seq_a, &seq_tau);
            }
        }
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// FNV-1a hash of the gathered Hessenberg factorization (matrix bits then
/// `tau` bits) for one (nb, grid, variant) leg under the currently active
/// GEMM ISA.
fn hessenberg_hash(nb: usize, p: usize, q: usize, variant: Variant) -> u64 {
    let seed = 4000 + nb as u64;
    let out = run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, N, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; N - 1];
        ft_pdgehrd(&ctx, &mut enc, variant, &mut tau).expect("fault-free run");
        (enc.gather_logical(&ctx, 622), tau)
    });
    let (ag, tau) = out.into_iter().next().unwrap();
    let mut h = 0xcbf29ce484222325u64;
    for v in ag.as_slice() {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    for v in &tau {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Bitwise regression pins for the Hessenberg solver, one golden table per
/// **contraction class** (DESIGN.md §14):
///
/// * the *scalar* class table is the original pre-`FtSolver`-refactor
///   capture — forcing `Isa::Scalar` must still reproduce it bit for bit,
///   proving the SIMD/threading refactor left the portable path untouched;
/// * the *fused* class table pins every vector ISA at once: AVX2, AVX-512
///   and NEON share one per-element FMA op sequence, so each detected
///   fused ISA must produce the identical hash (the accumulation order
///   legitimately differs from scalar only by the fused rounding — these
///   are the re-pinned hashes the satellite task calls for).
///
/// Both variants on each grid must agree (Delayed vs NonDelayed reorder
/// *when* updates run, not the per-element arithmetic). Set
/// `FT_GOLDEN_PRINT=1` to print computed hashes when re-capturing.
#[test]
fn hessenberg_bitwise_parity_per_contraction_class() {
    use abft_hessenberg::dense::level3::{detected_isas, set_isa_override};

    const SCALAR_GOLDEN: [(usize, usize, usize, u64); 4] = [
        (4, 2, 2, 0x0a7fc7501c588c9c),
        (4, 2, 3, 0xa09e7209f64fc337),
        (8, 2, 2, 0x385be914b3bc5298),
        (8, 2, 3, 0xdfda8a23125c9613),
    ];
    // Captured on the CI reference hardware (AVX2/AVX-512; KC=216). NEON
    // hosts must reproduce these same values — fused contraction is one
    // class across vector ISAs.
    const FUSED_GOLDEN: [(usize, usize, usize, u64); 4] = [
        (4, 2, 2, 0x82fc8af679d8667b),
        (4, 2, 3, 0x94dda8c059f27eda),
        (8, 2, 2, 0x96e608dab5c1f43a),
        (8, 2, 3, 0x766585e4c73412b1),
    ];

    let _isa = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let print = std::env::var("FT_GOLDEN_PRINT").is_ok_and(|v| v == "1");
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        let golden: &[(usize, usize, usize, u64); 4] = if isa.fused() { &FUSED_GOLDEN } else { &SCALAR_GOLDEN };
        for (nb, p, q, want) in golden {
            for variant in [Variant::NonDelayed, Variant::Delayed] {
                let h = hessenberg_hash(*nb, *p, *q, variant);
                if print {
                    println!("isa={} nb={nb} {p}x{q} {variant:?}: 0x{h:016x}", isa.name());
                    continue;
                }
                assert_eq!(h, *want, "isa={} nb={nb} {p}x{q} {variant:?}: hash 0x{h:016x} != golden 0x{want:016x}", isa.name());
            }
        }
    }
    set_isa_override(None);
}

/// Serializes the tests that flip the process-global GEMM ISA override.
static ISA_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// FNV-1a hash of the sequential blocked `gehrd` factor then `tau` on the
/// seed-7 uniform `n×n` matrix, under the currently active GEMM ISA.
fn gehrd_hash(n: usize, nb: usize) -> u64 {
    let mut a = Matrix::from_fn(n, n, |i, j| uniform_entry(7, i, j));
    let mut tau = vec![0.0; n - 1];
    gehrd(&mut a, nb, &mut tau);
    let mut h = 0xcbf29ce484222325u64;
    for v in a.as_slice().iter().chain(&tau) {
        fnv1a(&mut h, &v.to_bits().to_le_bytes());
    }
    h
}

/// Bitwise pins for the sequential blocked `gehrd`, one table per
/// contraction class like [`hessenberg_bitwise_parity_per_contraction_class`]
/// (its trailing updates are class-dependent GEMMs; its BLAS-2 panel is
/// not). Captured before the level-2 kernels were register-blocked, so a
/// pass proves the blocking changed no bit. `FT_GOLDEN_PRINT=1` prints the
/// computed hashes instead of asserting.
#[test]
fn gehrd_bitwise_parity_per_contraction_class() {
    use abft_hessenberg::dense::level3::{detected_isas, set_isa_override};

    const SCALAR_GOLDEN: [(usize, usize, u64); 2] = [(301, 8, 0x7cde799d723759ee), (97, 5, 0xe20a7f46ee97def2)];
    const FUSED_GOLDEN: [(usize, usize, u64); 2] = [(301, 8, 0x68dd6937183d3788), (97, 5, 0xd9891caf559dc954)];

    let _isa = ISA_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let print = std::env::var("FT_GOLDEN_PRINT").is_ok_and(|v| v == "1");
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        let golden = if isa.fused() { &FUSED_GOLDEN } else { &SCALAR_GOLDEN };
        for &(n, nb, want) in golden {
            let h = gehrd_hash(n, nb);
            if print {
                println!("isa={} gehrd n={n} nb={nb}: 0x{h:016x}", isa.name());
                continue;
            }
            assert_eq!(h, want, "isa={} gehrd n={n} nb={nb}: hash 0x{h:016x} != golden 0x{want:016x}", isa.name());
        }
    }
    set_isa_override(None);
}
