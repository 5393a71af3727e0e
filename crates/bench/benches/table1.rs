//! Table 1: residual comparison — FT-Hess **with one failure + recovery**
//! vs the fault-free ScaLAPACK-style reduction.
//!
//! Paper result: residuals r∞ = ‖A − UHUᵀ‖∞/(‖A‖∞·N·ε) of the same order
//! of magnitude for both, all far below the correctness threshold r_t = 3.

use ft_bench::*;
use ft_dense::gen::{uniform_entry, uniform_indexed_matrix};
use ft_hess::{failpoint, ft_pdgehrd, Encoded, FtSolver, Hessenberg, Phase, Variant};
use ft_pblas::{pdgehrd, Desc, DistMatrix};
use ft_runtime::{run_spmd, FaultScript};

fn residuals(cfg: Config, seed: u64) -> (f64, f64) {
    let Config { p, q, n, nb } = cfg;
    let a0 = uniform_indexed_matrix(n, n, seed);

    let a0c = a0.clone();
    let r_plain = run_spmd(p, q, FaultScript::none(), move |ctx| {
        let mut a = DistMatrix::from_global_fn(&ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        pdgehrd(&ctx, &mut a, &mut tau);
        let ag = a.gather_root(&ctx, 800);
        ag.map(|ag| {
            let h = ft_lapack::extract_h(&ag);
            let qm = ft_lapack::orghr(&ag, &tau);
            ft_lapack::hessenberg_residual(&a0c, &h, &qm)
        })
    })
    .into_iter()
    .flatten()
    .next()
    .unwrap();

    let mid = Hessenberg.panel_count(n, nb) / 2;
    let script = FaultScript::one(1, failpoint(mid, Phase::AfterLeftUpdate));
    let a0c = a0;
    let r_ft = run_spmd(p, q, script, move |ctx| {
        let mut enc = Encoded::from_global_fn(&ctx, n, nb, |i, j| uniform_entry(seed, i, j));
        let mut tau = vec![0.0; n - 1];
        let rep = ft_pdgehrd(&ctx, &mut enc, Variant::NonDelayed, &mut tau).expect("within the fault model");
        assert_eq!(rep.recoveries, 1);
        let ag = enc.gather_logical_root(&ctx, 802);
        ag.map(|ag| {
            let h = ft_lapack::extract_h(&ag);
            let qm = ft_lapack::orghr(&ag, &tau);
            ft_lapack::hessenberg_residual(&a0c, &h, &qm)
        })
    })
    .into_iter()
    .flatten()
    .next()
    .unwrap();

    (r_ft, r_plain)
}

fn main() {
    println!("# Table 1: residual r_inf, FT-Hess (1 failure + recovery) vs ScaLAPACK Hess");
    println!("# paper: same order of magnitude on both sides, threshold r_t = 3");
    println!("{:>6} {:>7}  {:>14}  {:>16}", "grid", "N", "FT-Hess", "ScaLAPACK Hess");
    for cfg in paper_sweep() {
        let (r_ft, r_plain) = residuals(cfg, 900);
        println!("{:>6} {:>7}  {:>14.6e}  {:>16.6e}", cfg.grid_label(), cfg.n, r_ft, r_plain);
        assert!(r_ft < 3.0 && r_plain < 3.0, "residual above the paper's threshold");
    }
}
