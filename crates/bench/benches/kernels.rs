//! Microbenchmarks of the dense substrates every experiment sits on —
//! primarily the packed register-tiled GEMM against the retained naive
//! triple loop, plus the pre-packed-A reuse path, GEMV (square, and in
//! GB/s at the Hessenberg panel's shapes), and the Householder panel kernel.
//!
//! Writes `BENCH_kernels.json` at the repo root and **enforces** two
//! performance floors (exits non-zero on regression):
//!
//! * packed GEMM must not be slower than the naive triple loop at 256×256
//!   (the CI perf-smoke gate — a packing bug that silently falls off the
//!   fast path shows up here);
//! * packed GEMM must reach ≥ 3× the naive GFLOP/s at 512×512 (the PR-3
//!   acceptance bar; the measured ratio is recorded in the artifact).
//!
//! `FT_KERNELS_SMOKE=1` trims repetitions and drops the non-GEMM extras for
//! the CI smoke run. `FT_BENCH_REPS` controls repetitions (default 3 here).

use ft_bench::json;
use ft_dense::gen::{uniform, uniform_entry};
use ft_dense::level2::gemv;
use ft_dense::level3::{
    active_isa, active_threads, blocking, detected_isas, gemm, gemm_naive, gemm_packed_a, set_isa_override, PackedA, MR, NR,
};
use ft_dense::simd::Isa;
use ft_dense::{Matrix, Trans};
use ft_hess::{ft_pdgehrd_scrubbed, Encoded, ScrubPolicy, Variant};
use ft_lapack::lahr2;
use ft_runtime::{run_spmd, FaultScript};
use std::hint::black_box;
use std::time::Instant;

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v != "0" && !v.is_empty()).unwrap_or(false)
}

fn reps() -> usize {
    std::env::var("FT_BENCH_REPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3)
        .max(1)
}

/// Minimum seconds over `r` runs of `f`.
fn best_of(r: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..r {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn gflops(flops: f64, secs: f64) -> f64 {
    flops / secs / 1e9
}

fn main() {
    let smoke = env_flag("FT_KERNELS_SMOKE");
    let r = if smoke { 2 } else { reps() };
    let sizes: &[usize] = if smoke { &[256, 512] } else { &[128, 256, 512] };
    let bl = blocking();
    println!("# kernels: MR={MR} NR={NR} KC={} MC={} NC={} reps={r}", bl.kc, bl.mc, bl.nc);
    println!("{:>14} {:>6} {:>12} {:>10}", "kernel", "n", "GFLOP/s", "seconds");

    let mut rows: Vec<String> = Vec::new();
    let mut naive_gf = std::collections::HashMap::new();
    let mut packed_gf = std::collections::HashMap::new();

    for &n in sizes {
        let a = uniform(n, n, 1);
        let b = uniform(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let fl = (2 * n * n * n) as f64;

        // Naive triple loop — the correctness oracle, timed for the ratio.
        let t_naive = best_of(r, || {
            gemm_naive(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                black_box(a.as_slice()),
                n,
                black_box(b.as_slice()),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });

        // Packed blocked path (packs A and B internally every call).
        let t_packed = best_of(r, || {
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                black_box(a.as_slice()),
                n,
                black_box(b.as_slice()),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });

        // Pre-packed A reused across calls — the trailing-update pattern.
        let pa = PackedA::pack(Trans::No, n, n, a.as_slice(), n);
        let t_prepacked = best_of(r, || {
            gemm_packed_a(&pa, Trans::No, n, 1.0, black_box(b.as_slice()), n, 0.0, c.as_mut_slice(), n);
        });

        for (kernel, secs) in [("naive", t_naive), ("packed", t_packed), ("packed_reused", t_prepacked)] {
            println!("{:>14} {:>6} {:>12.2} {:>10.4}", kernel, n, gflops(fl, secs), secs);
            rows.push(
                json::Obj::new()
                    .str("kernel", kernel)
                    .int("n", n as u64)
                    .num("gflops", gflops(fl, secs))
                    .num("seconds", secs)
                    .finish(),
            );
        }
        naive_gf.insert(n, gflops(fl, t_naive));
        packed_gf.insert(n, gflops(fl, t_packed));
    }

    // Per-ISA packed GEMM — the SIMD-dispatch measurement. Each detected
    // ISA is forced in turn (the rows above ran the auto pick); the fused
    // ISAs must clear the vector-vs-scalar floor gated below.
    let mut isa_gf_512 = std::collections::HashMap::new();
    for &isa in detected_isas() {
        set_isa_override(Some(isa));
        for &n in sizes {
            let a = uniform(n, n, 1);
            let b = uniform(n, n, 2);
            let mut c = Matrix::zeros(n, n);
            let fl = (2 * n * n * n) as f64;
            let t = best_of(r, || {
                gemm(
                    Trans::No,
                    Trans::No,
                    n,
                    n,
                    n,
                    1.0,
                    black_box(a.as_slice()),
                    n,
                    black_box(b.as_slice()),
                    n,
                    0.0,
                    c.as_mut_slice(),
                    n,
                );
            });
            let kernel = format!("packed_{}", isa.name());
            println!("{:>14} {:>6} {:>12.2} {:>10.4}", kernel, n, gflops(fl, t), t);
            rows.push(
                json::Obj::new()
                    .str("kernel", &kernel)
                    .str("isa", isa.name())
                    .int("n", n as u64)
                    .num("gflops", gflops(fl, t))
                    .num("seconds", t)
                    .finish(),
            );
            if n == 512 {
                isa_gf_512.insert(isa, gflops(fl, t));
            }
        }
    }
    set_isa_override(None);

    if !smoke {
        // GEMV and the Householder panel: context for the level-3 numbers.
        let n = 1024usize;
        let a = uniform(n, n, 3);
        let x = uniform(n, 1, 4).as_slice().to_vec();
        let mut y = vec![0.0; n];
        let t = best_of(r, || gemv(Trans::No, n, n, 1.0, black_box(a.as_slice()), n, &x, 0.0, &mut y));
        println!("{:>14} {:>6} {:>12.2} {:>10.4}", "gemv", n, gflops((2 * n * n) as f64, t), t);
        rows.push(
            json::Obj::new()
                .str("kernel", "gemv")
                .int("n", n as u64)
                .num("gflops", gflops((2 * n * n) as f64, t))
                .num("seconds", t)
                .finish(),
        );

        // GEMV at the N=1536 Hessenberg panel's own shapes (rows offset by
        // one, lda 1536): the trailing-matrix sweep `A·v` at the first and
        // the middle panel, and the `Vᵀ·v` product of a 16-wide panel's
        // last column. Bytes are the matrix plus both vectors. Reported
        // without a gate: on a shared host their spread exceeds any
        // honest floor.
        let lda = 1536usize;
        let a = uniform(lda, lda, 6);
        let x = uniform(lda, 1, 7).as_slice().to_vec();
        for (trans, m, n) in [
            (Trans::No, 1535usize, 1535usize),
            (Trans::No, 767, 767),
            (Trans::Yes, 1535, 15),
        ] {
            let (xlen, ylen) = if trans.is_trans() { (m, n) } else { (n, m) };
            let mut y = vec![0.0; ylen];
            // Enough calls per sample (≥ ~4M matrix elements) to time.
            let calls = ((1usize << 22) / (m * n)).max(1);
            let t = best_of(r, || {
                for _ in 0..calls {
                    gemv(trans, m, n, 1.0, black_box(&a.as_slice()[1..]), lda, &x[..xlen], 0.0, &mut y);
                }
            }) / calls as f64;
            let gbps = 8.0 * (m * n + m + n) as f64 / t / 1e9;
            let kernel = if trans.is_trans() { "gemv_t" } else { "gemv_n" };
            println!("{kernel:>14} {:>6} {:>12} {t:>10.6}  {gbps:.2} GB/s ({m}x{n}, lda {lda})", m, "-");
            rows.push(
                json::Obj::new()
                    .str("kernel", kernel)
                    .int("m", m as u64)
                    .int("n", n as u64)
                    .int("lda", lda as u64)
                    .num("gbps", gbps)
                    .num("seconds", t)
                    .finish(),
            );
        }

        let (n, nb) = (512usize, 16usize);
        let a0 = uniform(n, n, 5);
        let t = best_of(r, || {
            let mut a = a0.clone();
            let mut tau = vec![0.0; nb];
            let mut tm = Matrix::zeros(nb, nb);
            let mut ym = Matrix::zeros(n, nb);
            lahr2(&mut a, 0, nb, &mut tau, &mut tm, &mut ym);
            black_box(&a);
        });
        println!("{:>14} {:>6} {:>12} {:>10.4}", "lahr2_nb16", n, "-", t);
        rows.push(
            json::Obj::new()
                .str("kernel", "lahr2_nb16")
                .int("n", n as u64)
                .num("seconds", t)
                .finish(),
        );
    }

    // Online scrub overhead: the fault-tolerant reduction with a pass at
    // every panel boundary vs the engine disabled, same shape and grid.
    let (sn, snb, sp, sq) = (160usize, 8usize, 2usize, 2usize);
    let ft_secs = |policy: ScrubPolicy| {
        best_of(r, || {
            run_spmd(sp, sq, FaultScript::none(), move |ctx| {
                let mut enc = Encoded::from_global_fn(&ctx, sn, snb, |i, j| uniform_entry(9, i, j));
                let mut tau = vec![0.0; sn - 1];
                ft_pdgehrd_scrubbed(&ctx, &mut enc, Variant::NonDelayed, &mut tau, policy).expect("fault-free");
            });
        })
    };
    let t_plain_ft = ft_secs(ScrubPolicy::disabled());
    let t_scrubbed = ft_secs(ScrubPolicy::every_panels(1));
    let scrub_overhead = t_scrubbed / t_plain_ft - 1.0;
    println!("{:>14} {:>6} {:>12} {:>10.4}", "ft_no_scrub", sn, "-", t_plain_ft);
    println!("{:>14} {:>6} {:>12} {:>10.4}", "ft_scrub_ev1", sn, "-", t_scrubbed);
    println!("# scrub overhead (cadence 1, {sp}x{sq}, N={sn}): {:.1}%", scrub_overhead * 100.0);
    for (kernel, secs) in [("ft_no_scrub", t_plain_ft), ("ft_scrub_ev1", t_scrubbed)] {
        rows.push(
            json::Obj::new()
                .str("kernel", kernel)
                .int("n", sn as u64)
                .num("seconds", secs)
                .finish(),
        );
    }

    let ratio_256 = packed_gf[&256] / naive_gf[&256];
    let ratio_512 = packed_gf[&512] / naive_gf[&512];
    println!("# packed/naive speedup: {ratio_256:.2}x at 256, {ratio_512:.2}x at 512");

    // Vectorized-vs-scalar floor: best fused ISA against the forced-scalar
    // packed kernel at n=512 (both sides identical blocking and packing, so
    // this isolates the register tile). A single sample on a shared CI box
    // can dip well below steady state under transient neighbor load, so a
    // sub-floor reading deepens best-of for the two gate cells — identical
    // semantics (best observed time), more samples, and the retry is
    // printed rather than silent.
    let measure_512 = |isa: Isa| -> f64 {
        set_isa_override(Some(isa));
        let n = 512usize;
        let a = uniform(n, n, 1);
        let b = uniform(n, n, 2);
        let mut c = Matrix::zeros(n, n);
        let fl = (2 * n * n * n) as f64;
        let t = best_of(r, || {
            gemm(
                Trans::No,
                Trans::No,
                n,
                n,
                n,
                1.0,
                black_box(a.as_slice()),
                n,
                black_box(b.as_slice()),
                n,
                0.0,
                c.as_mut_slice(),
                n,
            );
        });
        set_isa_override(None);
        gflops(fl, t)
    };
    let best_fused_isa = isa_gf_512
        .iter()
        .filter(|(isa, _)| isa.fused())
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(isa, _)| *isa);
    if let Some(isa) = best_fused_isa {
        let mut tries = 0;
        while isa_gf_512[&isa] / isa_gf_512[&Isa::Scalar] < 2.5 && tries < 3 {
            tries += 1;
            let v = measure_512(isa).max(isa_gf_512[&isa]);
            let s = measure_512(Isa::Scalar).max(isa_gf_512[&Isa::Scalar]);
            isa_gf_512.insert(isa, v);
            isa_gf_512.insert(Isa::Scalar, s);
        }
        if tries > 0 {
            println!("# vector/scalar gate cells re-measured {tries}x (transient load)");
        }
    }
    let scalar_512 = isa_gf_512[&Isa::Scalar];
    let best_fused = isa_gf_512
        .iter()
        .filter(|(isa, _)| isa.fused())
        .map(|(isa, &gf)| (*isa, gf))
        .max_by(|a, b| a.1.total_cmp(&b.1));
    let vector_ratio = best_fused.map(|(_, gf)| gf / scalar_512);
    if let Some((isa, gf)) = best_fused {
        println!(
            "# vectorized/scalar packed at 512: {:.2}x ({} {gf:.2} vs scalar {scalar_512:.2} GFLOP/s)",
            vector_ratio.unwrap(),
            isa.name()
        );
    }

    let mut report_obj = json::Obj::new()
        .str("bench", "kernels")
        .int("mr", MR as u64)
        .int("nr", NR as u64)
        .int("kc", bl.kc as u64)
        .int("mc", bl.mc as u64)
        .int("nc", bl.nc as u64)
        .int("reps", r as u64)
        .str("isa_default", active_isa().name())
        .int("threads", active_threads() as u64)
        .num("speedup_packed_vs_naive_256", ratio_256)
        .num("speedup_packed_vs_naive_512", ratio_512)
        .num("scrub_overhead", scrub_overhead);
    for (isa, gf) in &isa_gf_512 {
        report_obj = report_obj.num(&format!("gflops_packed_512_{}", isa.name()), *gf);
    }
    if let Some(ratio) = vector_ratio {
        report_obj = report_obj.num("speedup_vector_vs_scalar_512", ratio);
    }
    let report = report_obj.raw("rows", &json::array(&rows)).finish();
    match json::write_artifact("BENCH_kernels.json", &report) {
        Ok(p) => println!("# wrote {}", p.display()),
        Err(e) => {
            eprintln!("FAIL: could not write BENCH_kernels.json: {e}");
            std::process::exit(1);
        }
    }

    // Perf gates.
    if ratio_256 < 1.0 {
        eprintln!("FAIL: packed GEMM slower than naive at 256x256 ({ratio_256:.2}x)");
        std::process::exit(1);
    }
    if ratio_512 < 3.0 {
        eprintln!("FAIL: packed GEMM below 3x naive at 512x512 ({ratio_512:.2}x)");
        std::process::exit(1);
    }
    // The tentpole floor: on hosts with any vector ISA, the best fused tile
    // must reach 2.5x the scalar packed kernel at 512x512.
    if let Some(ratio) = vector_ratio {
        if ratio < 2.5 {
            eprintln!("FAIL: vectorized packed GEMM below 2.5x scalar at 512x512 ({ratio:.2}x)");
            std::process::exit(1);
        }
    }
}
