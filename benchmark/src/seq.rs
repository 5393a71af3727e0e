//! `gehrd_seq`: the sequential blocked `ft_lapack::gehrd` on one thread —
//! the plain single-thread baseline. Uses none of `runtime`, `pblas`,
//! `core` or `serve`.

use crate::common::{
    fnv1a, gemv_gbps, median, process_cpu_s, secs, Args, Outcome, RunqMeter, Sched, FNV_OFFSET, RESIDUAL_THRESHOLD,
};
use ft_dense::counters;
use ft_dense::gen::uniform_entry;
use ft_dense::level3::{gemm, trmm};
use ft_dense::{Diag, Matrix, Side, Trans, UpLo};
use ft_lapack::hessenberg::gehd2_range;
use ft_lapack::householder::larfb;
use ft_lapack::{extract_h, gehrd, hessenberg_residual, is_hessenberg, lahr2, orghr};
use std::time::Instant;

const N: usize = 1536;
const NB: usize = 16;

/// Generations per set-up sample. One generation takes about 7 ms, short
/// enough that a single reading lands wholly inside or outside a spell of
/// host contention; a batch averages over such spells.
const SETUP_REPS: usize = 8;

/// Regenerate the input into `a`, [`SETUP_REPS`] times, and return the
/// on-CPU seconds of one generation. The buffer is reused, so set-up time
/// is the generation and not the allocator's first-touch page faults,
/// which vary far more on a virtual machine.
fn input(a: &mut Matrix, seed: u64) -> f64 {
    let c0 = process_cpu_s(None);
    for _ in 0..SETUP_REPS {
        // Column-major: element k is row k % N of column k / N.
        for (k, v) in a.as_mut_slice().iter_mut().enumerate() {
            *v = uniform_entry(seed, k % N, k / N);
        }
        std::hint::black_box(&mut *a);
    }
    (process_cpu_s(None) - c0) / SETUP_REPS as f64
}

fn hash(a: &Matrix, tau: &[f64]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, a.as_slice()), tau)
}

/// `r∞` of a reduced matrix against its input, with the Hessenberg
/// structure checked too (`∞` when the structure is broken).
fn residual(a0: &Matrix, reduced: &Matrix, tau: &[f64]) -> f64 {
    let h = extract_h(reduced);
    if !is_hessenberg(&h) {
        return f64::INFINITY;
    }
    hessenberg_residual(a0, &h, &orghr(reduced, tau))
}

/// Factorizations already verified against the residual gate, by hash; a
/// new hash is verified once, so every reduction is checked while the
/// deterministic repeats cost one hash each.
#[derive(Default)]
struct Verified(Vec<u64>);

impl Verified {
    /// Is the factorization with hash `h` correct? Runs `check` (which
    /// returns `r∞`) only for a hash not seen before.
    fn check(&mut self, h: u64, check: impl FnOnce() -> f64) -> bool {
        if self.0.contains(&h) {
            return true;
        }
        let r = check();
        let ok = r < RESIDUAL_THRESHOLD;
        if ok {
            self.0.push(h);
        } else {
            eprintln!("benchmark: residual {r} fails the r_inf < {RESIDUAL_THRESHOLD} gate");
        }
        ok
    }
}

/// Per-phase seconds of one traced reduction.
#[derive(Default)]
struct Phases {
    panel: f64,
    right: f64,
    left: f64,
    gemm: f64,
    gemm_flops: f64,
    total: f64,
}

/// A mirror of `gehrd`'s blocked loop through the public `lahr2`, `gemm`,
/// `trmm`, `larfb` and `gehd2_range`, timing each phase. It must produce
/// the bitwise-identical factorization, which the caller checks by hash.
fn gehrd_traced(a: &mut Matrix, nb: usize, tau: &mut [f64]) -> Phases {
    let n = a.rows();
    let lda = n;
    let mut p = Phases::default();
    let t_all = Instant::now();
    let mut t = Matrix::zeros(nb, nb);
    let mut y = Matrix::zeros(n, nb);
    let mut k = 0;
    while k + nb + 1 < n {
        let t0 = Instant::now();
        lahr2(a, k, nb, &mut tau[k..k + nb], &mut t, &mut y);
        let t1 = Instant::now();
        p.panel += (t1 - t0).as_secs_f64();

        let ei = a[(k + nb, k + nb - 1)];
        a[(k + nb, k + nb - 1)] = 1.0;
        {
            let (vpart, cpart) = a.as_mut_slice().split_at_mut((k + nb) * lda);
            let vb = &vpart[k * lda + (k + nb)..];
            let g0 = Instant::now();
            gemm(Trans::No, Trans::Yes, n, n - k - nb, nb, -1.0, y.as_slice(), y.rows(), vb, lda, 1.0, cpart, lda);
            p.gemm += secs(g0);
            p.gemm_flops += 2.0 * (n * (n - k - nb) * nb) as f64;
        }
        a[(k + nb, k + nb - 1)] = ei;
        if nb > 1 {
            let mut w = Matrix::from_fn(k + 1, nb - 1, |i, jj| y[(i, jj)]);
            let v1p = &a.as_slice()[k * lda + (k + 1)..].to_vec();
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
        let t2 = Instant::now();
        p.right += (t2 - t1).as_secs_f64();
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
        p.left += secs(t2);
        k += nb;
    }
    gehd2_range(a, k, tau);
    p.total = secs(t_all);
    p
}

/// One timed untraced reduction: `(wall seconds, on-CPU seconds)`. The
/// CPU time is the whole process's, so work moved to another thread (the
/// GEMM pool) stays counted.
fn reduce(a: &mut Matrix, tau: &mut [f64], runq: &mut RunqMeter) -> (f64, f64) {
    let s0 = Sched::this_thread();
    let c0 = process_cpu_s(None);
    let t = Instant::now();
    gehrd(a, NB, tau);
    let wall = secs(t);
    let cpu = process_cpu_s(None) - c0;
    runq.add(s0.until(Sched::this_thread()).1, wall);
    (wall, cpu)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut verified = Verified::default();
    let mut runq = RunqMeter::default();

    // Warm-up: one reduction, verified, outside the window.
    let mut a0 = Matrix::zeros(N, N);
    input(&mut a0, args.seed);
    let mut a = a0.clone();
    let mut tau = vec![0.0; N - 1];
    reduce(&mut a, &mut tau, &mut RunqMeter::default());
    let golden = hash(&a, &tau);
    if !verified.check(golden, || residual(&a0, &a, &tau)) {
        out.invalid.push("warm-up reduction failed the residual gate".into());
        return out;
    }

    let (mut walls, mut cpus, mut setups, mut traced) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut flops, mut gemm_calls) = (0u64, 0u64);
    let mut m = Matrix::zeros(N, N);
    let deadline = args.deadline();
    let t_window = Instant::now();
    while Instant::now() < deadline {
        setups.push(input(&mut a, args.seed));
        let f0 = (counters::flops(), counters::gemm_calls());
        let (wall, cpu) = reduce(&mut a, &mut tau, &mut runq);
        walls.push(wall);
        cpus.push(cpu);
        flops = counters::flops() - f0.0;
        gemm_calls = counters::gemm_calls() - f0.1;
        out.attempted += 1;
        if !verified.check(hash(&a, &tau), || residual(&a0, &a, &tau)) {
            out.failed += 1;
        }
        if args.trace {
            // The traced mirror, alternated with the untraced call.
            input(&mut m, args.seed);
            let s0 = Sched::this_thread();
            let ph = gehrd_traced(&mut m, NB, &mut tau);
            runq.add(s0.until(Sched::this_thread()).1, ph.total);
            if hash(&m, &tau) != golden {
                out.invalid
                    .push("traced gehrd mirror drifted from gehrd (hash mismatch)".into());
                break;
            }
            traced.push(ph);
        }
    }
    let window = secs(t_window);
    out.runq_frac = runq.frac();

    let op_s = median(&walls);
    out.e2e.insert("op_cpu_ms", median(&cpus) * 1e3);
    out.e2e.insert("setup_s", median(&setups));
    out.named = vec![
        ("plain_s", op_s, "s"),
        ("plain_cpu_s", median(&cpus), "s"),
        ("plain_gflops", hess_flops(N) / op_s * 1e-9, "GF/s"),
        ("reductions_per_s", walls.len() as f64 / window, "1/s"),
        ("setup_s", median(&setups), "s"),
        ("samples", walls.len() as f64, "count"),
    ];

    if args.trace && !traced.is_empty() {
        let med = |f: fn(&Phases) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let gemm_s = med(|p| p.gemm);
        out.named.extend([
            ("lapack.panel_s", med(|p| p.panel), "s"),
            ("lapack.right_update_s", med(|p| p.right), "s"),
            ("lapack.left_update_s", med(|p| p.left), "s"),
            ("dense.gemm_s", gemm_s, "s"),
        ]);
        let l = &mut out.layers;
        l.insert("client.op_ms", op_s * 1e3);
        l.insert("dense.gemm_frac", med(|p| p.gemm / p.total));
        l.insert("dense.gemm_gflops", traced[0].gemm_flops / gemm_s * 1e-9);
        l.insert("dense.gemv_gbps", gemv_gbps(&a0, NB, 1));
        l.insert("dense.flops", flops as f64);
        l.insert("dense.gemm_calls", gemm_calls as f64);
        l.insert("lapack.panel_frac", med(|p| p.panel / p.total));
        l.insert("lapack.right_update_frac", med(|p| p.right / p.total));
        l.insert("lapack.left_update_frac", med(|p| p.left / p.total));
        l.insert("sched.runq_frac", out.runq_frac);
        l.insert("trace.overhead_frac", med(|p| p.total) / op_s - 1.0);
    }
    out
}

/// The paper's flop count of one reduction, `10/3·N³`.
fn hess_flops(n: usize) -> f64 {
    10.0 / 3.0 * (n as f64).powi(3)
}
