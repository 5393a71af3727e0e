//! `ft_hess_1x2`: the in-process pair of Figures 6a/6b on a 1×2 grid (two
//! rank threads). Each sample runs three legs on the same matrix: plain
//! `pdgehrd`, fault-free `ft_pdgehrd`, and `ft_pdgehrd` surviving one
//! scripted fail-stop of rank 1 mid-run.

use crate::common::{
    fnv1a, gemv_gbps, median, process_cpu_s, secs, Args, Outcome, RunqMeter, Sched, FNV_OFFSET, RESIDUAL_THRESHOLD,
};
use ft_dense::counters;
use ft_dense::gen::uniform_entry;
use ft_dense::Matrix;
use ft_hess::{failpoint, ft_pdgehrd, Encoded, FtReport, Phase, Variant};
use ft_pblas::verify::panel_blocks;
use ft_pblas::{left_update, pd_hessenberg_residual, pdgehrd, pdlahrd, right_update, Desc, DistMatrix};
use ft_runtime::{run_spmd, Ctx, FaultScript, TrafficPhase};
use std::time::Instant;

const P: usize = 1;
const Q: usize = 2;
const N: usize = 1536;
const NB: usize = 16;
/// Tag of the collective "is this factorization new?" vote.
const TAG_VOTE: u64 = 0x7A11;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Leg {
    /// `ft_pblas::pdgehrd`.
    Plain,
    /// The traced mirror of `pdgehrd`.
    PlainTraced,
    /// Fault-free `ft_pdgehrd`, Algorithm 2, single redundancy.
    Ft,
    /// `ft_pdgehrd` with one fail-stop of rank 1 mid-run.
    FtFail,
}

/// Per-phase seconds of the traced `pdgehrd` mirror on one rank.
#[derive(Clone, Copy, Default)]
struct Phases {
    panel: f64,
    trailing: f64,
    gemm: f64,
    gemm_flops: f64,
}

/// What one rank of one leg returns.
struct RankOut {
    t0: Instant,
    t1: Instant,
    cpu_s: f64,
    runq_s: f64,
    /// `(msgs, bytes)` sent during the timed call, per [`TrafficPhase`].
    traffic: [(u64, u64); TrafficPhase::COUNT],
    report: Option<FtReport>,
    phases: Phases,
    hash: u64,
    /// `r∞`, or `None` when the factorization matched a verified one.
    residual: Option<f64>,
    /// Global `(flops, gemm calls)` counters right after the call (rank 0).
    counters: Option<(u64, u64)>,
    /// The process's on-CPU seconds just before and just after the call,
    /// each read between barriers so that no rank is inside it (rank 0).
    proc_cpu: Option<(f64, f64)>,
}

/// One leg, all ranks.
struct LegOut {
    wall: f64,
    /// On-CPU seconds of the call, every thread of the process included
    /// (both ranks, and any pool thread they hand work to).
    cpu: f64,
    /// On-CPU seconds of the set-up: rank threads, generation, distribution.
    setup: f64,
    ranks: Vec<RankOut>,
    flops: u64,
    gemm_calls: u64,
}

impl LegOut {
    fn hashes(&self) -> Vec<u64> {
        self.ranks.iter().map(|r| r.hash).collect()
    }

    fn max(&self, f: impl Fn(&RankOut) -> f64) -> f64 {
        self.ranks.iter().map(f).fold(0.0, f64::max)
    }

    /// An [`FtReport`] field on the slowest rank (0 for a plain leg).
    fn report_max(&self, f: impl Fn(&FtReport) -> f64) -> f64 {
        self.max(|r| r.report.as_ref().map_or(0.0, &f))
    }

    fn recoveries(&self) -> Vec<usize> {
        self.ranks
            .iter()
            .map(|r| r.report.as_ref().map_or(0, |rep| rep.recoveries))
            .collect()
    }

    fn residual(&self) -> Option<f64> {
        self.ranks[0].residual
    }
}

fn local_hash(a: &DistMatrix, tau: &[f64]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, a.local().as_slice()), tau)
}

/// Collective: does this rank's hash, together with every other rank's,
/// match one of the `known` verified hash tuples?
fn known_tuple(ctx: &Ctx, known: &[Vec<u64>], h: u64) -> bool {
    let mut votes: Vec<f64> = known.iter().map(|k| f64::from(u8::from(k[ctx.rank()] == h))).collect();
    votes.push(0.0);
    ctx.allreduce_sum_row(&mut votes, TAG_VOTE);
    votes.contains(&((P * Q) as f64))
}

/// The mirror of `pdgehrd` through `pdlahrd`, `right_update` and
/// `left_update` (the body of `apply_panel_updates`), timing each phase.
fn pdgehrd_traced(ctx: &Ctx, a: &mut DistMatrix, tau: &mut [f64]) -> Phases {
    let n = a.desc().n;
    let nb = a.desc().nb;
    let mut p = Phases::default();
    let mut k = 0;
    while k + 2 < n {
        let w = nb.min(n - 2 - k);
        let t0 = Instant::now();
        let f = pdlahrd(ctx, a, n, k, w);
        let t1 = Instant::now();
        p.panel += (t1 - t0).as_secs_f64();
        let trail_cols: Vec<usize> = (a.local_cols_below(k + w)..a.local_cols_below(n)).collect();
        let trail_g: Vec<usize> = trail_cols.iter().map(|&lc| a.l2g_col(lc)).collect();
        let vrows = f.vrows_for(&trail_g);
        let g0 = Instant::now();
        right_update(a, n, &trail_cols, &vrows, &f.y_loc);
        p.gemm += secs(g0);
        p.gemm_flops += 2.0 * (a.local_rows_below(n) * trail_cols.len() * w) as f64;
        let v_myrows = f.v_for_local_rows(a);
        left_update(ctx, a, k + 1, n, &trail_cols, &v_myrows, &f.t);
        p.trailing += secs(t1);
        tau[k..k + w].copy_from_slice(&f.tau);
        k += w;
    }
    p
}

/// Run one leg on the 1×2 grid. The matrix is generated and distributed
/// (set-up), all ranks meet at a barrier, and the call is timed from the
/// earliest rank start to the latest rank end; its CPU time is the
/// process's, read by rank 0 between barriers. The output is verified
/// against `r∞ < 3` unless its hash tuple is already in `known`.
fn run_leg(leg: Leg, seed: u64, known: &[Vec<u64>]) -> LegOut {
    let panels = panel_blocks(N, NB).len();
    let script = match leg {
        Leg::FtFail => FaultScript::one(1, failpoint(panels / 2, Phase::AfterRightUpdate)),
        _ => FaultScript::none(),
    };
    let gen = move |i: usize, j: usize| uniform_entry(seed, i, j);
    let desc = Desc { m: N, n: N, nb: NB };
    let c0 = (counters::flops(), counters::gemm_calls());
    let cpu_call = process_cpu_s(None);
    let ranks = run_spmd(P, Q, script, |ctx| {
        let mut tau = vec![0.0; N - 1];
        let mut plain = None;
        let mut enc = None;
        match leg {
            Leg::Plain | Leg::PlainTraced => plain = Some(DistMatrix::from_global_fn(&ctx, desc, gen)),
            Leg::Ft | Leg::FtFail => enc = Some(Encoded::from_global_fn(&ctx, N, NB, gen)),
        }
        ctx.barrier();
        let cpu0 = (ctx.rank() == 0).then(|| process_cpu_s(None));
        ctx.barrier();
        let tr0 = ctx.traffic();
        let s0 = Sched::this_thread();
        let t0 = Instant::now();
        let mut report = None;
        let mut phases = Phases::default();
        match leg {
            Leg::Plain => pdgehrd(&ctx, plain.as_mut().expect("plain leg"), &mut tau),
            Leg::PlainTraced => phases = pdgehrd_traced(&ctx, plain.as_mut().expect("plain leg"), &mut tau),
            Leg::Ft | Leg::FtFail => {
                let rep = ft_pdgehrd(&ctx, enc.as_mut().expect("FT leg"), Variant::NonDelayed, &mut tau)
                    .expect("one fail-stop on a 1x2 grid is within the fault model");
                report = Some(rep);
            }
        }
        let t1 = Instant::now();
        let (cpu_s, runq_s) = s0.until(Sched::this_thread());
        let tr1 = ctx.traffic();
        ctx.barrier();
        let counters = (ctx.rank() == 0).then(|| (counters::flops(), counters::gemm_calls()));
        let proc_cpu = cpu0.map(|c| (c, process_cpu_s(None)));
        ctx.barrier();
        let mut traffic = [(0, 0); TrafficPhase::COUNT];
        for (slot, ph) in traffic.iter_mut().zip(TrafficPhase::ALL) {
            let (a, b) = (tr0.phase(ph), tr1.phase(ph));
            *slot = (b.msgs - a.msgs, b.bytes - a.bytes);
        }
        let reduced = match (&plain, &enc) {
            (Some(a), _) => a,
            (None, Some(e)) => &e.a,
            (None, None) => unreachable!("every leg builds a matrix"),
        };
        let hash = local_hash(reduced, &tau);
        let residual = (!known_tuple(&ctx, known, hash)).then(|| {
            let a0 = DistMatrix::from_global_fn(&ctx, desc, gen);
            pd_hessenberg_residual(&ctx, &a0, reduced, N, &tau)
        });
        RankOut {
            t0,
            t1,
            cpu_s,
            runq_s,
            traffic,
            report,
            phases,
            hash,
            residual,
            counters,
            proc_cpu,
        }
    });
    let start = ranks.iter().map(|r| r.t0).min().expect("two ranks");
    let end = ranks.iter().map(|r| r.t1).max().expect("two ranks");
    let (f1, g1) = ranks[0].counters.expect("rank 0 reads the counters");
    let (cpu0, cpu1) = ranks[0].proc_cpu.expect("rank 0 reads the process clock");
    LegOut {
        wall: (end - start).as_secs_f64(),
        cpu: cpu1 - cpu0,
        setup: cpu0 - cpu_call,
        ranks,
        flops: f1 - c0.0,
        gemm_calls: g1 - c0.1,
    }
}

/// Verified hash tuples and check failures of one kind of leg.
struct LegGate {
    leg: Leg,
    known: Vec<Vec<u64>>,
    recoveries: usize,
}

impl LegGate {
    fn new(leg: Leg) -> LegGate {
        let recoveries = usize::from(leg == Leg::FtFail);
        LegGate { leg, known: Vec::new(), recoveries }
    }

    /// Run the leg and check it: residual gate for a new factorization,
    /// exactly the expected number of recoveries on every rank.
    fn run(&mut self, seed: u64, runq: &mut RunqMeter) -> (LegOut, bool) {
        let out = run_leg(self.leg, seed, &self.known);
        for r in &out.ranks {
            runq.add(r.runq_s, (r.t1 - r.t0).as_secs_f64());
        }
        let mut ok = true;
        if let Some(res) = out.residual() {
            if res < RESIDUAL_THRESHOLD {
                self.known.push(out.hashes());
            } else {
                eprintln!("benchmark: {:?} leg residual {res} fails the r_inf < {RESIDUAL_THRESHOLD} gate", self.leg);
                ok = false;
            }
        }
        let rec = out.recoveries();
        if rec.iter().any(|&r| r != self.recoveries) {
            eprintln!("benchmark: {:?} leg recoveries {rec:?}, expected {} on every rank", self.leg, self.recoveries);
            ok = false;
        }
        (out, ok)
    }
}

/// One sample: the three legs, plus the traced mirror in a traced run.
struct Sample {
    plain: LegOut,
    traced: Option<LegOut>,
    ft: LegOut,
    fail: LegOut,
}

impl Sample {
    fn mirror(&self) -> &LegOut {
        self.traced.as_ref().expect("traced run")
    }

    fn ft(&self) -> &LegOut {
        &self.ft
    }

    fn fail(&self) -> &LegOut {
        &self.fail
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut gates = [LegGate::new(Leg::Plain), LegGate::new(Leg::Ft), LegGate::new(Leg::FtFail)];
    let mut runq = RunqMeter::default();

    // Warm-up: one verified sample outside the window (the first
    // distributed reduction of a process runs cold).
    for g in gates.iter_mut() {
        if !g.run(args.seed, &mut RunqMeter::default()).1 {
            out.invalid.push(format!("warm-up {:?} leg failed its checks", g.leg));
        }
    }
    if !out.invalid.is_empty() {
        return out;
    }

    let mut samples = Vec::new();
    let deadline = args.deadline();
    let t_window = Instant::now();
    while Instant::now() < deadline {
        let mut legs = Vec::with_capacity(3);
        for g in gates.iter_mut() {
            let (leg, ok) = g.run(args.seed, &mut runq);
            out.attempted += 1;
            out.failed += u64::from(!ok);
            legs.push(leg);
        }
        let traced = args.trace.then(|| {
            let t = run_leg(Leg::PlainTraced, args.seed, &gates[0].known);
            for r in &t.ranks {
                runq.add(r.runq_s, (r.t1 - r.t0).as_secs_f64());
            }
            t
        });
        if let Some(t) = &traced {
            if t.hashes() != legs[0].hashes() {
                out.invalid
                    .push("traced pdgehrd mirror drifted from pdgehrd (hash mismatch)".into());
                break;
            }
        }
        let fail = legs.pop().expect("three legs");
        let ft = legs.pop().expect("three legs");
        let plain = legs.pop().expect("three legs");
        samples.push(Sample { plain, traced, ft, fail });
    }
    let window = secs(t_window);
    out.runq_frac = runq.frac();

    let med = |f: &dyn Fn(&Sample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    let plain_s = med(&|s| s.plain.wall);
    let ft_s = med(&|s| s.ft.wall);
    let ft_fail_s = med(&|s| s.fail.wall);
    let setup_s = med(&|s| s.plain.setup + s.ft.setup + s.fail.setup);
    let overhead = med(&|s| s.ft.wall / s.plain.wall - 1.0);
    let flop_overhead = samples.first().map_or(0.0, |s| s.ft.flops as f64 / s.plain.flops as f64 - 1.0);
    let recovery_s = med(&|s| s.fail.report_max(|x| x.recovery_secs));
    let ft_cpu_s = med(&|s| s.ft.cpu);
    out.e2e.insert("op_cpu_ms", ft_cpu_s * 1e3);
    out.e2e.insert("setup_s", setup_s);
    out.named = vec![
        ("plain_s", plain_s, "s"),
        ("ft_s", ft_s, "s"),
        ("ft_fail_s", ft_fail_s, "s"),
        ("plain_cpu_s", med(&|s| s.plain.cpu), "s"),
        ("ft_cpu_s", ft_cpu_s, "s"),
        ("reductions_per_s", (3 * samples.len()) as f64 / window, "1/s"),
        ("overhead_frac", overhead, "ratio"),
        ("flop_overhead", flop_overhead, "ratio"),
        ("recovery_s", recovery_s, "s"),
        ("setup_s", setup_s, "s"),
        ("samples", samples.len() as f64, "count"),
    ];

    if args.trace && !samples.is_empty() {
        let first = &samples[0];
        let mirror = Sample::mirror;
        // Traced-mirror phase on its slowest rank, as a share of the mirror.
        let phase = |f: fn(&Phases) -> f64| move |s: &Sample| mirror(s).max(|r| f(&r.phases)) / mirror(s).wall;
        // FtReport phase on its slowest rank, as a share of its leg.
        let core = |leg: fn(&Sample) -> &LegOut, f: fn(&FtReport) -> f64| move |s: &Sample| leg(s).report_max(f) / leg(s).wall;
        let named_core = |s: &Sample| {
            s.ft.report_max(|x| x.encode_secs + x.snapshot_secs + x.bookkeeping_secs + x.scope_end_secs)
        };
        let checksum_update_s = |s: &Sample| s.ft.wall - s.plain.wall - named_core(s);
        let rank_share = |f: fn(&RankOut) -> f64| move |s: &Sample| s.ft.max(|r| f(r) / (r.t1 - r.t0).as_secs_f64());
        let gemm_rate = {
            let (fl, tm) = mirror(first)
                .ranks
                .iter()
                .fold((0.0, 0.0), |(f, s), r| (f + r.phases.gemm_flops, s + r.phases.gemm));
            fl / tm * 1e-9
        };
        let mirror_s = med(&|s| mirror(s).wall);
        out.named.extend([
            ("pblas.panel_s", med(&|s| mirror(s).max(|r| r.phases.panel)), "s"),
            ("pblas.trailing_s", med(&|s| mirror(s).max(|r| r.phases.trailing)), "s"),
            ("dense.gemm_s", med(&|s| mirror(s).max(|r| r.phases.gemm)), "s"),
            ("core.encode_s", med(&|s| s.ft.report_max(|x| x.encode_secs)), "s"),
            ("core.snapshot_s", med(&|s| s.ft.report_max(|x| x.snapshot_secs)), "s"),
            ("core.bookkeeping_s", med(&|s| s.ft.report_max(|x| x.bookkeeping_secs)), "s"),
            ("core.scope_end_s", med(&|s| s.ft.report_max(|x| x.scope_end_secs)), "s"),
            ("core.checksum_update_s", med(&checksum_update_s), "s"),
            ("runtime.rank_cpu_s", med(&|s| s.ft.max(|r| r.cpu_s)), "s"),
            (
                "runtime.rank_blocked_s",
                med(&|s| s.ft.max(|r| (r.t1 - r.t0).as_secs_f64() - r.cpu_s - r.runq_s)),
                "s",
            ),
        ]);
        let l = &mut out.layers;
        l.insert("client.op_ms", ft_s * 1e3);
        l.insert("dense.gemm_frac", med(&phase(|p| p.gemm)));
        l.insert("dense.gemm_gflops", gemm_rate);
        l.insert("dense.gemv_gbps", gemv_gbps(&Matrix::from_fn(N, N, |i, j| uniform_entry(args.seed, i, j)), NB, Q));
        l.insert("dense.flops", first.plain.flops as f64);
        l.insert("dense.gemm_calls", first.plain.gemm_calls as f64);
        l.insert("pblas.panel_frac", med(&phase(|p| p.panel)));
        l.insert("pblas.trailing_frac", med(&phase(|p| p.trailing)));
        for (i, ph) in TrafficPhase::ALL.into_iter().enumerate() {
            // Fault-free FT leg, except the recovery phase of the fail leg.
            let leg = if ph == TrafficPhase::Recovery { &first.fail } else { &first.ft };
            let (msgs, bytes) = leg
                .ranks
                .iter()
                .fold((0, 0), |(m, b), r| (m + r.traffic[i].0, b + r.traffic[i].1));
            l.insert(phase_key(ph, true), msgs as f64);
            l.insert(phase_key(ph, false), bytes as f64);
        }
        l.insert("runtime.rank_cpu_frac", med(&rank_share(|r| r.cpu_s)));
        l.insert("runtime.rank_runq_frac", med(&rank_share(|r| r.runq_s)));
        l.insert("runtime.rank_blocked_frac", med(&rank_share(|r| (r.t1 - r.t0).as_secs_f64() - r.cpu_s - r.runq_s)));
        l.insert("core.encode_frac", med(&core(Sample::ft, |r| r.encode_secs)));
        l.insert("core.snapshot_frac", med(&core(Sample::ft, |r| r.snapshot_secs)));
        l.insert("core.bookkeeping_frac", med(&core(Sample::ft, |r| r.bookkeeping_secs)));
        l.insert("core.scope_end_frac", med(&core(Sample::ft, |r| r.scope_end_secs)));
        l.insert("core.checksum_update_frac", med(&|s| checksum_update_s(s) / s.ft.wall));
        l.insert("core.recovery_frac", med(&core(Sample::fail, |r| r.recovery_secs)));
        l.insert("core.overhead_frac", overhead);
        l.insert("core.flop_overhead", flop_overhead);
        l.insert("sched.runq_frac", out.runq_frac);
        l.insert("trace.overhead_frac", mirror_s / plain_s - 1.0);
    }
    out
}

fn phase_key(ph: TrafficPhase, msgs: bool) -> &'static str {
    match (ph, msgs) {
        (TrafficPhase::Panel, true) => "runtime.msgs.panel",
        (TrafficPhase::TrailingUpdate, true) => "runtime.msgs.trailing_update",
        (TrafficPhase::ChecksumUpdate, true) => "runtime.msgs.checksum_update",
        (TrafficPhase::Checkpoint, true) => "runtime.msgs.checkpoint",
        (TrafficPhase::Recovery, true) => "runtime.msgs.recovery",
        (TrafficPhase::Other, true) => "runtime.msgs.other",
        (TrafficPhase::Panel, false) => "runtime.bytes.panel",
        (TrafficPhase::TrailingUpdate, false) => "runtime.bytes.trailing_update",
        (TrafficPhase::ChecksumUpdate, false) => "runtime.bytes.checksum_update",
        (TrafficPhase::Checkpoint, false) => "runtime.bytes.checkpoint",
        (TrafficPhase::Recovery, false) => "runtime.bytes.recovery",
        (TrafficPhase::Other, false) => "runtime.bytes.other",
    }
}
