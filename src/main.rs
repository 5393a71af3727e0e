//! `abft-hessenberg` — command-line driver for the solver-agnostic ABFT
//! framework: fault-tolerant Hessenberg reduction or Householder QR.
//!
//! ```text
//! abft-hessenberg [OPTIONS]
//!
//!   --n <N>              matrix dimension (default 512)
//!   --nb <NB>            blocking factor / panel width (default 16)
//!   --grid <PxQ>         process grid (default 2x2)
//!   --solver <S>         hessenberg | qr (default hessenberg); qr is the
//!                        left-only second solver on the same framework
//!                        (no --variant cr, no --print-eigs)
//!   --variant <V>        plain | alg2 | alg3 | cr (default alg2)
//!   --redundancy <R>     single | <f> | dual (default single; numeric f
//!                        tolerates f same-row failures and needs Q ≥ 2f;
//!                        dual is another spelling of 2)
//!   --fail <P:PH:R>      scripted failure: panel : phase(0-3) : rank
//!                        (repeatable)
//!   --mtti <PANELS>      Poisson failures with this MTTI (in panels)
//!   --chaos <SEED[:K]>   chaos mode: K seeded kills (default 2) at
//!                        arbitrary message-op boundaries (alg2/alg3 only;
//!                        beyond-tolerance schedules exit with code 3)
//!   --sdc <SEED[:K]>     silent-corruption mode: K seeded bit flips
//!                        (default 1) in local blocks at message-op
//!                        boundaries (alg2/alg3 only); implies
//!                        --scrub-every 1 unless given; uncorrectable
//!                        corruption exits with code 3
//!   --scrub-every <K>    scrub pass every K panel iterations and at every
//!                        scope boundary (alg2/alg3 only; default: off, or
//!                        1 under --sdc)
//!   --cr-interval <K>    C/R checkpoint interval in panels (default 8)
//!   --seed <S>           matrix / trace seed (default 2013)
//!   --verify             compute the distributed residual r∞ afterwards
//!   --print-eigs         rank 0 prints the eigenvalues of H (sorted)
//!   --help               this text
//!
//! Distributed mode (real processes over localhost TCP):
//!
//!   --distributed        launch P·Q child processes of this binary, one
//!                        per rank, wired by TCP (grid from --grid);
//!                        --chaos / --kill-at kills are real SIGKILLs and
//!                        the victim is re-spawned as a replacement
//!   --rank <R>           internal: run as the child process of rank R
//!   --port-base <B>      listen ports B..B+P*Q-1 (default: probed)
//!   --hb-interval-ms <T> heartbeat period (default 100)
//!   --hb-miss-limit <K>  beats of silence before a peer is suspected
//!                        dead (default 30)
//!   --conn-timeout-ms <T> connect/reconnect budget (default 10000)
//!   --net-chaos <SEED[:SPEC]>
//!                        deterministic network-fault injection on every
//!                        rank's outbound links. SPEC is comma-separated:
//!                        drop=P, delay=P@MS, dup=P, reorder=P, corrupt=P,
//!                        reset=P, part=A-B@S[+D] (one-way partition of
//!                        ranks A→B from S ms, healing after D ms). The
//!                        hardened transport (CRC frames, go-back-N
//!                        retransmit, session resume) must mask all of it;
//!                        an unhealed partition exits with code 3 and the
//!                        same typed error on every surviving rank
//!
//!   Env knobs (CLI flags win): FT_HB_INTERVAL_MS, FT_HB_MISS_LIMIT,
//!   FT_HB_GRACE_BEATS (beats of reconnect grace before a closed-socket
//!   peer is declared dead, default 4), FT_HB_BACKOFF_INIT_MS,
//!   FT_HB_BACKOFF_CAP_MS (reconnect backoff range, default 10..400),
//!   FT_NET_WINDOW (go-back-N in-flight frame cap, default 1024),
//!   FT_NET_CHAOS (same grammar as --net-chaos), FT_RECV_TIMEOUT_MS.
//!   All validated at startup; inconsistent values exit with code 2.
//!   --kill-at <R@OP>     scripted kill: rank R at its OP-th message op;
//!                        R@rROUND:OP kills inside recovery round ROUND
//!                        (repeatable; distributed mode only)
//!   --shrink             elastic shrink: a chaos-killed rank is NOT
//!                        re-spawned — the lowest-ranked survivor adopts
//!                        the victim's rank as a thread of its own process
//!                        and the run completes on fewer processes;
//!                        adopted ranks / redistributed bytes / stall time
//!                        are reported in the summary (distributed only)
//!
//!   --fail / --mtti / --sdc are not available with --distributed
//!   (scripted fail points and flip injection assume the in-process
//!   world); use --chaos / --kill-at for real process death.
//! ```
//!
//! Examples:
//!
//! ```text
//! abft-hessenberg --n 768 --grid 4x4 --fail 10:2:5 --verify
//! abft-hessenberg --n 768 --grid 2x4 --variant alg3 --mtti 12
//! abft-hessenberg --n 512 --grid 4x4 --variant cr --mtti 10
//! abft-hessenberg --n 512 --grid 2x4 --redundancy dual --sdc 7:2 --verify
//! abft-hessenberg --n 256 --grid 2x2 --distributed --kill-at 3@120 --verify
//! abft-hessenberg --n 512 --grid 2x2 --solver qr --chaos 5:2 --verify
//! ```

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::dense::Matrix;
use abft_hessenberg::hess::{
    cr_pdgehrd, failpoint, ft_reduce, Encoded, FtSolver, Hessenberg, HouseholderQr, Phase, Redundancy, RunSpec, ScrubPolicy,
    ScrubReport, Variant,
};
use abft_hessenberg::lapack::hessenberg_eigenvalues;
use abft_hessenberg::pblas::{
    pd_extract_h, pd_gather_traffic, pd_gather_transport, pd_hessenberg_residual, pd_orgqr, pd_orthogonality_residual,
    pd_qr_residual, pdgehrd, pdgeqrf, Desc, DistMatrix,
};
use abft_hessenberg::runtime::{
    poisson_failures, run_distributed, run_spmd, ChaosKill, ChaosPoint, ChaosScript, CommError, Ctx, FaultPlan, FaultScript,
    NetChaosScript, PeerCounters, PlannedFailure, SdcScript, TcpConfig, TcpTransport, TrafficLedger, TrafficPhase,
    TransportStats,
};
use std::io::BufRead;
use std::process::exit;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Plain,
    Alg2,
    Alg3,
    Cr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SolverKind {
    Hessenberg,
    Qr,
}

impl SolverKind {
    /// The framework-side geometry object for this choice.
    fn ft(self) -> &'static dyn FtSolver {
        match self {
            SolverKind::Hessenberg => &Hessenberg,
            SolverKind::Qr => &HouseholderQr,
        }
    }

    fn name(self) -> &'static str {
        match self {
            SolverKind::Hessenberg => "hessenberg",
            SolverKind::Qr => "qr",
        }
    }
}

#[derive(Debug, Clone)]
struct Opts {
    n: usize,
    nb: usize,
    p: usize,
    q: usize,
    solver: SolverKind,
    mode: Mode,
    redundancy: Redundancy,
    failures: Vec<PlannedFailure>,
    chaos: Option<(u64, usize)>,
    sdc: Option<(u64, usize)>,
    scrub_every: Option<usize>,
    mtti: Option<f64>,
    cr_interval: usize,
    seed: u64,
    verify: bool,
    // Distributed (TCP multi-process) mode.
    distributed: bool,
    rank: Option<usize>,
    port_base: Option<u16>,
    hb_interval_ms: Option<u64>,
    hb_miss_limit: Option<u32>,
    conn_timeout_ms: Option<u64>,
    net_chaos: Option<String>,
    kill_at: Vec<ChaosKill>,
    shrink: bool,
    respawn: u32,
    chaos_fired: Vec<usize>,
    print_eigs: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            n: 512,
            nb: 16,
            p: 2,
            q: 2,
            solver: SolverKind::Hessenberg,
            mode: Mode::Alg2,
            redundancy: Redundancy::Single,
            failures: Vec::new(),
            chaos: None,
            sdc: None,
            scrub_every: None,
            mtti: None,
            cr_interval: 8,
            seed: 2013,
            verify: false,
            distributed: false,
            rank: None,
            port_base: None,
            hb_interval_ms: None,
            hb_miss_limit: None,
            conn_timeout_ms: None,
            net_chaos: None,
            kill_at: Vec::new(),
            shrink: false,
            respawn: 0,
            chaos_fired: Vec::new(),
            print_eigs: false,
        }
    }
}

fn usage() -> ! {
    // The module docs are the single source of truth for the help text.
    let doc = include_str!("main.rs");
    for line in doc.lines().take_while(|l| l.starts_with("//!")) {
        println!("{}", line.trim_start_matches("//!").trim_start_matches(' '));
    }
    exit(0)
}

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    exit(2)
}

fn parse_args() -> Opts {
    let mut o = Opts::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| args.next().unwrap_or_else(|| fail(&format!("{name} needs a value")));
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--n" => o.n = val("--n").parse().unwrap_or_else(|_| fail("--n: bad integer")),
            "--nb" => o.nb = val("--nb").parse().unwrap_or_else(|_| fail("--nb: bad integer")),
            "--grid" => {
                let v = val("--grid");
                let (ps, qs) = v.split_once(['x', 'X']).unwrap_or_else(|| fail("--grid: use PxQ"));
                o.p = ps.parse().unwrap_or_else(|_| fail("--grid: bad P"));
                o.q = qs.parse().unwrap_or_else(|_| fail("--grid: bad Q"));
            }
            "--solver" => {
                o.solver = match val("--solver").as_str() {
                    "hessenberg" => SolverKind::Hessenberg,
                    "qr" => SolverKind::Qr,
                    other => fail(&format!("--solver: unknown '{other}'")),
                }
            }
            "--variant" => {
                o.mode = match val("--variant").as_str() {
                    "plain" => Mode::Plain,
                    "alg2" => Mode::Alg2,
                    "alg3" => Mode::Alg3,
                    "cr" => Mode::Cr,
                    other => fail(&format!("--variant: unknown '{other}'")),
                }
            }
            "--redundancy" => {
                o.redundancy = match val("--redundancy").as_str() {
                    "single" => Redundancy::Single,
                    "dual" => Redundancy::Coded(2),
                    other => match other.parse::<usize>() {
                        Ok(f) if f >= 1 => Redundancy::Coded(f),
                        _ => fail(&format!("--redundancy: unknown '{other}' (single | dual | f ≥ 1)")),
                    },
                }
            }
            "--fail" => {
                let v = val("--fail");
                let parts: Vec<&str> = v.split(':').collect();
                if parts.len() != 3 {
                    fail("--fail: use PANEL:PHASE:RANK");
                }
                let panel: usize = parts[0].parse().unwrap_or_else(|_| fail("--fail: bad panel"));
                let ph: usize = parts[1].parse().unwrap_or_else(|_| fail("--fail: bad phase"));
                let rank: usize = parts[2].parse().unwrap_or_else(|_| fail("--fail: bad rank"));
                if ph > 3 {
                    fail("--fail: phase is 0..=3");
                }
                o.failures
                    .push(PlannedFailure { victim: rank, point: failpoint(panel, Phase::ALL[ph]) });
            }
            "--chaos" => {
                let v = val("--chaos");
                let (seed_s, kills_s) = match v.split_once(':') {
                    Some((s, k)) => (s, k),
                    None => (v.as_str(), "2"),
                };
                let seed: u64 = seed_s.parse().unwrap_or_else(|_| fail("--chaos: bad seed"));
                let kills: usize = kills_s.parse().unwrap_or_else(|_| fail("--chaos: bad kill count"));
                o.chaos = Some((seed, kills));
            }
            "--sdc" => {
                let v = val("--sdc");
                let (seed_s, flips_s) = match v.split_once(':') {
                    Some((s, k)) => (s, k),
                    None => (v.as_str(), "1"),
                };
                let seed: u64 = seed_s.parse().unwrap_or_else(|_| fail("--sdc: bad seed"));
                let flips: usize = flips_s.parse().unwrap_or_else(|_| fail("--sdc: bad flip count"));
                o.sdc = Some((seed, flips));
            }
            "--scrub-every" => {
                let k: usize = val("--scrub-every")
                    .parse()
                    .unwrap_or_else(|_| fail("--scrub-every: bad integer"));
                if k == 0 {
                    fail("--scrub-every: must be at least 1");
                }
                o.scrub_every = Some(k);
            }
            "--mtti" => o.mtti = Some(val("--mtti").parse().unwrap_or_else(|_| fail("--mtti: bad number"))),
            "--cr-interval" => {
                o.cr_interval = val("--cr-interval")
                    .parse()
                    .unwrap_or_else(|_| fail("--cr-interval: bad integer"))
            }
            "--seed" => o.seed = val("--seed").parse().unwrap_or_else(|_| fail("--seed: bad integer")),
            "--verify" => o.verify = true,
            "--print-eigs" => o.print_eigs = true,
            "--distributed" => o.distributed = true,
            "--rank" => o.rank = Some(val("--rank").parse().unwrap_or_else(|_| fail("--rank: bad integer"))),
            "--port-base" => o.port_base = Some(val("--port-base").parse().unwrap_or_else(|_| fail("--port-base: bad port"))),
            "--hb-interval-ms" => {
                let ms: u64 = val("--hb-interval-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--hb-interval-ms: bad integer"));
                if ms == 0 {
                    fail("--hb-interval-ms: must be at least 1");
                }
                o.hb_interval_ms = Some(ms);
            }
            "--hb-miss-limit" => {
                let k: u32 = val("--hb-miss-limit")
                    .parse()
                    .unwrap_or_else(|_| fail("--hb-miss-limit: bad integer"));
                if k == 0 {
                    fail("--hb-miss-limit: must be at least 1");
                }
                o.hb_miss_limit = Some(k);
            }
            "--conn-timeout-ms" => {
                let ms: u64 = val("--conn-timeout-ms")
                    .parse()
                    .unwrap_or_else(|_| fail("--conn-timeout-ms: bad integer"));
                if ms == 0 {
                    fail("--conn-timeout-ms: must be at least 1");
                }
                o.conn_timeout_ms = Some(ms);
            }
            "--net-chaos" => {
                let v = val("--net-chaos");
                // Parse eagerly so a malformed script is a usage error (exit
                // 2) before any process is spawned, but keep the raw string:
                // it is forwarded verbatim to every child rank.
                if let Err(e) = NetChaosScript::parse(&v) {
                    fail(&format!("--net-chaos: {e}"));
                }
                o.net_chaos = Some(v);
            }
            "--kill-at" => {
                let v = val("--kill-at");
                let (rank_s, at_s) = v
                    .split_once('@')
                    .unwrap_or_else(|| fail("--kill-at: use RANK@OP or RANK@rROUND:OP"));
                let victim: usize = rank_s.parse().unwrap_or_else(|_| fail("--kill-at: bad rank"));
                let at = match at_s.strip_prefix('r') {
                    Some(rest) => {
                        let (round_s, op_s) = rest
                            .split_once(':')
                            .unwrap_or_else(|| fail("--kill-at: recovery form is RANK@rROUND:OP"));
                        let round: u32 = round_s.parse().unwrap_or_else(|_| fail("--kill-at: bad recovery round"));
                        let op: u64 = op_s.parse().unwrap_or_else(|_| fail("--kill-at: bad op"));
                        if round == 0 {
                            fail("--kill-at: recovery rounds are 1-based");
                        }
                        ChaosPoint::RecoveryOp { round, op }
                    }
                    None => ChaosPoint::Op(at_s.parse().unwrap_or_else(|_| fail("--kill-at: bad op"))),
                };
                o.kill_at.push(ChaosKill { victim, at });
            }
            "--shrink" => o.shrink = true,
            "--respawn" => o.respawn = val("--respawn").parse().unwrap_or_else(|_| fail("--respawn: bad integer")),
            "--chaos-fired" => {
                for part in val("--chaos-fired").split(',').filter(|s| !s.is_empty()) {
                    o.chaos_fired
                        .push(part.parse().unwrap_or_else(|_| fail("--chaos-fired: bad index")));
                }
            }
            other => fail(&format!("unknown argument '{other}'")),
        }
    }
    o
}

fn print_scrub_summary(s: &ScrubReport) {
    println!("scrub (grid-wide, aggregated):");
    println!("  {:<22} {:>10}", "scans", s.scans);
    println!("  {:<22} {:>10}", "detections", s.detections);
    println!("  {:<22} {:>10}", "corrections", s.corrections);
    println!("  {:<22} {:>10}", "checksum repairs", s.chk_repairs);
    println!("  {:<22} {:>10}", "area-3 repairs", s.area3_repairs);
    println!("  {:<22} {:>10}", "escalations", s.escalations);
    println!("  {:<22} {:>10}", "rollbacks", s.rollbacks);
    println!("  {:<22} {:>10.4}", "scan seconds (mean)", s.scan_secs);
    println!("  {:<22} {:>10.3e}", "residual mass (frob2)", s.residual_mass);
}

fn print_transport_summary(stats: &TransportStats) {
    println!("transport (grid-wide, by peer):");
    println!(
        "  {:>4} {:>9} {:>12} {:>9} {:>12} {:>7} {:>10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "peer",
        "frames_tx",
        "bytes_tx",
        "frames_rx",
        "bytes_rx",
        "retries",
        "reconnects",
        "hb_misses",
        "rexmit",
        "dupsup",
        "resumes",
        "crc_rej",
        "frm_rej",
        "rescinds"
    );
    let row = |label: &str, c: &PeerCounters| {
        println!(
            "  {:>4} {:>9} {:>12} {:>9} {:>12} {:>7} {:>10} {:>9} {:>7} {:>7} {:>7} {:>7} {:>7} {:>8}",
            label,
            c.frames_tx,
            c.bytes_tx,
            c.frames_rx,
            c.bytes_rx,
            c.retries,
            c.reconnects,
            c.hb_misses,
            c.retransmits,
            c.dup_suppressed,
            c.resumes,
            c.crc_rejects,
            c.frame_rejects,
            c.rescinds
        );
    };
    for (r, c) in stats.peers.iter().enumerate() {
        row(&r.to_string(), c);
    }
    row("all", &stats.total());
}

/// Every flag-combination check of both modes, run before either mode
/// prints or spawns anything: a rejected command line is a usage error
/// (exit 2), identical whichever mode it asked for.
fn validate(o: &Opts) {
    let world = o.p * o.q;
    let abft = matches!(o.mode, Mode::Alg2 | Mode::Alg3);
    if o.solver == SolverKind::Qr {
        if o.mode == Mode::Cr {
            fail("--variant cr is the Hessenberg checkpoint/restart baseline; not available with --solver qr");
        }
        if o.print_eigs {
            fail("--print-eigs needs the Hessenberg form (QR has no spectrum to extract); not available with --solver qr");
        }
    }
    // Up front rather than as the encoder's construction assert mid-run.
    if let Redundancy::Coded(f) = o.redundancy {
        if o.q < 2 * f {
            fail(&format!(
                "--redundancy {f} needs Q >= {} process columns for its checksums (got Q = {})",
                2 * f,
                o.q
            ));
        }
    }
    if o.distributed || o.rank.is_some() {
        if !o.failures.is_empty() || o.mtti.is_some() {
            fail("--fail / --mtti assume the in-process world; use --chaos or --kill-at with --distributed");
        }
        if o.sdc.is_some() {
            fail("--sdc assumes the in-process flip injector; not available with --distributed");
        }
        if o.mode == Mode::Cr {
            fail("--variant cr is not available with --distributed");
        }
        if o.shrink && !abft {
            fail("--shrink needs --variant alg2 or alg3 (an adopted rank re-enters through ABFT recovery)");
        }
        if let Some(k) = o.kill_at.iter().find(|k| k.victim >= world) {
            fail(&format!("--kill-at: rank {} is outside the {}-rank grid", k.victim, world));
        }
        if let Some(r) = o.rank {
            if !o.distributed {
                fail("--rank is the internal child-mode flag; it needs --distributed");
            }
            if r >= world {
                fail(&format!("--rank {r} is outside the {world}-rank grid"));
            }
            if o.port_base.is_none() {
                fail("--rank needs an explicit --port-base");
            }
        } else if o.respawn > 0 || !o.chaos_fired.is_empty() {
            fail("--respawn / --chaos-fired are internal child-mode flags (need --rank)");
        }
        // A bad FT_HB_* value must not get as far as spawning children.
        let _ = resolved_tcp_config(o, 0, world);
    } else if !o.kill_at.is_empty()
        || o.shrink
        || o.port_base.is_some()
        || o.hb_interval_ms.is_some()
        || o.hb_miss_limit.is_some()
        || o.conn_timeout_ms.is_some()
        || o.net_chaos.is_some()
        || o.print_eigs
        || o.respawn > 0
        || !o.chaos_fired.is_empty()
    {
        fail("--kill-at / --shrink / --port-base / --hb-interval-ms / --hb-miss-limit / --conn-timeout-ms / --net-chaos / --print-eigs need --distributed");
    }
    if (o.chaos.is_some() || !o.kill_at.is_empty()) && !abft {
        fail("--chaos / --kill-at need --variant alg2 or alg3 (the others never arm the injector)");
    }
    if (o.sdc.is_some() || o.scrub_every.is_some()) && !abft {
        fail("--sdc / --scrub-every need --variant alg2 or alg3 (the scrub engine lives in the ABFT driver)");
    }
}

/// Upper end of the message-op range seeded kills and flips are drawn
/// from. A rank performs roughly `4*nb + 20` message ops per panel
/// iteration (measured via `Ctx::chaos_ops`, conservative at common
/// grids), so seeded events land inside the run; events scheduled past
/// the end simply never fire.
fn seeded_op_hi(o: &Opts) -> u64 {
    (o.solver.ft().panel_count(o.n, o.nb) as u64 * (4 * o.nb as u64 + 20)).max(200)
}

/// The chaos schedule every rank evaluates against its op clock: seeded
/// kills (if `--chaos`) plus every explicit `--kill-at`.
fn chaos_script(o: &Opts) -> ChaosScript {
    let mut kills: Vec<ChaosKill> = match o.chaos {
        Some((cseed, n_kills)) => ChaosScript::seeded(cseed, o.p * o.q, n_kills, 50, seeded_op_hi(o))
            .kills()
            .to_vec(),
        None => Vec::new(),
    };
    kills.extend(o.kill_at.iter().copied());
    ChaosScript::new(kills)
}

/// The residual printed under --verify: the solver's own oracle, on the
/// paper's r∞ scale. QR reports the worse of its factorization residual
/// and its loss of orthogonality — there is no spectrum to fall back on.
fn residual(ctx: &Ctx, solver: SolverKind, a0: &DistMatrix, a: &DistMatrix, n: usize, tau: &[f64]) -> f64 {
    match solver {
        SolverKind::Hessenberg => pd_hessenberg_residual(ctx, a0, a, n, tau),
        SolverKind::Qr => {
            let r = pd_qr_residual(ctx, a0, a, n, tau);
            let qm = pd_orgqr(ctx, a, n, tau);
            r.max(pd_orthogonality_residual(ctx, &qm, n))
        }
    }
}

/// Shrink report (collective): every rank contributes its adopted-rank
/// flags and agreement-stall seconds; rank 0 gets the sorted adopted ranks
/// and the total stall. The adopted threads participate like any rank, so
/// the gather is world-complete even after the process count shrank.
fn gather_shrink(ctx: &Ctx, world: usize) -> (Vec<usize>, f64) {
    let (flags, stall) = ctx.shrink_stats();
    if ctx.rank() == 0 {
        let mut ranks: Vec<usize> = (0..world).filter(|&r| flags[r]).collect();
        let mut stall_total = stall;
        for r in 1..world {
            let p = ctx.recv(r, 628u64);
            ranks.extend((0..world).filter(|&v| p[v] != 0.0));
            stall_total += p[world];
        }
        ranks.sort_unstable();
        (ranks, stall_total)
    } else {
        let mut payload: Vec<f64> = (0..world).map(|r| if flags[r] { 1.0 } else { 0.0 }).collect();
        payload.push(stall);
        ctx.send(0, 628u64, &payload);
        (Vec::new(), 0.0)
    }
}

/// One rank's whole run, shared by both modes: build the input, run the
/// chosen routine, check the residual, gather the grid-wide counters and
/// print the summary on rank 0. Returns the exit code (rank 0's is the
/// run's verdict).
fn rank_body(ctx: &Ctx, o: &Opts) -> i32 {
    let (n, nb, seed) = (o.n, o.nb, o.seed);
    let input = || DistMatrix::from_global_fn(ctx, Desc { m: n, n, nb }, |i, j| uniform_entry(seed, i, j));
    let policy = match (o.scrub_every, o.sdc) {
        (Some(k), _) => ScrubPolicy::every_panels(k),
        // --sdc without an explicit cadence scans at every panel boundary.
        (None, Some(_)) => ScrubPolicy::every_panels(1),
        (None, None) => ScrubPolicy::disabled(),
    };
    let t = Instant::now();
    let mut tau = vec![0.0; o.solver.ft().tau_len(n).max(1)];
    let (a, events, scrub) = match o.mode {
        Mode::Plain => {
            let mut a = input();
            match o.solver {
                SolverKind::Hessenberg => pdgehrd(ctx, &mut a, &mut tau),
                SolverKind::Qr => pdgeqrf(ctx, &mut a, &mut tau),
            }
            (a, None, None)
        }
        Mode::Cr => {
            let mut a = input();
            let rep = cr_pdgehrd(ctx, &mut a, o.cr_interval, &mut tau);
            (a, Some(format!("rollbacks: {}, lost panel iterations: {}", rep.rollbacks, rep.lost_panels)), None)
        }
        Mode::Alg2 | Mode::Alg3 => {
            let variant = if o.mode == Mode::Alg3 { Variant::Delayed } else { Variant::NonDelayed };
            let mut enc = Encoded::with_redundancy(ctx, n, nb, o.redundancy, |i, j| uniform_entry(seed, i, j));
            // A re-spawned replacement joins an already-running
            // factorization: skip encoding, enter recovery first (§5.3).
            let spec = RunSpec {
                scrub: policy,
                replacement: o.respawn > 0,
                ..RunSpec::new(variant)
            };
            match ft_reduce(ctx, o.solver.ft(), &mut enc, &mut tau, spec) {
                Ok(rep) => (
                    enc.a,
                    Some(format!("recoveries: {}, chaos aborts: {}", rep.recoveries, rep.chaos_aborts)),
                    Some(rep.scrub),
                ),
                Err(err) => {
                    eprintln!("rank {}: UNRECOVERABLE: {err}", ctx.rank());
                    return 3;
                }
            }
        }
    };
    let secs = t.elapsed().as_secs_f64();
    // The collectives below run in the same order on every rank.
    let residual = o.verify.then(|| residual(ctx, o.solver, &input(), &a, n, &tau));
    let summary = Summary {
        secs,
        gflops: if o.solver == SolverKind::Qr { 4.0 / 3.0 } else { 10.0 / 3.0 } * (n as f64).powi(3) / secs / 1e9,
        events,
        scrub: scrub.filter(|_| policy.active()).map(|s| s.gathered(ctx, 622)),
        traffic: pd_gather_traffic(ctx, 620),
        wire: ctx.distributed().then(|| pd_gather_transport(ctx, 624)),
        shrink: o.shrink.then(|| gather_shrink(ctx, o.p * o.q)),
        h: o.print_eigs.then(|| pd_extract_h(ctx, &a, n).gather_root(ctx, 626)).flatten(),
        residual,
    };
    if ctx.rank() == 0 {
        summary.print()
    } else {
        0
    }
}

/// What rank 0 reports at the end of a run. The wire table, the shrink
/// report and the eigenvalues of `H` exist only in distributed mode.
struct Summary {
    secs: f64,
    gflops: f64,
    /// The fault-handling line: recoveries (ABFT) or rollbacks (C/R).
    events: Option<String>,
    scrub: Option<ScrubReport>,
    traffic: TrafficLedger,
    wire: Option<TransportStats>,
    shrink: Option<(Vec<usize>, f64)>,
    h: Option<Matrix>,
    residual: Option<f64>,
}

impl Summary {
    /// Print the summary; returns the run's exit code.
    fn print(&self) -> i32 {
        println!("time: {:.3} s  ({:.2} effective GFLOP/s)", self.secs, self.gflops);
        if let Some(line) = &self.events {
            println!("{line}");
        }
        if let Some(s) = &self.scrub {
            print_scrub_summary(s);
        }
        let traffic = &self.traffic;
        println!("traffic (grid-wide, by phase):");
        for ph in TrafficPhase::ALL {
            let t = traffic.phase(ph);
            if t.msgs > 0 {
                println!("  {:<16} {:>12} bytes  {:>8} msgs", ph.name(), t.bytes, t.msgs);
            }
        }
        println!("  {:<16} {:>12} bytes  {:>8} msgs", "total", traffic.total_bytes(), traffic.total_msgs());
        if let Some((ranks, stall)) = &self.shrink {
            if ranks.is_empty() {
                println!("shrink: armed, no rank adopted");
            } else {
                println!("shrink (survivor-adopted ranks):");
                println!("  {:<22} {:?}", "adopted ranks", ranks);
                println!("  {:<22} {:>10} bytes", "redistributed", traffic.phase(TrafficPhase::Recovery).bytes);
                println!("  {:<22} {:>10.3} s", "agreement stall", stall);
            }
        }
        if let Some(wire) = &self.wire {
            print_transport_summary(wire);
        }
        if let Some(h) = &self.h {
            let mut ev = match hessenberg_eigenvalues(h) {
                Ok(ev) => ev,
                Err(e) => {
                    eprintln!("eigenvalue extraction failed: {e:?}");
                    return 3;
                }
            };
            ev.sort_by(|a, b| (a.re, a.im).partial_cmp(&(b.re, b.im)).unwrap());
            println!("eigenvalues ({}):", ev.len());
            for e in &ev {
                println!("eig {:+.15e} {:+.15e}", e.re, e.im);
            }
        }
        if let Some(r) = self.residual {
            println!("residual r_inf = {r:.4}  (paper threshold r_t = 3)");
            if r >= 3.0 {
                eprintln!("VERIFICATION FAILED");
                return 1;
            }
            println!("verification passed");
        }
        0
    }
}

/// The transport config a rank actually runs with: built-in defaults,
/// overlaid with the `FT_HB_*` environment, overlaid with CLI flags — and
/// validated, so inconsistent liveness settings die as a usage error (exit
/// 2) before any socket work starts. The launcher dry-runs this too, to
/// reject bad configs before spawning a single child.
fn resolved_tcp_config(o: &Opts, rank: usize, world: usize) -> TcpConfig {
    let mut cfg = TcpConfig::new(rank, world);
    if let Err(e) = cfg.apply_env() {
        fail(&format!("transport config: {e}"));
    }
    if let Some(ms) = o.hb_interval_ms {
        cfg.hb_interval = Duration::from_millis(ms);
    }
    if let Some(k) = o.hb_miss_limit {
        cfg.hb_miss_limit = k;
    }
    if let Some(ms) = o.conn_timeout_ms {
        cfg.conn_timeout = Duration::from_millis(ms);
    }
    if let Some(spec) = &o.net_chaos {
        cfg.net_chaos = NetChaosScript::parse(spec).unwrap_or_else(|e| fail(&format!("--net-chaos: {e}")));
    }
    if let Err(e) = cfg.validate() {
        fail(&format!("transport config: {e}"));
    }
    cfg
}

/// Host a dead peer's rank inside this process (elastic shrink): bind the
/// victim's freed port under its next incarnation, join the fabric exactly
/// like a launcher re-spawn would, and run the rank to completion through
/// the §5.3 replacement entry. The adopted rank's exit code is published
/// as an `FT_SHRINK_CODE` stdout marker so the launcher can honor rank 0's
/// verdict even when rank 0's original process is gone.
fn adopt_rank(o: Opts, victim: usize, incarnation: u32, port_base: u16) {
    let world = o.p * o.q;
    eprintln!("shrink: adopting rank {victim} (incarnation {incarnation})");
    let mut cfg = resolved_tcp_config(&o, victim, world);
    cfg.incarnation = incarnation;
    let transport = match TcpTransport::connect(cfg, port_base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("shrink: adopting rank {victim} failed: transport: {e}");
            println!("FT_SHRINK_CODE rank={victim} code=3");
            return;
        }
    };
    let mut o2 = o;
    // The replacement entry: skip encoding, enter recovery first. The
    // incarnation doubles as the respawn counter, exactly as the launcher's
    // `--respawn` flag would.
    o2.respawn = incarnation.max(1);
    let code = match run_distributed(o2.p, o2.q, ChaosScript::none(), Box::new(transport), |ctx| rank_body(&ctx, &o2)) {
        Ok(code) => code,
        Err(err @ CommError::Partitioned { .. }) => {
            eprintln!("shrink: adopted rank {victim}: UNRECOVERABLE: {err}");
            3
        }
        Err(err) => {
            eprintln!("shrink: adopted rank {victim}: transport: {err}");
            3
        }
    };
    println!("FT_SHRINK_CODE rank={victim} code={code}");
}

/// Child mode: run as rank `rank` of the TCP fabric and exit with the
/// rank's code. The parent launcher spawns one of these per rank.
fn child_main(o: Opts, rank: usize) -> ! {
    let world = o.p * o.q;
    let port_base = o.port_base.expect("checked in validate");
    let mut cfg = resolved_tcp_config(&o, rank, world);
    cfg.incarnation = o.respawn;
    let transport = match TcpTransport::connect(cfg, port_base) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rank {rank}: transport connect failed: {e}");
            exit(3)
        }
    };
    let chaos = chaos_script(&o);
    // Threads hosting adopted ranks (shrink mode). The process must outlive
    // them: their epilogue (collectives, the FT_SHRINK_CODE marker) runs
    // after this rank's own body has already returned.
    let adoptions: std::sync::Arc<std::sync::Mutex<Vec<std::thread::JoinHandle<()>>>> = Default::default();
    let code = match run_distributed(o.p, o.q, chaos, Box::new(transport), |ctx| {
        // A replacement is told which kills already struck its predecessor
        // so they do not re-fire against the fresh op clock.
        ctx.mark_chaos_fired(&o.chaos_fired);
        if o.shrink {
            let o2 = o.clone();
            let adoptions = std::sync::Arc::clone(&adoptions);
            ctx.set_shrink_handler(move |victim, incarnation| {
                let o3 = o2.clone();
                let h = std::thread::spawn(move || adopt_rank(o3, victim, incarnation, port_base));
                adoptions.lock().unwrap().push(h);
            });
        }
        rank_body(&ctx, &o)
    }) {
        Ok(code) => code,
        // Partition agreement: every surviving rank lands here with the
        // same typed error and the same exit code — no hang, no split
        // verdicts (see DESIGN.md §16).
        Err(err @ CommError::Partitioned { .. }) => {
            eprintln!("rank {rank}: UNRECOVERABLE: {err}");
            3
        }
        Err(err) => {
            eprintln!("rank {rank}: transport: {err}");
            3
        }
    };
    for h in std::mem::take(&mut *adoptions.lock().unwrap()) {
        let _ = h.join();
    }
    exit(code)
}

/// Bind-probe a run of `world` consecutive free localhost ports.
fn probe_port_base(world: usize) -> u16 {
    let pid = std::process::id();
    for attempt in 0..512u32 {
        let base = 20000 + ((pid.wrapping_mul(131).wrapping_add(attempt.wrapping_mul(977))) % 40000) as u16;
        if usize::from(u16::MAX - base) < world {
            continue;
        }
        let held: Vec<_> = (0..world)
            .map(|r| std::net::TcpListener::bind(("127.0.0.1", base + r as u16)))
            .collect();
        if held.iter().all(|l| l.is_ok()) {
            return base;
        }
    }
    fail("could not probe a free localhost port range; pass --port-base")
}

enum LauncherEvent {
    /// A child announced its scripted death (`FT_CHAOS_KILL` marker):
    /// SIGKILL it for real and re-spawn a replacement (or, with
    /// `--shrink`, leave it dead for the survivors to adopt).
    Marker { rank: usize, idx: usize },
    /// A surviving process finished hosting an adopted rank and reports
    /// that rank's exit code (`FT_SHRINK_CODE` marker) — the only route to
    /// rank 0's verdict when rank 0's original process is gone.
    ShrinkCode { rank: usize, code: i32 },
    /// A line of child stdout (rank 0's are passed through; under
    /// `--shrink` every process's, since rank 0 may be hosted anywhere).
    Line { rank: usize, line: String },
    /// A child's stdout closed — it is dead, reap it.
    Eof { rank: usize },
}

/// Parse `key=value` tokens of a launcher marker line.
fn marker_field<T: std::str::FromStr>(rest: &str, key: &str) -> Option<T> {
    rest.split_whitespace().find_map(|tok| tok.strip_prefix(key)?.parse().ok())
}

fn spawn_rank(
    exe: &std::path::Path,
    o: &Opts,
    port_base: u16,
    rank: usize,
    incarnation: u32,
    fired: &[usize],
    tx: &std::sync::mpsc::Sender<LauncherEvent>,
) -> std::io::Result<std::process::Child> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--n").arg(o.n.to_string());
    cmd.arg("--nb").arg(o.nb.to_string());
    cmd.arg("--grid").arg(format!("{}x{}", o.p, o.q));
    let variant = match o.mode {
        Mode::Plain => "plain",
        Mode::Alg2 => "alg2",
        Mode::Alg3 => "alg3",
        Mode::Cr => "cr",
    };
    cmd.arg("--variant").arg(variant);
    cmd.arg("--solver").arg(o.solver.name());
    let red = match o.redundancy {
        Redundancy::Single => "single".to_string(),
        Redundancy::Coded(f) => f.to_string(),
    };
    cmd.arg("--redundancy").arg(red);
    cmd.arg("--seed").arg(o.seed.to_string());
    cmd.arg("--distributed");
    cmd.arg("--rank").arg(rank.to_string());
    cmd.arg("--port-base").arg(port_base.to_string());
    if let Some((s, k)) = o.chaos {
        cmd.arg("--chaos").arg(format!("{s}:{k}"));
    }
    for k in &o.kill_at {
        let at = match k.at {
            ChaosPoint::Op(op) => format!("{}@{op}", k.victim),
            ChaosPoint::RecoveryOp { round, op } => format!("{}@r{round}:{op}", k.victim),
        };
        cmd.arg("--kill-at").arg(at);
    }
    if let Some(k) = o.scrub_every {
        cmd.arg("--scrub-every").arg(k.to_string());
    }
    if let Some(ms) = o.hb_interval_ms {
        cmd.arg("--hb-interval-ms").arg(ms.to_string());
    }
    if let Some(k) = o.hb_miss_limit {
        cmd.arg("--hb-miss-limit").arg(k.to_string());
    }
    if let Some(ms) = o.conn_timeout_ms {
        cmd.arg("--conn-timeout-ms").arg(ms.to_string());
    }
    if let Some(spec) = &o.net_chaos {
        cmd.arg("--net-chaos").arg(spec);
    }
    if o.verify {
        cmd.arg("--verify");
    }
    if o.shrink {
        cmd.arg("--shrink");
    }
    if o.print_eigs {
        cmd.arg("--print-eigs");
    }
    if incarnation > 0 {
        cmd.arg("--respawn").arg(incarnation.to_string());
    }
    if !fired.is_empty() {
        let list: Vec<String> = fired.iter().map(|i| i.to_string()).collect();
        cmd.arg("--chaos-fired").arg(list.join(","));
    }
    cmd.stdout(std::process::Stdio::piped());
    cmd.stderr(std::process::Stdio::inherit());
    let mut child = cmd.spawn()?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let tx = tx.clone();
    std::thread::spawn(move || {
        for line in std::io::BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if let Some(rest) = line.strip_prefix("FT_CHAOS_KILL ") {
                if let (Some(rank), Some(idx)) = (marker_field(rest, "rank="), marker_field(rest, "idx=")) {
                    let _ = tx.send(LauncherEvent::Marker { rank, idx });
                    continue;
                }
            }
            if let Some(rest) = line.strip_prefix("FT_SHRINK_CODE ") {
                if let (Some(rank), Some(code)) = (marker_field(rest, "rank="), marker_field(rest, "code=")) {
                    let _ = tx.send(LauncherEvent::ShrinkCode { rank, code });
                    continue;
                }
            }
            let _ = tx.send(LauncherEvent::Line { rank, line });
        }
        let _ = tx.send(LauncherEvent::Eof { rank });
    });
    Ok(child)
}

/// Parent mode: spawn one child process per rank, SIGKILL chaos victims
/// when they announce their scripted death, re-spawn them as replacements,
/// and exit with rank 0's code.
fn parent_main(o: Opts) -> ! {
    let world = o.p * o.q;
    let port_base = o.port_base.unwrap_or_else(|| probe_port_base(world));
    let exe = std::env::current_exe().unwrap_or_else(|e| {
        eprintln!("cannot locate own binary: {e}");
        exit(3)
    });
    println!(
        "abft-hessenberg (distributed): N={} nb={} grid={}x{} solver={} variant={:?} redundancy={:?} ports={}..{} kills={} seed={}",
        o.n,
        o.nb,
        o.p,
        o.q,
        o.solver.name(),
        o.mode,
        o.redundancy,
        port_base,
        port_base as usize + world - 1,
        chaos_script(&o).kills().len(),
        o.seed
    );

    let (tx, rx) = std::sync::mpsc::channel();
    let mut children: Vec<Option<std::process::Child>> = Vec::with_capacity(world);
    for rank in 0..world {
        match spawn_rank(&exe, &o, port_base, rank, 0, &[], &tx) {
            Ok(c) => {
                // The pid marker lets external harnesses (stall soaks,
                // SIGSTOP tests) target a specific rank's process.
                println!("FT_RANK_SPAWN rank={rank} pid={} incarnation=0", c.id());
                children.push(Some(c));
            }
            Err(e) => {
                eprintln!("failed to spawn rank {rank}: {e}");
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
                exit(3)
            }
        }
    }

    let deadline = Instant::now() + Duration::from_secs(600);
    let mut incarnation = vec![0u32; world];
    let mut pending_respawn = vec![false; world];
    // Shrink mode: ranks whose death is expected and final — no respawn;
    // a survivor adopts them and reports their code via FT_SHRINK_CODE.
    let mut shrunk = vec![false; world];
    let mut fired: Vec<usize> = Vec::new();
    let mut live = world;
    let mut code0: i32 = 3;
    while live > 0 {
        let timeout = deadline.saturating_duration_since(Instant::now());
        let ev = match rx.recv_timeout(timeout) {
            Ok(ev) => ev,
            Err(_) => {
                eprintln!("watchdog: distributed run exceeded its budget; killing all ranks");
                for c in children.iter_mut().flatten() {
                    let _ = c.kill();
                }
                exit(124)
            }
        };
        match ev {
            LauncherEvent::Marker { rank, idx } => {
                // The victim stalls on its marker until this very real
                // SIGKILL lands — peers see sockets drop, not a shutdown.
                if !fired.contains(&idx) {
                    fired.push(idx);
                }
                if let Some(c) = children.get_mut(rank).and_then(|c| c.as_mut()) {
                    let _ = c.kill();
                    if o.shrink {
                        // Final: the survivors must adopt this rank.
                        shrunk[rank] = true;
                        println!("launcher: SIGKILL rank {rank} (chaos kill #{idx}, shrink — no re-spawn)");
                    } else {
                        pending_respawn[rank] = true;
                        println!("launcher: SIGKILL rank {rank} (chaos kill #{idx})");
                    }
                }
            }
            LauncherEvent::ShrinkCode { rank, code } => {
                println!("launcher: adopted rank {rank} finished with code {code}");
                if rank == 0 {
                    code0 = code;
                }
            }
            LauncherEvent::Line { rank, line } => {
                // Under --shrink, rank 0 may end up hosted by any process,
                // so every survivor's stdout is passed through.
                if rank == 0 || o.shrink {
                    println!("{line}");
                }
            }
            LauncherEvent::Eof { rank } => {
                let status = children[rank].take().and_then(|mut c| c.wait().ok());
                if pending_respawn[rank] {
                    pending_respawn[rank] = false;
                    incarnation[rank] += 1;
                    match spawn_rank(&exe, &o, port_base, rank, incarnation[rank], &fired, &tx) {
                        Ok(c) => {
                            println!("launcher: re-spawned rank {rank} (incarnation {})", incarnation[rank]);
                            println!("FT_RANK_SPAWN rank={rank} pid={} incarnation={}", c.id(), incarnation[rank]);
                            children[rank] = Some(c);
                        }
                        Err(e) => {
                            eprintln!("failed to re-spawn rank {rank}: {e}");
                            live -= 1;
                        }
                    }
                } else {
                    live -= 1;
                    // A shrunk rank 0's SIGKILL status is meaningless; its
                    // verdict arrives via FT_SHRINK_CODE from its adopter.
                    if rank == 0 && !shrunk[0] {
                        code0 = status.and_then(|s| s.code()).unwrap_or(3);
                    }
                }
            }
        }
    }
    exit(code0)
}

mod serve_cli;

fn main() {
    // Serving-plane verbs (`serve` / `submit` / `serve-worker`) route
    // before the classic flag parser — they have their own flag grammar
    // (and `submit` must work without --distributed).
    if let Some(code) = serve_cli::route() {
        exit(code);
    }
    let o = parse_args();
    validate(&o);
    match o.rank {
        Some(rank) => child_main(o, rank),
        None if o.distributed => parent_main(o),
        None => in_process_main(o),
    }
}

/// In-process mode: every rank is a thread of this process, and scripted
/// failures, chaos kills and bit flips come from the in-process injector.
fn in_process_main(mut o: Opts) -> ! {
    // Ragged N is handled by the encoder (zero-padded to whole blocks, see
    // DESIGN.md §10) — no round-up needed.
    if let Some(mtti) = o.mtti {
        let panels = o.solver.ft().panel_count(o.n, o.nb);
        let extra = poisson_failures(panels as u64, mtti, o.p * o.q, o.seed)
            .into_iter()
            .map(|f| PlannedFailure {
                victim: f.victim,
                point: failpoint(f.point as usize, Phase::AfterLeftUpdate),
            });
        o.failures.extend(extra);
    }
    println!(
        "abft-hessenberg: N={} nb={} grid={}x{} solver={} variant={:?} redundancy={:?} failures={} seed={}",
        o.n,
        o.nb,
        o.p,
        o.q,
        o.solver.name(),
        o.mode,
        o.redundancy,
        o.failures.len(),
        o.seed
    );
    let plan = FaultPlan {
        script: FaultScript::new(o.failures.clone()),
        chaos: chaos_script(&o),
        sdc: match o.sdc {
            Some((sseed, flips)) => SdcScript::seeded(sseed, o.p * o.q, flips, 50, seeded_op_hi(&o)),
            None => SdcScript::none(),
        },
    };
    let codes = run_spmd(o.p, o.q, plan, |ctx| rank_body(&ctx, &o));
    exit(codes[0])
}
