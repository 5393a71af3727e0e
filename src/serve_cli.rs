//! CLI verbs for the serving plane: `serve` (run the daemon), `submit`
//! (tenant-side job submission), and `serve-worker` (internal, spawned by
//! the daemon — one per pool slot).
//!
//! ```text
//! abft-hessenberg serve [OPTIONS]
//!
//!   --pool <S>            worker slots in the pool (default 4)
//!   --port <P>            control-plane listen port (default: ephemeral,
//!                         announced via the FT_SERVE_LISTEN marker)
//!   --queue-depth <D>     max queued jobs across tenants (default 16)
//!   --tenant-quota <Q>    max queued+running jobs per tenant (default 4)
//!   --batch-max <B>       1-rank jobs dispatched per head-of-line sweep
//!                         (default 4)
//!   --job-ports <B>       base of the port window job fabrics use
//!                         (default 23000)
//!   --state-dir <DIR>     persist specs/checkpoints/orphan results here;
//!                         on startup, unfinished persisted jobs are
//!                         resumed from their newest checkpoint
//!   --hb-interval-ms, --hb-miss-limit, --conn-timeout-ms
//!                         heartbeat knobs for every job fabric, resolved
//!                         per-POOL: defaults ← FT_HB_* env ← these flags
//!                         (submit clients never read FT_HB_*, so daemon
//!                         and clients can disagree freely)
//!
//! abft-hessenberg submit [OPTIONS]
//!
//!   --port <P>            daemon control port (required)
//!   --n/--nb/--grid/--solver/--variant/--redundancy/--seed
//!                         job shape, as in the main driver (defaults
//!                         64 / 8 / 1x2 / hessenberg / alg2 / single)
//!   --tenant <T>          tenant id for quota accounting (default 0)
//!   --count <K>           submit K jobs (seeds S, S+1, …), pipelined
//!   --ckpt                ask the daemon to checkpoint this job so it
//!                         survives a whole-pool restart
//!   --shutdown            ask the daemon to drain and exit
//!
//! Exit codes follow the driver's contract: 0 ok, 1 residual above the
//! paper threshold, 2 usage/config, 3 typed rejection or I/O loss.
//! ```

use abft_hessenberg::dense::gen::uniform_entry;
use abft_hessenberg::hess::{Redundancy, Variant};
use abft_hessenberg::runtime::TcpConfig;
use abft_hessenberg::serve::{serve_main, worker_main, Client, Event, JobSpec, Limits, ServeConfig, SolverId};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;
use std::time::Duration;

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun with --help for usage");
    exit(2)
}

/// Route `serve` / `submit` / `serve-worker` verbs. Returns the process
/// exit code if the first argument was a serving verb, `None` otherwise
/// (the caller falls through to the classic flag parser).
pub fn route() -> Option<i32> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => Some(serve_verb(&args[1..])),
        Some("submit") => Some(submit_verb(&args[1..])),
        Some("serve-worker") => Some(worker_verb(&args[1..])),
        _ => None,
    }
}

fn take_val<'a>(args: &'a [String], i: &mut usize, name: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| fail(&format!("{name} needs a value")))
}

fn parse<T: std::str::FromStr>(v: &str, name: &str) -> T {
    v.parse().unwrap_or_else(|_| fail(&format!("{name}: bad value '{v}'")))
}

fn serve_verb(args: &[String]) -> i32 {
    let mut pool = 4usize;
    let mut port = 0u16;
    let mut limits = Limits::default();
    let mut job_ports = 23000u16;
    let mut state_dir: Option<PathBuf> = None;
    let (mut hb_ms, mut hb_miss, mut conn_ms) = (None, None, None);
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pool" => pool = parse(take_val(args, &mut i, "--pool"), "--pool"),
            "--port" => port = parse(take_val(args, &mut i, "--port"), "--port"),
            "--queue-depth" => limits.queue_depth = parse(take_val(args, &mut i, "--queue-depth"), "--queue-depth"),
            "--tenant-quota" => limits.tenant_quota = parse(take_val(args, &mut i, "--tenant-quota"), "--tenant-quota"),
            "--batch-max" => limits.batch_max = parse(take_val(args, &mut i, "--batch-max"), "--batch-max"),
            "--job-ports" => job_ports = parse(take_val(args, &mut i, "--job-ports"), "--job-ports"),
            "--state-dir" => state_dir = Some(PathBuf::from(take_val(args, &mut i, "--state-dir"))),
            "--hb-interval-ms" => hb_ms = Some(parse(take_val(args, &mut i, "--hb-interval-ms"), "--hb-interval-ms")),
            "--hb-miss-limit" => hb_miss = Some(parse(take_val(args, &mut i, "--hb-miss-limit"), "--hb-miss-limit")),
            "--conn-timeout-ms" => conn_ms = Some(parse(take_val(args, &mut i, "--conn-timeout-ms"), "--conn-timeout-ms")),
            a => fail(&format!("serve: unknown flag {a}")),
        }
        i += 1;
    }
    if pool == 0 {
        fail("serve: --pool must be at least 1");
    }
    if let Some(dir) = &state_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            fail(&format!("serve: cannot create --state-dir {}: {e}", dir.display()));
        }
    }
    // Per-POOL heartbeat resolution, reusing the transport's own env
    // parser so set-but-invalid FT_HB_* values die as usage errors (exit
    // 2) here at the daemon — and ONLY here: submit clients and workers
    // never consult the environment.
    let mut cfg = TcpConfig::new(0, pool.max(2));
    if let Err(e) = cfg.apply_env() {
        fail(&format!("serve: transport config: {e}"));
    }
    if let Some(ms) = hb_ms {
        cfg.hb_interval = Duration::from_millis(ms);
    }
    if let Some(k) = hb_miss {
        cfg.hb_miss_limit = k;
    }
    if let Some(ms) = conn_ms {
        cfg.conn_timeout = Duration::from_millis(ms);
    }
    if let Err(e) = cfg.validate() {
        fail(&format!("serve: transport config: {e}"));
    }
    let exe = std::env::current_exe().unwrap_or_else(|e| fail(&format!("serve: current_exe: {e}")));
    serve_main(ServeConfig {
        pool,
        port,
        limits,
        job_port_base: job_ports,
        state_dir,
        hb_interval_ms: cfg.hb_interval.as_millis() as u64,
        hb_miss_limit: cfg.hb_miss_limit,
        conn_timeout_ms: cfg.conn_timeout.as_millis() as u64,
        worker_argv: vec![exe.to_string_lossy().into_owned(), "serve-worker".into()],
    })
}

fn submit_verb(args: &[String]) -> i32 {
    let mut port: Option<u16> = None;
    let (mut n, mut nb) = (64usize, 8usize);
    let (mut p, mut q) = (1usize, 2usize);
    let mut solver = SolverId::Hessenberg;
    let mut variant = Variant::NonDelayed;
    let mut redundancy = Redundancy::Single;
    let mut seed = 2013u64;
    let mut tenant = 0u32;
    let mut count = 1usize;
    let mut ckpt = false;
    let mut shutdown = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--port" => port = Some(parse(take_val(args, &mut i, "--port"), "--port")),
            "--n" => n = parse(take_val(args, &mut i, "--n"), "--n"),
            "--nb" => nb = parse(take_val(args, &mut i, "--nb"), "--nb"),
            "--grid" => {
                let v = take_val(args, &mut i, "--grid");
                let (ps, qs) = v.split_once(['x', 'X']).unwrap_or_else(|| fail("--grid: use PxQ"));
                p = parse(ps, "--grid P");
                q = parse(qs, "--grid Q");
            }
            "--solver" => {
                solver = match take_val(args, &mut i, "--solver") {
                    "hessenberg" => SolverId::Hessenberg,
                    "qr" => SolverId::Qr,
                    s => fail(&format!("--solver: unknown solver {s}")),
                }
            }
            "--variant" => {
                variant = match take_val(args, &mut i, "--variant") {
                    "alg2" => Variant::NonDelayed,
                    "alg3" => Variant::Delayed,
                    v => fail(&format!("--variant: submit supports alg2 | alg3, not {v}")),
                }
            }
            "--redundancy" => {
                redundancy = match take_val(args, &mut i, "--redundancy") {
                    "single" => Redundancy::Single,
                    "dual" => Redundancy::Coded(2),
                    f => Redundancy::Coded(parse(f, "--redundancy")),
                }
            }
            "--seed" => seed = parse(take_val(args, &mut i, "--seed"), "--seed"),
            "--tenant" => tenant = parse(take_val(args, &mut i, "--tenant"), "--tenant"),
            "--count" => count = parse(take_val(args, &mut i, "--count"), "--count"),
            "--ckpt" => ckpt = true,
            "--shutdown" => shutdown = true,
            a => fail(&format!("submit: unknown flag {a}")),
        }
        i += 1;
    }
    let Some(port) = port else {
        fail("submit: --port is required")
    };
    if shutdown {
        return match Client::shutdown(port) {
            Ok(()) => {
                println!("daemon on port {port} draining");
                0
            }
            Err(e) => {
                eprintln!("submit: shutdown failed: {e}");
                3
            }
        };
    }
    let mut client = match Client::connect(port, tenant) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("submit: cannot reach daemon on port {port}: {e}");
            return 3;
        }
    };
    // Pipelined: fire all submissions, then drain events until every job
    // has a terminal reply.
    for k in 0..count {
        let s = seed + k as u64;
        let spec = JobSpec {
            solver,
            variant,
            redundancy,
            n,
            nb,
            p,
            q,
            ckpt,
            matrix: (0..n * n).map(|idx| uniform_entry(s, idx / n, idx % n)).collect(),
        };
        if let Err(e) = client.submit(&spec) {
            eprintln!("submit: send failed: {e}");
            return 3;
        }
    }
    let mut worst = 0i32;
    let mut repairs = 0u32;
    while client.outstanding() > 0 {
        match client.next_event() {
            Ok(Event::Accepted { job, seq }) => {
                println!("FT_SUBMIT_ACCEPT job={job} seq={seq}");
                let _ = std::io::stdout().flush();
            }
            Ok(Event::Rejected { job, seq, reason }) => {
                println!("FT_SUBMIT_REJECT job={job} seq={seq} reason={}", reason.name());
                let _ = std::io::stdout().flush();
                worst = worst.max(3);
            }
            Ok(Event::Completed { job, result }) => {
                println!(
                    "FT_SUBMIT_RESULT job={job} residual={:.4} recoveries={} wall_ms={:.1} bytes={}",
                    result.residual, result.recoveries, result.wall_ms, result.bytes
                );
                let _ = std::io::stdout().flush();
                if result.residual >= 3.0 {
                    eprintln!("submit: job {job} residual {:.4} above the paper threshold", result.residual);
                    worst = worst.max(1);
                }
            }
            Err(e) => {
                // The control connection broke with jobs still in flight:
                // reconnect and replay every unfinished submission under
                // its original sequence number. The daemon's client-id
                // dedup makes the replay idempotent — running jobs are
                // re-targeted, finished ones replayed from cache.
                repairs += 1;
                if repairs > 5 {
                    eprintln!("submit: daemon connection lost: {e}");
                    return 3;
                }
                eprintln!("submit: daemon connection lost ({e}); reconnect attempt {repairs}");
                std::thread::sleep(std::time::Duration::from_millis(100 * repairs as u64));
                let _ = client.recover(); // a failed reconnect retries on the next error
            }
        }
    }
    worst
}

fn worker_verb(args: &[String]) -> i32 {
    let mut port: Option<u16> = None;
    let mut slot: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--connect-port" => port = Some(parse(take_val(args, &mut i, "--connect-port"), "--connect-port")),
            "--slot" => slot = Some(parse(take_val(args, &mut i, "--slot"), "--slot")),
            a => fail(&format!("serve-worker: unknown flag {a}")),
        }
        i += 1;
    }
    match (port, slot) {
        (Some(p), Some(s)) => worker_main(p, s),
        _ => fail("serve-worker: --connect-port and --slot are required"),
    }
}
