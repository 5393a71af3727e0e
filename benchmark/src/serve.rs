//! `serve_1x2`: the job daemon (`--pool 2`) driven by two closed-loop
//! `ft_serve::Client` connections. Every job is a 1×2, N=192, nb=8 FT
//! reduction with its own seed, alternating Hessenberg and QR. The TCP wire,
//! the scheduler and job placement dominate; `dense` barely matters.
//!
//! The daemon and its workers are this same executable, re-entered through
//! the `serve-daemon` / `serve-worker` verbs, so the benchmark needs no
//! binary outside its own package.

use crate::common::{ephemeral_range, median, process_cpu_s, quantile, secs, Args, Outcome, Sched, RESIDUAL_THRESHOLD};
use ft_dense::gen::uniform_entry;
use ft_hess::{Redundancy, Variant};
use ft_runtime::TcpConfig;
use ft_serve::{serve_main, Client, Event, JobResult, JobSpec, Limits, ServeConfig, SolverId};
use std::io::BufRead as _;
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Barrier, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const POOL: usize = 2;
const CLIENTS: u32 = 2;
const N: usize = 192;
const NB: usize = 8;
/// Daemon spawns per run; `setup_s` is their median on-CPU time from spawn
/// until every slot is ready.
const SETUPS: usize = 25;
/// Width of the daemon's job-port rotation window (`alloc_ports`).
const JOB_PORT_SPAN: u32 = 2048;

/// `serve-daemon --job-ports <base>`: run a daemon of [`POOL`] workers in
/// this process, with this executable's `serve-worker` verb as the worker.
pub fn daemon_main(argv: &[String]) -> i32 {
    let job_port_base = match argv {
        [flag, val] if flag == "--job-ports" => val.parse().ok(),
        _ => None,
    };
    let Some(job_port_base) = job_port_base else {
        eprintln!("serve-daemon: --job-ports <base> is required");
        return 2;
    };
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("serve-daemon: current_exe unavailable");
        return 3;
    };
    let tcp = TcpConfig::new(0, POOL);
    serve_main(ServeConfig {
        pool: POOL,
        port: 0,
        limits: Limits::default(),
        job_port_base,
        state_dir: None,
        hb_interval_ms: tcp.hb_interval.as_millis() as u64,
        hb_miss_limit: tcp.hb_miss_limit,
        conn_timeout_ms: tcp.conn_timeout.as_millis() as u64,
        worker_argv: vec![exe.to_string_lossy().into_owned(), "serve-worker".into()],
    })
}

/// `serve-worker --connect-port <p> --slot <s>` (argv appended by the daemon).
pub fn worker_main(argv: &[String]) -> i32 {
    let (mut port, mut slot) = (None, None);
    let mut it = argv.iter();
    while let (Some(flag), Some(val)) = (it.next(), it.next()) {
        match flag.as_str() {
            "--connect-port" => port = val.parse().ok(),
            "--slot" => slot = val.parse().ok(),
            _ => return 2,
        }
    }
    match (port, slot) {
        (Some(p), Some(s)) => ft_serve::worker_main(p, s),
        _ => 2,
    }
}

/// First port of a job-port window that lies wholly outside the host's
/// ephemeral range, so a job fabric never races an outgoing connection for
/// its port: below the range if there is room above the privileged ports,
/// else above it.
pub fn job_port_base() -> Option<u16> {
    let (lo, hi) = ephemeral_range().unwrap_or((32768, 60999));
    let (lo, hi) = (u32::from(lo), u32::from(hi));
    if lo >= 1024 + JOB_PORT_SPAN + 1024 {
        u16::try_from(lo - JOB_PORT_SPAN - 1024).ok()
    } else if hi + 1 + JOB_PORT_SPAN <= 65535 {
        u16::try_from(hi + 1).ok()
    } else {
        None
    }
}

/// Marker lines read so far, and a signal for each new one.
type Markers = Arc<(Mutex<Vec<String>>, Condvar)>;

/// A spawned daemon, its marker lines, and the stdout reader thread.
struct Daemon {
    child: Option<Child>,
    port: u16,
    lines: Markers,
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    fn spawn(base: u16) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut child = Command::new(exe)
            .args(["serve-daemon", "--job-ports", &base.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let lines: Markers = Arc::default();
        let sink = lines.clone();
        let reader = std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout).lines().map_while(Result::ok) {
                sink.0.lock().expect("marker sink poisoned").push(line);
                sink.1.notify_all();
            }
        });
        let mut d = Daemon { child: Some(child), port: 0, lines, reader: Some(reader) };
        let listen = d.wait_marker("FT_SERVE_LISTEN ")?;
        d.port = field(&listen, "port=")
            .and_then(|p| p.parse().ok())
            .ok_or("bad FT_SERVE_LISTEN marker")?;
        for slot in 0..POOL {
            d.wait_marker(&format!("FT_SERVE_READY slot={slot}"))?;
        }
        Ok(d)
    }

    /// Wait for the first marker line containing `pat`. Woken by the
    /// reader on each new line, so the caller sees the marker at once.
    fn wait_marker(&self, pat: &str) -> Result<String, String> {
        let deadline = Instant::now() + Duration::from_secs(30);
        let (lock, cv) = &*self.lines;
        let mut lines = lock.lock().expect("marker sink poisoned");
        loop {
            if let Some(l) = lines.iter().find(|l| l.contains(pat)) {
                return Ok(l.clone());
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("daemon never printed {pat:?}"));
            }
            lines = cv.wait_timeout(lines, left).expect("marker sink poisoned").0;
        }
    }

    /// Worker process ids, from the `FT_SERVE_WORKER` markers.
    fn worker_pids(&self) -> Vec<u32> {
        let lines = self.lines.0.lock().expect("marker sink poisoned");
        lines
            .iter()
            .filter(|l| l.starts_with("FT_SERVE_WORKER "))
            .filter_map(|l| field(l, "pid=")?.parse().ok())
            .collect()
    }

    /// The serving plane: the daemon and its workers.
    fn plane_pids(&self) -> Vec<u32> {
        self.child
            .as_ref()
            .map(Child::id)
            .into_iter()
            .chain(self.worker_pids())
            .collect()
    }

    /// Drain and stop the daemon (which stops its workers), and reap it.
    fn shutdown(mut self) -> Result<(), String> {
        let handshake = Client::shutdown(self.port).map_err(|e| format!("shutdown handshake: {e}"));
        let status = self.reap(handshake.is_err());
        handshake?;
        match status {
            Some(0) => Ok(()),
            code => Err(format!("daemon exited with {code:?}")),
        }
    }

    /// Wait for the daemon (killing it first when `kill`) and join the
    /// marker reader, which ends when the daemon and its workers close the
    /// pipe.
    fn reap(&mut self, kill: bool) -> Option<i32> {
        let mut code = None;
        if let Some(mut child) = self.child.take() {
            if kill {
                let _ = child.kill();
            }
            code = child.wait().ok().and_then(|s| s.code());
        }
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
        code
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.reap(true);
    }
}

/// On-CPU seconds of the processes `pids`, every thread included.
fn plane_cpu_s(pids: &[u32]) -> f64 {
    pids.iter().map(|&p| process_cpu_s(Some(p))).sum()
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace().find_map(|w| w.strip_prefix(key))
}

/// Seed of job `i` of client `c` (splitmix64 of the run seed).
fn job_seed(seed: u64, c: u32, i: u64) -> u64 {
    let mut x = seed ^ (u64::from(c) << 48) ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn spec(solver: SolverId, seed: u64) -> JobSpec {
    JobSpec {
        solver,
        variant: Variant::NonDelayed,
        redundancy: Redundancy::Single,
        n: N,
        nb: NB,
        p: 1,
        q: 2,
        ckpt: false,
        matrix: (0..N * N).map(|i| uniform_entry(seed, i / N, i % N)).collect(),
    }
}

/// One finished job as the client saw it.
struct Done {
    admit_ms: f64,
    latency_ms: f64,
    end: Instant,
    result: JobResult,
}

/// Submit one job and wait for its terminal reply (closed loop: one job in
/// flight per client).
fn one_job(c: &mut Client, spec: &JobSpec) -> Result<Done, String> {
    let t0 = Instant::now();
    let seq = c.submit(spec).map_err(|e| format!("submit: {e}"))?;
    let (mut job, mut admit_ms) = (None, 0.0);
    loop {
        match c.next_event_timeout(Duration::from_secs(60)) {
            Ok(Some(Event::Accepted { job: j, seq: s })) if s == seq => {
                job = Some(j);
                admit_ms = secs(t0) * 1e3;
            }
            Ok(Some(Event::Rejected { job: j, seq: s, reason })) if s == seq || Some(j) == job => {
                return Err(format!("rejected: {}", reason.name()));
            }
            Ok(Some(Event::Completed { job: j, result })) if Some(j) == job => {
                let end = Instant::now();
                return Ok(Done {
                    admit_ms,
                    latency_ms: (end - t0).as_secs_f64() * 1e3,
                    end,
                    result,
                });
            }
            Ok(Some(_)) => {}
            Ok(None) => return Err("no reply within 60 s".into()),
            Err(e) => return Err(format!("connection: {e}")),
        }
    }
}

/// The paper's residual gate plus the shape of the returned factorization;
/// a fault-free job must report no recovery.
fn check(r: &JobResult, solver: SolverId) -> Result<(), String> {
    let tau_len = match solver {
        SolverId::Hessenberg => N - 1,
        SolverId::Qr => N,
    };
    if !(r.residual.is_finite() && r.residual < RESIDUAL_THRESHOLD) {
        return Err(format!("residual {} fails r_inf < {RESIDUAL_THRESHOLD}", r.residual));
    }
    if r.recoveries != 0 {
        return Err(format!("{} recoveries in a fault-free job", r.recoveries));
    }
    if r.n != N || r.factor.len() != N * N || r.tau.len() < tau_len {
        return Err(format!("result shape n={} factor={} tau={}", r.n, r.factor.len(), r.tau.len()));
    }
    Ok(())
}

/// What one client thread saw in the window.
#[derive(Default)]
struct ClientLog {
    done: Vec<Done>,
    attempted: u64,
    failed: u64,
}

fn client_loop(port: u16, tenant: u32, seed: u64, start: &Barrier, deadline: &Mutex<Option<Instant>>) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = Client::connect(port, tenant).ok();
    let mut i = 0u64;
    let mut job = |client: &mut Option<Client>, log: &mut ClientLog, record: bool| {
        let solver = if (i + u64::from(tenant)).is_multiple_of(2) {
            SolverId::Hessenberg
        } else {
            SolverId::Qr
        };
        let s = spec(solver, job_seed(seed, tenant, i));
        i += 1;
        let res = match client.as_mut() {
            Some(c) => one_job(c, &s).and_then(|d| check(&d.result, solver).map(|()| d)),
            None => Err("not connected".into()),
        };
        log.attempted += 1;
        match res {
            Ok(d) if record => log.done.push(d),
            Ok(_) => {}
            Err(e) => {
                eprintln!("benchmark: client {tenant} job {}: {e}", i - 1);
                log.failed += 1;
                *client = Client::connect(port, tenant).ok();
            }
        }
    };
    // Warm-up job, outside the window; the window opens once every client
    // is warm (first wait) and the main thread has set the deadline (second).
    job(&mut client, &mut log, false);
    start.wait();
    start.wait();
    let end = deadline.lock().expect("deadline lock").expect("set before the barrier");
    while Instant::now() < end {
        job(&mut client, &mut log, true);
    }
    log
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let Some(base) = job_port_base() else {
        out.invalid.push("no job-port window outside the ephemeral range".into());
        return out;
    };
    out.stamps
        .push(("job_ports", format!("{base}-{}", u32::from(base) + JOB_PORT_SPAN - 1)));

    let mut setups = Vec::new();
    let mut daemon = None;
    for k in 0..SETUPS {
        match Daemon::spawn(base) {
            Ok(d) => {
                // Every process of the plane is ready: its whole CPU time
                // so far is set-up.
                setups.push(plane_cpu_s(&d.plane_pids()));
                if k + 1 < SETUPS {
                    if let Err(e) = d.shutdown() {
                        out.invalid.push(e);
                        return out;
                    }
                } else {
                    daemon = Some(d);
                }
            }
            Err(e) => {
                out.invalid.push(e);
                return out;
            }
        }
    }
    let daemon = daemon.expect("last spawn kept");
    let pids = daemon.worker_pids();
    let plane = daemon.plane_pids();

    let start = Barrier::new(CLIENTS as usize + 1);
    let deadline = Mutex::new(None);
    let (logs, t_window, (rank_cpu, runq, plane_cpu)) = std::thread::scope(|s| {
        let handles: Vec<_> = (1..=CLIENTS)
            .map(|tenant| {
                let (start, deadline) = (&start, &deadline);
                s.spawn(move || client_loop(daemon.port, tenant, args.seed, start, deadline))
            })
            .collect();
        start.wait();
        let s0: Vec<Sched> = pids.iter().map(|&p| Sched::process(p)).collect();
        let cpu0 = plane_cpu_s(&plane);
        let t_window = Instant::now();
        *deadline.lock().expect("deadline lock") = Some(args.deadline());
        start.wait();
        let logs: Vec<ClientLog> = handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        // Worker main threads run the job's ranks: their schedstat is the
        // rank threads' share of the plane's time.
        let (cpu, runq) = pids
            .iter()
            .zip(&s0)
            .map(|(&p, s)| s.until(Sched::process(p)))
            .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
        (logs, t_window, (cpu, runq, plane_cpu_s(&plane) - cpu0))
    });
    if let Err(e) = daemon.shutdown() {
        out.invalid.push(e);
    }

    let done: Vec<&Done> = logs.iter().flat_map(|l| &l.done).collect();
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    out.failed = logs.iter().map(|l| l.failed).sum();
    let window = done.iter().map(|d| (d.end - t_window).as_secs_f64()).fold(0.0, f64::max);
    out.runq_frac = if pids.is_empty() { 0.0 } else { runq / (window * pids.len() as f64) };

    let lat: Vec<f64> = done.iter().map(|d| d.latency_ms).collect();
    let solver: Vec<f64> = done.iter().map(|d| d.result.wall_ms).collect();
    let jobs_per_s = done.len() as f64 / window;
    let setup_s = median(&setups);
    let per_job_ms = |cpu_s: f64| cpu_s / done.len().max(1) as f64 * 1e3;
    out.e2e.insert("op_cpu_ms", per_job_ms(plane_cpu));
    out.e2e.insert("setup_s", setup_s);
    out.named = vec![
        ("jobs_per_s", jobs_per_s, "1/s"),
        ("job_p50_ms", median(&lat), "ms"),
        ("job_p90_ms", quantile(&lat, 0.9), "ms"),
        ("job_plane_cpu_ms", per_job_ms(plane_cpu), "ms"),
        ("job_rank_cpu_ms", per_job_ms(rank_cpu), "ms"),
        ("setup_s", setup_s, "s"),
        ("jobs", done.len() as f64, "count"),
    ];
    if args.trace {
        let per_job = |f: fn(&Done) -> f64| median(&done.iter().map(|&d| f(d)).collect::<Vec<_>>());
        out.named.extend([
            ("serve.admit_ms", per_job(|d| d.admit_ms), "ms"),
            ("serve.solver_ms", median(&solver), "ms"),
            ("serve.overhead_ms", per_job(|d| d.latency_ms - d.result.wall_ms), "ms"),
        ]);
        // The workers' main threads are the job's ranks.
        let rank_s = window * pids.len().max(1) as f64;
        let l = &mut out.layers;
        l.insert("client.op_ms", median(&lat));
        l.insert("runtime.rank_cpu_frac", rank_cpu / rank_s);
        l.insert("runtime.rank_runq_frac", runq / rank_s);
        l.insert("runtime.rank_blocked_frac", 1.0 - (rank_cpu + runq) / rank_s);
        l.insert("serve.admit_frac", per_job(|d| d.admit_ms / d.latency_ms));
        l.insert("serve.solver_frac", per_job(|d| d.result.wall_ms / d.latency_ms));
        l.insert("serve.tail_ratio", quantile(&lat, 0.9) / median(&lat));
        let bytes: u64 = done.iter().map(|d| d.result.bytes).sum();
        l.insert("serve.bytes_per_job", bytes as f64 / done.len().max(1) as f64);
        l.insert("sched.runq_frac", out.runq_frac);
    }
    out
}
