//! Shared pieces of the benchmark: arguments, the result record and its
//! JSON line, summary statistics, bitwise hashes, per-thread scheduler
//! accounting from `/proc`, and whole-process CPU clocks.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Residual gate of the paper (§7.3): every reduction must reach `r∞ < 3`.
pub use ft_lapack::RESIDUAL_THRESHOLD;

/// Highest run-queue wait, as a share of the compute threads' wall time,
/// that still counts as a measurement of the program rather than of the
/// scheduler. Two compute threads on two idle cores wait about 1%; one
/// extra runnable thread per core pushes the share to about 50%.
pub const RUNQ_BOUND: f64 = 0.25;

/// Command-line arguments of a measurement run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = 1u64;
        let mut seconds = 10.0;
        let mut trace = false;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let val = it.next().ok_or_else(|| format!("{flag}: missing value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(val.clone()),
                "--seed" => seed = val.parse().map_err(|_| format!("--seed: bad value {val:?}"))?,
                "--seconds" => seconds = val.parse().map_err(|_| format!("--seconds: bad value {val:?}"))?,
                "--trace" => {
                    trace = match val.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace: expected 0 or 1, got {val:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds: {seconds} outside (0, 600]"));
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args { workload, seed, seconds, trace })
    }

    /// Instant at which the measured window of a run that starts now ends.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }
}

/// Every per-layer metric with its unit, in report order. A traced run of
/// every workload reports all of them; a layer the workload does not run in
/// the benchmark's own process reports 0 (see README.md, "Layers"). Layer
/// times are shares (`_frac`) of the operation they belong to, so that only
/// `client.op_ms` is a time; the `#` lines of a traced run print the same
/// layers in seconds.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("client.op_ms", "ms"),
    ("dense.gemm_frac", "ratio"),
    ("dense.gemm_gflops", "GF/s"),
    ("dense.gemv_gbps", "GB/s"),
    ("dense.flops", "count"),
    ("dense.gemm_calls", "count"),
    ("lapack.panel_frac", "ratio"),
    ("lapack.right_update_frac", "ratio"),
    ("lapack.left_update_frac", "ratio"),
    ("pblas.panel_frac", "ratio"),
    ("pblas.trailing_frac", "ratio"),
    ("runtime.msgs.panel", "count"),
    ("runtime.msgs.trailing_update", "count"),
    ("runtime.msgs.checksum_update", "count"),
    ("runtime.msgs.checkpoint", "count"),
    ("runtime.msgs.recovery", "count"),
    ("runtime.msgs.other", "count"),
    ("runtime.bytes.panel", "bytes"),
    ("runtime.bytes.trailing_update", "bytes"),
    ("runtime.bytes.checksum_update", "bytes"),
    ("runtime.bytes.checkpoint", "bytes"),
    ("runtime.bytes.recovery", "bytes"),
    ("runtime.bytes.other", "bytes"),
    ("runtime.rank_cpu_frac", "ratio"),
    ("runtime.rank_runq_frac", "ratio"),
    ("runtime.rank_blocked_frac", "ratio"),
    ("core.encode_frac", "ratio"),
    ("core.snapshot_frac", "ratio"),
    ("core.bookkeeping_frac", "ratio"),
    ("core.scope_end_frac", "ratio"),
    ("core.checksum_update_frac", "ratio"),
    ("core.recovery_frac", "ratio"),
    ("core.overhead_frac", "ratio"),
    ("core.flop_overhead", "ratio"),
    ("serve.admit_frac", "ratio"),
    ("serve.solver_frac", "ratio"),
    ("serve.tail_ratio", "ratio"),
    ("serve.bytes_per_job", "bytes"),
    ("sched.runq_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Untraced end-to-end metrics, reported by every workload. Both are
/// on-CPU times of whole processes ([`process_cpu_s`]), immune to
/// hypervisor steal, which on a shared host moves wall times by
/// up to 3× for minutes at a time; wall times are on the `#` lines and, in
/// a traced run, `client.op_ms`.
pub const E2E_METRICS: &[(&str, &str)] = &[("op_cpu_ms", "ms"), ("setup_s", "s")];

/// What one run measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that errored, were rejected or failed a check.
    pub failed: u64,
    /// Reasons the run is invalid as a whole (drifted mirror, a failed
    /// warm-up check, an oversubscribed host). Empty when the run is valid.
    pub invalid: Vec<String>,
    /// Generic end-to-end metrics ([`E2E_METRICS`]), untraced runs only.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics ([`LAYER_METRICS`]), traced runs only.
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named metrics (`plain_s`, `ft_s`, …) for the
    /// human-readable table; never part of the JSON line.
    pub named: Vec<(&'static str, f64, &'static str)>,
    /// Run-queue wait over wall time of the compute threads.
    pub runq_frac: f64,
    /// Extra `key=value` stamps (e.g. the serve job-port window).
    pub stamps: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Print the stamp line, the human-readable table and, last, the JSON
    /// result line.
    pub fn print(mut self, args: &Args) {
        if self.runq_frac > RUNQ_BOUND {
            self.invalid.push(format!(
                "sched.runq_frac {:.3} exceeds the bound {RUNQ_BOUND}: compute threads waited for a CPU, the host is oversubscribed",
                self.runq_frac
            ));
        }
        let mut stamp = format!(
            "{{\"stamp\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"isa\": \"{}\", \"gemm_threads\": \"{}\", \"ephemeral_ports\": \"{}\"",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            nproc(),
            ft_dense::simd::active_isa().name(),
            std::env::var("FT_GEMM_THREADS").unwrap_or_else(|_| "unset".into()),
            ephemeral_range().map(|(lo, hi)| format!("{lo}-{hi}")).unwrap_or_else(|| "unknown".into()),
        );
        for (k, v) in &self.stamps {
            stamp.push_str(&format!(", \"{k}\": \"{v}\""));
        }
        stamp.push_str("}}");
        println!("{stamp}");
        println!("# {} (seed {}, {} s, trace {})", args.workload, args.seed, args.seconds, u8::from(args.trace));
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        for (name, value, unit) in &self.named {
            println!("#   {name:<26} {value:>14.6} {unit}");
        }
        println!("#   {:<26} {:>14.6} ratio", "failed_frac", failed_frac);
        if !args.trace {
            // A traced run prints it with the per-layer metrics below.
            println!("#   {:<26} {:>14.6} ratio", "sched.runq_frac", self.runq_frac);
        }
        for why in &self.invalid {
            eprintln!("benchmark: run invalid: {why}");
        }
        let (set, values) = if args.trace {
            (LAYER_METRICS, &self.layers)
        } else {
            (E2E_METRICS, &self.e2e)
        };
        let mut metrics = Vec::new();
        for (name, unit) in set {
            let v = values.get(name).copied().unwrap_or(0.0);
            metrics.push(format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_num(v)));
            if args.trace {
                println!("#   {name:<26} {v:>14.6} {unit}");
            }
        }
        let correct = self.invalid.is_empty() && self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Online CPUs (`std::thread::available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The host's ephemeral port range, `(low, high)` inclusive.
pub fn ephemeral_range() -> Option<(u16, u16)> {
    let s = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range").ok()?;
    let mut it = s.split_whitespace().map(|t| t.parse::<u16>().ok());
    Some((it.next()??, it.next()??))
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of `v` (0 for an empty slice).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let x = q * (s.len() - 1) as f64;
    let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (x - lo as f64)
}

/// FNV-1a over the IEEE bit patterns of `words` — the bitwise identity of a
/// factorization.
pub fn fnv1a(mut h: u64, words: &[f64]) -> u64 {
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Scheduler accounting of one thread: nanoseconds on a CPU and waiting in
/// a run queue, from `/proc/thread-self/schedstat` (or `/proc/<pid>/schedstat`
/// for another process's main thread).
#[derive(Clone, Copy, Default, Debug)]
pub struct Sched {
    pub cpu_ns: u64,
    pub runq_ns: u64,
}

impl Sched {
    pub fn this_thread() -> Sched {
        Sched::read("/proc/thread-self/schedstat")
    }

    pub fn process(pid: u32) -> Sched {
        Sched::read(&format!("/proc/{pid}/schedstat"))
    }

    fn read(path: &str) -> Sched {
        let s = std::fs::read_to_string(path).unwrap_or_default();
        let mut it = s.split_whitespace().map(|t| t.parse::<u64>().unwrap_or(0));
        Sched {
            cpu_ns: it.next().unwrap_or(0),
            runq_ns: it.next().unwrap_or(0),
        }
    }

    /// `(cpu_s, runq_s)` spent between `self` and the later reading `end`.
    pub fn until(self, end: Sched) -> (f64, f64) {
        (
            end.cpu_ns.saturating_sub(self.cpu_ns) as f64 * 1e-9,
            end.runq_ns.saturating_sub(self.runq_ns) as f64 * 1e-9,
        )
    }
}

/// On-CPU seconds of a whole process, every thread it ever ran included
/// (exited ones too): the scheduler's run time, in nanoseconds, without
/// run-queue wait or hypervisor steal. `None` is this process
/// (`CLOCK_PROCESS_CPUTIME_ID`), `Some(pid)` another one through its
/// CPU-time clock (`clock_getcpuclockid`). 0 when the clock cannot be read.
pub fn process_cpu_s(pid: Option<u32>) -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    // Linux encodes a process's CPU-time clock as `(!pid << 3) | CPUCLOCK_SCHED`.
    let clock = pid.map_or(CLOCK_PROCESS_CPUTIME_ID, |p| (!(p as i32) << 3) | 2);
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return 0.0;
    }
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// Run-queue share accumulated over many timed spans of compute threads.
#[derive(Default)]
pub struct RunqMeter {
    runq_s: f64,
    wall_s: f64,
}

impl RunqMeter {
    pub fn add(&mut self, runq_s: f64, wall_s: f64) {
        self.runq_s += runq_s;
        self.wall_s += wall_s;
    }

    pub fn frac(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.runq_s / self.wall_s
        } else {
            0.0
        }
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// `level2::gemv` bandwidth at the panel shapes of an `n`/`nb` reduction
/// whose trailing columns are split `cols_div` ways: one `(n−k−1)×cols`
/// product per panel, as in the panel kernels' `Y = A·v` sweep. Bytes are
/// computed (matrix + both vectors, 8 bytes per element), not measured.
pub fn gemv_gbps(a: &ft_dense::Matrix, nb: usize, cols_div: usize) -> f64 {
    use ft_dense::level2::gemv;
    use ft_dense::Trans;
    let n = a.rows();
    let x = vec![1.0; n];
    let mut y = vec![0.0; n];
    let mut bytes = 0.0;
    let t = Instant::now();
    let mut k = 0;
    while k + nb + 1 < n {
        let m = n - k - 1;
        let c = (n - k - 1) / cols_div;
        gemv(Trans::No, m, c, 1.0, &a.as_slice()[k + 1..], n, &x[..c], 0.0, &mut y[..m]);
        bytes += 8.0 * (m * c + m + c) as f64;
        k += nb;
    }
    std::hint::black_box(&y);
    bytes / secs(t) * 1e-9
}
