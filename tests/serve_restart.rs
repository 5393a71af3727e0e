//! Whole-pool crash and restart: the `FtCheckpoint` round trip through the
//! daemon. A checkpointing job is interrupted by SIGKILLing the ENTIRE
//! pool — daemon and every worker, the scenario in-fabric replacement
//! cannot cover — then a fresh daemon over the same `--state-dir` must
//! re-admit the job under its original id, resume from the newest complete
//! checkpoint set, and persist a result **bitwise identical** to an
//! uninterrupted run (the resumable driver's determinism contract).

mod serve_util;

use abft_hessenberg::serve::{load_result, Client, SolverId};
use serve_util::{field, job_ports, join_within, spec, Daemon};
use std::time::{Duration, Instant};

#[test]
fn pool_restart_resumes_bitwise_identical() {
    // Uninterrupted reference through a daemon of its own. The checkpoint
    // sink is active here too (same spec), so both runs take the exact
    // same code path — only the kill differs.
    let job_spec = spec(SolverId::Hessenberg, 640, 16, 2, 77, true);
    let reference = {
        let d = Daemon::spawn(2, &["--job-ports", &job_ports(3)]);
        let port = d.port;
        let s = job_spec.clone();
        let h = std::thread::spawn(move || {
            let mut c = Client::connect(port, 0).expect("reference connect");
            c.run(&s).expect("reference io")
        });
        let r = join_within(h, "reference job", &d).expect("reference completes");
        d.shutdown();
        r
    };

    let state = std::env::temp_dir().join(format!("ft-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    let state_str = state.to_str().expect("utf-8 temp path").to_string();

    // Victim run: same spec, persistent state dir. Kill the whole pool as
    // soon as the first complete checkpoint set hits disk — the job is
    // then mid-factorization with most panels still ahead of it.
    let mut d = Daemon::spawn(2, &["--job-ports", &job_ports(4), "--state-dir", &state_str]);
    let port = d.port;
    let s = job_spec.clone();
    // This client's connection dies with the daemon; the thread just
    // reports the error and is joined for hygiene.
    let h = std::thread::spawn(move || {
        let mut c = Client::connect(port, 0).expect("victim connect");
        c.run(&s)
    });
    let ckpt_path = state.join("job-1.ckpt");
    let deadline = Instant::now() + serve_util::WALL_LIMIT;
    while !ckpt_path.exists() {
        assert!(Instant::now() < deadline, "no checkpoint ever persisted:\n{}", d.dump());
        std::thread::sleep(Duration::from_millis(5));
    }
    d.massacre();
    assert!(
        join_within(h, "victim client", &d).is_err(),
        "client survived a whole-pool SIGKILL — the kill landed too late"
    );
    assert!(state.join("job-1.spec").exists(), "spec must survive the crash");

    // Restart over the same state dir: the job is re-admitted under its
    // original id with no client attached, resumes from the persisted
    // panel, and the orphan result lands on disk.
    let d2 = Daemon::spawn(2, &["--job-ports", &job_ports(5), "--state-dir", &state_str]);
    let resume = d2.wait_marker("FT_SERVE_RESUME job=1 ");
    let panel: usize = field(&resume, "panel=").parse().expect("resume panel");
    assert!(panel >= 1, "resume must start from a real checkpoint, got panel {panel}");
    d2.wait_marker("FT_SERVE_RESULT job=1 status=ok");
    let result_path = state.join("result-1.bin");
    let deadline = Instant::now() + serve_util::WALL_LIMIT;
    while !result_path.exists() {
        assert!(Instant::now() < deadline, "orphan result never persisted:\n{}", d2.dump());
        std::thread::sleep(Duration::from_millis(5));
    }
    let resumed = load_result(&result_path).expect("parse persisted result");
    // Spec and checkpoint are consumed by the finished job; only the
    // orphan result remains.
    assert!(!state.join("job-1.spec").exists(), "finished job must clean its spec");
    assert!(!ckpt_path.exists(), "finished job must clean its checkpoint");
    d2.shutdown();

    // The determinism contract: resuming from the checkpoint reproduces
    // the uninterrupted factorization EXACTLY — no drift, not even in the
    // last bit — so a restarted service is indistinguishable to tenants.
    assert_eq!(resumed.n, reference.n);
    assert!(
        resumed
            .factor
            .iter()
            .zip(&reference.factor)
            .all(|(a, b)| a.to_bits() == b.to_bits()),
        "resumed factor is not bitwise identical to the uninterrupted run"
    );
    assert!(
        resumed.tau.iter().zip(&reference.tau).all(|(a, b)| a.to_bits() == b.to_bits()),
        "resumed tau is not bitwise identical to the uninterrupted run"
    );
    assert_eq!(resumed.tau.len(), reference.tau.len());
    assert_eq!(
        resumed.residual.to_bits(),
        reference.residual.to_bits(),
        "resumed residual {} vs reference {}",
        resumed.residual,
        reference.residual
    );

    let _ = std::fs::remove_dir_all(&state);
}
