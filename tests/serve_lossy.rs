//! Lossy-network contract for the job daemon: SUBMIT frames vanish with
//! high probability, yet every job completes exactly once, bitwise equal
//! to a clean client's run of the same spec. The resilient [`Client::run`]
//! loop masks the loss with idempotent resubmits; the daemon's
//! `(tenant, client_id, seq)` dedup index makes a replay of an
//! already-admitted submission a no-op with a replayed reply instead of a
//! second execution.

mod serve_util;

use abft_hessenberg::serve::{Client, SolverId};
use serve_util::{job_ports, join_within, spec, Daemon};
use std::time::Duration;

/// Heavy seeded SUBMIT loss on one client; a clean client runs the same
/// specs as the reference. Every lossy job must complete exactly once and
/// match the clean result bitwise — determinism is solver-side, so any
/// divergence means the daemon ran a duplicate or mangled a spec.
#[test]
fn heavy_submit_loss_completes_every_job_exactly_once() {
    let d = Daemon::spawn(2, &["--job-ports", &job_ports(1)]);
    let port = d.port;

    let h = std::thread::spawn(move || {
        let mut clean = Client::connect(port, 7).expect("clean client");
        let mut lossy = Client::connect(port, 7).expect("lossy client");
        lossy.set_lossy(42, 0.45);
        let mut out = Vec::new();
        for (i, solver) in [SolverId::Hessenberg, SolverId::Qr, SolverId::Hessenberg].iter().enumerate() {
            let s = spec(*solver, 24, 4, 2, 1000 + i as u64, false);
            let want = clean.run(&s).expect("clean io").expect("clean accepted");
            let got = lossy.run(&s).expect("lossy io").expect("lossy accepted");
            out.push((want, got));
        }
        (out, lossy.frames_dropped(), lossy.outstanding())
    });
    let (results, dropped, outstanding) = join_within(h, "lossy job battery", &d);

    assert!(dropped > 0, "the loss injector never fired — drop_p too low for this seed");
    assert_eq!(outstanding, 0, "every submission must reach a terminal reply");
    for (i, (want, got)) in results.iter().enumerate() {
        assert_eq!(want.n, got.n, "job {i}: dimension");
        assert_eq!(want.factor, got.factor, "job {i}: factor must be bitwise identical under loss");
        assert_eq!(want.tau, got.tau, "job {i}: tau must be bitwise identical under loss");
        assert_eq!(want.recoveries, 0, "job {i}: clean run saw a recovery");
        assert_eq!(got.recoveries, 0, "job {i}: frame loss must not masquerade as a solver fault");
    }
    d.shutdown();
}

/// A replayed submission for a job that is already running must hit the
/// dedup index — one execution, `FT_SERVE_DEDUP state=running` marker,
/// and still exactly one terminal result on the replaying connection.
#[test]
fn replayed_running_submission_is_deduped_not_rerun() {
    let d = Daemon::spawn(2, &["--job-ports", &job_ports(2)]);
    let port = d.port;

    let h = std::thread::spawn(move || {
        let mut c = Client::connect(port, 9).expect("client");
        let s = spec(SolverId::Hessenberg, 32, 8, 2, 77, false);
        let seq = c.submit(&s).expect("submit");
        // Wait for the ACCEPT so the job is genuinely admitted...
        loop {
            match c.next_event_timeout(Duration::from_secs(30)).expect("event") {
                Some(abft_hessenberg::serve::Event::Accepted { seq: s2, .. }) if s2 == seq => break,
                Some(_) => continue,
                None => panic!("no ACCEPT within 30s"),
            }
        }
        // ...then replay it on a fresh connection, as a crash-recovered
        // client would. The daemon must recognize the idempotency key.
        c.recover().expect("recover");
        loop {
            match c.next_event_timeout(Duration::from_secs(60)).expect("event") {
                Some(abft_hessenberg::serve::Event::Completed { .. }) => break,
                Some(_) => continue,
                None => panic!("no result within 60s"),
            }
        }
        c.outstanding()
    });
    let outstanding = join_within(h, "dedup replay", &d);
    assert_eq!(outstanding, 0);
    d.wait_marker("FT_SERVE_DEDUP");
    let markers = d.dump();
    assert!(
        markers.contains("state=running") || markers.contains("state=finished"),
        "dedup marker must carry the job state:\n{markers}"
    );
    d.shutdown();
}
