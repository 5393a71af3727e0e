//! Configuration-contract battery: every malformed transport knob — CLI
//! flag or `FT_*` environment variable — must die as a *usage error*
//! (exit 2) with a diagnostic naming the offending knob, before any
//! socket work starts and without ever panicking. The launcher dry-runs
//! the resolved config precisely so these failures happen once, in the
//! parent, instead of as four cryptic child crashes.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_abft-hessenberg");

struct Out {
    status: i32,
    stderr: String,
}

/// Run the binary with `args` and extra environment, capturing exit
/// status and stderr. All cases here must fail during argument/config
/// resolution, so no wall-clock guard beyond the harness default is
/// needed — a hang would itself be the bug.
fn run(args: &[&str], envs: &[(&str, &str)]) -> Out {
    let mut cmd = Command::new(BIN);
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn binary");
    Out {
        status: out.status.code().unwrap_or(-1),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

const DIST: &[&str] = &["--distributed", "--grid", "2x2", "--n", "32", "--nb", "8"];

/// Assert the exit-2 contract: usage error, diagnostic names the knob,
/// and the process never panicked its way out.
fn assert_usage_error(o: &Out, needle: &str, what: &str) {
    assert_eq!(o.status, 2, "{what}: expected exit 2, got {} — stderr:\n{}", o.status, o.stderr);
    assert!(o.stderr.contains(needle), "{what}: diagnostic should mention '{needle}' — stderr:\n{}", o.stderr);
    assert!(!o.stderr.contains("panicked"), "{what}: config errors must not panic — stderr:\n{}", o.stderr);
}

#[test]
fn zero_heartbeat_interval_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_INTERVAL_MS", "0")]);
    assert_usage_error(&o, "FT_HB_INTERVAL_MS", "zero hb interval");
}

#[test]
fn garbage_heartbeat_interval_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_INTERVAL_MS", "fast")]);
    assert_usage_error(&o, "FT_HB_INTERVAL_MS", "non-numeric hb interval");
}

#[test]
fn zero_grace_beats_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_GRACE_BEATS", "0")]);
    assert_usage_error(&o, "FT_HB_GRACE_BEATS", "zero grace beats");
}

#[test]
fn zero_retransmit_window_env_is_a_usage_error() {
    let o = run(DIST, &[("FT_NET_WINDOW", "0")]);
    assert_usage_error(&o, "FT_NET_WINDOW", "zero window");
}

#[test]
fn inverted_backoff_range_is_a_usage_error() {
    let o = run(DIST, &[("FT_HB_BACKOFF_INIT_MS", "800"), ("FT_HB_BACKOFF_CAP_MS", "100")]);
    assert_usage_error(&o, "backoff", "inverted backoff range");
}

#[test]
fn malformed_chaos_env_is_a_usage_error() {
    for (spec, what) in [
        ("bogus", "chaos spec without seed separator"),
        ("9:", "chaos spec empty after seed"),
        ("9:drop=2.0", "chaos drop probability above 1"),
        ("9:warp=0.5", "chaos unknown fault kind"),
        ("9:part=1-1@0", "chaos self-link partition"),
        ("9:part=0-1@0+0", "chaos zero-duration partition"),
    ] {
        let o = run(DIST, &[("FT_NET_CHAOS", spec)]);
        assert_usage_error(&o, "FT_NET_CHAOS", what);
    }
}

#[test]
fn malformed_chaos_flag_is_a_usage_error() {
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--net-chaos", "9:drop=minus-one"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "--net-chaos", "malformed --net-chaos value");
}

#[test]
fn chaos_flag_without_distributed_is_a_usage_error() {
    let o = run(&["--n", "32", "--net-chaos", "9:drop=0.1"], &[]);
    assert_usage_error(&o, "--distributed", "chaos without --distributed");
}

#[test]
fn zero_cli_heartbeat_interval_is_a_usage_error() {
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--hb-interval-ms", "0"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "--hb-interval-ms", "zero CLI hb interval");
}

#[test]
fn zero_cli_miss_limit_is_a_usage_error() {
    let mut args = DIST.to_vec();
    args.extend_from_slice(&["--hb-miss-limit", "0"]);
    let o = run(&args, &[]);
    assert_usage_error(&o, "--hb-miss-limit", "zero CLI miss limit");
}

/// The environment overlay must hit the *launcher* before any child is
/// spawned: a bad config produces exactly one diagnostic, not one per
/// rank, and no `FT_RANK_SPAWN` marker ever appears.
#[test]
fn bad_config_dies_in_the_launcher_before_spawning_ranks() {
    let mut cmd = Command::new(BIN);
    cmd.args(DIST).env("FT_NET_WINDOW", "0");
    let out = cmd.output().expect("spawn binary");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !stdout.contains("FT_RANK_SPAWN"),
        "no rank may be spawned under a rejected config — stdout:\n{stdout}"
    );
}

/// Mode/flag validation runs once, before either mode starts: a flag the
/// chosen variant cannot honor is rejected identically with and without
/// `--distributed`, instead of being silently dropped by the launcher.
#[test]
fn scrub_cadence_without_abft_variant_is_a_usage_error_in_both_modes() {
    let base = [
        "--grid",
        "1x2",
        "--n",
        "32",
        "--nb",
        "4",
        "--variant",
        "plain",
        "--scrub-every",
        "2",
        "--verify",
    ];
    for distributed in [false, true] {
        let mut args = base.to_vec();
        if distributed {
            args.push("--distributed");
        }
        let o = run(&args, &[]);
        assert_usage_error(&o, "--scrub-every", &format!("plain --scrub-every (distributed={distributed})"));
    }
}
