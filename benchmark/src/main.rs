//! The repository benchmark. One run measures one workload for a fixed
//! window and prints, as its last stdout line, one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <gehrd_seq|ft_hess_1x2|serve_1x2> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ones. See README.md for the workloads, the metrics and the prediction
//! table.

mod common;
mod dist;
mod seq;
mod serve;

use common::Args;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Re-entry verbs: the serve workload runs its daemon and workers as
    // child processes of this executable.
    match argv.first().map(String::as_str) {
        Some("serve-daemon") => std::process::exit(serve::daemon_main(&argv[1..])),
        Some("serve-worker") => std::process::exit(serve::worker_main(&argv[1..])),
        _ => {}
    }
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!("usage: --workload <gehrd_seq|ft_hess_1x2|serve_1x2> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "gehrd_seq" => seq::run(&args),
        "ft_hess_1x2" => dist::run(&args),
        "serve_1x2" => serve::run(&args),
        w => {
            eprintln!("benchmark: unknown workload {w:?} (gehrd_seq | ft_hess_1x2 | serve_1x2)");
            std::process::exit(2);
        }
    };
    outcome.print(&args);
}
