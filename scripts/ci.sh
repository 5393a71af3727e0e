#!/usr/bin/env bash
# Local CI gate: formatting, lints, the full test suite, the kernel fuzz
# loop, the bench compile gate, a perf smoke with hard floors, and the
# chaos soak. Runs entirely offline — the workspace (benches included) has
# zero external dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# The full suite runs twice: once pinned to the scalar microkernel (the
# pre-SIMD reference semantics) and once on the best detected ISA
# (DESIGN.md §14). A determinism bug that only manifests under one
# contraction class cannot hide behind the other.
echo "== cargo test -q (FT_GEMM_ISA=scalar)"
FT_GEMM_ISA=scalar cargo test -q

echo "== cargo test -q (FT_GEMM_ISA=auto)"
FT_GEMM_ISA=auto cargo test -q

# Kernel-equivalence fuzz loop at a pinned seed: the packed/pre-packed GEMM
# paths against the naive oracle over adversarial fringe shapes, under every
# detected ISA and thread count. FT_REQUIRE_ISAS is computed from the host's
# cpuinfo so a build/detection regression that silently exercises only the
# scalar path is a hard failure, not a quiet skip. The seed is fixed so a CI
# failure reproduces exactly; bump FT_FUZZ_ROUNDS locally to sweep wider.
echo "== kernel fuzz (pinned seed, cross-ISA battery)"
require_isas="scalar"
if [ -r /proc/cpuinfo ]; then
    if grep -qm1 avx2 /proc/cpuinfo && grep -qm1 fma /proc/cpuinfo; then
        require_isas="$require_isas,avx2"
    fi
    if grep -qm1 avx512f /proc/cpuinfo && grep -qm1 fma /proc/cpuinfo; then
        require_isas="$require_isas,avx512"
    fi
fi
echo "  requiring ISAs: $require_isas"
FT_REQUIRE_ISAS=$require_isas FT_FUZZ_SEED=20130926 FT_FUZZ_ROUNDS=600 \
    cargo test -q -p ft-dense --test kernel_fuzz

echo "== cargo bench --no-run (compile gate)"
cargo bench --no-run -q

# Perf smoke: regenerates BENCH_kernels.json and fails if the packed kernel
# is slower than the naive triple loop at 256×256 or below 3× naive at
# 512×512 (the gates live inside the bench binary).
echo "== kernels perf smoke"
FT_KERNELS_SMOKE=1 cargo bench -q --bench kernels

# Deterministic chaos soak: seeded kills at arbitrary message-op boundaries
# through the release CLI, for BOTH solvers on the shared framework. A run
# must either recover and pass verification (exit 0) or reject a
# beyond-tolerance victim set with the typed error (exit 3) — any panic or
# other exit code fails the gate. Same seeds, same outcomes, every run.
# The per-solver run counters make a silently skipped battery a hard fail.
echo "== chaos soak (release, both solvers)"
cargo build --release -q
CHAOS_SEEDS=${CHAOS_SEEDS:-"1 2 3 5 8 13 21 34"}
chaos_hessenberg_runs=0
chaos_qr_runs=0
for solver in hessenberg qr; do
    for seed in $CHAOS_SEEDS; do
        for variant in alg2 alg3; do
            set +e
            ./target/release/abft-hessenberg \
                --n 96 --nb 8 --grid 2x3 --solver "$solver" --variant "$variant" \
                --chaos "$seed:3" --verify >/dev/null
            rc=$?
            set -e
            case $rc in
                0) echo "  $solver seed $seed $variant: recovered, verified" ;;
                3) echo "  $solver seed $seed $variant: beyond tolerance, typed rejection" ;;
                *) echo "  $solver seed $seed $variant: FAILED (exit $rc)"; exit 1 ;;
            esac
            eval "chaos_${solver}_runs=\$((chaos_${solver}_runs + 1))"
        done
    done
done
if [ "$chaos_hessenberg_runs" -eq 0 ] || [ "$chaos_qr_runs" -eq 0 ]; then
    echo "chaos soak: a solver battery was skipped (hessenberg=$chaos_hessenberg_runs qr=$chaos_qr_runs)"
    exit 1
fi

# Threaded chaos leg: one seed, both solvers, with the in-rank GEMM worker
# pool engaged (FT_GEMM_THREADS=4). Recovery replays GEMMs; the DESIGN.md
# §14 contract says the thread count can never change a bit, so the
# recover-or-typed-reject outcomes must match the single-threaded runs of
# the same seed exactly.
echo "== threaded chaos soak (FT_GEMM_THREADS=4, one seed, both solvers)"
for solver in hessenberg qr; do
    for variant in alg2 alg3; do
        set +e
        FT_GEMM_THREADS=4 ./target/release/abft-hessenberg \
            --n 96 --nb 8 --grid 2x3 --solver "$solver" --variant "$variant" \
            --chaos "1:3" --verify >/dev/null
        rc=$?
        set -e
        case $rc in
            0) echo "  $solver $variant threads=4: recovered, verified" ;;
            3) echo "  $solver $variant threads=4: beyond tolerance, typed rejection" ;;
            *) echo "  $solver $variant threads=4: FAILED (exit $rc)"; exit 1 ;;
        esac
    done
done

# Deterministic SDC soak: seeded silent bit flips at message-op boundaries
# with the scrub engine at cadence 1, again for BOTH solvers. A run must
# either correct (or roll back) every detectable flip and pass verification
# (exit 0) or reject uncorrectable corruption with the typed error (exit 3)
# — any panic, silent verification failure (exit 1), or other exit code
# fails the gate; an empty solver battery fails it too.
echo "== sdc soak (release, both solvers)"
SDC_SEEDS=${SDC_SEEDS:-"1 2 3 5 8 13 21 34"}
sdc_hessenberg_runs=0
sdc_qr_runs=0
for solver in hessenberg qr; do
    for seed in $SDC_SEEDS; do
        for variant in alg2 alg3; do
            for flips in 1 2; do
                set +e
                ./target/release/abft-hessenberg \
                    --n 96 --nb 8 --grid 2x4 --solver "$solver" --variant "$variant" \
                    --redundancy dual --sdc "$seed:$flips" --verify >/dev/null
                rc=$?
                set -e
                case $rc in
                    0) echo "  $solver seed $seed $variant x$flips: scrubbed, verified" ;;
                    3) echo "  $solver seed $seed $variant x$flips: uncorrectable, typed rejection" ;;
                    *) echo "  $solver seed $seed $variant x$flips: FAILED (exit $rc)"; exit 1 ;;
                esac
                eval "sdc_${solver}_runs=\$((sdc_${solver}_runs + 1))"
            done
        done
    done
done
if [ "$sdc_hessenberg_runs" -eq 0 ] || [ "$sdc_qr_runs" -eq 0 ]; then
    echo "sdc soak: a solver battery was skipped (hessenberg=$sdc_hessenberg_runs qr=$sdc_qr_runs)"
    exit 1
fi

# Concurrent-k-kill soak: the Coded(f) distance measured from both sides
# (EXPERIMENTS.md "Multi-kill soak methodology"), for BOTH solvers. Every
# k <= f simultaneous same-row failure set must recover and verify
# (exit 0); k = f+1 must produce the typed ExceededCodeDistance rejection
# (exit 3) — anything else, including a verification failure after a
# "successful" recovery, fails the gate. Grid 1x6 keeps Q >= 2f through
# f = 3 with every rank in one process row; N = 96 keeps the r-inf scale
# honest (see the methodology note on tiny-N thresholds).
#
# Victim sets stride by 2 (ranks 0,2,4,1 for k = 1..4): the paper-residual
# gate demands near-eps recovery, and ADJACENT victim sets pick the
# closest-spaced Vandermonde nodes (gap 1/Q), whose recovery accuracy is
# the intrinsic ||A_S^-1||*drift — within the 1e-10 parity acceptance but
# above the stricter r-inf scale (DESIGN.md §13.1). Adjacent sets get
# their own recovery leg below, parity-gated in-process by
# ft_coded_redundancy::coded3_adjacent_victims_parity_at_scale.
echo "== multi-kill soak (Coded(f), k<=f recover / k=f+1 typed, both solvers)"
mk_hessenberg_runs=0
mk_qr_runs=0
for solver in hessenberg qr; do
    for f in 1 2 3; do
        # Stride-2 victim prefixes: k <= f recover, k = f+1 rejects.
        for k in $(seq 1 $((f + 1))); do
            fails=""
            for i in $(seq 0 $((k - 1))); do
                fails="$fails --fail 2:1:$(((2 * i) % 5))"
            done
            if [ "$k" -le "$f" ]; then want=0; label="recovered, verified"; else want=3; label="beyond distance, typed rejection"; fi
            set +e
            # shellcheck disable=SC2086
            ./target/release/abft-hessenberg \
                --n 96 --nb 8 --grid 1x6 --solver "$solver" --redundancy "$f" \
                $fails --verify >/dev/null 2>&1
            rc=$?
            set -e
            if [ "$rc" -ne "$want" ]; then
                echo "  $solver f=$f k=$k: FAILED (exit $rc, want $want)"; exit 1
            fi
            echo "  $solver f=$f k=$k: $label"
            eval "mk_${solver}_runs=\$((mk_${solver}_runs + 1))"
        done
    done
    # Worst-conditioned leg: three ADJACENT victims must still recover and
    # complete (exit 0) through the CLI; the 1e-10 parity bound for this
    # set is asserted by the in-process test named above, because the
    # r-inf gate is stricter than the code's intrinsic accuracy here.
    set +e
    ./target/release/abft-hessenberg \
        --n 96 --nb 8 --grid 1x6 --solver "$solver" --redundancy 3 \
        --fail 2:1:0 --fail 2:1:1 --fail 2:1:2 >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 0 ]; then
        echo "  $solver adjacent k=3: FAILED (exit $rc)"; exit 1
    fi
    echo "  $solver adjacent k=3: recovered (parity gated in-process)"
    eval "mk_${solver}_runs=\$((mk_${solver}_runs + 1))"
    # One two-row leg: f failures in EACH of two process rows of a 2x6
    # grid recover independently (per-row distance, not global).
    set +e
    ./target/release/abft-hessenberg \
        --n 96 --nb 8 --grid 2x6 --solver "$solver" --redundancy 3 \
        --fail 2:1:0 --fail 2:1:2 --fail 2:1:4 --fail 2:1:7 --fail 2:1:9 --fail 2:1:11 \
        --verify >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 0 ]; then
        echo "  $solver 2x6 3+3 two-row: FAILED (exit $rc)"; exit 1
    fi
    echo "  $solver 2x6 3+3 two-row: recovered, verified"
    eval "mk_${solver}_runs=\$((mk_${solver}_runs + 1))"
done
if [ "$mk_hessenberg_runs" -ne 11 ] || [ "$mk_qr_runs" -ne 11 ]; then
    echo "multi-kill soak: legs skipped (hessenberg=$mk_hessenberg_runs qr=$mk_qr_runs, want 11 each)"
    exit 1
fi

# Distributed smoke: the real multi-process TCP transport on localhost —
# one OS process per rank, wired by the launcher's probed ports. Both ABFT
# variants must finish fault-free and pass verification. The shortened
# receive timeout turns any protocol wedge into a typed abort instead of a
# CI hang (the launcher's own 600 s watchdog is the backstop).
echo "== distributed smoke (localhost TCP, 2x2, both solvers)"
for solver in hessenberg qr; do
    for variant in alg2 alg3; do
        FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
            --distributed --grid 2x2 --n 64 --nb 8 --solver "$solver" \
            --variant "$variant" --verify >/dev/null
        echo "  $solver $variant: fault-free, verified"
    done
done

# Deterministic distributed kill-soak: seeded real SIGKILLs mid-run — the
# launcher re-spawns each victim and the survivors re-admit it through the
# epoch-fenced reconnect handshake before §5.3 recovery. Same contract as
# the in-process chaos soak: recover-and-verify (exit 0) or typed
# beyond-tolerance rejection (exit 3); anything else fails the gate.
echo "== distributed kill-soak (real SIGKILL, release)"
KILL_SEEDS=${KILL_SEEDS:-"1 2 3 5"}
for seed in $KILL_SEEDS; do
    for variant in alg2 alg3; do
        set +e
        FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
            --distributed --grid 2x2 --n 64 --nb 8 --variant "$variant" \
            --chaos "$seed:1" --verify >/dev/null
        rc=$?
        set -e
        case $rc in
            0) echo "  seed $seed $variant: killed, re-spawned, verified" ;;
            3) echo "  seed $seed $variant: beyond tolerance, typed rejection" ;;
            *) echo "  seed $seed $variant: FAILED (exit $rc)"; exit 1 ;;
        esac
    done
done

# Seeded network-chaos soak: the wire-hardening contract (DESIGN.md §16)
# through the release CLI. Three fault classes per seed per solver:
#   drop    — frame loss + duplication (go-back-N retransmit, dup suppress)
#   corrupt — bit flips (header+frame CRC rejection, bounded retransmit)
#   part    — a transient one-link partition that heals mid-run (session
#             resume replays the window; suspicion must rescind)
# A chaos run that completes must complete CLEAN: exit 0, verification
# passed, zero §5.3 recoveries (chaos is transport noise, never a rank
# death). The permanent-partition leg must produce the typed Partitioned
# agreement on every surviving rank — exit 3, bounded by the receive
# timeout, never a hang. Any other exit code fails the gate.
echo "== network-chaos soak (seeded drop/corrupt/partition, both solvers)"
NET_CHAOS_SEEDS=${NET_CHAOS_SEEDS:-"1 2 3 5 8 13 21 34"}
nc_hessenberg_runs=0
nc_qr_runs=0
for solver in hessenberg qr; do
    for seed in $NET_CHAOS_SEEDS; do
        for class in drop corrupt part; do
            case $class in
                drop)    chaosspec="$seed:drop=0.05,dup=0.05,reorder=0.05" ;;
                corrupt) chaosspec="$seed:corrupt=0.03" ;;
                part)    chaosspec="$seed:part=1-2@150+500,part=2-1@150+500" ;;
            esac
            set +e
            out=$(FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
                --distributed --grid 2x2 --n 64 --nb 8 --solver "$solver" \
                --net-chaos "$chaosspec" --verify 2>&1)
            rc=$?
            set -e
            if [ "$rc" -ne 0 ]; then
                echo "  $solver seed $seed $class: FAILED (exit $rc)"; echo "$out" | tail -5; exit 1
            fi
            if ! echo "$out" | grep -q "recoveries: 0"; then
                echo "  $solver seed $seed $class: FAILED (chaos triggered a spurious recovery)"; exit 1
            fi
            echo "  $solver seed $seed $class: survived, verified, zero recoveries"
            eval "nc_${solver}_runs=\$((nc_${solver}_runs + 1))"
        done
    done
    # Permanent partition: rank 3 fully cut from the fabric. Agreement must
    # time out as the typed Partitioned error — exit 3 — on a short receive
    # timeout, never a hang (the launcher watchdog is the backstop).
    set +e
    FT_RECV_TIMEOUT_MS=6000 ./target/release/abft-hessenberg \
        --distributed --grid 2x2 --n 32 --nb 8 --solver "$solver" \
        --net-chaos "7:part=3-0@0,part=3-1@0,part=3-2@0,part=0-3@0,part=1-3@0,part=2-3@0" \
        >/dev/null 2>&1
    rc=$?
    set -e
    if [ "$rc" -ne 3 ]; then
        echo "  $solver permanent partition: FAILED (exit $rc, want typed 3)"; exit 1
    fi
    echo "  $solver permanent partition: typed rejection on every survivor"
    eval "nc_${solver}_runs=\$((nc_${solver}_runs + 1))"
done
if [ "$nc_hessenberg_runs" -ne 25 ] || [ "$nc_qr_runs" -ne 25 ]; then
    echo "network-chaos soak: legs skipped (hessenberg=$nc_hessenberg_runs qr=$nc_qr_runs, want 25 each)"
    exit 1
fi
# Bitwise determinism spot-check: the hardened transport's reference
# acceptance — a chaos run's eigenvalues must match the fault-free run's
# bit for bit (the distributed test battery sweeps this wider).
clean_eigs=$(FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
    --distributed --grid 2x2 --n 64 --nb 8 --variant alg2 --print-eigs 2>/dev/null | grep '^eig ')
chaos_eigs=$(FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
    --distributed --grid 2x2 --n 64 --nb 8 --variant alg2 --print-eigs \
    --net-chaos "9:drop=0.08,dup=0.1,reorder=0.1,corrupt=0.04" 2>/dev/null | grep '^eig ')
if [ -z "$clean_eigs" ] || [ "$clean_eigs" != "$chaos_eigs" ]; then
    echo "network-chaos soak: chaos run is not bitwise identical to the clean run"; exit 1
fi
echo "  bitwise spot-check: chaos eigenvalues identical to fault-free run"

# Shrink soak: a real SIGKILL with re-spawn disabled (--shrink) must
# complete through survivor-side rank adoption (EXPERIMENTS.md "Shrink
# soak methodology"): exit 0, verification passed, AND the shrink report
# naming the killed rank present in the traffic summary — a run that
# "passes" without the report means the kill never fired or adoption was
# bypassed, and fails the gate. Killing rank 0 is its own leg (the
# FT_SHRINK_CODE marker path). Both solvers; skip counters as above.
echo "== shrink soak (SIGKILL without re-spawn, survivor adoption)"
shrink_hessenberg_runs=0
shrink_qr_runs=0
for solver in hessenberg qr; do
    for victim in 3 0; do
        set +e
        out=$(FT_RECV_TIMEOUT_MS=60000 ./target/release/abft-hessenberg \
            --distributed --shrink --grid 2x2 --n 64 --nb 8 --solver "$solver" \
            --kill-at "$victim@100" --verify 2>&1)
        rc=$?
        set -e
        if [ "$rc" -ne 0 ]; then
            echo "  $solver kill rank $victim: FAILED (exit $rc)"; echo "$out" | tail -5; exit 1
        fi
        if ! echo "$out" | grep -q "shrink (survivor-adopted ranks):"; then
            echo "  $solver kill rank $victim: FAILED (no shrink report in summary)"; exit 1
        fi
        if ! echo "$out" | grep -q "adopted ranks *\[$victim\]"; then
            echo "  $solver kill rank $victim: FAILED (rank $victim not in shrink report)"; exit 1
        fi
        echo "  $solver kill rank $victim: adopted, verified"
        eval "shrink_${solver}_runs=\$((shrink_${solver}_runs + 1))"
    done
done
if [ "$shrink_hessenberg_runs" -ne 2 ] || [ "$shrink_qr_runs" -ne 2 ]; then
    echo "shrink soak: legs skipped (hessenberg=$shrink_hessenberg_runs qr=$shrink_qr_runs, want 2 each)"
    exit 1
fi

# Daemon soak: the persistent multi-tenant serving plane through the real
# CLI verbs — spawn a pool, stream pipelined jobs from two tenants across
# both solvers, drain, and require a clean daemon exit. Exit 0 from each
# submit asserts every job's residual passed the paper threshold; exit 0
# from the daemon asserts the pool drained quiescent (no leaked jobs).
echo "== daemon soak (serve/submit verbs, both solvers, drain)"
# The job-port window (2048 ports) and the control port sit wholly below
# the host's ephemeral range, so neither races an outgoing connection.
eph_lo=$(cut -f1 /proc/sys/net/ipv4/ip_local_port_range 2>/dev/null || echo 32768)
JOB_PORTS=$((eph_lo - 1024 - 2048))
SERVE_PORT=$((JOB_PORTS - 1))
./target/release/abft-hessenberg serve --pool 4 --port "$SERVE_PORT" --job-ports "$JOB_PORTS" &
SERVE_PID=$!
ready=0
for _ in $(seq 1 100); do
    if ./target/release/abft-hessenberg submit --port "$SERVE_PORT" \
        --n 32 --nb 8 --grid 1x1 >/dev/null 2>&1; then
        ready=1; break
    fi
    sleep 0.1
done
if [ "$ready" -ne 1 ]; then
    echo "daemon soak: pool never came up"; kill -9 "$SERVE_PID" 2>/dev/null || true; exit 1
fi
./target/release/abft-hessenberg submit --port "$SERVE_PORT" \
    --n 64 --nb 8 --grid 1x2 --count 4 --tenant 1 >/dev/null
./target/release/abft-hessenberg submit --port "$SERVE_PORT" \
    --solver qr --n 64 --nb 8 --grid 1x2 --count 2 --tenant 2 >/dev/null
./target/release/abft-hessenberg submit --port "$SERVE_PORT" --shutdown >/dev/null
if ! wait "$SERVE_PID"; then
    echo "daemon soak: daemon did not drain cleanly"; exit 1
fi
echo "  pool of 4: 7 jobs across 2 tenants + both solvers, drained clean"

# Serve throughput smoke: regenerates BENCH_serve.json in smoke mode. The
# hard gates (every job completes, jobs/sec > 0, finite p50/p99, >= 1
# recovery in the kill phase, 0 in the baseline) live inside the bench
# binary; here we additionally pin the artifact schema.
echo "== serve throughput smoke (open-loop, SIGKILL mid-phase)"
FT_SERVE_SMOKE=1 cargo bench -q --bench serve
for key in jobs_per_sec p50_ms p99_ms recoveries baseline one_kill lossy frames_dropped; do
    if ! grep -q "\"$key\"" BENCH_serve.json; then
        echo "BENCH_serve.json missing key: $key"; exit 1
    fi
done

echo "CI OK"
