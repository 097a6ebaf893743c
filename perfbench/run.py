#!/usr/bin/env python3
"""Steady end-to-end benchmark of the Spartan prover.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/prover_bench.exe from source
with dune (release profile, build tree in .bench_build/), runs it as
PROCESSES consecutive processes of S/PROCESSES measured seconds each and
reduces their pooled raw samples to the metrics BENCHMARK.json names: proof
and verification times are medians over every proof of the run; set-up
time and peak RSS are medians over the processes, each of which sets up
once, cold, as a fresh prover process does.

Times are reported on the scale of a calm host. Next to every set-up and
proof prover_bench.ml times a warmed pass over a fixed 4 MiB buffer; each
time sample is multiplied by REF_SCAN_MS over the scan time measured next
to it before the median is taken. REF_SCAN_MS is the scan time of a calm
host: the lower quartile of the per-run median scan times over 40 runs
(0.75 to 1.72 ms) on a shared 2-core Intel Xeon (2 MiB L2 per core,
300 MiB L3). On a calm host the scaled times are the wall times; when
other tenants slow the memory
system, the prover and the scan slow together and the scaled times stay
put while the wall times swing. The wall-clock medians and the scan time
itself are in the --trace 1 output (prove_wall_ms, verify_wall_ms,
host_scan_ms).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: end-to-end metrics with --trace 0, per-layer
metrics with --trace 1. Exits non-zero, printing no result, when the
program cannot be built or run.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "prover_bench.exe")
WORKLOADS = ("litmus", "auction", "rsa-fri", "litmus-stream")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# Several processes, so one process's heap layout does not decide a run and
# set-up is sampled more than once.
PROCESSES = 6
REF_SCAN_MS = 1.0

# Per-layer samples the program records per proof; each is reported as its
# median over the run, times scaled like the end-to-end ones.
LAYER_UNITS = {
    "prove_traced_ms": "ms",
    "pcs_commit_ms": "ms",
    "pcs_open_ms": "ms",
    "iop_ms": "ms",
    "verify_traced_ms": "ms",
    "pcs_verify_ms": "ms",
    "verify_iop_ms": "ms",
    "decode_ms": "ms",
    "prove_alloc_mb": "MB",
    "pcs_commit_alloc_mb": "MB",
    "spill_written_mb": "MB",
}
COUNTS = ("proof_bytes", "sumcheck_mults", "spmv_mults", "transcript_hashes")


def run(cmd, timeout, env, **kw):
    """Run cmd in its own process group; kill the whole group on timeout."""
    proc = subprocess.Popen(cmd, env=env, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        sys.exit(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc.returncode, out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run from the repository root: dune-project and lib/ not found")
    tmp = os.path.join(root, BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every write inside the checkout and the run independent of the
    # caller's prover settings.
    env = {k: v for k, v in os.environ.items() if not k.startswith("NOCAP_")}
    env.update(TMPDIR=tmp, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(root, BUILD_DIR, "cache"))

    rc, _ = run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                 "--profile", "release", "./perfbench/prover_bench.exe"],
                BUILD_TIMEOUT_S, env, stdout=sys.stderr)
    if rc != 0:
        sys.exit(f"build failed (exit {rc})")

    deadline = time.monotonic() + RUN_TIMEOUT_S
    raws = []
    for _ in range(PROCESSES):
        rc, out = run([EXE, "--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds / PROCESSES),
                       "--trace", str(args.trace)],
                      deadline - time.monotonic(), env,
                      stdout=subprocess.PIPE, text=True)
        if rc != 0:
            sys.exit(f"prover_bench exited {rc}")
        raw = json.loads(out.strip().splitlines()[-1])
        for err in raw["errors"]:
            print(f"error: {err}", file=sys.stderr)
        raws.append(raw)

    def pooled(key, layer=False):
        return [x for r in raws for x in (r["layers"][key] if layer else r[key])]

    def scaled(xs):
        return [x * REF_SCAN_MS / s for x, s in zip(xs, pooled("scan_ms"))]

    median = statistics.median
    if args.trace:
        metrics = {k: {"value": median(scaled(pooled(k, layer=True)) if u == "ms"
                                       else pooled(k, layer=True)),
                       "unit": u}
                   for k, u in LAYER_UNITS.items()}
        metrics.update({
            "prove_wall_ms": {"value": median(pooled("prove_ms")), "unit": "ms"},
            "verify_wall_ms": {"value": median(pooled("verify_ms")), "unit": "ms"},
            "circuit_gen_ms": {"value": 1000 * median(r["circuit_gen_s"] for r in raws),
                               "unit": "ms"},
            "host_scan_ms": {"value": median(pooled("scan_ms")), "unit": "ms"},
        })
        metrics.update({k: {"value": raws[0][k], "unit": "count"} for k in COUNTS})
    else:
        setup = [r["setup_s"] * REF_SCAN_MS / r["setup_scan_ms"] for r in raws]
        metrics = {
            "prove_ms": {"value": median(scaled(pooled("prove_ms"))), "unit": "ms"},
            "verify_ms": {"value": median(scaled(pooled("verify_ms"))), "unit": "ms"},
            "peak_rss_mb": {"value": median(r["peak_rss_mb"] for r in raws), "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    # Counts are deterministic: processes that disagree on them did not
    # run the same computation.
    same_counts = all(r[k] == raws[0][k] for r in raws for k in COUNTS)
    print(json.dumps({
        "correct": same_counts and all(r["correct"] for r in raws),
        "attempted": sum(r["attempted"] for r in raws),
        "failed": sum(r["failed"] for r in raws),
        "metrics": metrics}))


if __name__ == "__main__":
    main()
