#!/usr/bin/env python3
"""DDR end-to-end benchmark: build, run one workload, print its metrics.

Run from the repository root:

    python3 ddrbench/run.py --workload pencil_fft --seed 1 --seconds 10 --trace 0

The first call configures and builds ddrbench/ (the library modules from
src/ plus the ddrbench and ddrbench_selftest programs) into the directory
named by $CARGO_TARGET_DIR, or .bench_build; later calls rebuild only what
changed. After every build the self-test checks the benchmark's own
arithmetic. The workload then runs on four minimpi rank threads in one
process, closed loop, for --seconds, with inputs generated from --seed,
and checks every op's output.

Output: one line per metric (name, value, unit), the run context, and as
the last line one JSON object {"correct", "attempted", "failed",
"metrics"}. With --trace 0 the metrics are the end-to-end ones, measured
untraced; with --trace 1 they are the per-layer ones from a run whose odd
ops are traced (trace spans of the benchmark's calls and of the library;
Chrome JSON lands in <build dir>/traces/<workload>.json). A per-layer
metric of a layer the workload does not run reads 0. Per-layer times are
per-rank means over the ranks that ran the span, medians over traced ops;
*_cpu_ms values are summed over ranks.

op_p95_ms, printed but not in the result line (its run-to-run spread on a
shared host is too wide to gate on), is the highest percentile, at most
95, with ten samples beyond it (context: percentile and sample count). cpu_ms_per_op is thread-CPU
time summed over the rank threads, median per op. setup_s is the median
of several set-ups per run; on rebalance, where every op sets up, the
median set-up call of the ops. On insitu_lbm an op is a frame, op_* is its
latency from the first producer's send to the encoded JPEG, and ops_per_s
is the reciprocal of the median interval between frames.

Exits nonzero, without a result line, when the build, the self-test or the
run fails.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pencil_fft", "rebalance", "insitu_lbm", "tiff_volume")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("ddrbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, log, env=None):
    with open(log, "w") as f:
        if subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                          env=env).returncode != 0:
            fail("'%s' failed, see %s" % (" ".join(cmd), log))


def build(build_dir):
    # Keep the compiler's temporary files inside the build directory too.
    env = dict(os.environ, TMPDIR=os.path.abspath(os.path.join(build_dir, "tmp")))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"],
                  os.path.join(build_dir, "configure.log"), env)
    run_quiet(["cmake", "--build", build_dir, "-j", "4"],
              os.path.join(build_dir, "build.log"), env)
    run_quiet([os.path.join(build_dir, "ddrbench_selftest")],
              os.path.join(build_dir, "selftest.log"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    os.makedirs(build_dir, exist_ok=True)
    build(build_dir)

    cmd = [os.path.join(build_dir, "ddrbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", build_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (args.workload, proc.returncode))
    report = json.loads(lines[-1])

    metrics = report["per_layer" if args.trace else "end_to_end"]
    width = max(len(n) for n in metrics) + 2
    print("workload %s  seed %d  %gs  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for name, m in metrics.items():
        print("  %-*s %14.6g %s" % (width, name, m["value"], m["unit"]))
    if not args.trace:
        # Printed with the end-to-end metrics but not part of the result
        # line: see BENCHMARK.json for the metrics a change is held to.
        ctx = report["context"]
        print("  %-*s %14.6g ms" % (width, "op_p95_ms", ctx["op_p95_ms"]))
        print("  %-*s %14.6g -" % (width, "fail_ratio", ctx["fail_ratio"]))
        charged = report["per_layer"].get("simnet.charged_ms_per_op", {})
        if charged.get("value"):
            print("  %-*s %14.6g ms" % (width, "charged_ms_per_op", charged["value"]))
    for key, value in report["context"].items():
        print("  context %s = %s" % (key, value))

    print(json.dumps({
        "correct": bool(report["correct"]) and report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
