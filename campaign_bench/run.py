#!/usr/bin/env python3
"""Builds and runs the fault-campaign benchmark.

Run from the root of a source checkout:

    python3 campaign_bench/run.py --workload fiveclass_random --seed 1 \
        --seconds 10 --trace 0
    python3 campaign_bench/run.py --smoke

The first form builds campaign_bench (Release, into $CARGO_TARGET_DIR or
.bench_build) and runs one workload; the last line of its output is the
result object.  --smoke runs every workload at toy size in both modes,
checks each printed metric and unit against BENCHMARK.json, and checks
that the correctness gate rejects a perturbed report.  See README.md.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; build output goes to stderr."""
    steps = [["cmake", "-S", BENCH_DIR, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", "4", "--target",
              "campaign_bench", "cpsinw_shard_server"]]
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("campaign_bench: build step failed:", " ".join(cmd))
            return False
    return True


def run_bench(bin_dir, work_dir, args, capture=False):
    """Runs the benchmark binary in its own process group and kills the
    group afterwards, so no loopback server outlives a run."""
    cmd = [os.path.join(bin_dir, "campaign_bench"), "--work", work_dir,
           "--server", os.path.join(bin_dir, "cpsinw_shard_server")] + args
    proc = subprocess.Popen(cmd, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate()
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return proc.returncode, (out.decode() if capture else None)


def smoke(bin_dir, work_dir):
    """Toy-size run of every workload shape; returns the failure count."""
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = 0
    code, out = run_bench(bin_dir, work_dir, ["--check-gate"], capture=True)
    log(out.strip())
    if code != 0:
        log("smoke: correctness gate self-test FAILED")
        failures += 1
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, table in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = run_bench(
                bin_dir, work_dir,
                ["--workload", workload, "--seed", "1", "--seconds", "0.2",
                 "--trace", trace, "--scale", "toy"], capture=True)
            lines = out.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            metrics = result.get("metrics", {})
            want = {m["name"]: m["unit"] for m in spec[table]}
            got = {k: v.get("unit") for k, v in metrics.items()}
            ok = (code == 0 and result.get("correct") is True
                  and got == want)
            if not ok:
                failures += 1
                log("smoke: %s --trace %s FAILED (exit %d)" %
                    (workload, trace, code))
                for name in sorted(set(want) | set(got)):
                    if want.get(name) != got.get(name):
                        log("  %s: expected unit %r, printed %r" %
                            (name, want.get(name), got.get(name)))
            else:
                log("smoke: %s --trace %s ok (%d metrics)" %
                    (workload, trace, len(got)))
    return failures


def main():
    # A terminated run still reaches run_bench's cleanup.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    build_dir = os.path.abspath(os.path.join(
        os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "campaign_bench"))
    if not build(build_dir):
        return 1
    bin_dir = os.path.join(build_dir, "bin")
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    if args.smoke:
        return 1 if smoke(bin_dir, work_dir) else 0
    code, _ = run_bench(bin_dir, work_dir,
                        ["--workload", args.workload,
                         "--seed", str(args.seed),
                         "--seconds", str(args.seconds),
                         "--trace", args.trace])
    return code


if __name__ == "__main__":
    sys.exit(main())
