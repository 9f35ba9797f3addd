#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload read_tcp --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

The first run configures and builds perfbench/ (which compiles the
program's libraries from src/) into .bench_build/perfbench; later runs only
re-check that build.  Each run gets its own work directory under
.bench_work/ and removes it afterwards.  A traced run (--trace 1) also
writes a Chrome trace to .bench_out/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is non-zero when
the build fails, an output was wrong, or the run did not finish.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    BUILD.mkdir(parents=True, exist_ok=True)
    log_path = BUILD.parent / "perfbench-build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not any((BUILD / f).exists() for f in ("Makefile", "build.ninja")):
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    with open(log_path, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                out.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-20:]
                log("perfbench: build failed (%s):\n%s" % (log_path, "\n".join(tail)))
                return False
    return BINARY.exists()


def workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in spec["workloads"]]


def run_one(workload, seed, seconds, trace):
    work = ROOT / ".bench_work" / ("%s-%d-%d" % (workload, seed, os.getpid()))
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if trace:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(out_dir / ("%s-seed%d.trace.json" % (workload, seed)))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run has killed and reaped the benchmark by now.
        shutil.rmtree(work, ignore_errors=True)
        out = e.stdout or ""
        sys.stdout.write(out.decode(errors="replace") if isinstance(out, bytes) else out)
        log("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None, 124
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if result is None or set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.stdout.write(proc.stdout)
        log("perfbench: %s printed no result (exit %d)" % (workload, proc.returncode))
        return None, proc.returncode or 1
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    return result, proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="workload name or 'all'")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 3
    if args.workload != "all":
        result, code = run_one(args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return code
        print(json.dumps(result), flush=True)
        return code if code else (0 if result["correct"] else 1)

    results, worst = {}, 0
    for name in workloads():
        t0 = time.time()
        result, code = run_one(name, args.seed, args.seconds, args.trace)
        log("perfbench: %s took %.1f s" % (name, time.time() - t0))
        worst = worst or code or (0 if result and result["correct"] else 1)
        results[name] = result
    print(json.dumps(results), flush=True)
    return worst


if __name__ == "__main__":
    sys.exit(main())
