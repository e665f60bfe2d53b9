#!/usr/bin/env python3
"""End-to-end daemon benchmark for abcs.

Run from the repository root:

    python3 perfbench/run.py --workload lookup --seed 1 --seconds 20 --trace 0

Builds the library, the `abcs` tool and the `perfbench` program from source
into .bench_build/ (tests off), then runs one workload in a temporary work
directory under .bench_work/ that is removed at the end:

  --trace 0  the end-to-end run: `abcs index`, `abcs serve`, TCP load from
             one generator process, answers checked, end-to-end metrics;
  --trace 1  the same run, then the in-process traced replay; prints the
             per-layer metrics instead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. The metric names come from BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
# Both stages together must end well inside the 180 s a run may take
# (the build before them is not counted).
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(env):
    """Configures once and builds; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        if subprocess.run(cfg, env=env, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", BUILD, "-j", jobs]
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run_stage(cmd, env, timeout):
    """Runs one stage in its own process group; returns its last JSON line.

    The group is killed on every exit path, so no daemon outlives the run.
    """
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            process_group=0, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        log("stage timed out: " + " ".join(cmd))
        out = ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        log("stage failed (%s): %s" % (proc.returncode, " ".join(cmd)))
        return None
    lines = [l for l in out.splitlines() if l.strip()]
    for line in lines[:-1]:
        log(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        log("stage printed no result")
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--flip-significance", action="store_true",
                    help="corrupt one checked answer; the run must then "
                         "report correct=false")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("unknown workload " + args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    env = dict(os.environ, TMPDIR=workdir, CCACHE_DISABLE="1")
    try:
        if not build(env):
            log("build failed")
            return 1
        deadline = time.monotonic() + RUN_BUDGET_S
        exe = os.path.join(BUILD, "perfbench")
        abcs = os.path.join(BUILD, "abcs", "tools", "abcs")
        selftest_ok = subprocess.run([exe, "selftest"], env=env).returncode == 0
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--workdir", workdir]
        e2e_cmd = [exe, "e2e"] + common + ["--abcs", abcs]
        if args.flip_significance:
            e2e_cmd.append("--flip-significance")
        result = run_stage(e2e_cmd, env, deadline - time.monotonic())
        if result is None:
            return 1
        metrics = result["metrics"]
        if args.trace:
            p50 = metrics["p50_ms"]["value"]
            trace = run_stage([exe, "trace"] + common +
                              ["--e2e-p50-ms", repr(p50)], env,
                              deadline - time.monotonic())
            if trace is None:
                return 1
            result["correct"] = result["correct"] and trace["correct"]
            metrics.update(trace["metrics"])
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            log("metrics missing: " + ", ".join(missing))
            return 1
        out = {
            "correct": bool(result["correct"] and selftest_ok),
            "attempted": int(result["attempted"]),
            "failed": int(result["failed"]),
            "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
        }
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
