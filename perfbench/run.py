"""selftestsim benchmark: one workload per invocation.

    python3 perfbench/run.py --workload {mc-honest,mc-wire,analyze} \\
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout. The workload runs in its own process
(`worker.py`) with the package imported from `src/`, pinned to one CPU core,
BLAS pinned to one thread and SELFTEST_SEED removed from its environment. With `--trace 0` the
last stdout line holds the end-to-end metrics. `setup_s` is the median over
SETUP_RUNS worker starts of the CPU time each spent before its `ready` line.
Times are CPU seconds scaled to reference seconds by `calibrate.py`. With
`--trace 1` the last line holds the per-layer metrics of a traced run, and
the spans go to `perfbench/out/`. The full record, with the environment and
any failed checks, is written to `perfbench/out/result-*.json`. The exit code
is 0 only when every correctness check passed. `--smoke` shrinks the session
batches for the benchmark's own tests.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc-honest", "mc-wire", "analyze")
SETUP_RUNS = 5
DEADLINE_S = 170.0
BLAS_THREADS = 1


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SELFTEST_SEED", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    return env


def start_worker(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Launch one worker; returns (CPU seconds it spent before its `ready`
    line, its last line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline().split()
        if len(ready) != 2 or ready[0] != "ready":
            raise RuntimeError("worker ended before it was ready")
        setup_s = float(ready[1])
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    lines = out.strip().splitlines()
    return setup_s, lines[-1] if lines else ""


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "selftestsim" / "__init__.py").is_file():
        print(f"error: no selftestsim package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    load = os.getloadavg()
    # One core for this process and the workers it starts: the TCP workload's
    # verifier and prover threads then hand off on one core, whose cost does
    # not depend on where other tenants' threads run.
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    calibrate.probe_s()  # the first call pays numpy's one-time set-up
    probes = [calibrate.probe_s()]
    setups = []
    try:
        for run in range(1 if args.trace else SETUP_RUNS):
            setup_s, line = start_worker(args, deadline, setup_only=run < SETUP_RUNS - 1 and not args.trace)
            probes.append(calibrate.probe_s())
            setups.append(setup_s * calibrate.scale(probes[-2], probes[-1]))
        record = json.loads(line)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        record["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    record["raw"]["setup_ref_s"] = setups
    record["raw"]["setup_probe_s"] = probes
    record["env"].update(loadavg_at_start=load, pinned_cpu=core, commit=git_commit(),
                         workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    for failure in record["check_failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
