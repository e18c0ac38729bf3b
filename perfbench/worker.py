"""One workload in its own process; `run.py` starts it and reads its output.

The worker imports the package, builds its configs and runs a short warm-up,
then prints `ready <cpu seconds so far>` (the end of set-up) and measures.
Its last stdout line is a JSON object with the metrics, the checks that
failed, the raw wall-clock figures and the environment.

Every workload drives `selftestsim.cli.main` in process with the arguments a
user would type. Each pass gets its own seed, derived from the workload seed
and the pass number, so the same seed gives the same inputs.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import calibrate
from selftestsim import cli, entcf, harness
from selftestsim.protocol import DimTestConfig, SelfTestConfig

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

# traced passes kept in memory at once; each holds every span of its sessions
MAX_TRACED_PASSES = 3
REFERENCE_TOL = 1e-9


def pass_seed(seed: int, index: int) -> int:
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def cli_main(argv: list[str]) -> int:
    """cli.main with its stdout (the JSON it prints) kept off ours."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Clock:
    """Wall and process CPU time (all threads) since construction."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.cpu = time.process_time()

    def read(self) -> tuple[float, float]:
        return time.perf_counter() - self.wall, time.process_time() - self.cpu


class Checks:
    """Correctness failures seen so far, as readable lines."""

    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _step(ops: int, command: tuple, whole: tuple, nbytes: int, failed: int, stats=None) -> dict:
    return {
        "ops": ops,
        "command_wall_s": command[0],
        "command_cpu_s": command[1],
        "pass_wall_s": whole[0],
        "pass_cpu_s": whole[1],
        "bytes": nbytes,
        "failed": failed,
        "stats": stats,
    }


# ---------------------------------------------------------------------------
# Monte Carlo session workloads
# ---------------------------------------------------------------------------

class SessionWorkload:
    """`<protocol> run` over a fixed batch, then `harness.replay_audit` on the
    transcripts read back from disk. One step per pass."""

    steps = ("run",)

    def __init__(self, protocol: str, n: int, w: int, prover: str, transport: str, batch: int, warmup: int):
        self.protocol = protocol
        self.n = n
        self.w = w
        self.prover = prover
        self.transport = transport
        self.batch = batch
        self.warmup = warmup
        config_cls = SelfTestConfig if protocol == "selftest" else DimTestConfig
        self.config = config_cls(N=n, entcf=entcf.EntcfParams.ideal(w))
        self.tracer = None
        self.sessions = 0
        self.rejections = 0
        self.hadamard_q1 = [0, 0]  # rejections, rounds

    def argv(self, sessions: int, seed: int, out: Path) -> list[str]:
        return [
            self.protocol, "run",
            "--n", str(self.n), "--w", str(self.w),
            "--prover", self.prover, "--transport", self.transport,
            "--sessions", str(sessions), "--seed", str(seed), "--out", str(out),
        ]

    def run_step(self, step: str, seed: int, out: Path, checks: Checks, sessions: int | None = None) -> dict:
        sessions = sessions or self.batch
        clock = Clock()
        try:
            rc = cli_main(self.argv(sessions, seed, out))
        except Exception as exc:  # every session of a batch that raised has failed
            rc = f"{type(exc).__name__}: {exc}"
        command = clock.read()
        if rc != 0:
            checks.expect(False, f"seed {seed}: run failed ({rc})")
            return _step(sessions, command, command, 0, sessions)
        with open(out / "transcripts.jsonl", "rb") as fh:
            transcripts = [json.loads(line) for line in fh]
        audit_ok = harness.replay_audit(transcripts, self.protocol, self.config, seed)
        whole = clock.read()
        stats = json.loads((out / "stats.json").read_bytes())
        checks.expect(audit_ok, f"seed {seed}: replay_audit did not reproduce the verdicts")
        checks.expect(stats["seed"] == seed, f"seed {seed}: stats.json records seed {stats['seed']}")
        checks.expect(stats["sessions"] == sessions, f"seed {seed}: {stats['sessions']} sessions")
        nbytes = sum(f.stat().st_size for f in out.iterdir())
        return _step(sessions, command, whole, nbytes, stats["reasons"].get("transport", 0), stats)

    def check_step(self, result: dict, checks: Checks) -> None:
        stats = result["stats"]
        if stats is None:
            return
        self.sessions += stats["sessions"]
        self.rejections += stats["sessions"] - stats["accepts"]
        for key, cell in stats["cells"].items():
            _, round_type, q = key.split("|")
            if round_type == "hadamard" and q == "1":
                self.hadamard_q1[0] += cell["sessions"] - cell["accepts"]
                self.hadamard_q1[1] += cell["sessions"]
        if self.prover == "honest":
            bad = [r for r in stats["reasons"] if r != "accept" and not r.endswith(".bot")]
            checks.expect(not bad, f"seed {stats['seed']}: honest prover rejected for {bad}")

    def check_run(self, checks: Checks) -> None:
        """Statistical checks over every session the run made."""
        if self.prover == "honest":
            acc = 1.0 - self.rejections / self.sessions
            sigma = math.sqrt(acc * (1.0 - acc) / self.sessions)
            floor = 1.0 - 2 * self.n * 2.0 ** (1 - self.w) - 3 * sigma
            checks.expect(acc >= floor, f"acceptance {acc:.4f} below {floor:.4f}")
        if self.prover == "classical":
            rejected, rounds = self.hadamard_q1
            target = self.n / (2 * (self.n + 1))
            # 0.02 plus the 3-sigma sampling error of `rounds` Bernoulli(target) draws
            tol = 0.02 + 3 * math.sqrt(target * (1 - target) / max(rounds, 1))
            eps = rejected / rounds if rounds else float("nan")
            checks.expect(
                abs(eps - target) <= tol,
                f"eps_H[1] = {eps:.4f} over {rounds} rounds, not within {tol:.4f} of {target:.4f}",
            )

    def warm_up(self, seed: int, out: Path) -> None:
        self.run_step("run", pass_seed(seed, 2**31), out, Checks(), sessions=self.warmup)

    def output_files(self) -> tuple[str, ...]:
        return ("stats.json", "transcripts.jsonl")


# ---------------------------------------------------------------------------
# White-box analysis workload
# ---------------------------------------------------------------------------

# selftest bitflip=0.1 at N=1 w=2 (dim 256) is left out: its one report takes
# about 30 s, so a run would hold one pass, and that pass's time moved by up to
# 35 % between runs on a shared machine
ANALYZE_MODELS = {
    "honest": ["--protocol", "selftest", "--n", "1", "--w", "2", "--model", "honest"],
    "dimhonest": ["--protocol", "dimtest", "--n", "1", "--w", "4", "--model", "honest"],
    "dimclassical": ["--protocol", "dimtest", "--n", "3", "--w", "2", "--model", "classical"],
}

# report sections compared with reference.json; certificate.v_min is left out
# because it names one of several tied minimisers, which depends on the seed
REFERENCE_SECTIONS = ("failures", "gammas", "soundness", "certificate")


def compare_reference(actual, expected, path: str, out: list[str]) -> None:
    """Append a line to `out` for every value of `expected` that `actual`
    misses or differs from by more than REFERENCE_TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            out.append(f"{path}: {actual!r} does not have the keys {sorted(expected)}")
            return
        for key in expected:
            compare_reference(actual[key], expected[key], f"{path}.{key}", out)
    elif isinstance(expected, bool) or isinstance(actual, bool):
        if actual is not expected:
            out.append(f"{path}: {actual} != {expected}")
    elif not isinstance(actual, (int, float)) or not abs(actual - expected) <= REFERENCE_TOL:
        out.append(f"{path}: {actual} != {expected}")


def reference_view(report: dict) -> dict:
    view = {key: report[key] for key in REFERENCE_SECTIONS if key in report}
    if "certificate" in view:
        view["certificate"] = {k: v for k, v in view["certificate"].items() if k != "v_min"}
    return view


class AnalyzeWorkload:
    """`analyze --report` for three device models; a pass runs all three, one
    step each."""

    steps = tuple(ANALYZE_MODELS)

    def __init__(self, reference_path: Path = REFERENCE):
        self.reference = json.loads(reference_path.read_text(encoding="utf-8"))
        self.tracer = None

    def argv(self, model: str, seed: int, out: Path) -> list[str]:
        return ["analyze", *ANALYZE_MODELS[model], "--seed", str(seed), "--report", str(out / f"{model}.json")]

    def run_step(self, model: str, seed: int, out: Path, checks: Checks) -> dict:
        if self.tracer is not None:
            self.tracer.context = model
        clock = Clock()
        try:
            rc = cli_main(self.argv(model, seed, out))
        except Exception as exc:  # a report that raised is a failed operation
            rc = f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = clock.read()
            if self.tracer is not None:
                self.tracer.context = None
        path = out / f"{model}.json"
        if not isinstance(rc, int) or not path.is_file():
            checks.expect(False, f"{model} seed {seed}: analyze failed ({rc})")
            return _step(1, elapsed, elapsed, 0, 1)
        report = json.loads(path.read_bytes())
        ok = rc == 0 and report["all_ok"]
        checks.expect(ok, f"{model} seed {seed}: all_ok false (exit {rc})")
        mismatches: list[str] = []
        compare_reference(reference_view(report), self.reference[model], model, mismatches)
        checks.failures.extend(f"seed {seed}: {line}" for line in mismatches)
        return _step(1, elapsed, elapsed, path.stat().st_size, 0 if ok else 1)

    def check_step(self, result: dict, checks: Checks) -> None:
        pass

    def check_run(self, checks: Checks) -> None:
        pass

    def warm_up(self, seed: int, out: Path) -> None:
        self.run_step("dimclassical", pass_seed(seed, 2**31), out, Checks())

    def output_files(self) -> tuple[str, ...]:
        return tuple(f"{model}.json" for model in ANALYZE_MODELS)


def make_workload(name: str, smoke: bool):
    if name == "mc-honest":
        return SessionWorkload("selftest", 2, 4, "honest", "inproc", batch=40 if smoke else 1000, warmup=5 if smoke else 50)
    if name == "mc-wire":
        return SessionWorkload("dimtest", 4, 8, "classical", "tcp", batch=10 if smoke else 200, warmup=3 if smoke else 10)
    if name == "analyze":
        return AnalyzeWorkload()
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_pass(workload, seed: int, out: Path, checks: Checks, probes: list[float] | None = None) -> list[dict]:
    """Every step of one pass. With `probes`, a speed probe follows each step
    and the step's CPU times are scaled to reference seconds by the probes
    either side of it."""
    results = []
    for step in workload.steps:
        result = workload.run_step(step, seed, out, checks)
        workload.check_step(result, checks)
        if probes is not None:
            probes.append(calibrate.probe_s())
            factor = calibrate.scale(probes[-2], probes[-1])
            result["command_ref_s"] = result["command_cpu_s"] * factor
            result["pass_ref_s"] = result["pass_cpu_s"] * factor
        results.append(result)
    return results


def measure(workload, seed: int, seconds: float, scratch: Path, checks: Checks) -> tuple[dict, int, int, dict]:
    """Untraced passes until `seconds` of wall time have gone by (at least one)."""
    steps: list[dict] = []
    passes = 0
    calibrate.probe_s()  # the first call pays numpy's one-time set-up
    probes = [calibrate.probe_s()]
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        out = scratch / f"pass{passes}"
        out.mkdir()
        steps += run_pass(workload, pass_seed(seed, passes), out, checks, probes)
        shutil.rmtree(out)
        passes += 1
    workload.check_run(checks)
    ops = sum(s["ops"] for s in steps)
    metrics = {
        "ops_per_s": _metric(ops / sum(s["command_ref_s"] for s in steps), "1/s"),
        "pass_s": _metric(sum(s["pass_ref_s"] for s in steps) / passes, "s"),
        "output_bytes_per_op": _metric(sum(s["bytes"] for s in steps) / ops, "B"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    raw = {
        "passes": passes,
        "ops_per_wall_s": ops / sum(s["command_wall_s"] for s in steps),
        "ops_per_cpu_s": ops / sum(s["command_cpu_s"] for s in steps),
        "pass_wall_s": sum(s["pass_wall_s"] for s in steps) / passes,
        "probe_s": probes,
    }
    return metrics, ops, sum(s["failed"] for s in steps), raw


def measure_traced(workload, seed: int, seconds: float, scratch: Path, checks: Checks, spans_path: Path):
    """Pairs of (untraced, traced) passes on one seed each; the pair's output
    files must be byte-identical. Per-layer figures come from the spans of
    the traced passes; the overhead compares the pairs' wall times."""
    import tracer as tracing

    tracer = tracing.Tracer()
    untraced_s = traced_s = 0.0
    ops = failed = passes = 0
    start = time.perf_counter()
    while passes == 0 or (passes < MAX_TRACED_PASSES and time.perf_counter() - start < seconds):
        seed_k = pass_seed(seed, passes)
        plain_out = scratch / f"plain{passes}"
        traced_out = scratch / f"traced{passes}"
        plain_out.mkdir()
        traced_out.mkdir()
        plain = run_pass(workload, seed_k, plain_out, checks)
        workload.tracer = tracer
        tracer.install()
        try:
            traced = run_pass(workload, seed_k, traced_out, checks)
        finally:
            tracer.uninstall()
            workload.tracer = None
        for name in workload.output_files():
            checks.expect(
                (plain_out / name).read_bytes() == (traced_out / name).read_bytes(),
                f"seed {seed_k}: traced and untraced {name} differ",
            )
        shutil.rmtree(plain_out)
        shutil.rmtree(traced_out)
        untraced_s += sum(s["pass_wall_s"] for s in plain)
        traced_s += sum(s["pass_wall_s"] for s in traced)
        ops += sum(s["ops"] for s in traced)
        failed += sum(s["failed"] for s in plain + traced)
        passes += 1
    workload.check_run(checks)
    tracer.write_spans(spans_path)
    values = tracing.layer_metrics(tracer, ops, passes, traced_s, untraced_s)
    metrics = {name: _metric(values[name], unit) for name, unit in tracing.metric_units().items()}
    raw = {"passes": passes, "traced_wall_s": traced_s, "untraced_wall_s": untraced_s, "spans": len(tracer.spans)}
    return metrics, 2 * ops, failed, raw


def environment() -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    os.environ.pop("SELFTEST_SEED", None)  # it would override every --seed
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"tmp-{os.getpid()}"
    scratch.mkdir()
    try:
        workload = make_workload(args.workload, args.smoke)
        warm = scratch / "warmup"
        warm.mkdir()
        workload.warm_up(args.seed, warm)
        print(f"ready {time.process_time()!r}", flush=True)
        if args.setup_only:
            return 0
        checks = Checks()
        if args.trace:
            spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
            metrics, attempted, failed, raw = measure_traced(workload, args.seed, args.seconds, scratch, checks, spans)
        else:
            metrics, attempted, failed, raw = measure(workload, args.seed, args.seconds, scratch, checks)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    result = {
        "correct": not checks.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "check_failures": checks.failures,
        "raw": raw,
        "env": environment(),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
