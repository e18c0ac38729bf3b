"""Command-line surface.

Subcommands: `selftest run` and `dimtest run` (Monte Carlo sessions),
`analyze` (white-box model analysis report), and `entcf-check` (exhaustive
function-family property suite). Exit codes: 0 success, 1 assertion or check
failure, 2 usage error. SELFTEST_SEED overrides --seed.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import entcf, harness
from .errors import ParameterError, SelfTestError
from .protocol import CONFIGS, KINDS
from .prover import HONEST_FAMILY, parse_device_spec


def _entcf_params(backend: str, w: int) -> entcf.EntcfParams:
    if backend == "ideal":
        return entcf.EntcfParams.ideal(w)
    if w < 4:
        # at n=1, m=3, B=1, w <= 2 leaves 2*B*m >= q, and no A in Z_8^3 passes both G keygen margins
        raise ParameterError(f"--backend toylwe needs --w >= 4, got --w {w}")
    return entcf.EntcfParams.toylwe(n=1, m=3, q=2**w, B=1)


def _add_run_flags(sub):
    sub.add_argument("--n", type=int, default=2)
    sub.add_argument("--w", type=int, default=4)
    sub.add_argument("--backend", choices=("ideal", "toylwe"), default="ideal")
    sub.add_argument("--prover", default="honest")
    sub.add_argument("--sessions", type=int, default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--transport", default="inproc")
    sub.add_argument("--out", default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args leaves it unchanged
    and gives each call a fresh namespace of its command's defaults."""
    parser = argparse.ArgumentParser(prog="selftestsim")
    subs = parser.add_subparsers(dest="command", required=True)

    for kind in KINDS:
        sub = subs.add_parser(kind)
        actions = sub.add_subparsers(dest="action", required=True)
        run = actions.add_parser("run")
        _add_run_flags(run)

    an = subs.add_parser("analyze")
    an.add_argument("--n", type=int, default=1)
    an.add_argument("--w", type=int, default=2)
    an.add_argument("--model", default="honest")
    an.add_argument("--protocol", choices=KINDS, default="selftest")
    an.add_argument("--seed", type=int, default=0)
    an.add_argument("--report", default=None)

    ek = subs.add_parser("entcf-check")
    ek.add_argument("--backend", choices=("ideal", "toylwe"), default="ideal")
    ek.add_argument("--w", type=int, default=3)
    ek.add_argument("--seed", type=int, default=0)
    ek.add_argument("--keys", type=int, default=8)
    return parser


def _seed(args) -> int:
    """SELFTEST_SEED if it is set, else --seed: a non-negative integer."""
    text = os.environ.get("SELFTEST_SEED", str(args.seed))
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise ParameterError(f"the seed must be a non-negative integer, got {text!r}")
    return seed


def _run_command(args) -> int:
    seed = _seed(args)
    config = CONFIGS[args.command](N=args.n, entcf=_entcf_params(args.backend, args.w))
    stats, _ = harness.run_sessions(
        args.command,
        args.prover,
        config,
        sessions=args.sessions,
        seed=seed,
        transport_spec=args.transport,
        out_dir=args.out,
    )
    print(json.dumps(stats, sort_keys=True, indent=2))
    return 0


def _build_model(args, rng: np.random.Generator):
    from . import analysis  # loaded on the analyze path only
    device = parse_device_spec(args.model)
    config = CONFIGS[args.protocol](N=args.n, entcf=entcf.EntcfParams.ideal(args.w))
    if args.protocol == "dimtest" and device.name not in ("honest", "classical"):
        raise ParameterError(f"unknown dimension-test model {args.model!r}")
    if args.protocol == "dimtest" and device.name == "classical":
        return analysis.build_classical_model(config, rng)
    if device.name == "random":
        return analysis.build_random_model(config, rng)
    if device.name not in HONEST_FAMILY:
        raise ParameterError(f"unknown model {args.model!r}")
    if device.flip is not None:
        analysis.check_bitflip(args.protocol, args.n)
    return analysis.build_device_model(analysis.build_honest_model(config, args.protocol, rng), device)


def _analyze_command(args) -> int:
    if args.w < 2:
        # a claw coordinate's d-measurement needs a nonzero even-parity d
        print("error: analyze needs --w >= 2", file=sys.stderr)
        return 2
    if args.report:
        folder = os.path.dirname(args.report) or "."
        if os.path.isdir(args.report) or not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise ParameterError(f"cannot write the report to {args.report!r}")
    from . import analysis
    rng = np.random.default_rng(_seed(args))
    model = _build_model(args, rng)
    report = analysis.analysis_report(model, rng)
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if report["all_ok"] else 1


def entcf_property_suite(backend: str, w: int, seed: int, n_keys: int) -> list[str]:
    """Exhaustive family checks; returns a list of failure descriptions."""
    failures = []
    rng = np.random.default_rng(seed)
    params = _entcf_params(backend, w)
    entcf.check_scan(params, "entcf-check")  # it visits every x, and every d at each x
    size_x = 2**params.w
    ds = np.arange(size_x)

    def image_range(key, b: int) -> frozenset:
        return frozenset().union(*(entcf.support(key, b, x) for x in range(size_x)))

    for trial in range(n_keys):
        f_key, f_trap = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
        g_key, g_trap = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
        if image_range(f_key, 0) != image_range(f_key, 1):
            failures.append(f"trial {trial}: F range mismatch")
        if image_range(g_key, 0) & image_range(g_key, 1):
            failures.append(f"trial {trial}: G ranges intersect")
        for x in range(size_x):
            x1 = entcf.claw_partner(f_trap, x)
            if entcf.support(f_key, 0, x) != entcf.support(f_key, 1, x1):
                failures.append(f"trial {trial}: claw mismatch at x={x}")
            for key in (f_key, g_key):
                for b in (0, 1):
                    for y in entcf.support(key, b, x):
                        if entcf.chk((key,), (y,), (b,), (x,)) != 0:
                            failures.append(f"trial {trial}: chk rejects a support member")
                        if (b, x) not in entcf.preimages(key, y):
                            failures.append(f"trial {trial}: preimage scan misses (b, x)")
            for b in (0, 1):
                for y in entcf.support(g_key, b, x):
                    if entcf.decode_b(g_trap, y) != b:
                        failures.append(f"trial {trial}: decode_b inversion failure")
                    if entcf.decode_x(b, g_trap, y) != x:
                        failures.append(f"trial {trial}: decode_x inversion failure (G)")
            for y in entcf.support(f_key, 0, x):
                if entcf.decode_x(0, f_trap, y) != x:
                    failures.append(f"trial {trial}: decode_x inversion failure (F)")
                if entcf.decode_x(1, f_trap, y) != x1:
                    failures.append(f"trial {trial}: claw-side decode mismatch")
                # y decoded once at every d; an ideal image goes as an array of y's
                hs = entcf.decode_h(f_trap, np.full(size_x, y) if params.backend == "ideal" else y, ds)
                failures += [f"trial {trial}: h-hat equation mismatch"] * np.count_nonzero(
                    hs[1:] != entcf.parity(ds[1:] & (x ^ x1))
                )
                if hs[0] != entcf.UNDECODED:
                    failures.append(f"trial {trial}: h-hat defined at d=0")
    return failures


def _entcf_check_command(args) -> int:
    if args.keys < 1:
        raise ParameterError(f"--keys must be >= 1, got {args.keys}")
    failures = entcf_property_suite(args.backend, args.w, _seed(args), args.keys)
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        return 1
    print(f"entcf-check: OK ({args.backend}, w={args.w}, {args.keys} key pairs)")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command in KINDS:
            return _run_command(args)
        if args.command == "analyze":
            return _analyze_command(args)
        return _entcf_check_command(args)
    except (SelfTestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
