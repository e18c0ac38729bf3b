"""Spans around calls into the selftestsim modules, installed from outside.

`Tracer.install()` replaces the public functions and methods listed by
`_targets()` with wrappers that record one span per call: (id, name, start,
end, parent id, context, thread). The context is the session index while
`harness.run_one_session` runs, or the model tag the benchmark sets before an
`analyze` command. Spans stay in memory until `write_spans`. `uninstall()`
puts the original attributes back, so untraced passes in the same process run
the program unchanged. The wrappers draw no randomness and change no argument
or result; the benchmark checks this by comparing traced and untraced output
bytes.

`layer_metrics` turns the spans into the per-layer metrics of BENCHMARK.json.
A metric named after a set of functions sums the inclusive time of the
outermost calls into that set (a call nested inside another call of the same
set counts once); `protocol.verifier_init_us`, `harness.persist_us`,
`transport.tcp_send_us` and `transport.tcp_recv_wait_us` use self time, the
span's duration minus its children on the same thread.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict

from selftestsim import analysis, cli, entcf, harness, protocol, prover, qsim, transport

LAYERS = ("entcf", "qsim", "protocol", "prover", "transport", "harness", "analysis", "cli")

MODELS = ("honest", "dimhonest", "dimclassical")

_PROVER_HOOKS = ("on_keys", "on_preimage", "on_hadamard", "on_question")


def _targets():
    """(owner, attribute) for every wrapped call; span name is layer.qualname."""
    out = [
        (cli, "main"),
        (harness, "run_sessions"),
        (harness, "run_one_session"),
        (harness, "session_streams"),
        (harness, "session_stats"),
        (harness, "replay_audit"),
        (protocol.SelfTestVerifier, "__init__"),
        (protocol.DimTestVerifier, "__init__"),
        (protocol._VerifierBase, "step"),
        (protocol, "selftest_verdict"),
        (protocol, "dimtest_verdict"),
        (entcf, "gen_keypair"),
        (entcf, "decode_b"),
        (entcf, "decode_x"),
        (entcf, "decode_h"),
        (entcf, "chk"),
        (entcf, "preimages"),
        (entcf, "forward_sample"),
        (qsim.StateVector, "measure"),
        (qsim, "controlled_z"),
        (qsim, "trace_norm"),
        (qsim, "sqrtm_psd"),
        (qsim, "partial_trace"),
        (prover, "measure_pair"),
        (transport.Codec, "encode_frame"),
        (transport.Codec, "decode_frame"),
        (transport.Codec, "to_payload"),
        (transport.Codec, "from_payload"),
        (transport.TcpChannel, "__init__"),
        (transport.TcpChannel, "send"),
        (transport.TcpChannel, "recv"),
        (analysis, "build_honest_model"),
        (analysis, "build_classical_model"),
        (analysis, "failure_report"),
        (analysis, "gamma_report"),
        (analysis, "zeta_chi_sums"),
        (analysis, "sigma_residual"),
        (analysis, "soundness_distance"),
        (analysis, "swap_identity_checks"),
        (analysis, "dimension_certificate"),
        (analysis, "analysis_report"),
    ]
    for cls in _prover_classes():
        out.extend((cls, hook) for hook in _PROVER_HOOKS if hook in vars(cls))
    return out


def _prover_classes() -> list:
    return [c for c in vars(prover).values() if isinstance(c, type) and c.__module__ == prover.__name__]


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _prover_hook(hook: str) -> set:
    return {_span_name(cls, hook) for cls in _prover_classes() if hook in vars(cls)}


_DECODE = {"entcf.decode_b", "entcf.decode_x", "entcf.decode_h"}
_VERIFIER_INIT = {"protocol.SelfTestVerifier.__init__", "protocol.DimTestVerifier.__init__"}
_ENCODE = {"transport.Codec.encode_frame", "transport.Codec.to_payload"}
_DECODE_FRAME = {"transport.Codec.decode_frame", "transport.Codec.from_payload"}
_BUILD = {"analysis.build_honest_model", "analysis.build_classical_model"}

# metric -> (kind, span names); kind is "calls", "time" (inclusive) or "self".
SESSION_METRICS = {
    "entcf.keygen_calls": ("calls", {"entcf.gen_keypair"}),
    "entcf.keygen_us": ("time", {"entcf.gen_keypair"}),
    "entcf.decode_us": ("time", _DECODE),
    "entcf.chk_us": ("time", {"entcf.chk"}),
    "entcf.preimages_us": ("time", {"entcf.preimages"}),
    "entcf.forward_sample_us": ("time", {"entcf.forward_sample"}),
    "qsim.measure_calls": ("calls", {"qsim.StateVector.measure"}),
    "qsim.measure_us": ("time", {"qsim.StateVector.measure"}),
    "qsim.controlled_z_us": ("time", {"qsim.controlled_z"}),
    "qsim.trace_norm_us": ("time", {"qsim.trace_norm"}),
    "qsim.sqrtm_psd_us": ("time", {"qsim.sqrtm_psd"}),
    "qsim.partial_trace_us": ("time", {"qsim.partial_trace"}),
    "prover.keys_us": ("time", _prover_hook("on_keys")),
    "prover.hadamard_us": ("time", _prover_hook("on_hadamard")),
    "prover.answer_us": ("time", _prover_hook("on_question")),
    "prover.measure_pair_calls": ("calls", {"prover.measure_pair"}),
    "prover.measure_pair_us": ("time", {"prover.measure_pair"}),
    "protocol.verifier_init_us": ("self", _VERIFIER_INIT),
    "protocol.step_calls": ("calls", {"protocol._VerifierBase.step"}),
    "protocol.step_us": ("time", {"protocol._VerifierBase.step"}),
    "protocol.verdict_us": ("time", {"protocol.selftest_verdict", "protocol.dimtest_verdict"}),
    "transport.payload_calls": ("calls", {"transport.Codec.to_payload"}),
    "transport.encode_us": ("time", _ENCODE),
    "transport.decode_us": ("time", _DECODE_FRAME),
    "transport.tcp_send_us": ("self", {"transport.TcpChannel.send"}),
    "transport.tcp_recv_wait_us": ("self", {"transport.TcpChannel.recv"}),
    "harness.streams_us": ("time", {"harness.session_streams"}),
    "harness.stats_us": ("time", {"harness.session_stats"}),
    "harness.persist_us": ("self", {"harness.run_sessions"}),
    "harness.audit_us": ("time", {"harness.replay_audit"}),
}

# per-model analysis metric suffix -> span names (inclusive seconds per report)
ANALYSIS_METRICS = {
    "build_s": _BUILD,
    "failure_report_s": {"analysis.failure_report"},
    "gamma_report_s": {"analysis.gamma_report"},
    "zeta_chi_s": {"analysis.zeta_chi_sums"},
    "sigma_residual_s": {"analysis.sigma_residual"},
    "soundness_s": {"analysis.soundness_distance"},
    "swap_s": {"analysis.swap_identity_checks"},
    "certificate_s": {"analysis.dimension_certificate"},
}

COUNTERS = ("transport.frames", "transport.frame_bytes", "transport.keys_frame_bytes")


def metric_units() -> dict:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name, (kind, _) in SESSION_METRICS.items():
        units[name] = "count" if kind == "calls" else "us"
    units["transport.frames"] = "count"
    units["transport.frame_bytes"] = "B"
    units["transport.keys_frame_bytes"] = "B"
    units["transport.connections"] = "count"
    units["harness.session_p50_us"] = "us"
    units["harness.session_p99_us"] = "us"
    for model in MODELS:
        for suffix in ANALYSIS_METRICS:
            units[f"analysis.{model}.{suffix}"] = "s"
        units[f"analysis.{model}.dim"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_us"] = "us"
    units["trace.wall_us"] = "us"
    units["trace.uncovered_us"] = "us"
    units["trace.other_threads_us"] = "us"
    units["trace.overhead_pct"] = "%"
    return units


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict = defaultdict(int)
        self.dims: dict = {}
        self.context = None
        self.main_thread = threading.get_ident()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: list[tuple] = []

    # -- recording -------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, name, start, end, parent, self.context, threading.get_ident())
            )

    def _count(self, key: str, amount: int) -> None:
        with self._lock:
            self.counters[key] += amount

    def _wrapper(self, owner, attr: str, fn):
        name = _span_name(owner, attr)
        tracer = self

        if owner is harness and attr == "session_streams":
            @functools.wraps(fn)
            def streams(*args, **kwargs):
                items = fn(*args, **kwargs)
                while True:
                    try:
                        item = tracer._call(name, next, (items,), {})
                    except StopIteration:
                        return
                    yield item

            return streams

        if owner is harness and attr == "run_one_session":
            @functools.wraps(fn)
            def session(index, *args, **kwargs):
                tracer.context = index
                try:
                    return tracer._call(name, fn, (index, *args), kwargs)
                finally:
                    tracer.context = None

            return session

        if owner is transport.Codec and attr == "encode_frame":
            @functools.wraps(fn)
            def encode_frame(codec, session_id, msg):
                frame = tracer._call(name, fn, (codec, session_id, msg), {})
                tracer._count("transport.frames", 1)
                tracer._count("transport.frame_bytes", len(frame))
                if isinstance(msg, protocol.Keys):
                    tracer._count("transport.keys_frame_bytes", len(frame))
                return frame

            return encode_frame

        if owner is analysis and attr == "analysis_report":
            @functools.wraps(fn)
            def report(model, *args, **kwargs):
                tracer.dims[tracer.context] = model.dim
                return tracer._call(name, fn, (model, *args), kwargs)

            return report

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, fn, args, kwargs)

        return wrapper

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr in _targets():
            fn = vars(owner)[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrapper(owner, attr, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write_spans(self, path) -> None:
        """One JSON object per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, context, thread in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "context": context,
                            "thread": "main" if thread == self.main_thread else thread,
                        }
                    )
                    + "\n"
                )


def _outermost_time(by_name, by_id, names: set, context=None) -> float:
    total = 0.0
    for span in itertools.chain.from_iterable(by_name[name] for name in names):
        if context is not None and span[5] != context:
            continue
        parent = span[4]
        while parent != -1 and by_id[parent][1] not in names:
            parent = by_id[parent][4]
        if parent == -1:
            total += span[3] - span[2]
    return total


def layer_metrics(tracer: Tracer, ops: int, passes: int, wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer metrics: per op (session or report) for `_us` and counts,
    per report for `analysis.<model>.*_s`; `wall_s` is the traced wall time
    the spans fall in, `untraced_wall_s` the same work untraced."""
    spans = tracer.spans
    by_id = {span[0]: span for span in spans}
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)
    child_time = defaultdict(float)
    for span in spans:
        if span[4] != -1:
            child_time[span[4]] += span[3] - span[2]
    self_time = {span[0]: span[3] - span[2] - child_time[span[0]] for span in spans}
    per_op = 1e6 / max(ops, 1)

    out = {}
    for metric, (kind, names) in SESSION_METRICS.items():
        matching = [span for name in names for span in by_name[name]]
        if kind == "calls":
            out[metric] = len(matching) / max(ops, 1)
        elif kind == "self":
            out[metric] = sum(self_time[span[0]] for span in matching) * per_op
        else:
            out[metric] = _outermost_time(by_name, by_id, names) * per_op
    for key in COUNTERS:
        out[key] = tracer.counters[key] / max(ops, 1)
    channels = len(by_name["transport.TcpChannel.__init__"])
    # each loopback connection has two TcpChannel endpoints
    out["transport.connections"] = channels / 2 / max(ops, 1)

    sessions = sorted(span[3] - span[2] for span in by_name["harness.run_one_session"])
    if len(sessions) >= 2:
        cuts = statistics.quantiles(sessions, n=100, method="inclusive")
        out["harness.session_p50_us"] = cuts[49] * 1e6
        out["harness.session_p99_us"] = cuts[98] * 1e6
    else:
        out["harness.session_p50_us"] = sessions[0] * 1e6 if sessions else 0.0
        out["harness.session_p99_us"] = out["harness.session_p50_us"]

    for model in MODELS:
        for suffix, names in ANALYSIS_METRICS.items():
            seconds = _outermost_time(by_name, by_id, names, context=model)
            out[f"analysis.{model}.{suffix}"] = seconds / max(passes, 1)
        out[f"analysis.{model}.dim"] = tracer.dims.get(model, 0)

    layer_self = dict.fromkeys(LAYERS, 0.0)
    main_roots = other_threads = 0.0
    for span in spans:
        layer_self[span[1].split(".", 1)[0]] += self_time[span[0]]
        if span[4] == -1:
            if span[6] == tracer.main_thread:
                main_roots += span[3] - span[2]
            else:
                other_threads += span[3] - span[2]
    for layer in LAYERS:
        out[f"{layer}.self_us"] = layer_self[layer] * per_op
    # sum(layer self) - other_threads + uncovered == wall
    out["trace.wall_us"] = wall_s * per_op
    out["trace.uncovered_us"] = (wall_s - main_roots) * per_op
    out["trace.other_threads_us"] = other_threads * per_op
    out["trace.overhead_pct"] = (wall_s - untraced_wall_s) / untraced_wall_s * 100.0
    return out
