"""Session orchestration, Monte Carlo statistics, and transcript persistence.

run_sessions drives verifier/prover pairs over the in-process or TCP
transport, records one JSON-able transcript per session (logical timestamps,
full message sequence, revealed theta and decodings), and aggregates
acceptance statistics stratified by (theta class, round type, question) with
Wilson confidence intervals and, for the self-test, the derived gamma upper
bounds.

Everything is deterministic in (seed, config): per-session RNG streams come
from numpy SeedSequence spawning, independent of transport and parallelism.
"""
from __future__ import annotations

import json
import socket
import threading
from dataclasses import dataclass, field

import numpy as np

from . import protocol, transport
from .errors import ParameterError, TransportError
from .prover import make_prover

Z_95 = 1.959963984540054


def wilson_interval(successes: int, trials: int, z: float = Z_95) -> tuple[float, float]:
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class SessionResult:
    index: int
    theta: object
    theta_cls: str
    round_type: str | None
    q: int | None
    accept: int
    reason: str
    transcript: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Single-session drive loop
# ---------------------------------------------------------------------------

def _prover_loop(channel, prover, timeout: float | None = None) -> None:
    """Serve one session: answer until a verdict arrives."""
    while True:
        msg, _ = channel.recv(timeout)
        reply = prover.handle(msg)
        if reply is None:
            return
        channel.send(reply)


def run_one_session(
    index: int,
    protocol_kind: str,
    config,
    prover_spec: str,
    verifier_rng: np.random.Generator,
    prover_rng: np.random.Generator,
    session_rng: np.random.Generator,
    tcp_port: int | None = None,
    timeout: float = 10.0,
) -> SessionResult:
    codec = transport.Codec(config.entcf)
    session_id = transport.session_id_from_rng(session_rng)
    verifier = protocol.make_verifier(protocol_kind, config, verifier_rng)
    prover = make_prover(prover_spec, protocol_kind, prover_rng)

    prover_error: list[Exception] = []
    if tcp_port is None:
        v_chan, p_chan = transport.InProcChannel.pair(codec, session_id)
        server = None
    else:
        listener = socket.create_server(("127.0.0.1", tcp_port))
        port = listener.getsockname()[1]

        def _serve():
            conn, _ = listener.accept()
            chan = transport.TcpChannel(codec, session_id, conn)
            try:
                _prover_loop(chan, prover, timeout)
            except TransportError:
                pass
            except Exception as exc:  # re-raised below, as in process
                prover_error.append(exc)
            finally:
                chan.close()

        server = threading.Thread(target=_serve, daemon=True)
        server.start()
        sock = socket.create_connection(("127.0.0.1", port), timeout=timeout)
        v_chan = transport.TcpChannel(codec, session_id, sock)
        p_chan = None

    messages = []

    def record(direction: str, msg, payload: dict) -> None:
        messages.append(
            {"t": len(messages), "dir": direction, "type": type(msg).__name__, "payload": payload}
        )

    verdict = None
    try:
        outgoing = verifier.step(None)
        while True:
            record("v->p", outgoing, v_chan.send(outgoing))
            if isinstance(outgoing, protocol.Verdict):
                break
            if tcp_port is None:
                msg, _ = p_chan.recv()
                reply = prover.handle(msg)
                if reply is not None:
                    p_chan.send(reply)
            incoming, payload = v_chan.recv(timeout)
            record("p->v", incoming, payload)
            outgoing = verifier.step(incoming)
        verdict = verifier.verdict
        if tcp_port is None:
            prover.handle(p_chan.recv()[0])
    except TransportError:
        verdict = protocol.Verdict(accept=0, reason="transport")
    finally:
        v_chan.close()
        if tcp_port is not None:
            if server is not None:
                server.join(timeout=timeout)
            listener.close()
    # a prover that raised over TCP aborts the batch as it does in process;
    # its closed socket ended the session above without waiting for a timeout
    if prover_error:
        raise prover_error[0]

    cls = protocol.theta_class(protocol_kind, verifier.theta, config.N)
    transcript = {
        "session": session_id.hex(),
        "index": index,
        "protocol": protocol_kind,
        "prover": prover_spec,
        "theta": str(verifier.theta),
        "theta_class": cls,
        "round_type": verifier.round_type,
        "q": verifier.q,
        "bhat": [b for b in verifier.bhat],
        "hhat": [h for h in verifier.hhat],
        "accept": verdict.accept,
        "reason": verdict.reason,
        "messages": messages,
    }
    return SessionResult(
        index=index,
        theta=verifier.theta,
        theta_cls=cls,
        round_type=verifier.round_type,
        q=verifier.q,
        accept=verdict.accept,
        reason=verdict.reason,
        transcript=transcript,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def session_stats(results: list[SessionResult], protocol_kind: str, n: int) -> dict:
    total = len(results)
    cells: dict = {}
    for r in results:
        key = (r.theta_cls, r.round_type or "aborted", "-" if r.q is None else str(r.q))
        cell = cells.setdefault(key, {"sessions": 0, "accepts": 0})
        cell["sessions"] += 1
        cell["accepts"] += r.accept

    def rate(pred) -> tuple[int, int]:
        sel = [r for r in results if pred(r)]
        return sum(1 - r.accept for r in sel), len(sel)

    pre_rej, pre_n = rate(lambda r: r.round_type == protocol.PREIMAGE)
    eps_p = pre_rej / pre_n if pre_n else 0.0
    questions = protocol.questions(protocol_kind)
    eps_h = {}
    eps_h_ci = {}
    for q in questions:
        rej, nq = rate(lambda r, q=q: r.round_type == protocol.HADAMARD and r.q == q)
        eps_h[q] = rej / nq if nq else 0.0
        lo, hi = wilson_interval(rej, nq)
        eps_h_ci[q] = [lo, hi]
    eps = protocol.eps(eps_p, eps_h)
    accepts = sum(r.accept for r in results)
    acc_lo, acc_hi = wilson_interval(accepts, total)
    ep_lo, ep_hi = wilson_interval(pre_rej, pre_n)
    reasons: dict = {}
    for r in results:
        reasons[r.reason] = reasons.get(r.reason, 0) + 1
    stats = {
        "version": 1,
        "protocol": protocol_kind,
        "N": n,
        "sessions": total,
        "accepts": accepts,
        "acceptance_rate": accepts / total if total else 0.0,
        "acceptance_ci95": [acc_lo, acc_hi],
        "eps_P": eps_p,
        "eps_P_ci95": [ep_lo, ep_hi],
        "eps_H": {str(q): eps_h[q] for q in questions},
        "eps_H_ci95": {str(q): eps_h_ci[q] for q in questions},
        "eps": eps,
        "cells": {
            "|".join(key): cell for key, cell in sorted(cells.items())
        },
        "reasons": dict(sorted(reasons.items())),
    }
    if protocol_kind == "selftest":
        # the paper's gamma bounds are self-test quantities (m = 2N+2 thetas)
        m = 2 * n + 2
        stats["gamma_bounds"] = {
            "gamma_P": m * eps_p,
            "gamma_T0": m * eps_h[0],
            "gamma_T1": m * eps_h[1],
            "gamma_T": 8 * m * eps,
            "gamma_diamond": 8 * m * eps,
        }
    return stats


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def session_streams(seed: int, sessions: int):
    """Deterministic (verifier, prover, session-id) RNG triples per session."""
    children = np.random.SeedSequence(seed).spawn(sessions)
    for child in children:
        v_ss, p_ss, s_ss = child.spawn(3)
        yield (
            np.random.default_rng(v_ss),
            np.random.default_rng(p_ss),
            np.random.default_rng(s_ss),
        )


def run_sessions(
    protocol_kind: str,
    prover_spec: str,
    config,
    sessions: int,
    seed: int,
    transport_spec: str = "inproc",
    out_dir=None,
) -> tuple[dict, list[dict]]:
    """Run the batch; returns (stats, transcripts) and writes stats.json and
    transcripts.jsonl to out_dir when given."""
    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    tcp_port: int | None = None
    if transport_spec == "tcp":
        tcp_port = 0
    elif transport_spec.startswith("tcp:"):
        port = transport_spec.split(":", 1)[1]
        if not (port.isdecimal() and int(port) < 2**16):
            raise ParameterError(f"bad TCP port in {transport_spec!r}")
        tcp_port = int(port)
    elif transport_spec != "inproc":
        raise ParameterError(f"unknown transport {transport_spec!r}")
    results = []
    for index, (v_rng, p_rng, s_rng) in enumerate(session_streams(seed, sessions)):
        results.append(
            run_one_session(
                index,
                protocol_kind,
                config,
                prover_spec,
                v_rng,
                p_rng,
                s_rng,
                tcp_port=tcp_port,
            )
        )
    stats = session_stats(results, protocol_kind, config.N)
    stats["seed"] = seed
    stats["prover"] = prover_spec
    transcripts = [r.transcript for r in results]
    if out_dir is not None:
        import pathlib

        out = pathlib.Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "stats.json").write_bytes(
            json.dumps(stats, sort_keys=True, indent=2).encode("utf-8") + b"\n"
        )
        with open(out / "transcripts.jsonl", "wb") as fh:
            for t in transcripts:
                fh.write(json.dumps(t, sort_keys=True, separators=(",", ":")).encode("utf-8"))
                fh.write(b"\n")
    return stats, transcripts


# ---------------------------------------------------------------------------
# Replay audit
# ---------------------------------------------------------------------------

_MESSAGE_CLASSES = {cls.__name__: cls for cls in protocol.MESSAGE_TYPES}


def replay_audit(
    transcripts: list[dict], protocol_kind: str, config, seed: int
) -> bool:
    """Re-drive every persisted session through a fresh verifier with the
    same RNG stream. Each recorded verifier message must be the one the
    verifier sends at that point (type and payload), the messages must
    alternate as the protocol runs, the session id must come from the
    session's stream, and the recorded verdict must be reproduced. Sessions
    that ended in a transport failure are skipped."""
    codec = transport.Codec(config.entcf)
    streams = list(session_streams(seed, len(transcripts)))
    for record in transcripts:
        if record["reason"] == "transport":
            continue
        v_rng, _, s_rng = streams[record["index"]]
        if record["session"] != transport.session_id_from_rng(s_rng).hex():
            return False
        verifier = protocol.make_verifier(protocol_kind, config, v_rng)
        try:
            replayed = _replay(verifier, record["messages"], codec)
        except TransportError:  # a recorded payload that does not decode
            return False
        if not replayed or verifier.verdict != protocol.Verdict(
            accept=record["accept"], reason=record["reason"]
        ):
            return False
    return True


def _replay(verifier, messages: list[dict], codec: transport.Codec) -> bool:
    """Feed the recorded prover messages to verifier; False as soon as a
    recorded verifier message differs from the one it sends."""
    pending = verifier.step(None)
    for entry in messages:
        if entry["dir"] == "v->p":
            if (
                pending is None
                or entry["type"] != type(pending).__name__
                or entry["payload"] != codec.to_payload(pending)
            ):
                return False
            pending = None
        elif entry["dir"] == "p->v" and pending is None and verifier.verdict is None:
            cls = _MESSAGE_CLASSES.get(entry["type"])
            if cls is None:
                return False
            pending = verifier.step(codec.from_payload(cls, entry["payload"]))
        else:
            return False
    return pending is None
