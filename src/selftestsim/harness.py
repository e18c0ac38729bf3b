"""Session orchestration, Monte Carlo statistics, and transcript persistence.

run_sessions drives verifier/prover pairs with one send/recv/step loop over
either transport (an in-process payload link, or one loopback TCP connection
per run that serves the sessions in order), records one JSON-able transcript
per session (logical timestamps, full message sequence, revealed theta and
decodings), and aggregates acceptance statistics stratified by (theta class,
round type, question) with Wilson confidence intervals and, for the
self-test, the derived gamma upper bounds.

Everything is deterministic in (seed, config): stream j of session i is the
numpy SeedSequence with spawn key (i, j), built on demand, so it is the same
whatever the transport or the order sessions are run or audited in.
"""
from __future__ import annotations

import contextlib
import json
import queue
import socket
import threading
from dataclasses import dataclass, field

import numpy as np

from . import protocol, transport
from .errors import ParameterError, TransportError
from .prover import make_prover

Z_95 = 1.959963984540054
TIMEOUT_S = 10.0  # longest wait for a peer's next frame


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

def _nodelay(sock: socket.socket) -> socket.socket:
    # each frame is one request or reply that the peer waits for: Nagle's
    # algorithm would hold it back for the delayed ACK of the previous one
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class _TcpLink:
    """One loopback listener, connection and prover thread for a whole run.
    The thread serves sessions in the order `session` hands it their provers,
    checking each frame against the id of the session it serves. A
    TransportError on either end closes the connection on both, and the next
    session connects afresh, so no frame of a failed session reaches the
    next. A prover that raised is re-raised when its session ends, as in
    process; its closed socket has already ended the session."""

    def __init__(self, codec, port: int, timeout: float):
        self.codec = codec
        self.timeout = timeout
        self._listener = socket.create_server(("127.0.0.1", port))
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._done: queue.SimpleQueue = queue.SimpleQueue()
        self._channel = None
        self._server = threading.Thread(target=self._serve, daemon=True)
        self._server.start()

    def _serve(self) -> None:
        channel = None
        for session_id, prover in iter(self._jobs.get, None):
            try:
                if channel is None or not channel.open:
                    conn, _ = self._listener.accept()
                    channel = transport.TcpChannel(self.codec, session_id, _nodelay(conn))
                channel.session_id = session_id
                # answer until the verdict, to which the prover has no reply
                while (reply := prover.handle(channel.recv(self.timeout)[0])) is not None:
                    channel.send(reply)
                self._done.put(None)
            except Exception as exc:  # handed to session(), which re-raises it
                if channel is not None:
                    channel.close()
                self._done.put(exc)
        if channel is not None:
            channel.close()

    @contextlib.contextmanager
    def session(self, session_id: bytes, prover):
        """The verifier's channel for one session served by prover."""
        if self._channel is None or not self._channel.open:
            sock = socket.create_connection(self._listener.getsockname(), timeout=self.timeout)
            self._channel = transport.TcpChannel(self.codec, session_id, _nodelay(sock))
        self._channel.session_id = session_id
        self._jobs.put((session_id, prover))
        try:
            yield self._channel
        except BaseException:
            self._channel.close()  # so that a prover still reading sees the end
            raise
        finally:
            error = self._done.get()
            if error is not None:
                self._channel.close()
                if not isinstance(error, TransportError):
                    raise error

    def close(self) -> None:
        if self._channel is not None:
            self._channel.close()
        self._jobs.put(None)
        self._server.join(self.timeout)
        self._listener.close()


def run_one_session(
    index: int,
    protocol_kind: str,
    config,
    prover_spec: str,
    verifier_rng: np.random.Generator,
    prover_rng: np.random.Generator,
    session_rng: np.random.Generator,
    link: _TcpLink | None = None,
    timeout: float = TIMEOUT_S,
) -> SessionResult:
    """One session over the run's TCP link, or in process when link is None."""
    session_id = transport.session_id_from_rng(session_rng)
    verifier = protocol.make_verifier(protocol_kind, config, verifier_rng)
    prover = make_prover(prover_spec, protocol_kind, prover_rng)
    if link is None:
        session = contextlib.nullcontext(
            transport.InProcChannel(transport.Codec(config.entcf), prover)
        )
    else:
        session = link.session(session_id, prover)

    messages = []

    def record(direction: str, msg, payload: dict) -> None:
        messages.append(
            {"t": len(messages), "dir": direction, "type": type(msg).__name__, "payload": payload}
        )

    try:
        with session as channel:
            outgoing = verifier.step(None)
            while True:
                record("v->p", outgoing, channel.send(outgoing))
                if isinstance(outgoing, protocol.Verdict):
                    break
                incoming, payload = channel.recv(timeout)
                record("p->v", incoming, payload)
                outgoing = verifier.step(incoming)
        verdict = verifier.verdict
    except TransportError:
        verdict = protocol.Verdict(accept=0, reason="transport")

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

def session_stream(seed: int, index: int, stream: int) -> np.random.Generator:
    """Stream `stream` of session `index`: the generator of
    SeedSequence(seed).spawn(...)[index].spawn(3)[stream], built directly from
    its spawn key."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, stream)))


def session_streams(seed: int, sessions: int):
    """Deterministic (verifier, prover, session-id) RNG triples per session."""
    for index in range(sessions):
        yield tuple(session_stream(seed, index, stream) for stream in range(3))


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
    if tcp_port is None:
        link = contextlib.nullcontext()
    else:
        link = contextlib.closing(_TcpLink(transport.Codec(config.entcf), tcp_port, TIMEOUT_S))
    results = []
    with link as tcp_link:
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
                    link=tcp_link,
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
    that ended in a transport failure are skipped. A malformed record (a
    missing field, an index that is not a distinct int in
    range(len(transcripts)), an entry that does not decode) fails the audit."""
    codec = transport.Codec(config.entcf)
    seen: set[int] = set()
    for record in transcripts:
        try:
            index, messages, session, reason, accept = (
                record[key] for key in ("index", "messages", "session", "reason", "accept")
            )
        except (KeyError, TypeError):
            return False
        if type(index) is not int or not 0 <= index < len(transcripts) or index in seen:
            return False
        seen.add(index)
        if reason == "transport":
            continue
        if session != transport.session_id_from_rng(session_stream(seed, index, 2)).hex():
            return False
        verifier = protocol.make_verifier(protocol_kind, config, session_stream(seed, index, 0))
        try:
            replayed = _replay(verifier, messages, codec)
        # a recorded payload that does not decode, or an entry that is not a
        # {"dir", "type", "payload"} mapping
        except (TransportError, KeyError, TypeError):
            return False
        if not replayed or verifier.verdict != protocol.Verdict(accept=accept, reason=reason):
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
