"""Session orchestration, Monte Carlo statistics, and transcript persistence.

One send/recv/step loop drives each session, run or audited. run_sessions
runs it over the run's one `transport.Link` (in process, or one loopback TCP
connection whose ends the calling thread drives) and records one JSON-able
transcript per session (timestamps, messages, theta and decodings); replay_audit
runs it over a playback of each record and passes the record only if the replay
writes it again. Statistics per (theta class, round type, question) carry Wilson
intervals and, for the self-test, the derived gamma upper bounds.

Everything is deterministic in (seed, config): stream j of session i is the
numpy SeedSequence with spawn key (i, j), built on demand, so it is the same
whatever the transport or the order sessions are run or audited in.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import json
import operator
import pathlib

import numpy as np

from . import entcf, protocol, transport
from .errors import ParameterError, TransportError
from .prover import make_prover


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    z = 1.959963984540054  # two-sided 95 %
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * np.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (max(0.0, center - half), min(1.0, center + half))


# ---------------------------------------------------------------------------
# The session loop
# ---------------------------------------------------------------------------

def run_one_session(
    index: int,
    protocol_kind: str,
    config,
    prover_spec: str,
    verifier_rng: np.random.Generator,
    prover_rng: np.random.Generator,
    session_rng: np.random.Generator,
    link: transport.Link,
) -> dict:
    """One session over the run's link; returns its transcript."""
    session_id = transport.session_id_from_rng(session_rng)
    verifier = protocol.make_verifier(protocol_kind, config, verifier_rng)
    link.session(session_id, make_prover(prover_spec, protocol_kind, prover_rng))
    return _session(index, prover_spec, verifier, session_id, link)


def _session(index: int, prover_spec: str, verifier, session_id: bytes, link) -> dict:
    """The session loop of a run and of its audit; returns the transcript. The
    verifier sends by link.send and receives by link.recv until its verdict;
    a TransportError ends the session with reason "transport"."""
    messages = []

    def record(direction: str, msg, payload: dict) -> None:
        messages.append(
            {"dir": direction, "payload": payload, "t": len(messages), "type": type(msg).__name__}
        )

    try:
        outgoing = verifier.step(None)
        while True:
            record("v->p", outgoing, link.send(outgoing))
            if isinstance(outgoing, protocol.Verdict):
                break
            incoming, payload = link.recv()
            record("p->v", incoming, payload)
            outgoing = verifier.step(incoming)
        verdict = verifier.verdict
    except TransportError:
        verdict = protocol.Verdict(accept=0, reason="transport")

    # keys in sorted order at every level, as _TRANSCRIPT_LINE writes them
    return {
        "accept": verdict.accept,
        "bhat": list(verifier.bhat),
        "hhat": list(verifier.hhat),
        "index": index,
        "messages": messages,
        "protocol": verifier.kind,
        "prover": prover_spec,
        "q": verifier.q,
        "reason": verdict.reason,
        "round_type": verifier.round_type,
        "session": session_id.hex(),
        "theta": str(verifier.theta),
        "theta_class": protocol.theta_class(verifier.kind, verifier.theta, verifier.config.N),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def session_stats(transcripts: list[dict], protocol_kind: str, n: int) -> dict:
    """Acceptance statistics of a batch, from one count of its transcripts per
    (cell, accept, reason), a cell being (theta class, round type, question)."""
    counts = collections.Counter(
        ((t["theta_class"], t["round_type"] or "aborted", "-" if t["q"] is None else str(t["q"])),
         t["accept"], t["reason"])
        for t in transcripts
    )
    sessions, accepts, reasons = collections.Counter(), collections.Counter(), collections.Counter()
    for (cell, accept, reason), count in counts.items():
        sessions[cell] += count
        accepts[cell] += accept * count
        reasons[reason] += count

    def rejects(round_type: str, q: str) -> tuple[int, int]:
        """(rejections, sessions) over the cells of a round type and question."""
        cells = [cell for cell in sessions if cell[1:] == (round_type, q)]
        return sum(sessions[c] - accepts[c] for c in cells), sum(sessions[c] for c in cells)

    questions = protocol.questions(protocol_kind)
    # a preimage round asks no question
    preimage = rejects(protocol.PREIMAGE, "-")
    hadamard = {q: rejects(protocol.HADAMARD, str(q)) for q in questions}
    eps_p = preimage[0] / preimage[1] if preimage[1] else 0.0
    eps_h = {q: rej / nq if nq else 0.0 for q, (rej, nq) in hadamard.items()}
    eps = protocol.eps(eps_p, eps_h)
    total, accepted = len(transcripts), sum(accepts.values())
    stats = {
        "version": 1,
        "protocol": protocol_kind,
        "N": n,
        "sessions": total,
        "accepts": accepted,
        "acceptance_rate": accepted / total if total else 0.0,
        "acceptance_ci95": list(wilson_interval(accepted, total)),
        "eps_P": eps_p,
        "eps_P_ci95": list(wilson_interval(*preimage)),
        "eps_H": {str(q): eps_h[q] for q in questions},
        "eps_H_ci95": {str(q): list(wilson_interval(*hadamard[q])) for q in questions},
        "eps": eps,
        "cells": {"|".join(c): {"sessions": sessions[c], "accepts": accepts[c]} for c in sorted(sessions)},
        "reasons": dict(sorted(reasons.items())),
    }
    if protocol_kind == "selftest":  # the paper's gamma bounds are self-test quantities
        bounds = protocol.gamma_bounds(n, {"eps_P": eps_p, "eps_H": eps_h, "eps": eps})
        stats["gamma_bounds"] = {key: bound for _, _, bound, key in bounds if key is not None}
    return stats


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

# numpy's SeedSequence hash constants (fixed by NEP 19)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_BLOCK = 256  # sessions whose seeds are hashed together


@functools.lru_cache(maxsize=1)
def _block_words(seed: int, block: int) -> np.ndarray:
    """The four uint64 words SeedSequence(seed, spawn_key=(i, j)) gives PCG64,
    for the _BLOCK sessions i of a block and j < 3: shape (_BLOCK, 3, 4).
    SeedSequence's entropy mixing and state generation, run on whole columns."""
    seed = operator.index(seed)
    if seed < 0 or not 0 <= block < 2**32 // _BLOCK:
        raise ParameterError("the seed must be >= 0 and session indices in [0, 2^32)")
    index = np.arange(block * _BLOCK, (block + 1) * _BLOCK, dtype=np.uint64)
    words = [(seed >> s) & _MASK32 for s in range(0, max(seed.bit_length(), 1), 32)]
    # short entropy is padded to the pool size before the spawn key (i, j); the
    # seed's words are the same for every key, so they mix as Python ints
    entropy = words + [0] * (4 - len(words))
    entropy += [np.repeat(index, 3), np.tile(np.arange(3, dtype=np.uint64), _BLOCK)]
    mult = _INIT_A

    def hashmix(value):
        nonlocal mult
        value = value ^ mult
        mult = (mult * _MULT_A) & _MASK32
        value = (value * mult) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ (value >> 16)

    pool = [hashmix(e) for e in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(e))
    mult, state = _INIT_B, np.zeros((3 * _BLOCK, 4), dtype=np.uint64)
    for k in range(8):
        value = pool[k % 4] ^ mult
        mult = (mult * _MULT_B) & _MASK32
        value = (value * mult) & _MASK32
        state[:, k // 2] |= (value ^ (value >> 16)) << (32 * (k % 2))
    state = state.reshape(_BLOCK, 3, 4)
    first = np.random.SeedSequence(seed, spawn_key=(block * _BLOCK, 0))
    if not np.array_equal(state[0, 0], first.generate_state(4, np.uint64)):
        raise RuntimeError("numpy's SeedSequence no longer hashes as session_stream does")
    state.flags.writeable = False
    return state


class _Words(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands PCG64 words computed beforehand."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def session_stream(seed: int, index: int, stream: int) -> np.random.Generator:
    """Stream `stream` (< 3) of session `index`: the generator of
    SeedSequence(seed).spawn(...)[index].spawn(3)[stream], seeded with the
    words its spawn key hashes to. The words of a block of sessions are
    hashed at once, so a run or an audit pays for the hash a block at a time."""
    words = _block_words(seed, index // _BLOCK)[index % _BLOCK, stream]
    return np.random.Generator(np.random.PCG64(_Words(words)))


def session_streams(seed: int, sessions: int):
    """Deterministic (verifier, prover, session-id) RNG triples per session."""
    for index in range(sessions):
        yield tuple(session_stream(seed, index, stream) for stream in range(3))


# One transcript per line as canonical JSON, unsorted: run_one_session's records
# and payloads built by Codec.to_payload or parsed from its frames have sorted keys.
_TRANSCRIPT_LINE = json.JSONEncoder(separators=(",", ":"), check_circular=False)


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
    transcripts.jsonl to out_dir when given, made before the first session."""
    if sessions < 1:
        raise ParameterError("sessions must be >= 1")
    kind, colon, port = transport_spec.partition(":")
    if kind != "tcp" and transport_spec != "inproc":
        raise ParameterError(f"unknown transport {transport_spec!r}")
    if colon and not (port.isascii() and port.isdecimal() and int(port) < 2**16):
        raise ParameterError(f"bad TCP port in {transport_spec!r}")
    port = int(port or 0) if kind == "tcp" else None
    # a bad device spec or config, a w past the keygen cap or a busy port is refused before the output is made
    make_prover(prover_spec, protocol_kind, None)
    protocol.check_config(protocol_kind, config)
    entcf.check_scan(config.entcf)
    out = None if out_dir is None else pathlib.Path(out_dir)
    with contextlib.closing(transport.Link(transport.Codec(config.entcf), port)) as link:
        if out is not None:
            out.mkdir(parents=True, exist_ok=True)
        transcripts = [
            run_one_session(index, protocol_kind, config, prover_spec, *streams, link)
            for index, streams in enumerate(session_streams(seed, sessions))
        ]
    stats = session_stats(transcripts, protocol_kind, config.N)
    stats["seed"] = seed
    stats["prover"] = prover_spec
    if out is not None:
        (out / "stats.json").write_bytes(
            json.dumps(stats, sort_keys=True, indent=2).encode("utf-8") + b"\n"
        )
        with open(out / "transcripts.jsonl", "wb") as fh:
            for t in transcripts:
                fh.write(_TRANSCRIPT_LINE.encode(t).encode("utf-8") + b"\n")
    return stats, transcripts


# ---------------------------------------------------------------------------
# Replay audit
# ---------------------------------------------------------------------------

_MESSAGE_CLASSES = {cls.__name__: cls for cls in protocol.MESSAGE_TYPES}


class _Playback:
    """A record played back to its verifier as the session's link: `send` and
    `recv` each take the record's next entry, which must go v->p or p->v, or
    raise TransportError, as a live link would. Both hand back the canonical
    payload of the message sent or decoded, so no other payload is replayed."""

    def __init__(self, codec: transport.Codec, messages: list):
        self.codec = codec
        self._entries = iter(messages)

    def _next(self, direction: str) -> dict:
        entry = next(self._entries, None)
        if entry is None or entry["dir"] != direction:
            raise TransportError(f"the record has no {direction} entry here")
        return entry

    def send(self, msg) -> dict:
        self._next("v->p")
        return self.codec.to_payload(msg)

    def recv(self):
        entry = self._next("p->v")
        msg = self.codec.from_payload(_MESSAGE_CLASSES[entry["type"]], entry["payload"])
        return msg, self.codec.to_payload(msg)


def replay_audit(transcripts: list[dict], protocol_kind: str, config, seed: int) -> bool:
    """Pass each record only if the run's session loop, replaying it with a fresh
    verifier on the session's stream 0 and the session id from its stream 2,
    writes it again. A malformed record (an index that is not a distinct int in
    range(len(transcripts)), a missing field, a non-mapping entry) fails."""
    codec = transport.Codec(config.entcf)
    seen: set[int] = set()
    for record in transcripts:
        try:
            index = record["index"]
            if type(index) is not int or not 0 <= index < len(transcripts) or index in seen:
                return False
            seen.add(index)
            verifier = protocol.make_verifier(protocol_kind, config, session_stream(seed, index, 0))
            session_id = transport.session_id_from_rng(session_stream(seed, index, 2))
            link = _Playback(codec, record["messages"])
            if _session(index, record["prover"], verifier, session_id, link) != record:
                return False
        except (KeyError, TypeError):
            return False
    return True
