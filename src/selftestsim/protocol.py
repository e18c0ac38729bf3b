"""Verifier state machines and the message vocabulary, FIELDS: it declares each
message once, as its fields and their kinds, which the wire codec and the
verifier's checks read; each message class is a frozen dataclass built from it.

Implements the 2N-coordinate self-test (round types Preimage/Hadamard, questions
q in {0,1,2,3}, verdict cases A-D) and the N-coordinate dimension test
(q in {0,1}, cases A-B). The two differ only in what the protocol table below
gives per kind: the coordinates, the theta set, the questions and whether a
CZ partner pairs each coordinate; one Hadamard-round rule, the trapdoor
decodings b-hat and h-hat and the Sigma(theta, v) rule serve both, and the
verifier, the provers, the harness and the white-box analysis read them here.

theta is encoded as: an int in [0, 2N) for a claw coordinate (0-indexed),
THETA_ALL_G ("all_g") for the all-injective case, THETA_DIAMOND ("diamond")
for the all-claw case. Undefined decodings are None and any comparison against
None fails (reject); reason codes carry a ".bot" suffix when a None was the
cause, so undecodable-d rejections are distinguishable in statistics.
"""
from __future__ import annotations

from dataclasses import dataclass, make_dataclass

import numpy as np

from . import entcf
from .errors import ParameterError, ProtocolError

THETA_ALL_G = "all_g"
THETA_DIAMOND = "diamond"

PREIMAGE = "preimage"
HADAMARD = "hadamard"


def partner(i: int, n: int) -> int:
    """The coordinate paired with i among 2N: i+N for i<N, i-N otherwise."""
    return i + n if i < n else i - n


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------

# message class -> its (field, kind) pairs, in field order; each message is
# declared here once, as a frozen dataclass built by _message. A bit, wbits
# (w-bit int), image (a u32, or for toylwe a length-m tuple of u32s) or key (a
# PublicKey) field has one entry per coordinate; an int or str field is one value.
FIELDS = {}


def _message(name: str, *fields: tuple) -> type:
    """The frozen dataclass `name` with the given (field, kind) pairs as its
    fields, recorded in FIELDS."""
    cls = make_dataclass(name, [field for field, _ in fields], frozen=True)
    cls.__module__ = __name__  # make_dataclass leaves "types", which pickle cannot find
    FIELDS[cls] = fields
    return cls


Keys = _message("Keys", ("keys", "key"))
Images = _message("Images", ("y", "image"))
RoundType = _message("RoundType", ("kind", "str"))  # kind: PREIMAGE | HADAMARD
PreimageAnswer = _message("PreimageAnswer", ("b", "bit"), ("x", "wbits"))
HadamardD = _message("HadamardD", ("d", "wbits"))
Question = _message("Question", ("q", "int"))
FinalAnswer = _message("FinalAnswer", ("v", "bit"))
Verdict = _message("Verdict", ("accept", "int"), ("reason", "str"))
MESSAGE_TYPES = tuple(FIELDS)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Config:
    N: int
    entcf: entcf.EntcfParams

    def __post_init__(self):
        if self.N < 1:
            raise ProtocolError("N must be >= 1")


class SelfTestConfig(_Config):
    """N pairs are tested (2N coordinates)."""


class DimTestConfig(_Config):
    """N coordinates are tested."""


# ---------------------------------------------------------------------------
# The protocol table: what differs between the self-test and the dimension test
# ---------------------------------------------------------------------------

KINDS = ("selftest", "dimtest")

_COMP = "computational"
_HAD = "hadamard"


def paired(kind: str) -> bool:
    """Whether coordinate i has a CZ partner: the self-test's 2N coordinates
    are paired as (i, i+N); the dimension test's N coordinates are not.
    Every protocol-table lookup asks this, so an unknown kind is refused here."""
    if kind not in KINDS:
        raise ParameterError(f"unknown protocol kind {kind!r}")
    return kind == "selftest"


def n_coords(kind: str, n: int) -> int:
    return 2 * n if paired(kind) else n


def thetas(kind: str, n: int) -> tuple:
    """The verifier's theta choices, in draw order: each claw coordinate,
    then THETA_ALL_G, then (self-test only) THETA_DIAMOND."""
    if paired(kind):
        return (*range(2 * n), THETA_ALL_G, THETA_DIAMOND)
    return (*range(n), THETA_ALL_G)


def families(kind: str, theta, n: int) -> list[str]:
    """Key family per coordinate: F on the claw coordinate(s), G elsewhere."""
    if theta == THETA_DIAMOND:
        return [entcf.FAMILY_F] * n_coords(kind, n)
    return [entcf.FAMILY_F if i == theta else entcf.FAMILY_G for i in range(n_coords(kind, n))]


def keypairs(kind: str, theta, n: int, params: entcf.EntcfParams, rng: np.random.Generator):
    """(keys, trapdoors) of theta's coordinates: one entcf.gen_keypair per
    coordinate, in coordinate order."""
    keys, trapdoors = zip(*(entcf.gen_keypair(family, params, rng) for family in families(kind, theta, n)))
    return keys, trapdoors


def questions(kind: str) -> tuple:
    return (0, 1, 2, 3) if paired(kind) else (0, 1)


def question_bases(kind: str, n: int, q: int) -> list[str]:
    """Per-coordinate measurement basis for question q.

    Self-test (2n coordinates): q=0 all computational, q=1 all Hadamard,
    q=2 first n computational / last n Hadamard, q=3 the reverse. Dimension
    test (n coordinates): q=0 computational, q=1 Hadamard.
    """
    if q not in questions(kind):
        raise ParameterError(f"bad question {q}")
    if not paired(kind):
        return [_HAD if q else _COMP] * n
    first = _COMP if q in (0, 2) else _HAD
    second = _COMP if q in (0, 3) else _HAD
    return [first] * n + [second] * n


def theta_class(kind: str, theta, n: int) -> str:
    if theta in (THETA_ALL_G, THETA_DIAMOND):
        return theta
    if not paired(kind):
        return "claw"
    return "claw_first" if theta < n else "claw_second"


# verdict case letter per theta class
_CASES = {
    "selftest": {"claw_first": "A", "claw_second": "B", THETA_ALL_G: "C", THETA_DIAMOND: "D"},
    "dimtest": {THETA_ALL_G: "A", "claw": "B"},
}


def eps(eps_p: float, eps_h: dict) -> float:
    """eps = eps_P / 2 + mean_q eps_H(q) / 2, for eps_h: question -> eps_H."""
    return eps_p / 2.0 + sum(eps_h.values()) / (2.0 * len(eps_h))


# ---------------------------------------------------------------------------
# Verdict (pure)
# ---------------------------------------------------------------------------

def _hadamard_rule(kind: str, n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """The Hadamard-round verdict of either protocol.

    bhat/hhat are per-coordinate decoded bits (None where undefined):
    bhat[i] = b-hat(k_i, y_i) on injective coordinates, hhat[i] =
    h-hat(k_i, y_i, d_i) on claw coordinates. First, every injective
    coordinate that q measures in the computational basis must answer b-hat.
    Then every claw coordinate that q measures in the Hadamard basis must
    answer h-hat xor its CZ partner's known bit: an injective partner's b-hat
    (".equation"), or a claw partner's own answer when q measures that
    partner in the computational basis (".bell"); with no partner (dimension
    test) the check is h-hat alone. A None decoding rejects with ".bot".
    """
    bases = question_bases(kind, n, q)
    if len(v) != len(bases):
        raise ProtocolError("answer arity mismatch")
    fams = families(kind, theta, n)
    fail = None
    for i, basis in enumerate(bases):
        if fams[i] == entcf.FAMILY_G and basis == _COMP and bhat[i] != v[i]:
            fail = ".bhat.bot" if bhat[i] is None else ".bhat"
            break
    else:
        for i, basis in enumerate(bases):
            if fams[i] != entcf.FAMILY_F or basis != _HAD:
                continue
            known, tag = 0, ".equation"
            if paired(kind):
                j = partner(i, n)
                if fams[j] == entcf.FAMILY_G:
                    known = bhat[j]
                elif bases[j] == _COMP:
                    known, tag = v[j], ".bell"
                else:
                    continue
            if hhat[i] is None or known is None:
                fail = tag + ".bot"
                break
            if hhat[i] ^ known != v[i]:
                fail = tag
                break
    if fail is None:
        return Verdict(accept=1, reason="accept")
    return Verdict(accept=0, reason=f"{_CASES[kind][theta_class(kind, theta, n)]}.q{q}{fail}")


def selftest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """Hadamard-round verdict for the self-test (2n coordinates, cases A-D)."""
    return _hadamard_rule("selftest", n, theta, q, v, bhat, hhat)


def dimtest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """Hadamard-round verdict for the dimension test (n coordinates, cases A-B)."""
    return _hadamard_rule("dimtest", n, theta, q, v, bhat, hhat)


def hadamard_verdict(kind: str, n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """The Hadamard-round verdict of protocol kind: selftest_verdict or
    dimtest_verdict, looked up at call time so wrappers of either see it."""
    verdict = selftest_verdict if paired(kind) else dimtest_verdict
    return verdict(n, theta, q, v, bhat, hhat)


# ---------------------------------------------------------------------------
# Trapdoor decodings and the Sigma(theta, v) rule
# ---------------------------------------------------------------------------

def decode_bhat(trapdoors, y) -> list:
    """b-hat per coordinate: decode_b on G coordinates, None elsewhere. A
    coordinate's y may be an array of ideal images, decoded as one array."""
    return [
        entcf.decode_b(t, yi) if t.family == entcf.FAMILY_G else None
        for t, yi in zip(trapdoors, y)
    ]


def decode_hhat(trapdoors, y, d) -> list:
    """h-hat per coordinate: decode_h on F coordinates, None elsewhere. A
    coordinate's y and d may be arrays of ideal images and d's."""
    return [
        entcf.decode_h(t, yi, di) if t.family == entcf.FAMILY_F else None
        for t, yi, di in zip(trapdoors, y, d)
    ]


def sigma_v(kind: str, n: int, theta, bhat, hhat):
    """The unique v with the decoded label in Sigma(theta, v), or None.

    Injective coordinates fix v_i = b-hat_i. The claw coordinate fixes
    h-hat = v_theta (dimension test) or v_theta xor v_partner (self-test);
    under THETA_DIAMOND every coordinate is a claw and h-hat_i = v_partner(i).
    A None decoding puts the label in no Sigma(theta, v).
    """
    if theta == THETA_DIAMOND:
        v = [hhat[partner(i, n)] for i in range(2 * n)]
    else:
        v = list(bhat)
        if theta != THETA_ALL_G:
            v[theta] = hhat[theta]
    if None in v:
        return None
    if paired(kind) and theta not in (THETA_ALL_G, THETA_DIAMOND):
        v[theta] ^= v[partner(theta, n)]
    return tuple(v)


# ---------------------------------------------------------------------------
# Verifier state machines
# ---------------------------------------------------------------------------

_AWAITED = {
    "await_images": Images,
    "await_preimage": PreimageAnswer,
    "await_d": HadamardD,
    "await_answer": FinalAnswer,
}


class _VerifierBase:
    """Shared two-round interactive flow. The state machine is a pure
    transition function of (phase, incoming message, rng stream).

    RNG draw order is pinned for reproducibility: theta, per-coordinate
    keygen, round type, question.
    """

    def __init__(self, kind: str, config, rng: np.random.Generator):
        self.kind = kind
        self.config = config
        self.n_coords = n_coords(kind, config.N)
        self.params = config.entcf
        self.rng = rng
        choices = thetas(kind, config.N)
        self.theta = choices[int(rng.integers(len(choices)))]
        self.keys, self.trapdoors = keypairs(kind, self.theta, config.N, self.params, rng)
        self.phase = "send_keys"
        self.round_type = None
        self.y = None
        self.q = None
        self.bhat = [None] * self.n_coords
        self.hhat = [None] * self.n_coords
        self.verdict = None

    def _finish(self, verdict: Verdict) -> Verdict:
        self.verdict = verdict
        self.phase = "done"
        return verdict

    def step(self, incoming=None):
        """Advance one phase; returns the outgoing message (or the Verdict)."""
        if self.phase == "send_keys":
            if incoming is not None:
                raise ProtocolError("no message expected before keys are sent")
            self.phase = "await_images"
            return Keys(keys=self.keys)
        if self.phase == "done":
            raise ProtocolError("verifier already finished (phase=done)")
        reason = self._malformed(incoming)
        if reason is not None:
            return self._finish(Verdict(accept=0, reason=reason))
        if self.phase == "await_images":
            self.y = tuple(incoming.y)
            self.bhat = decode_bhat(self.trapdoors, self.y)
            self.round_type = PREIMAGE if self.rng.integers(2) == 0 else HADAMARD
            self.phase = "await_preimage" if self.round_type == PREIMAGE else "await_d"
            return RoundType(kind=self.round_type)
        if self.phase == "await_preimage":
            # as ints: numpy would read a bool entry as an index mask
            b, x = [int(e) for e in incoming.b], [int(e) for e in incoming.x]
            ok = entcf.chk(self.keys, self.y, b, x) == 0
            return self._finish(
                Verdict(accept=1, reason="accept") if ok else Verdict(accept=0, reason="preimage.chk")
            )
        if self.phase == "await_d":
            self.hhat = decode_hhat(self.trapdoors, self.y, tuple(incoming.d))
            qs = questions(self.kind)
            self.q = qs[int(self.rng.integers(len(qs)))]
            self.phase = "await_answer"
            return Question(q=self.q)
        v = tuple(incoming.v)
        return self._finish(
            hadamard_verdict(self.kind, self.config.N, self.theta, self.q, v, self.bhat, self.hhat)
        )

    def _malformed(self, incoming) -> str | None:
        """Reject reason for a reply that is not the awaited message type
        with n_coords entries per field ("protocol"), or that has a field
        entry outside its domain ("protocol.<field>"); None if well formed."""
        cls = _AWAITED[self.phase]
        if not isinstance(incoming, cls):
            return "protocol"
        for name, _ in FIELDS[cls]:
            entries = getattr(incoming, name)
            if not isinstance(entries, (tuple, list)) or len(entries) != self.n_coords:
                return "protocol"
        for name, kind in FIELDS[cls]:
            entries = getattr(incoming, name)
            if kind == "image" and self.params.backend == "toylwe":
                if not all(isinstance(e, tuple) and len(e) == self.params.m for e in entries):
                    return f"protocol.{name}"
                entries = [c for e in entries for c in e]
            bound = {"bit": 2, "wbits": 2**self.params.w, "image": 2**32}[kind]
            for e in entries:
                if not (isinstance(e, (int, np.integer)) and 0 <= e < bound):
                    return f"protocol.{name}"
        return None


class SelfTestVerifier(_VerifierBase):
    def __init__(self, config: SelfTestConfig, rng: np.random.Generator):
        super().__init__("selftest", config, rng)


class DimTestVerifier(_VerifierBase):
    def __init__(self, config: DimTestConfig, rng: np.random.Generator):
        super().__init__("dimtest", config, rng)


def make_verifier(kind: str, config, rng: np.random.Generator) -> _VerifierBase:
    verifier = SelfTestVerifier if paired(kind) else DimTestVerifier
    return verifier(config, rng)
