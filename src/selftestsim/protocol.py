"""Verifier state machines and message vocabulary.

Implements the 2N-coordinate self-test (round types Preimage/Hadamard, questions
q in {0,1,2,3}, verdict cases A-D) and the N-coordinate dimension test
(q in {0,1}, cases A-B), plus the trapdoor decodings b-hat and h-hat and the
Sigma(theta, v) rule, which the verifier and the white-box analysis share.

theta is encoded as: an int in [0, 2N) for a claw coordinate (0-indexed),
THETA_ALL_G ("all_g") for the all-injective case, THETA_DIAMOND ("diamond")
for the all-claw case. Undefined decodings are None and any comparison against
None fails (reject); reason codes carry a ".bot" suffix when a None was the
cause, so undecodable-d rejections are distinguishable in statistics.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import entcf
from .errors import ProtocolError

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

@dataclass(frozen=True)
class Keys:
    keys: tuple  # tuple[PublicKey, ...]


@dataclass(frozen=True)
class Images:
    y: tuple


@dataclass(frozen=True)
class RoundType:
    kind: str  # PREIMAGE | HADAMARD


@dataclass(frozen=True)
class PreimageAnswer:
    b: tuple  # bits
    x: tuple  # ints


@dataclass(frozen=True)
class HadamardD:
    d: tuple  # ints, w bits each


@dataclass(frozen=True)
class Question:
    q: int


@dataclass(frozen=True)
class FinalAnswer:
    v: tuple  # bits


@dataclass(frozen=True)
class Verdict:
    accept: int
    reason: str


MESSAGE_TYPES = (Keys, Images, RoundType, PreimageAnswer, HadamardD, Question, FinalAnswer, Verdict)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SelfTestConfig:
    """N pairs are tested (2N coordinates)."""

    N: int
    entcf: entcf.EntcfParams

    def __post_init__(self):
        if self.N < 1:
            raise ProtocolError("N must be >= 1")


@dataclass(frozen=True)
class DimTestConfig:
    N: int
    entcf: entcf.EntcfParams

    def __post_init__(self):
        if self.N < 1:
            raise ProtocolError("N must be >= 1")


def selftest_families(theta, n: int) -> list[str]:
    """Key family per coordinate for the self-test (2n coordinates)."""
    if theta == THETA_ALL_G:
        return [entcf.FAMILY_G] * (2 * n)
    if theta == THETA_DIAMOND:
        return [entcf.FAMILY_F] * (2 * n)
    return [entcf.FAMILY_F if i == theta else entcf.FAMILY_G for i in range(2 * n)]


def dimtest_families(theta, n: int) -> list[str]:
    if theta == THETA_ALL_G:
        return [entcf.FAMILY_G] * n
    return [entcf.FAMILY_F if i == theta else entcf.FAMILY_G for i in range(n)]


# ---------------------------------------------------------------------------
# Verdict functions (pure)
# ---------------------------------------------------------------------------

def _scan_bhat(v, bhat, indices):
    for i in indices:
        if bhat[i] is None:
            return ".bhat.bot"
        if bhat[i] != v[i]:
            return ".bhat"
    return None


def _scan_equation(v, bhat, hhat, i_claw, i_inj):
    """Clause h-hat(i_claw) xor b-hat(i_inj) == v[i_claw]."""
    if hhat[i_claw] is None or bhat[i_inj] is None:
        return ".equation.bot"
    if hhat[i_claw] ^ bhat[i_inj] != v[i_claw]:
        return ".equation"
    return None


def selftest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """Hadamard-round verdict for the self-test.

    bhat/hhat are length-2n lists of decoded bits (None where undefined):
    bhat[i] = b-hat(k_i, y_i) on injective coordinates, hhat[i] =
    h-hat(k_i, y_i, d_i) on claw coordinates.
    """
    two_n = 2 * n
    if len(v) != two_n:
        raise ProtocolError("answer arity mismatch")
    if theta == THETA_ALL_G:
        case = "C"
        if q == 0:
            fail = _scan_bhat(v, bhat, range(two_n))
        elif q == 1:
            fail = None
        elif q == 2:
            fail = _scan_bhat(v, bhat, range(n))
        else:
            fail = _scan_bhat(v, bhat, range(n, two_n))
    elif theta == THETA_DIAMOND:
        case = "D"
        fail = None
        if q in (2, 3):
            for i in range(n):
                h = hhat[n + i] if q == 2 else hhat[i]
                if h is None:
                    fail = ".bell.bot"
                    break
                if v[i] ^ v[n + i] != h:
                    fail = ".bell"
                    break
    elif theta < n:
        case = "A"
        others = [i for i in range(two_n) if i != theta]
        if q == 0:
            fail = _scan_bhat(v, bhat, others)
        elif q == 1:
            fail = _scan_equation(v, bhat, hhat, theta, theta + n)
        elif q == 2:
            fail = _scan_bhat(v, bhat, [i for i in range(n) if i != theta])
        else:
            fail = _scan_bhat(v, bhat, range(n, two_n)) or _scan_equation(
                v, bhat, hhat, theta, theta + n
            )
    else:
        case = "B"
        others = [i for i in range(two_n) if i != theta]
        if q == 0:
            fail = _scan_bhat(v, bhat, others)
        elif q == 1:
            fail = _scan_equation(v, bhat, hhat, theta, theta - n)
        elif q == 2:
            fail = _scan_bhat(v, bhat, range(n)) or _scan_equation(
                v, bhat, hhat, theta, theta - n
            )
        else:
            fail = _scan_bhat(v, bhat, [i for i in range(n, two_n) if i != theta])
    if fail is None:
        return Verdict(accept=1, reason="accept")
    return Verdict(accept=0, reason=f"{case}.q{q}{fail}")


def dimtest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    if len(v) != n:
        raise ProtocolError("answer arity mismatch")
    if theta == THETA_ALL_G:
        if q == 0:
            fail = _scan_bhat(v, bhat, range(n))
            if fail:
                return Verdict(accept=0, reason=f"A.q0{fail}")
        return Verdict(accept=1, reason="accept")
    if q == 0:
        fail = _scan_bhat(v, bhat, [i for i in range(n) if i != theta])
        if fail:
            return Verdict(accept=0, reason=f"B.q0{fail}")
        return Verdict(accept=1, reason="accept")
    if hhat[theta] is None:
        return Verdict(accept=0, reason="B.q1.equation.bot")
    if hhat[theta] != v[theta]:
        return Verdict(accept=0, reason="B.q1.equation")
    return Verdict(accept=1, reason="accept")


# ---------------------------------------------------------------------------
# Trapdoor decodings and the Sigma(theta, v) rule
# ---------------------------------------------------------------------------

def decode_bhat(trapdoors, y) -> list:
    """b-hat per coordinate: decode_b on G coordinates, None elsewhere."""
    return [
        entcf.decode_b(t, yi) if t.family == entcf.FAMILY_G else None
        for t, yi in zip(trapdoors, y)
    ]


def decode_hhat(trapdoors, y, d) -> list:
    """h-hat per coordinate: decode_h on F coordinates, None elsewhere."""
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
    if kind == "selftest" and theta not in (THETA_ALL_G, THETA_DIAMOND):
        v[theta] ^= v[partner(theta, n)]
    return tuple(v)


# ---------------------------------------------------------------------------
# Verifier state machines
# ---------------------------------------------------------------------------

# phase -> (awaited prover message, its fields); a field's entries are bits,
# w-bit strings ("wbits") or images: a u32 (ideal) or a length-m tuple of u32s
# (toylwe), the values Codec.decode_y can return.
_AWAITED = {
    "await_images": (Images, (("y", "image"),)),
    "await_preimage": (PreimageAnswer, (("b", "bit"), ("x", "wbits"))),
    "await_d": (HadamardD, (("d", "wbits"),)),
    "await_answer": (FinalAnswer, (("v", "bit"),)),
}


class _VerifierBase:
    """Shared two-round interactive flow. The state machine is a pure
    transition function of (phase, incoming message, rng stream).

    RNG draw order is pinned for reproducibility: theta, per-coordinate
    keygen, round type, question.
    """

    def __init__(self, n_coords: int, params: entcf.EntcfParams, rng: np.random.Generator):
        self.n_coords = n_coords
        self.params = params
        self.rng = rng
        self.theta = self._draw_theta()
        self.keys = []
        self.trapdoors = []
        for family in self._families():
            key, trap = entcf.gen_keypair(family, params, rng)
            self.keys.append(key)
            self.trapdoors.append(trap)
        self.phase = "send_keys"
        self.round_type = None
        self.y = None
        self.d = None
        self.q = None
        self.bhat = [None] * n_coords
        self.hhat = [None] * n_coords
        self.verdict = None

    # subclass hooks -------------------------------------------------------
    def _draw_theta(self):
        raise NotImplementedError

    def _families(self):
        raise NotImplementedError

    def _draw_question(self) -> int:
        raise NotImplementedError

    def _final_verdict(self, v) -> Verdict:
        raise NotImplementedError

    # ----------------------------------------------------------------------
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
            return Keys(keys=tuple(self.keys))
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
            self.d = tuple(incoming.d)
            self.hhat = decode_hhat(self.trapdoors, self.y, self.d)
            self.q = self._draw_question()
            self.phase = "await_answer"
            return Question(q=self.q)
        return self._finish(self._final_verdict(tuple(incoming.v)))

    def _malformed(self, incoming) -> str | None:
        """Reject reason for a reply that is not the awaited message type
        with n_coords entries per field ("protocol"), or that has a field
        entry outside its domain ("protocol.<field>"); None if well formed."""
        cls, fields = _AWAITED[self.phase]
        if not isinstance(incoming, cls):
            return "protocol"
        for name, _ in fields:
            entries = getattr(incoming, name)
            if not isinstance(entries, (tuple, list)) or len(entries) != self.n_coords:
                return "protocol"
        for name, kind in fields:
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
        self.config = config
        super().__init__(2 * config.N, config.entcf, rng)

    def _draw_theta(self):
        pick = int(self.rng.integers(self.n_coords + 2))
        if pick == self.n_coords:
            return THETA_ALL_G
        if pick == self.n_coords + 1:
            return THETA_DIAMOND
        return pick

    def _families(self):
        return selftest_families(self.theta, self.config.N)

    def _draw_question(self):
        return int(self.rng.integers(4))

    def _final_verdict(self, v):
        return selftest_verdict(self.config.N, self.theta, self.q, v, self.bhat, self.hhat)


class DimTestVerifier(_VerifierBase):
    def __init__(self, config: DimTestConfig, rng: np.random.Generator):
        self.config = config
        super().__init__(config.N, config.entcf, rng)

    def _draw_theta(self):
        pick = int(self.rng.integers(self.n_coords + 1))
        return THETA_ALL_G if pick == self.n_coords else pick

    def _families(self):
        return dimtest_families(self.theta, self.config.N)

    def _draw_question(self):
        return int(self.rng.integers(2))

    def _final_verdict(self, v):
        return dimtest_verdict(self.config.N, self.theta, self.q, v, self.bhat, self.hhat)
