"""Device-side provers: the honest quantum device and scripted cheats.

The honest device is HonestProver. It samples the image y classically per
coordinate, in the keys round every device shares (DeviceInterface.on_keys),
and tracks only the logical qubit that survives the Hadamard d-measurement
(a basis state for injective coordinates, a phase state
(|0> + (-1)^h |1>)/sqrt(2) for claw coordinates); the CZ layer and the final
question-dependent measurement of each pair are then computed in closed form
on its 2x2 amplitude table (measure_pair), with no state vector.

Its variants are the Devices it reads: bitflip=P flips answer bits,
wrongbasis swaps the q=0 and q=1 measurement bases. The cheat ClassicalGuess
holds no qubits and guesses unknown equation bits.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import entcf, protocol
from .errors import DomainError, ParameterError, ProtocolError
from .protocol import COMPUTATIONAL, HADAMARD_BASIS

_SQRT_HALF = 1.0 / math.sqrt(2.0)

# Qubit amplitude pairs used by the collapsed path: the computational basis
# states, and the phase states (|0> + (-1)^h |1>)/sqrt(2).
_BASIS = {0: (1.0, 0.0), 1: (0.0, 1.0)}
_PHASE = {0: (_SQRT_HALF, _SQRT_HALF), 1: (_SQRT_HALF, -_SQRT_HALF)}


def _in_basis(a0, a1, basis: str):
    """Amplitudes of the qubit a0|0> + a1|1> in a measurement basis."""
    if basis == HADAMARD_BASIS:
        return (a0 + a1) * _SQRT_HALF, (a0 - a1) * _SQRT_HALF
    if basis != COMPUTATIONAL:
        raise DomainError(f"unknown basis {basis!r}")
    return a0, a1


def _draw(p0: float, p1: float, rng: np.random.Generator) -> int:
    """Outcome 0 or 1 with weights (p0, p1), from one rng.random() draw.

    Generator.choice(2, p=...) draws the same single double and compares it
    with the same normalised cumulative weight, so the RNG stream and the
    outcomes match a choice()-based measurement.
    """
    total = p0 + p1
    if total <= 0.0:
        raise DomainError("cannot measure a zero vector")
    p0, p1 = p0 / total, p1 / total
    return 0 if rng.random() < p0 / (p0 + p1) else 1


def measure_qubit_vector(vec, basis: str, rng: np.random.Generator) -> int:
    a0, a1 = _in_basis(*vec, basis)
    return _draw(abs(a0) ** 2, abs(a1) ** 2, rng)


def measure_pair(
    vec_i,
    vec_j,
    basis_i: str,
    basis_j: str,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """CZ then per-qubit measurement on a 2-qubit product input.

    Closed form on the amplitude table a[s][t] = vec_i[s] * vec_j[t]: CZ
    negates a[1][1], each qubit is taken to its measurement basis, then
    qubit i is drawn from its marginal and qubit j from its conditional
    given i.
    """
    i0, i1 = vec_i
    j0, j1 = vec_j
    a00, a01, a10, a11 = i0 * j0, i0 * j1, i1 * j0, -(i1 * j1)
    a00, a10 = _in_basis(a00, a10, basis_i)
    a01, a11 = _in_basis(a01, a11, basis_i)
    a00, a01 = _in_basis(a00, a01, basis_j)
    a10, a11 = _in_basis(a10, a11, basis_j)
    out_i = _draw(abs(a00) ** 2 + abs(a01) ** 2, abs(a10) ** 2 + abs(a11) ** 2, rng)
    c0, c1 = (a10, a11) if out_i else (a00, a01)
    return out_i, _draw(abs(c0) ** 2, abs(c1) ** 2, rng)


class DeviceInterface:
    """Message-driven prover. handle() consumes one verifier message and
    returns the reply (None once a Verdict arrives); it raises ProtocolError
    on a message out of order, so the hooks run only in protocol order. A
    device gives the hooks on_preimage, on_hadamard and on_question."""

    def __init__(self, kind: str, rng: np.random.Generator):
        self.paired = protocol.paired(kind)  # refuses an unknown kind
        self.kind = kind
        self.rng = rng
        self._expect = "keys"

    def handle(self, message):
        if isinstance(message, protocol.Keys):
            self._require("keys")
            self._expect = "round"
            return protocol.Images(y=tuple(self.on_keys(message.keys)))
        if isinstance(message, protocol.RoundType):
            self._require("round")
            if message.kind == protocol.PREIMAGE:
                self._expect = "verdict"
                b, x = self.on_preimage()
                return protocol.PreimageAnswer(b=tuple(b), x=tuple(x))
            self._expect = "question"
            return protocol.HadamardD(d=tuple(self.on_hadamard()))
        if isinstance(message, protocol.Question):
            self._require("question")
            self._expect = "verdict"
            return protocol.FinalAnswer(v=tuple(self.on_question(message.q)))
        if isinstance(message, protocol.Verdict):
            self._expect = "done"
            return None
        raise ProtocolError(f"unexpected message {type(message).__name__}")

    def _require(self, phase: str):
        if self._expect != phase:
            raise ProtocolError(f"out-of-order message (expected {self._expect})")

    # hooks -----------------------------------------------------------------
    def on_keys(self, keys):
        """The keys round every device shares: per key it draws b, then x, and
        forwards y = f(b, x); it keeps the keys and the (b, x) it drew."""
        self.keys = list(keys)
        self.b, self.x, y = [], [], []
        for key in self.keys:
            b = int(self.rng.integers(2))
            x = int(self.rng.integers(2 ** key.params.w))
            self.b.append(b)
            self.x.append(x)
            y.append(entcf.forward_sample(key, b, x, self.rng))
        return y


@dataclass(frozen=True)
class Device:
    """A device spec's name and flip probability p, for a prover and an
    analysis model alike. Asked q, an honest-family device measures in the
    bases of question(q) (wrongbasis trades 0 and 1), then flips each answer
    bit with probability `flip` (bitflip's p, else None). Left apart: the
    prover `classical` passes preimage rounds, the model of that name fails
    them; the honest prover's d may be 0, its model's never is; and `random`
    is a model only."""

    name: str
    p: float | None = None

    def __post_init__(self):
        if self.p is not None and not 0.0 <= self.p <= 1.0:
            raise ParameterError("flip probability must lie in [0, 1]")

    def question(self, q: int) -> int:
        return {0: 1, 1: 0}.get(q, q) if self.name == "wrongbasis" else q

    @property
    def flip(self) -> float | None:
        return self.p if self.name == "bitflip" else None


HONEST = Device("honest")
HONEST_FAMILY = ("honest", "bitflip", "wrongbasis")


class HonestProver(DeviceInterface):
    """The honest device on the collapsed path, or its `device` variant. It
    keeps, per coordinate, the preimage pairs (b, x) of its y (`records`)
    and the amplitude pair its d-measurement leaves (`qubits`)."""

    def __init__(self, kind: str, rng: np.random.Generator, device: Device = HONEST):
        super().__init__(kind, rng)
        self.device = device

    # -- keys round ----------------------------------------------------------
    def on_keys(self, keys):
        y = super().on_keys(keys)
        self.records = [entcf.preimages(key, yi) for key, yi in zip(self.keys, y)]
        return y

    # -- preimage round --------------------------------------------------------
    def on_preimage(self):
        bs, xs = [], []
        for pairs in self.records:
            b, x = pairs[int(self.rng.integers(len(pairs)))] if len(pairs) > 1 else pairs[0]
            bs.append(b)
            xs.append(x)
        return bs, xs

    # -- hadamard round ----------------------------------------------------------
    def on_hadamard(self):
        ds = []
        self.qubits = []
        for key, pairs in zip(self.keys, self.records):
            d = int(self.rng.integers(2 ** key.params.w))
            ds.append(d)
            if len(pairs) == 1:
                b, _ = pairs[0]
                self.qubits.append(_BASIS[b])
            else:
                (_, x0), (_, x1) = sorted(pairs)
                # Post-measurement phase: (-1)^{d.x0}|0> + (-1)^{d.x1}|1>,
                # i.e. h = d.(x0 xor x1) up to a global sign.
                h = entcf.parity(d & (x0 ^ x1))
                self.qubits.append(_PHASE[h])
        return ds

    # -- final answer ---------------------------------------------------------
    def on_question(self, q: int):
        qubits, device = self.qubits, self.device
        q = device.question(q)
        if not self.paired:
            bases = protocol.question_bases(self.kind, len(qubits), q)
            v = [measure_qubit_vector(vec, b, self.rng) for vec, b in zip(qubits, bases)]
        else:
            n = len(qubits) // 2
            bases = protocol.question_bases(self.kind, n, q)
            v = [None] * len(qubits)
            for i in range(n):
                v[i], v[n + i] = measure_pair(qubits[i], qubits[n + i], bases[i], bases[n + i], self.rng)
        if device.flip is not None:  # drawn after every honest draw, so bitflip=0 is the honest transcript
            v = [int(bit) ^ int(flip) for bit, flip in zip(v, self.rng.random(len(v)) < device.flip)]
        return v


class ClassicalGuessProver(DeviceInterface):
    """Holds no quantum state: picks (b_i, x_i) itself, forwards y_i = f(b_i, x_i),
    answers the preimage round perfectly, sends a nonzero d on the Hadamard
    round, and answers v_i = b_i (so every unknown equation bit is a uniform
    guess while b-hat checks on injective coordinates always pass). Its keys
    round is the shared one."""

    def on_preimage(self):
        return list(self.b), list(self.x)

    def on_hadamard(self):
        # nonzero d keeps h-hat defined, so rejections reflect wrong guesses
        # rather than undecodable-d events.
        return [1 + int(self.rng.integers(2 ** key.params.w - 1)) for key in self.keys]

    def on_question(self, q: int):
        return list(self.b)


@functools.lru_cache(maxsize=64)
def parse_device_spec(spec: str) -> Device:
    """The Device of a spec `name[=p]`, built once per spec, for --prover and
    --model alike: bitflip needs its flip probability p, and any other spec is
    a name alone."""
    name, _, value = spec.partition("=")
    if name != "bitflip":
        return Device(spec)
    try:
        p = float(value)
    except ValueError:
        raise ParameterError(f"bitflip needs a flip probability, bitflip=P, not {spec!r}") from None
    return Device(name, p)


def make_prover(spec: str, protocol_kind: str, rng: np.random.Generator) -> DeviceInterface:
    """Parse a prover spec string: honest, classical, bitflip=P, wrongbasis."""
    device = parse_device_spec(spec)
    if device.name == "classical":
        return ClassicalGuessProver(protocol_kind, rng)
    if device.name in HONEST_FAMILY:
        return HonestProver(protocol_kind, rng, device)
    raise ParameterError(f"unknown prover spec {spec!r}")
