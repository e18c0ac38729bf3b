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
for the all-claw case. Both rules read decodings as int codes, UNDECODED for
None; a check that reads UNDECODED rejects with a ".bot" suffix on its reason
code, so undecodable-d rejections are distinguishable in statistics.
"""
from __future__ import annotations

import functools
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
ACCEPT = Verdict(accept=1, reason="accept")
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

CONFIGS = {"selftest": SelfTestConfig, "dimtest": DimTestConfig}
KINDS = tuple(CONFIGS)

# measurement basis names, per coordinate
COMPUTATIONAL = "computational"
HADAMARD_BASIS = "hadamard"


def paired(kind: str) -> bool:
    """Whether coordinate i has a CZ partner: the self-test's 2N coordinates
    are paired as (i, i+N); the dimension test's N coordinates are not.
    Every protocol-table lookup asks this, so an unknown kind is refused here."""
    if kind not in KINDS:
        raise ParameterError(f"unknown protocol kind {kind!r}")
    return kind == "selftest"


def check_config(kind: str, config) -> None:
    """Refuse a config of the other protocol kind, after an unknown kind."""
    if type(config) is not CONFIGS.get(kind):
        paired(kind)  # an unknown kind is refused first
        raise ParameterError(f"a {kind} needs a {CONFIGS[kind].__name__}, not a {type(config).__name__}")


def n_coords(kind: str, n: int) -> int:
    return 2 * n if paired(kind) else n


def thetas(kind: str, n: int) -> tuple:
    """The verifier's theta choices, in draw order: each claw coordinate,
    then THETA_ALL_G, then (self-test only) THETA_DIAMOND."""
    if paired(kind):
        return (*range(2 * n), THETA_ALL_G, THETA_DIAMOND)
    return (*range(n), THETA_ALL_G)


@functools.lru_cache(maxsize=256)
def families(kind: str, theta, n: int) -> tuple[str, ...]:
    """Key family per coordinate: F on the claw coordinate(s), G elsewhere."""
    if theta == THETA_DIAMOND:
        return (entcf.FAMILY_F,) * n_coords(kind, n)
    return tuple(entcf.FAMILY_F if i == theta else entcf.FAMILY_G for i in range(n_coords(kind, n)))


def keypairs(kind: str, theta, n: int, params: entcf.EntcfParams, rng: np.random.Generator):
    """(keys, trapdoors) of theta's coordinates: one entcf.gen_keypair per
    coordinate, in coordinate order."""
    keys, trapdoors = zip(*(entcf.gen_keypair(family, params, rng) for family in families(kind, theta, n)))
    return keys, trapdoors


def questions(kind: str) -> tuple:
    return (0, 1, 2, 3) if paired(kind) else (0, 1)


@functools.lru_cache(maxsize=256)
def question_bases(kind: str, n: int, q: int) -> tuple[str, ...]:
    """Per-coordinate measurement basis for question q, cached.

    Self-test (2n coordinates): q=0 all computational, q=1 all Hadamard,
    q=2 first n computational / last n Hadamard, q=3 the reverse. Dimension
    test (n coordinates): q=0 computational, q=1 Hadamard.
    """
    if q not in questions(kind):
        raise ParameterError(f"bad question {q}")
    if not paired(kind):
        return (HADAMARD_BASIS if q else COMPUTATIONAL,) * n
    first = COMPUTATIONAL if q in (0, 2) else HADAMARD_BASIS
    second = COMPUTATIONAL if q in (0, 3) else HADAMARD_BASIS
    return (first,) * n + (second,) * n


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


# The paper's bounds of the self-test's gammas by m = len(thetas("selftest", N)) = 2N+2 times a
# failure term. Per row: the check, the gammas summed on its left, the factor of m, the failure term
# of a failure_report dict, and the key of a run's Monte Carlo bound (None: a run has no such bound).
GAMMA_BOUNDS = (
    ("gamma_P <= (2N+2) eps_P", ("gamma_P",), 1, lambda f: f["eps_P"], "gamma_P"),
    ("gamma_T0 <= (2N+2) eps_H0", ("gamma_T0",), 1, lambda f: f["eps_H"][0], "gamma_T0"),
    ("gamma_T1 <= (2N+2) eps_H1", ("gamma_T1",), 1, lambda f: f["eps_H"][1], "gamma_T1"),
    ("tilde-gamma sum <= (2N+2)(eps_H2 + eps_H3)",
     ("gamma_T0_tilde", "gamma_T0_tilde_prime", "gamma_T1_tilde", "gamma_diamond_0", "gamma_diamond_1"),
     1, lambda f: f["eps_H"][2] + f["eps_H"][3], None),
    ("gamma_P <= 2(2N+2) eps", ("gamma_P",), 2, lambda f: f["eps"], None),
    ("gamma_T <= 8(2N+2) eps", ("gamma_T",), 8, lambda f: f["eps"], "gamma_T"),
    ("gamma_diamond <= 8(2N+2) eps", ("gamma_diamond",), 8, lambda f: f["eps"], "gamma_diamond"),
)


def gamma_bounds(n: int, failures: dict) -> list[tuple]:
    """(check, gammas, bound, stats key) per GAMMA_BOUNDS row, on failures
    {"eps_P", "eps_H": question -> eps_H, "eps"}: bound = (factor * m) * term."""
    m = len(thetas("selftest", n))
    return [
        (check, lhs, (factor * m) * term(failures), key) for check, lhs, factor, term, key in GAMMA_BOUNDS
    ]


# ---------------------------------------------------------------------------
# The Hadamard-round rule and the Sigma(theta, v) rule, on decoding codes
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


@functools.lru_cache(maxsize=256)
def decoded_bit_codes(kind: str, n: int, theta) -> tuple:
    """Per coordinate i, the indices into a label's codes (b-hat of each
    coordinate, then h-hat) whose parity is the bit the label decodes to at
    i: b-hat_i on an injective coordinate; on a claw, h-hat_i, xor its CZ
    partner's b-hat when that partner is injective. Both rules read it."""
    fams, size = families(kind, theta, n), n_coords(kind, n)
    return tuple(
        (i,) if fam == entcf.FAMILY_G
        else (size + i, partner(i, n)) if paired(kind) and fams[partner(i, n)] == entcf.FAMILY_G
        else (size + i,)
        for i, fam in enumerate(fams)
    )


def _marks(index_sets, size: int) -> np.ndarray:
    """The read-only (size, len(index_sets)) 0/1 matrix whose column k marks
    index_sets[k], set by one scatter."""
    out = np.zeros((size, len(index_sets)), dtype=np.int64)
    out[[i for at in index_sets for i in at], [k for k, at in enumerate(index_sets) for _ in at]] = 1
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=256)
def pair_checks(kind: str, n: int, theta, q: int) -> tuple:
    """The Hadamard-round rule of (theta, q), as its checks. A check (reject,
    bot, codes, answers) reads one coordinate and its CZ partner, and fails
    with Verdict `bot` if a code at `codes` is UNDECODED, else with `reject`
    if their parity is not that of the answer bits at `answers`. In judging
    order, first every injective
    coordinate q measures computationally must answer b-hat (".bhat"); then
    every claw coordinate q measures in the Hadamard basis must answer h-hat
    xor its partner's known bit: an injective partner's b-hat (".equation"),
    or a claw partner's answer where q measures it computationally
    (".bell"); with no partner (dimension test), h-hat alone."""
    bases, fams = question_bases(kind, n, q), families(kind, theta, n)
    bits, prefix = decoded_bit_codes(kind, n, theta), f"{_CASES[kind][theta_class(kind, theta, n)]}.q{q}"
    bhat, equation, bell = [
        (Verdict(0, f"{prefix}.{r}"), Verdict(0, f"{prefix}.{r}.bot")) for r in ("bhat", "equation", "bell")
    ]
    injective, claws, pairs = [], [], paired(kind)
    for i, (fam, basis) in enumerate(zip(fams, bases)):
        j = partner(i, n) if pairs else i
        if fam == entcf.FAMILY_G:
            if basis == COMPUTATIONAL:
                injective.append((*bhat, bits[i], (i,)))
        elif basis == HADAMARD_BASIS and (j == i or fams[j] == entcf.FAMILY_G):
            claws.append((*equation, bits[i], (i,)))
        elif basis == HADAMARD_BASIS and bases[j] == COMPUTATIONAL:
            claws.append((*bell, bits[i], (i, j)))
    return (*injective, *claws)


@functools.lru_cache(maxsize=256)
def _check_marks(kind: str, n: int, theta, q: int) -> tuple:
    """(code_marks, answer_marks): the 0/1 matrices, (2L, checks) and (L, checks), whose column per
    check of pair_checks marks the codes and answers it reads, for the cell path alone."""
    checks, size = pair_checks(kind, n, theta, q), n_coords(kind, n)
    return _marks([c[2] for c in checks], 2 * size), _marks([c[3] for c in checks], size)


def hadamard_rule(kind: str, n: int, theta, q: int, v, codes):
    """The checks of pair_checks on decoding codes (b-hat per coordinate,
    then h-hat; entcf.UNDECODED for None). On one session's v (L bits) and
    codes (2L ints): the Verdict of its first failing check, or ACCEPT. On
    arrays over cells, v (cells, L) and codes (cells, 2L): each cell's
    acceptance, as a bool array."""
    undecoded = entcf.UNDECODED
    if isinstance(codes, np.ndarray):  # a cell fails a check on parity 1 or on any UNDECODED code
        code_marks, answer_marks = _check_marks(kind, n, theta, q)
        failed = (codes @ code_marks + v @ answer_marks) % 2 + (codes == undecoded) @ code_marks
        return np.all(failed == 0, axis=1)
    for reject, bot, reads, answers in pair_checks(kind, n, theta, q):
        parity = 0
        for c in reads:
            if codes[c] == undecoded:
                return bot
            parity ^= codes[c]
        for a in answers:
            parity ^= v[a]
        if parity:
            return reject
    return ACCEPT


def _verdict(kind: str, n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """The Hadamard-round verdict on per-coordinate decodings, None where undefined."""
    if len(v) != n_coords(kind, n):
        raise ProtocolError("answer arity mismatch")
    return hadamard_rule(kind, n, theta, q, v, [entcf.UNDECODED if c is None else c for c in (*bhat, *hhat)])


def selftest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """Hadamard-round verdict for the self-test (2n coordinates, cases A-D)."""
    return _verdict("selftest", n, theta, q, v, bhat, hhat)


def dimtest_verdict(n: int, theta, q: int, v, bhat, hhat) -> Verdict:
    """Hadamard-round verdict for the dimension test (n coordinates, cases A-B)."""
    return _verdict("dimtest", n, theta, q, v, bhat, hhat)


def sigma_v(kind: str, n: int, theta, codes: np.ndarray):
    """(v, found) of a (rows, 2L) code array: where found[r], v[r] is the
    unique v with row r's label in Sigma(theta, v), its bits those the label
    decodes to, except that under THETA_DIAMOND h-hat_i fixes v_partner(i).
    An UNDECODED code puts the label in no Sigma(theta, v)."""
    at = decoded_bit_codes(kind, n, theta)
    if theta == THETA_DIAMOND:
        at = [at[partner(i, n)] for i in range(len(at))]
    reads = _marks(at, codes.shape[1])
    return (codes @ reads) % 2, np.all((codes == entcf.UNDECODED) @ reads == 0, axis=1)


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
        check_config(kind, config)
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
                ACCEPT if ok else Verdict(accept=0, reason="preimage.chk")
            )
        if self.phase == "await_d":
            self.hhat = decode_hhat(self.trapdoors, self.y, tuple(incoming.d))
            qs = questions(self.kind)
            self.q = qs[int(self.rng.integers(len(qs)))]
            self.phase = "await_answer"
            return Question(q=self.q)
        # looked up at call time, so wrappers of either verdict see it
        verdict = selftest_verdict if paired(self.kind) else dimtest_verdict
        v = tuple(incoming.v)
        return self._finish(verdict(self.config.N, self.theta, self.q, v, self.bhat, self.hhat))

    def _malformed(self, incoming) -> str | None:
        """Reject reason for a reply that is not the awaited message type
        with n_coords entries per field ("protocol"), or that has a field
        entry outside its domain ("protocol.<field>": an ideal image is a u32,
        a toylwe image's coordinates lie in [0, q)); None if well formed."""
        cls = _AWAITED[self.phase]
        if not isinstance(incoming, cls):
            return "protocol"
        for name, _ in FIELDS[cls]:
            entries = getattr(incoming, name)
            if not isinstance(entries, (tuple, list)) or len(entries) != self.n_coords:
                return "protocol"
        for name, kind in FIELDS[cls]:
            entries = getattr(incoming, name)
            bound = {"bit": 2, "wbits": 2**self.params.w, "image": 2**32}[kind]
            if kind == "image" and self.params.backend == "toylwe":
                if not all(isinstance(e, tuple) and len(e) == self.params.m for e in entries):
                    return f"protocol.{name}"
                entries, bound = [c for e in entries for c in e], self.params.q  # reduced mod q
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
