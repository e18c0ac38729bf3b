"""State-vector oracles of the honest device, the table oracle of ideal
keys, and stand-in generators that read a device's exact outcome
probabilities; test helpers only.

FullsimProver builds each coordinate's superposition
sum_{b,x} |b>|x>|f_b(x)> as a dense state vector and Born-measures every
step up to the final one, which it shares with HonestProver. It is the
cross-validation oracle of the collapsed path that every run takes, and is
budget-limited. reference_measure_qubit_vector and reference_measure_pair
are the state-vector references of that final step.

TableKey is an ideal key as its whole truth table, the form ideal keys once
had: every map is a scan of the table, the oracle of the succinct key's one
P or P^-1 evaluation.
"""
import collections
from dataclasses import dataclass

import numpy as np

from selftestsim import entcf, qsim
from selftestsim.errors import SelfTestError
from selftestsim.protocol import COMPUTATIONAL, HADAMARD_BASIS
from selftestsim.prover import HonestProver

# most amplitudes one fullsim coordinate may hold
FULLSIM_BUDGET = 2**20


class BudgetError(SelfTestError, RuntimeError):
    """Requested simulation exceeds the configured size budget."""


class FullsimProver(HonestProver):
    """The honest device as a full state vector, up to the final measurement,
    which it shares with HonestProver."""

    def __init__(self, kind: str, rng: np.random.Generator):
        super().__init__(kind, rng)
        self._full_states = []  # per coordinate: the state its y measurement leaves

    def on_keys(self, keys):
        """y from Born-measuring each coordinate's superposition; keeps the
        state each measurement leaves."""
        self.keys = list(keys)
        y = []
        for key in self.keys:
            if key.params.backend == "toylwe" and len(self.keys) > 1:
                raise BudgetError("fullsim with a toylwe backend handles one coordinate only")
            w = key.params.w
            supports = {(b, x): entcf.support(key, b, x) for b in (0, 1) for x in range(2**w)}
            labels = sorted(frozenset().union(*supports.values()))
            if 2 ** (1 + w) * len(labels) > FULLSIM_BUDGET:
                raise BudgetError("fullsim coordinate exceeds the simulator budget")
            index = {label: i for i, label in enumerate(labels)}
            tens = np.zeros((2, 2**w, len(labels)), dtype=complex)
            for (b, x), supp in supports.items():
                amp = 1.0 / np.sqrt(2.0 * 2**w * len(supp))
                for label in supp:
                    tens[b, x, index[label]] += amp
            state = qsim.StateVector(
                tens, [("b", 2), ("x", 2**w), ("y", len(labels))], normalize=True
            )
            outcome, state = state.measure("y", COMPUTATIONAL, self.rng)
            self._full_states.append(state)
            y.append(labels[outcome])
        return y

    def on_preimage(self):
        bs, xs = [], []
        for state in self._full_states:
            b, state = state.measure("b", COMPUTATIONAL, self.rng)
            x, _ = state.measure("x", COMPUTATIONAL, self.rng)
            bs.append(b)
            xs.append(x)
        return bs, xs

    def on_hadamard(self):
        ds = []
        self.qubits = []
        for state in self._full_states:
            d, state = state.measure("x", HADAMARD_BASIS, self.rng)
            ds.append(d)
            self.qubits.append(tuple(state.amps.tolist()))
        return ds


def reference_measure_qubit_vector(vec, basis, rng):
    state = qsim.StateVector(vec, [("q", 2)], normalize=True)
    outcome, _ = state.measure("q", basis, rng)
    return outcome


def reference_measure_pair(vec_i, vec_j, basis_i, basis_j, rng):
    """State-vector CZ and measurement; the closed form must match it draw
    for draw."""
    amps = np.kron(vec_i, vec_j)
    state = qsim.StateVector(amps, [("i", 2), ("j", 2)], normalize=True)
    state = qsim.controlled_z(state, "i", "j")
    out_i, state = state.measure("i", basis_i, rng)
    out_j, _ = state.measure("j", basis_j, rng)
    return out_i, out_j


# ---------------------------------------------------------------------------
# Ideal keys as truth tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TableKey:
    """An ideal key as its (2, 2^w) truth table, table[b, x] = f_b(x), with
    the key's maps as scans of the table (decode_b and decode_h are what a
    G and an F trapdoor decode)."""

    params: entcf.EntcfParams
    table: np.ndarray

    @classmethod
    def of(cls, key: entcf.PublicKey) -> "TableKey":
        """The table of a succinct key, entry by entry from its definition
        f_b(x) = P(x ^ b.mask), P(z) = (a.z + c) mod M, in Python ints."""
        size = key.params.image_space_size
        xs = range(2**key.params.w)
        return cls(key.params, np.array([[(key.a * (x ^ (b * key.mask)) + key.c) % size for x in xs] for b in (0, 1)]))

    def forward(self, b, x) -> int:
        return int(self.table[b, x])

    def contains(self, b, x, y) -> bool:
        return int(self.table[b, x]) == y

    def chk(self, y, b, x) -> int:
        return 0 if self.contains(b, x, y) else 1

    def preimages(self, y) -> list:
        bs, xs = (self.table == y).nonzero()  # row-major: b first, then x
        return list(zip(bs.tolist(), xs.tolist()))

    def decode_b(self, y):
        """The row that holds y, or None."""
        return next((b for b in (0, 1) if y in self.table[b]), None)

    def decode_x(self, b, y):
        """y's index in row b, or None."""
        row = self.table[b].tolist()
        return row.index(y) if y in row else None

    def decode_h(self, y, d):
        """d . (x0 xor x1) of the two rows' preimages of y, or None for d = 0
        or a y that is not in both rows."""
        if d == 0:
            return None
        x0, x1 = (self.decode_x(b, y) for b in (0, 1))
        return None if x0 is None or x1 is None else entcf.parity(d & (x0 ^ x1))


# ---------------------------------------------------------------------------
# Exact outcome probabilities
# ---------------------------------------------------------------------------

class FixedDraws:
    """Stands in for a Generator whose integers() and random() return the
    queued values, in order."""

    def __init__(self, *values):
        self.values = list(values)

    def integers(self, high):
        return self.values.pop(0)

    def random(self):
        return self.values.pop(0)


def threshold(outcome_of_u) -> float:
    """P(outcome 0) for a sampler that returns 0 iff its draw u is below a
    threshold, found by bisection on u. 50 halvings give 2^-50 resolution and
    keep u below 1, which random() never returns."""
    lo, hi = 0.0, 1.0
    for _ in range(50):
        mid = (lo + hi) / 2
        if outcome_of_u(mid) == 0:
            lo = mid
        else:
            hi = mid
    return hi


def answer_distribution(answer, bits: int) -> dict:
    """{v: probability} of answer(us), whose random() draw us[k] decides
    v[k]: 0 iff us[k] lies below a threshold set by the draws before it."""
    out = {}

    def walk(us, weight):
        k = len(us)
        if k == bits:
            out[tuple(answer(us))] = weight
            return
        p0 = threshold(lambda u: answer(us + [u] + [0.5] * (bits - k - 1))[k])
        # u = 0 draws outcome 0 and u just below 1 draws outcome 1 when either has mass
        for u, p in ((0.0, p0), (np.nextafter(1.0, 0.0), 1.0 - p0)):
            if p > 0.0:
                walk(us + [u], weight * p)

    walk([], 1.0)
    return out


class _Branch(Exception):
    """A draw past the queued outcomes, with the weights it was offered."""

    def __init__(self, p):
        super().__init__()
        self.p = p


class BornDraws:
    """Stands in for a Generator in StateVector.measure: choice() returns the
    queued outcomes in order and multiplies the Born probability of each into
    `weight`; a draw past the queue raises _Branch with its weights."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.weight = 1.0

    def choice(self, n, p):
        if not self.outcomes:
            raise _Branch(p)
        outcome = self.outcomes.pop(0)
        self.weight *= p[outcome]
        return outcome


def born_distribution(run) -> dict:
    """{result: probability} of run(rng), whose only draws are the choice()
    calls of StateVector.measure: run is replayed down every branch. A branch
    of norm below qsim.ATOL is rounding noise, onto which StateVector.measure
    refuses to collapse, and is skipped."""
    out = collections.defaultdict(float)
    paths = [()]
    while paths:
        path = paths.pop()
        rng = BornDraws(path)
        try:
            result = run(rng)
        except _Branch as branch:
            paths.extend(path + (k,) for k, pk in enumerate(branch.p) if pk > qsim.ATOL**2)
        else:
            out[result] += rng.weight
    return dict(out)
