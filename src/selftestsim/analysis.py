"""White-box device analysis.

Builds explicit device models (states, preimage measurement, d-measurement,
question measurements) as block-diagonal operators over the classical image
and equation registers, then computes the trace-based diagnostics: the gamma
quantities and failure probabilities with their inequality suite, the swap
isometry with its exact identities, soundness distances against the ideal
target states, the rank proposition, and the quantum-dimension certificate.

Conventions: a model's quantum space H_D is laid out as (logical qubits, x
registers, optional environment registers), but no operator is built on all
of it. The Hadamard round measures each x register in the Hadamard basis: on
an honest-family device column d of an image's claw state leaves a qubit
vector that depends on d only through an h-parity, up to sign, and every
question measurement is the identity on x. So x drops out of every trace the
analysis takes, and sigma blocks and question operators live on logical (x)
env; an environment is a unit vector tensored onto each block.
Classical labels are (y, d) tuples; every state block is a pure
(unnormalized) vector whose squared norm is the block's probability mass.
Every report is a sum over labels of a quantity of degree 2 in the block, so
labels whose blocks are parallel and share a decoding are summed as one row:
a decoding class. theta uses the protocol module's encoding.

Every question, d and preimage measurement is a Measurement: an orthonormal
basis whose columns carry outcome labels, whose branches are P_u applied to
rows. A DeviceModel's fields are its inputs; what the reports read is
derived from them once, as cached properties: tables (each theta's class
rows), masses (outcome masses <row|P_u|row>, one masses call per question
over every theta's rows), preimage_mass, swap (the swap isometry V) and
soundness. A gamma term is the Sigma mass whose answer bits agree with v, a
zeta or chi term four times the Sigma mass on which they disagree. Decodings
stay int codes (protocol's encoding); the failure report sums masses per
decoding with one product and judges them with one Hadamard-round rule
evaluation per (theta, question). soundness stacks the Sigma rows of a group
of thetas and lifts them at once, and their branches a chunk of outcomes at
a time, within qsim.CHUNK_ENTRIES entries; each theta keeps the sums it has
alone.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field, replace

import numpy as np

from . import entcf, protocol, qsim
from .errors import ModelError, ParameterError
from .protocol import COMPUTATIONAL, HADAMARD_BASIS, THETA_ALL_G, THETA_DIAMOND

# most entries one array of the analysis may have
_ENTRY_BUDGET = 2**25


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def bits_to_int(bits) -> int:
    out = 0
    for b in bits:
        out = (out << 1) | int(b)
    return out


def all_bit_tuples(n: int):
    return list(itertools.product((0, 1), repeat=n))


def _kron_basis(bases) -> np.ndarray:
    """Kronecker product of per-qubit bases, COMPUTATIONAL or HADAMARD_BASIS:
    column bits_to_int(u) is the pattern state of answer u."""
    qubit = {COMPUTATIONAL: np.eye(2, dtype=complex), HADAMARD_BASIS: qsim.hadamard_matrix(1)}
    return functools.reduce(np.kron, [qubit[b] for b in bases], np.ones((1, 1), dtype=complex))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _mass(rows: np.ndarray) -> np.ndarray:
    """Squared norm of each vector along the last axis."""
    return np.einsum("...d,...d->...", rows.conj(), rows).real


def _first_min(values) -> int:
    """Index of the first value within 1e-12 of the minimum: among equal
    distances the first (smallest v, or first block) wins, not round-off."""
    values = np.asarray(values)
    return int(np.flatnonzero(values <= values.min() + 1e-12)[0])


def _check_size(logical: int, env_dim: int, projectors: int = 0) -> None:
    """Refuse a model whose largest array, or whose cached projectors
    together, exceed _ENTRY_BUDGET entries; builders call this before they
    build anything. The largest array is the swap isometry V, 2^L * dim^2
    with dim = 2^L * env_dim (as is one question's projector set); an
    explicit model also caches `projectors` dim x dim projectors, one per
    outcome of each question, d-measurement and preimage measurement.
    Nothing the analysis builds grows with 2^w faster than the key tables."""
    size = max(2**logical, projectors) * (2**logical * env_dim) ** 2
    if size > _ENTRY_BUDGET:
        raise ModelError(f"model of {size} array entries exceeds budget {_ENTRY_BUDGET}")


def _label_codes(trapdoors, ys, ds) -> np.ndarray:
    """(labels, 2L) codes of labels given per coordinate, ys[i] and ds[i]
    arrays: b-hat per coordinate, then h-hat, entcf.UNDECODED for None.
    protocol.decode_bhat and decode_hhat make one array decode per coordinate."""
    decoded = protocol.decode_bhat(trapdoors, ys) + protocol.decode_hhat(trapdoors, ys, ds)
    undecoded = np.full(len(ys[0]), entcf.UNDECODED)
    return np.array([undecoded if c is None else c for c in decoded], dtype=np.int8).T


def _frozen(arr: np.ndarray) -> np.ndarray:
    """arr, made read-only: it is cached and shared."""
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# Device model
# ---------------------------------------------------------------------------

class Measurement:
    """A projective measurement in an orthonormal basis: column j of `basis`
    answers labels[j]. `outcomes` are the distinct labels, sorted, and
    projectors[k], built once, is the sum of |b_j><b_j| over the columns j
    that answer outcomes[k]. A basis that is not square and orthonormal is
    refused. basis, projectors and observables are read-only and kept on the instance."""

    def __init__(self, basis: np.ndarray, labels):
        self.labels = list(labels)
        size = len(self.labels)
        basis = np.array(basis, dtype=complex)
        if basis.shape != (size, size) or np.linalg.norm(basis.conj().T @ basis - np.eye(size)) > 1e-8:
            raise ModelError("measurement basis is not orthonormal")
        self.basis = _frozen(basis)
        self.outcomes = sorted(set(self.labels))

    @functools.cached_property
    def projectors(self) -> np.ndarray:
        cols = [self.basis[:, [label == u for label in self.labels]] for u in self.outcomes]
        return _frozen(np.array([c @ c.conj().T for c in cols]))

    def branches(self, rows: np.ndarray, k=slice(None)) -> np.ndarray:
        """[k, r]: P_k b_r, the projectors k (all by default) applied to each row."""
        return rows @ self.projectors[k].swapaxes(1, 2)

    def masses(self, rows: np.ndarray) -> np.ndarray:
        """(outcomes, rows) array of <b|P_k|b> for each row b: P_k is applied,
        then a row-wise dot taken, so a row P_k annihilates has mass 0.0. The
        projectors are applied a chunk at a time, each chunk's product within
        qsim.CHUNK_ENTRIES entries (at least one projector)."""
        step = max(1, qsim.CHUNK_ENTRIES // max(rows.size, 1))
        applied = (self.branches(rows, slice(k, k + step)) for k in range(0, len(self.outcomes), step))
        return np.concatenate([np.einsum("...d,...d->...", rows.conj(), chunk) for chunk in applied]).real

    @functools.cached_property
    def observables(self) -> np.ndarray:
        """observables[i] is answer bit i's +-1 observable, sum_k (-1)^(outcomes[k][i]) P_k."""
        signs = [[1.0 - 2.0 * u[i] for u in self.outcomes] for i in range(len(self.outcomes[0]))]
        return _frozen(np.array([np.tensordot(sign, self.projectors, axes=1) for sign in signs]))


@dataclass(frozen=True)
class ClassTable:
    """One theta's sigma rows. Each row stands for a set of (y, d) labels
    with nonzero mass that share a decoding and whose blocks are parallel;
    the row is their common direction scaled to the root of their summed
    mass, so |row><row| is the sum of their |block><block|. A product-form
    model merges every such set: its rows are products of coord_classes,
    which holds every theta's coordinate classes from one pass. An explicit
    model keeps a row per label.
    rows[k] decodes to decodings[index[k]], a row of the (decodings, 2L)
    array of distinct codes: b-hat per coordinate, then h-hat, entcf.UNDECODED
    for None. blocks are the rows with a Sigma(theta, v), ordered by v,
    rows[stack], block_v their v's, and residual the mass of the other rows.
    The arrays are read-only."""

    rows: np.ndarray
    index: np.ndarray
    decodings: np.ndarray
    stack: np.ndarray
    blocks: np.ndarray
    block_v: np.ndarray
    residual: float


@dataclass(eq=False)
class DeviceModel:
    """Block-diagonal device description, in one of two forms; its fields are
    the inputs, and everything derived from them is a cached property.

    A product-form model (d_meas None; the honest family) holds no psi: its
    state is read from the key tables (_honest_images), coordinate i's state
    at y_i on qubit (x) x register being the uniform superposition of the
    |b, x> with f_b(x) = y_i, and its block at y the product of its
    coordinates' sqrt(weight) * state, times the CZ signs when the protocol
    pairs coordinates. It measures each x register in the Hadamard basis, a
    claw coordinate's column d answering the smallest nonzero d of its
    h-parity, so d = 0 is never answered. Its preimage measurement is the
    computational basis on qubits and x registers.
    An explicit model (d_meas given) has no x registers and keeps psi[theta]:
    dict y -> pure vector on the logical qubits (squared norm = Pr[y]); its
    d-measurement is the y-independent Measurement d_meas[theta], labelled by
    d tuples, and its preimage measurement `preimage` is labelled by (b, x)
    tuples (None: no preimage passes).
    env: unit vector on the environment, in a product with the state
    (default: no environment).
    questions[q]: the Measurement of question q on logical (x) env, labelled
    by answer tuples u; `dim` is the size of that space.
    """

    protocol: str
    n: int
    w: int
    logical: int
    thetas: tuple
    keys: dict
    trapdoors: dict
    psi: dict | None
    questions: dict
    d_meas: dict | None = None
    preimage: Measurement | None = None
    env: np.ndarray = field(default_factory=lambda: np.ones(1, dtype=complex))
    name: str = "model"

    @functools.cached_property
    def dim(self) -> int:
        return 2**self.logical * self.env.size

    @functools.cached_property
    def tables(self) -> dict:
        """theta -> ClassTable: theta's sigma rows and decodings."""
        return {theta: self._build_table(theta) for theta in self.thetas}

    @functools.cached_property
    def masses(self) -> dict:
        """q -> theta -> questions[q].masses of theta's class rows: a read-only
        column slice of one masses call per question over every theta's rows."""
        rows = np.concatenate([self.tables[t].rows for t in self.thetas])
        bounds = [0, *itertools.accumulate(len(self.tables[t].rows) for t in self.thetas)]
        out = {}
        for q, meas in self.questions.items():
            masses = _frozen(meas.masses(rows))
            out[q] = {t: masses[:, lo:hi] for t, lo, hi in zip(self.thetas, bounds, bounds[1:])}
        return out

    def _build_table(self, theta) -> ClassTable:
        rows, codes = self._product_rows(theta) if self.d_meas is None else self._label_rows(theta)
        key = (codes + 1).astype(np.int64) @ 3 ** np.arange(codes.shape[1])
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # distinct decodings in order of first row
        index = np.argsort(order)[index.ravel()]
        v, found = protocol.sigma_v(self.protocol, self.n, theta, codes)
        stack = np.flatnonzero(found)
        stack = stack[np.lexsort(v[stack].T[::-1])]  # by v, first bit first; lexsort is stable
        return ClassTable(
            _frozen(rows), _frozen(index), _frozen(codes[first[order]]), _frozen(stack), _frozen(rows[stack]),
            _frozen(v[stack]), float(np.sum(_mass(rows[~found]))),
        )

    def _label_rows(self, theta):
        """(rows, codes) of an explicit model: one row per (y, d) label with
        nonzero mass, in label order."""
        ys = sorted(self.psi[theta])
        d_tuples = self.d_meas[theta].outcomes
        psi = np.array([self.psi[theta][y] for y in ys])
        rest = self.d_meas[theta].branches(psi).swapaxes(0, 1)  # [y, d]: P_d psi_y
        grid = (rest[..., None] * self.env).reshape(-1, self.dim)
        keep = np.flatnonzero(_mass(grid) >= qsim.ATOL**2)
        yrow, dcol = np.divmod(keep, len(d_tuples))
        y_arr, d_arr = np.array(ys, dtype=np.int64)[yrow], np.array(d_tuples, dtype=np.int64)[dcol]
        return grid[keep], _label_codes(self.trapdoors[theta], y_arr.T, d_arr.T)

    def _product_rows(self, theta):
        """(rows, codes) of a product-form model: the product of its
        coordinates' classes, coordinate 0 slowest, times the CZ signs and
        tensored with env. Parallel factors give parallel products, so each
        product is one decoding class."""
        L = self.logical
        classes = self.coord_classes[theta]
        grid = np.indices([len(codes) for codes, _ in classes]).reshape(L, -1)
        rows = np.ones((grid.shape[1], 1), dtype=complex)
        for (_, vecs), pick in zip(classes, grid):
            rows = (rows[:, :, None] * vecs[pick][:, None, :]).reshape(grid.shape[1], -1)
        if protocol.paired(self.protocol):
            rows = rows * _cz_signs(self.n)
        rows = (rows[:, :, None] * self.env).reshape(grid.shape[1], self.dim)
        codes = np.array([coord_codes[pick] for (coord_codes, _), pick in zip(classes, grid)])  # (L, rows, 2)
        return rows, np.concatenate([codes[:, :, 0].T, codes[:, :, 1].T], axis=1)

    @functools.cached_property
    def coord_classes(self) -> dict:
        """theta -> [(codes, vecs) of each coordinate], for every (theta,
        coordinate) of a product-form model in one pass over _honest_images
        of all their key tables. Column d of the Hadamard round maps an
        image's support {(b_k, x_k, a_k)} to 2^(-w/2) sum_k (-1)^(d.x_k) a_k
        |b_k>. Up to sign, that vector is the same for
        every d when the image has one preimage, and depends on d only
        through parity(d & t), t = x_0 xor x_1, when it has a claw's two. So
        an image has one outcome per coset of d's (one or two), of mass
        weight * |coset| / 2^w, decoded at the coset's smallest nonzero d by
        one array decode per coordinate. One np.unique groups the outcomes,
        coordinate-major, by (coordinate, code), and one bincount sums each
        class's mass; a class's vector is its first outcome's direction
        scaled to the root of that mass, classes in order of first outcome.
        Every outcome must be parallel to its class's first within 1e-12, or
        ModelError; on the honest state a code fixes the direction up to
        sign."""
        coords = [(theta, i) for theta in self.thetas for i in range(self.logical)]
        tables = np.stack([self.keys[theta][i].table for theta, i in coords])
        owner, ys, weight, b, x, amp = _honest_images(tables)
        t = x[:, 0] ^ x[:, 1]
        # smallest nonzero d per coset: 1, 2 or 3 for parity(d & t) = 0 (w >= 2), t's low bit for 1
        ds = np.stack([np.where(t & 1 == 0, 1, np.where(t & 2 == 0, 2, 3)), t & -t], axis=1)
        signs = 1.0 - 2.0 * (np.bitwise_count(ds[:, :, None] & x[:, None, :]) & 1)
        vecs = (signs * amp[:, None, :]) @ (b[:, :, None] == np.arange(2))  # (images, cosets, 2)
        keep = np.stack([np.ones_like(t, dtype=bool), t != 0], axis=1).ravel()
        units = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True)).reshape(-1, 2)[keep].astype(complex)
        masses = np.repeat(weight / (1 + (t != 0)), 2)[keep]
        ys = np.repeat(ys, 2)[keep]
        ds, owner = ds.ravel()[keep], np.repeat(owner, 2)[keep]
        bounds = np.searchsorted(owner, np.arange(len(coords) + 1))
        codes = np.concatenate([
            _label_codes([self.trapdoors[theta][i]], [ys[lo:hi]], [ds[lo:hi]])
            for (theta, i), lo, hi in zip(coords, bounds, bounds[1:])
        ])
        groups = owner * 9 + (codes + 1) @ [3, 1]  # (coordinate, code)
        _, first, inverse = np.unique(groups, return_index=True, return_inverse=True)
        order = np.argsort(first)  # classes by first outcome, so coordinate-major
        first, inverse = first[order], np.argsort(order)[inverse]
        if np.any(np.abs(np.sum(units * units[first][inverse].conj(), axis=1)) ** 2 < 1.0 - 1e-12):
            raise ModelError("outcomes that share a decoding are not parallel")
        vecs = np.sqrt(np.bincount(inverse, weights=masses))[:, None] * units[first]
        bounds = np.searchsorted(owner[first], np.arange(len(coords) + 1))
        out = {theta: [] for theta in self.thetas}
        for (theta, _), lo, hi in zip(coords, bounds, bounds[1:]):
            out[theta].append((codes[first[lo:hi]], vecs[lo:hi]))
        return out

    @functools.cached_property
    def preimage_mass(self) -> dict:
        """theta -> preimage-test pass mass; the environment is a unit vector,
        so it does not enter. A product-form model's mass is 1: its support at
        each y_i holds exactly the (b, x) f maps to y_i."""
        if self.d_meas is None:
            return dict.fromkeys(self.thetas, 1.0)
        if self.preimage is None:
            return dict.fromkeys(self.thetas, 0.0)
        out = {}
        for theta in self.thetas:
            keys, ys = self.keys[theta], sorted(self.psi[theta])
            masses = self.preimage.masses(np.array([self.psi[theta][y] for y in ys]))
            passed = [[entcf.chk(keys, y, b, x) == 0 for y in ys] for b, x in self.preimage.outcomes]
            out[theta] = float(np.sum(masses[np.array(passed)]))
        return out

    @functools.cached_property
    def swap(self) -> np.ndarray:
        """The swap isometry V = sum_u |u> (x) prod_i X_i^{u_i} prod_j
        Z_j^{(u_j)}, products in ascending index order, as a (2^L * dim, dim)
        matrix. The Z_j are the marginals of question 0, so prod_j
        Z_j^{(u_j)} is its projector P_u. Read-only."""
        L, dim = self.logical, self.dim
        xs = self.questions[1].observables
        v = np.zeros((2**L, dim, dim), dtype=complex)
        for u, term in zip(self.questions[0].outcomes, self.questions[0].projectors):
            for i in reversed(range(L)):
                if u[i]:
                    term = xs[i] @ term
            v[bits_to_int(u)] = term
        return _frozen(v.reshape(-1, dim))

    @functools.cached_property
    def soundness(self) -> dict:
        """theta -> soundness_distance, with thetas stacked in groups, as many
        as keep four arrays of their lifted rows within qsim.CHUNK_ENTRIES
        entries, or one, and each group computed by _soundness_group."""
        out, width = {}, 2**self.logical * self.dim
        rows = max(len(self.tables[t].blocks) for t in self.thetas)
        per = max(1, qsim.CHUNK_ENTRIES // max(4 * rows * width, 1))
        for lo in range(0, len(self.thetas), per):
            out.update(_soundness_group(self, self.thetas[lo : lo + per]))
        return out


# ---------------------------------------------------------------------------
# Honest model construction
# ---------------------------------------------------------------------------

def _honest_images(tables: np.ndarray):
    """(owner, y, weight, b, x, amp) of every image of a stack of (2, 2^w)
    key tables, by table, then y: the honest device's state at y is the sum
    of amplitude |b, x> over the (b, x) with f_b(x) = y, b first, then x (an
    injective key's one preimage or a claw's two), each preimage of mass
    2^-(w+1). b, x and amp are (images, 2) arrays of the first and last
    preimage; a lone preimage is both, its second amplitude 0. Public: the
    tables alone, no trapdoor and no preimage scan."""
    flat = tables.reshape(len(tables), -1)
    size = flat.shape[1]
    keyed = (np.arange(len(flat))[:, None] << 32 | flat).ravel()  # by table, then y (images are u32)
    entries = np.argsort(keyed, kind="stable")  # stable: b first, then x
    _, first, counts = np.unique(keyed[entries], return_index=True, return_counts=True)
    ends = entries[np.stack([first, first + counts - 1], axis=1)]
    b, x = np.divmod(ends % size, size // 2)
    amp = np.repeat(1.0 / np.sqrt(counts)[:, None], 2, axis=1)
    amp[:, 1] *= counts - 1  # a lone preimage's amplitude counts once
    return ends[:, 0] // size, flat.ravel()[ends[:, 0]], counts / size, b, x, amp


@functools.lru_cache(maxsize=None)
def _cz_signs(n: int) -> np.ndarray:
    """(-1)^(sum_i q_i q_(N+i)) over the 2N-qubit computational basis, read-only."""
    bits = (np.arange(2 ** (2 * n))[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
    return _frozen(1.0 - 2.0 * (np.sum(bits[:, :n] & bits[:, n:], axis=1) % 2))


def build_honest_model(
    config: protocol.SelfTestConfig | protocol.DimTestConfig,
    protocol_kind: str,
    rng: np.random.Generator,
) -> DeviceModel:
    protocol.check_config(protocol_kind, config)
    params = config.entcf
    if params.backend != "ideal" or params.w < 2:  # w >= 2: a claw's even coset has a nonzero d
        raise ModelError("white-box analysis supports the ideal backend with w >= 2 only")
    n, w = config.N, params.w
    logical = protocol.n_coords(protocol_kind, n)
    _check_size(logical, 1)
    # the model enumerates each coordinate's 2^(w+1) key-table images
    entcf.check_scan(params, "the analysis")
    thetas = protocol.thetas(protocol_kind, n)
    keys, trapdoors = {}, {}
    for theta in thetas:
        keys[theta], trapdoors[theta] = protocol.keypairs(protocol_kind, theta, n, params, rng)
    questions = {q: question_measurement(protocol_kind, n, q) for q in protocol.questions(protocol_kind)}
    return DeviceModel(protocol_kind, n, w, logical, thetas, keys, trapdoors, None, questions, name="honest")


def check_bitflip(protocol_kind: str, n: int) -> None:
    """Refuse a bitflip model past the budget before the honest model it dilates is built."""
    logical = protocol.n_coords(protocol_kind, n)
    _check_size(logical, 2**logical)


def build_device_model(honest: DeviceModel, device) -> DeviceModel:
    """An honest-family prover.Device's model, from the honest model: question
    q measures as honest question device.question(q), and a flip probability
    p is dilated into an environment qubit per logical qubit: the flip pattern
    e is in a product state beside the honest state, and question q measures in
    kron(B_q, 1_env), whose column (u, e) answers u xor e."""
    questions = {q: honest.questions[device.question(q)] for q in honest.questions}
    p = device.flip
    if p is None:
        return replace(honest, questions=questions, name=device.name)
    check_bitflip(honest.protocol, honest.n)
    logical = honest.logical
    anc = np.array([np.sqrt(1.0 - p), np.sqrt(p)], dtype=complex)
    env = functools.reduce(np.kron, [anc] * logical)
    flips = all_bit_tuples(logical)
    questions = {
        q: Measurement(
            np.kron(meas.basis, np.eye(2**logical)),
            [tuple(a ^ b for a, b in zip(u, e)) for u in meas.labels for e in flips],
        )
        for q, meas in questions.items()
    }
    return replace(honest, questions=questions, env=env, name=f"bitflip({p})")


def build_random_model(config: protocol.SelfTestConfig, rng: np.random.Generator) -> DeviceModel:
    """Random projective device: Haar-random measurement bases assigned to
    random labels, random pure state blocks on four valid y tuples."""
    params = config.entcf
    n, w = config.N, params.w
    logical = protocol.n_coords("selftest", n)
    dim = 2**logical
    thetas = protocol.thetas("selftest", n)
    _check_size(logical, 1, (4 + len(thetas) + 1) * dim)
    entcf.check_scan(params, "the analysis")
    keys, trapdoors, psi, d_meas = {}, {}, {}, {}
    for theta in thetas:
        keys[theta], trapdoors[theta] = protocol.keypairs("selftest", theta, n, params, rng)
        y_lists = [entcf.image_iter(k) for k in keys[theta]]
        chosen = set()
        while len(chosen) < 4:
            chosen.add(tuple(ys[rng.integers(len(ys))] for ys in y_lists))
        weights = rng.dirichlet(np.ones(len(chosen)))
        blocks = {}
        for y, wt in zip(sorted(chosen), weights):
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            blocks[y] = np.sqrt(wt) * vec / np.linalg.norm(vec)
        psi[theta] = blocks
        basis = haar_unitary(dim, rng)
        d_labels = set()
        while len(d_labels) < dim:
            d_labels.add(tuple(int(rng.integers(2**w)) for _ in range(logical)))
        d_meas[theta] = Measurement(basis, sorted(d_labels))
    answers = all_bit_tuples(logical)
    questions = {q: Measurement(haar_unitary(dim, rng), answers) for q in protocol.questions("selftest")}
    basis = haar_unitary(dim, rng)
    labels = set()
    while len(labels) < dim:
        b = tuple(int(rng.integers(2)) for _ in range(logical))
        x = tuple(int(rng.integers(2**w)) for _ in range(logical))
        labels.add((b, x))
    return DeviceModel(
        "selftest", n, w, logical, thetas, keys, trapdoors, psi, questions, d_meas=d_meas,
        preimage=Measurement(basis, sorted(labels)), name="random",
    )


def build_classical_model(
    config: protocol.DimTestConfig, rng: np.random.Generator
) -> DeviceModel:
    """Deterministic-table device for the dimension test: the device picks
    preimages classically, answers with the decoded bits, and every state and
    measurement is diagonal in one fixed basis. It passes every Hadamard
    round but has no preimage measurement, so it fails every preimage round
    (eps_P = 1, eps = 1/2), unlike the Monte Carlo `classical` prover, which
    passes them. Its post-measurement states are pure, so the certified
    dimension collapses."""
    params = config.entcf
    n, w = config.N, params.w
    logical = n
    dim = 2**logical
    thetas = protocol.thetas("dimtest", n)
    _check_size(logical, 1, 2 * dim + len(thetas))
    keys, trapdoors, psi, d_meas = {}, {}, {}, {}
    basis = np.eye(dim, dtype=complex)
    for theta in thetas:
        ks, ts = protocol.keypairs("dimtest", theta, n, params, rng)
        keys[theta], trapdoors[theta] = ks, ts
        y, d, v = [], [], []
        for key, trap in zip(ks, ts):
            # an injective coordinate answers its own b, a claw one its h-hat
            injective = trap.family == entcf.FAMILY_G
            bit = int(rng.integers(2)) if injective else 0
            y.append(entcf.forward_sample(key, bit, int(rng.integers(2**w)), rng))
            d.append(int(rng.integers(1, 2**w)))
            v.append(bit if injective else entcf.decode_h(trap, y[-1], d[-1]))
        j = bits_to_int(v)
        psi[theta] = {tuple(y): basis[:, j].copy()}
        d_meas[theta] = Measurement(basis, [tuple(d)] * dim)
    questions = {q: Measurement(basis, all_bit_tuples(logical)) for q in protocol.questions("dimtest")}
    return DeviceModel(
        "dimtest", n, w, logical, thetas, keys, trapdoors, psi, questions, d_meas=d_meas, name="classical"
    )


# ---------------------------------------------------------------------------
# sigma, gamma, failure
# ---------------------------------------------------------------------------

def sigma_residual(model: DeviceModel, theta) -> float:
    """trace norm of sigma^theta minus the sum of its Sigma(theta, v) parts."""
    return model.tables[theta].residual


def _agreement(model: DeviceModel, theta, q: int, bits: list, v_bit: int) -> float:
    """The Sigma mass of theta whose question-q answer bits `bits` xor to bit
    v_bit of the block's v. For the +-1 observable O = sum_u (-1)^(xor of
    u's bits) P_u and a block b of v, it is (|b|^2 + (-1)^(v[v_bit]) <b|O|b>) / 2."""
    table = model.tables[theta]
    parity = np.array([sum(u[j] for j in bits) % 2 for u in model.questions[q].outcomes])
    masses = model.masses[q][theta][:, table.stack]
    return float(np.sum(masses[parity[:, None] == table.block_v[:, v_bit]]))


def gamma_report(model: DeviceModel) -> dict:
    """Each gamma is 1 minus the least agreement mass of its terms: question
    0 tests Z_i, question 1 X_theta, questions 2 and 3 the tilde observables
    (Z on the coordinates they measure computationally, X on the others) and
    the diamond products Z~_i X~_(N+i) and X~_i Z~_(N+i)."""
    if model.protocol != "selftest":
        raise ModelError("gamma quantities are defined for the self-test model")
    n = model.n
    coords = list(range(model.logical))

    def gamma(terms) -> float:
        return 1.0 - min(_agreement(model, *term) for term in terms)

    gamma_p = 1.0 - min(model.preimage_mass.values())
    non_diamond = [t for t in model.thetas if t != THETA_DIAMOND]
    gamma_t0 = gamma((t, 0, [i], i) for t in non_diamond for i in coords if i != t)
    gamma_t1 = gamma((t, 1, [t], t) for t in coords)
    low, high = coords[:n], coords[n:]
    gamma_t0t = gamma((t, 2, [i], i) for t in [*low, THETA_ALL_G] for i in low if i != t)
    gamma_t0tp = gamma((t, 3, [i], i) for t in [*high, THETA_ALL_G] for i in high if i != t)
    gamma_t1t = gamma((t, 3 if t < n else 2, [t], t) for t in coords)
    gamma_t = max(gamma_t0, gamma_t1, gamma_t0t, gamma_t0tp, gamma_t1t)
    gd0 = gamma((THETA_DIAMOND, 2, [i, n + i], i) for i in range(n))
    gd1 = gamma((THETA_DIAMOND, 3, [i, n + i], n + i) for i in range(n))
    return {
        "gamma_P": gamma_p,
        "gamma_T0": gamma_t0,
        "gamma_T1": gamma_t1,
        "gamma_T0_tilde": gamma_t0t,
        "gamma_T0_tilde_prime": gamma_t0tp,
        "gamma_T1_tilde": gamma_t1t,
        "gamma_T": gamma_t,
        "gamma_diamond_0": gd0,
        "gamma_diamond_1": gd1,
        "gamma_diamond": max(gd0, gd1),
    }


def failure_report(model: DeviceModel) -> dict:
    """Exact failure probabilities from the model's block algebra.

    Rows with the same decoding get the same verdict, so a (theta, question)'s
    (outcomes, decodings) masses are one product of its outcome masses with
    the rows x decodings indicator of the table's index, and one evaluation
    of the Hadamard-round rule judges the cells of that matrix's row-major
    nonzero scan; a cell of mass 0.0 adds nothing whatever its verdict. The
    accepted masses are added one by one in that order (sum() may
    compensate round-off, which would move a report's bits).
    """
    n_thetas = len(model.thetas)
    eps_p = 1.0 - sum(model.preimage_mass.values()) / n_thetas
    answers = {q: np.array(meas.outcomes) for q, meas in model.questions.items()}
    accepted = {q: [] for q in sorted(model.questions)}
    for theta in model.thetas:
        table = model.tables[theta]
        indicator = np.eye(len(table.decodings))[table.index]
        for q, masses in accepted.items():
            cell_masses = model.masses[q][theta] @ indicator
            r, k = np.nonzero(cell_masses)
            ok = protocol.hadamard_rule(model.protocol, model.n, theta, q, answers[q][r], table.decodings[k])
            masses.extend(cell_masses[r[ok], k[ok]].tolist())
    eps_h = {q: 1.0 - functools.reduce(operator.add, m, 0.0) / n_thetas for q, m in accepted.items()}
    return {"eps_P": eps_p, "eps_H": eps_h, "eps": protocol.eps(eps_p, eps_h)}


def zeta_chi_sums(model: DeviceModel) -> dict:
    """sum_v zeta(i, theta, v) and sum_v chi(theta, v) tables: four times the
    Sigma mass on which Z_i, or X_theta, disagrees with v."""
    out = {"zeta": {}, "chi": {}}
    for theta in model.thetas:
        if theta == THETA_DIAMOND:
            continue
        sigma = float(np.sum(_mass(model.tables[theta].blocks)))
        for i in range(model.logical):
            if i != theta:
                out["zeta"][(theta, i)] = 4.0 * (sigma - _agreement(model, theta, 0, [i], i))
        if theta != THETA_ALL_G:
            out["chi"][theta] = 4.0 * (sigma - _agreement(model, theta, 1, [theta], theta))
    return out


def _check(name: str, lhs, rhs) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs + 1e-9)}


def check_gamma_bounds(gammas: dict, failures: dict, n: int) -> list[dict]:
    """The gamma-versus-failure inequality suite of protocol.GAMMA_BOUNDS over
    the gamma_report and failure_report dicts; each entry reports lhs, rhs,
    and whether lhs <= rhs + 1e-9."""
    return [
        _check(name, functools.reduce(operator.add, [gammas[g] for g in summed]), bound)
        for name, summed, bound, _ in protocol.gamma_bounds(n, failures)
    ]


# ---------------------------------------------------------------------------
# Swap isometry
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _einsum_path(spec: str, *shapes) -> tuple:
    """The contraction order np.einsum's optimize=True picks for spec, searched once per operand shapes."""
    return tuple(np.einsum_path(spec, *(np.broadcast_to(0.0, s) for s in shapes), optimize=True)[0])


def swap_identity_checks(model: DeviceModel, rng: np.random.Generator) -> dict:
    """Deviations for V'V = 1, V'(Z_k x 1)V = Z_k, and agreement of V with
    the circuit: Hadamard layer on the ancilla, controlled-Z_i layer,
    Hadamard layer, controlled-X_i layer, applied to three random states held
    as one (3, 2^L, dim) stack whose row a is ancilla basis state a."""
    L, dim = model.logical, model.dim
    v = model.swap
    zs, xs = model.questions[0].observables, model.questions[1].observables
    vtv_dev = float(np.max(np.abs(v.conj().T @ v - np.eye(dim))))
    # anc_bits[k, a] is ancilla qubit k of row a, qubit 0 most significant
    anc_bits = (np.arange(2**L)[None, :] >> np.arange(L - 1, -1, -1)[:, None]) & 1
    v_rows = v.reshape(2**L, dim, dim)
    spec, operands = "ka,aji,ajl->kil", (1.0 - 2.0 * anc_bits, v_rows.conj(), v_rows)
    zk = np.einsum(spec, *operands, optimize=_einsum_path(spec, *(a.shape for a in operands)))
    zk_dev = max(float(np.max(np.abs(zk[k] - zs[k]))) for k in range(L))
    states = [rng.normal(size=dim) + 1j * rng.normal(size=dim) for _ in range(3)]
    states = [state / np.linalg.norm(state) for state in states]
    rows = np.zeros((3, 2**L, dim), dtype=complex)
    rows[:, 0] = states
    for paulis in (zs, xs):
        rows = qsim.hadamard_matrix(L) @ rows
        for i in range(L):
            # a view of the rows with ancilla qubit i set, multiplied as one (2^(L-1), dim) matrix per state
            on = rows.reshape(3, 2**i, 2, -1, dim)[:, :, 1]
            on[...] = (on.reshape(3, -1, dim) @ paulis[i].T).reshape(on.shape)
    circ_dev = float(np.max(np.abs(rows.reshape(3, -1) - [v @ state for state in states])))
    return {"vtv": vtv_dev, "zk": zk_dev, "circuit": circ_dev}


# ---------------------------------------------------------------------------
# tau states and soundness distances
# ---------------------------------------------------------------------------

def _unique_v(vs: np.ndarray, **kwargs):
    """np.unique(vs, axis=0, return_index=True, **kwargs) of rows of v bits, the rows as
    tuples, by one np.unique of the rows read as integers, first bit most significant."""
    _, first, *rest = np.unique(vs @ (1 << np.arange(vs.shape[1] - 1, -1, -1)), return_index=True, **kwargs)
    return list(map(tuple, vs[first].tolist())), first, *rest


@functools.lru_cache(maxsize=None)
def tau_vector(protocol_kind: str, n: int, theta, v: tuple) -> np.ndarray:
    """The ideal state of (theta, v), cached and read-only."""
    logical = protocol.n_coords(protocol_kind, n)
    if theta == THETA_DIAMOND:
        state = _kron_basis([HADAMARD_BASIS] * logical)[:, 0] * _cz_signs(n)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        flip = np.array([[1.0]], dtype=complex)
        for bit in v:
            flip = np.kron(flip, x if bit else np.eye(2))
        return _frozen(flip @ state)
    bases = [COMPUTATIONAL] * logical
    if theta != THETA_ALL_G:
        bases[theta] = HADAMARD_BASIS
    return _frozen(_kron_basis(bases)[:, bits_to_int(v)].copy())


@functools.lru_cache(maxsize=None)
def question_measurement(protocol_kind: str, n: int, q: int) -> Measurement:
    """The ideal question-q measurement on the logical qubits, cached: the
    Kronecker basis of protocol.question_bases, column bits_to_int(u)
    answering u."""
    bases = protocol.question_bases(protocol_kind, n, q)
    return Measurement(_kron_basis(bases), all_bit_tuples(len(bases)))


def soundness_distance(model: DeviceModel, theta) -> dict:
    """Per-v distances sum_v ||V sigma^{theta,v} V' - tau (x) alpha||_1 and
    the post-measurement analogues per question: model.soundness[theta],
    every theta's computed by the first call; do not modify the result."""
    return model.soundness[theta]


def _soundness_group(model: DeviceModel, thetas: tuple) -> dict:
    """theta -> soundness_distance for one group of thetas. The group's
    Sigma rows are lifted by one matmul against the swap isometry, with one
    qsim.trace_norm_diff_rank1 call for their rank-one differences; a
    question's branches P_u b likewise, a chunk of outcomes at a time: at
    least one, and as many as keep four chunk-sized arrays (lifted branches,
    targets and that call's two temporaries) within qsim.CHUNK_ENTRIES
    entries. A theta's sums keep the order they have in a group of it alone:
    per_v is a bincount over its rows, post_measurement[q] one np.sum per
    chunk it would have alone, over its branches in (outcome, row) order.
    """
    L, dim = model.logical, model.dim
    v_iso = model.swap
    tables = [model.tables[theta] for theta in thetas]
    blocks = np.concatenate([table.blocks for table in tables])
    v_sets = [_unique_v(table.block_v, return_inverse=True) for table in tables]
    taus = np.concatenate([  # [r]: the ideal state of row r's (theta, v)
        np.array([tau_vector(model.protocol, model.n, t, v) for v in keys], dtype=complex)
        .reshape(-1, 2**L)[row_v] for t, (keys, _, row_v) in zip(thetas, v_sets)
    ])
    lifted = blocks @ v_iso.T
    alpha = np.einsum("kl,kld->kd", taus.conj(), lifted.reshape(-1, 2**L, dim))
    dists = qsim.trace_norm_diff_rank1(lifted, (taus[:, :, None] * alpha[:, None, :]).reshape(lifted.shape))
    rows, width = lifted.shape
    del lifted  # freed before the branches are lifted, as the four chunk arrays assume
    step = max(1, qsim.CHUNK_ENTRIES // max(4 * rows * width, 1))
    post = {}  # q -> (outcomes, rows) trace norms of the branches
    for q in sorted(model.questions):
        meas = model.questions[q]
        ideal = question_measurement(model.protocol, model.n, q).basis
        ideal = ideal[:, [bits_to_int(u) for u in meas.outcomes]].T  # [k]: outcome k's ideal column
        overlap = ideal.conj() @ taus.T  # [k, r]: <ideal_k|tau_r>
        post[q] = np.empty((len(ideal), rows))
        for lo in range(0, len(ideal), step):
            k = slice(lo, lo + step)
            measured = meas.branches(blocks, k)  # [k, r]: P_k b_r
            # a branch the measurement annihilates contributes its target's mass
            measured[np.vecdot(measured, measured).real < qsim.ATOL**2] = 0.0
            coef = ideal[k, None, :] * overlap[k, :, None]  # [k, r]: ideal_k <ideal_k|tau_r>
            target = (coef[..., None] * alpha[:, None, :]).reshape(-1, width)
            # the lift is a temporary: it is freed before the next chunk's is made
            dist = qsim.trace_norm_diff_rank1(measured.reshape(-1, dim) @ v_iso.T, target)
            post[q][k] = dist.reshape(-1, rows)
    out, bounds = {}, [0, *itertools.accumulate(len(table.blocks) for table in tables)]
    for theta, (keys, _, row_v), lo, hi in zip(thetas, v_sets, bounds, bounds[1:]):
        per_v = dict(zip(keys, np.bincount(row_v, weights=dists[lo:hi], minlength=len(keys)).tolist()))
        step, sums = max(1, qsim.CHUNK_ENTRIES // max(4 * (hi - lo) * width, 1)), dict.fromkeys(post, 0.0)
        for q, k in [(q, k) for q in post for k in range(0, len(post[q]), step)]:
            sums[q] += float(np.sum(post[q][k : k + step, lo:hi].ravel()))
        out[theta] = {"per_v": per_v, "total": float(sum(per_v.values())), "post_measurement": sums}
    return out


# ---------------------------------------------------------------------------
# Rank proposition and the dimension certificate
# ---------------------------------------------------------------------------

def rank_bound_check(v: np.ndarray, rho: np.ndarray, alpha: np.ndarray, n: int, eps: float):
    """The numerical rank of rho, and whether rank >= (1 - eps) 2^n for
    eps = ||V rho V' - 1/2^n (x) alpha||_1 and the isometry V; also verifies
    the Schmidt-overlap inequality |<a|b>|^2 <= R b^2 for
    a = vec(V sqrt(rho) V') and b = vec(sqrt(1/2^n (x) alpha)), the vectors
    underlying the proof."""
    dim = rho.shape[0]
    if v.shape != (2**n * dim, dim):
        raise ParameterError("isometry dimension mismatch")
    if np.linalg.norm(v.conj().T @ v - np.eye(dim)) > 1e-9 * dim:
        raise ParameterError("V is not an isometry")
    rank = qsim.numerical_rank(rho)
    ok = rank >= (1.0 - eps) * 2**n - 1e-9
    # <a|b> = Tr(V sqrt(rho) V' (1 (x) sqrt(alpha))) / 2^(n/2), on dim x dim blocks
    pulled = v.conj().T @ (qsim.sqrtm_psd(alpha) @ v.reshape(2**n, dim, dim)).reshape(-1, dim)
    overlap = abs(np.trace(qsim.sqrtm_psd(rho) @ pulled)) ** 2 / 2**n
    b_max = float(np.sqrt(max(np.linalg.eigvalsh(alpha).max(), 0.0) / 2**n))
    schmidt_ok = overlap <= rank * b_max**2 + 1e-9
    return int(rank), bool(ok and schmidt_ok)


def dimension_certificate(model: DeviceModel) -> dict:
    """Certified lower bound on the dimension of the quantum register, from
    the all-injective Hadamard-question post-measurement states.

    For a block b with measured branches m_u = P_u b and extracted ancilla
    vector a, V rho V' - 1/2^N (x) alpha is F diag(w) F' with the columns of
    F being the V m_u and the e_j (x) a, so its trace norm comes from
    qsim.trace_norm_lowrank over all blocks at once; epsilon is that of the
    chosen block. Only the chosen v's arrays are kept.
    """
    if model.protocol != "dimtest":
        raise ModelError("the dimension certificate runs on a dimension-test model")
    n = model.n
    table = model.tables[THETA_ALL_G]
    mass = _mass(table.blocks)
    v_keys, start, count = _unique_v(table.block_v, return_counts=True)
    n_meas = len(model.questions[1].outcomes)
    # the weights of the factor columns V m_u, then e_j (x) a, for a block of unit mass
    unit = np.concatenate([np.full(n_meas, 1.0), np.full(2**n, -(2.0**-n))])
    candidates, dists = [], []
    for v, lo, hi in zip(v_keys, start, start + count):
        trace = float(np.sum(mass[lo:hi]))
        if trace <= 1e-12:
            continue
        _, _, factors = _certificate_arrays(model, table.blocks[lo:hi], v)
        candidates.append((v, lo, hi, trace))
        dists.append(float(np.sum(qsim.trace_norm_lowrank(factors, unit / trace))))
    if not candidates:
        raise ModelError("degenerate model: no Sigma-supported blocks")
    best = _first_min(dists)
    v_min, lo, hi, trace = candidates[best]
    measured, alpha, factors = _certificate_arrays(model, table.blocks[lo:hi], v_min)
    rho_mass = np.sum(np.abs(measured) ** 2, axis=(1, 2))
    alpha_mass = np.sum(np.abs(alpha) ** 2, axis=1)
    if alpha_mass.sum() / trace < 1e-12:
        raise ModelError("degenerate model: extracted ancilla state vanishes")
    usable = np.flatnonzero((rho_mass / trace >= 1e-12) & (alpha_mass / trace >= 1e-12))
    if usable.size == 0:
        raise ModelError("degenerate model: no usable classical block")
    # normalised blocks: rho-hat = rho / Tr rho and alpha-hat = alpha / Tr alpha
    weights = unit / np.where(np.arange(unit.size) < n_meas, rho_mass[usable, None], alpha_mass[usable, None])
    eps_all = qsim.trace_norm_lowrank(factors[usable], weights)
    star = _first_min(eps_all)
    c = usable[star]
    rho_star = measured[c].T @ measured[c].conj() / rho_mass[c]
    alpha_star = np.outer(alpha[c], alpha[c].conj()) / alpha_mass[c]
    eps = float(eps_all[star])
    rank, ok = rank_bound_check(model.swap, rho_star, alpha_star, n, eps)
    return {
        "v_min": v_min,
        "v_distance": dists[best],
        "epsilon": eps,
        "rank": rank,
        "rank_ok": ok,
        "certified_dimension": max(0.0, (1.0 - eps) * 2**n),
    }


def _certificate_arrays(model: DeviceModel, blocks: np.ndarray, v: tuple):
    """(measured, alpha, factors) of v's Sigma rows: the (blocks, n_meas,
    dim) branches P_u b of question 1, the extracted ancilla vectors, and
    the (blocks, 2^N * dim, n_meas + 2^N) columns V m_u, then e_j (x) a."""
    n, dim, v_iso = model.n, model.dim, model.swap
    tau = tau_vector("dimtest", n, THETA_ALL_G, v)
    measured = np.swapaxes(model.questions[1].branches(blocks), 0, 1)
    alpha = np.einsum("l,kld->kd", tau.conj(), (blocks @ v_iso.T).reshape(-1, 2**model.logical, dim))
    lifted = measured @ v_iso.T
    ancilla = np.einsum("jl,kd->kjld", np.eye(2**n), alpha).reshape(len(blocks), 2**n, -1)
    return measured, alpha, np.concatenate([lifted, ancilla], axis=1).swapaxes(1, 2)


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------

def analysis_report(model: DeviceModel, rng: np.random.Generator) -> dict:
    """Versioned JSON-ready analysis document."""
    report = {
        "version": 1,
        "model": model.name,
        "protocol": model.protocol,
        "N": model.n,
        "w": model.w,
    }
    failures = failure_report(model)
    report["failures"] = {**failures, "eps_H": {str(q): e for q, e in failures["eps_H"].items()}}
    if model.protocol == "selftest":
        gammas = gamma_report(model)
        report["gammas"] = gammas
        checks = check_gamma_bounds(gammas, failures, model.n)
        sums = zeta_chi_sums(model)
        rhs = 4 * gammas["gamma_T"]
        for (theta, i), val in sums["zeta"].items():
            checks.append(_check(f"sum_v zeta(i={i}, theta={theta}) <= 4 gamma_T", val, rhs))
        for theta, val in sums["chi"].items():
            checks.append(_check(f"sum_v chi(theta={theta}) <= 4 gamma_T", val, rhs))
        for theta in model.thetas:
            name = f"||sigma^theta - sum_v sigma^theta_v||_1 <= gamma_P (theta={theta})"
            checks.append(_check(name, sigma_residual(model, theta), gammas["gamma_P"]))
        report["checks"] = checks
        report["soundness"] = {}
        for theta in model.thetas:
            sd = soundness_distance(model, theta)
            post = {str(q): t for q, t in sd["post_measurement"].items()}
            report["soundness"][str(theta)] = {"total": sd["total"], "post_measurement": post}
    else:
        cert = dimension_certificate(model)
        keys = ("epsilon", "rank", "rank_ok", "certified_dimension")
        report["certificate"] = {"v_min": list(cert["v_min"]), **{key: cert[key] for key in keys}}
        rhs = (1 - cert["epsilon"]) * 2**model.n
        check = {"name": "rank >= (1 - eps) 2^N", "lhs": cert["rank"], "rhs": rhs, "ok": cert["rank_ok"]}
        report["checks"] = [check]
    report["swap"] = swap_identity_checks(model, rng)
    report["all_ok"] = all(c["ok"] for c in report.get("checks", []))
    return report
