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
basis whose columns carry outcome labels. The failure, gamma, zeta and chi
reports all read one array of outcome masses <row|P_u|row> per (theta,
question): a gamma term is the Sigma mass whose answer bits agree with v, a
zeta or chi term four times the Sigma mass on which they disagree; the
failure report sums them per decoding with one product. soundness_distance
stacks a question's branches P_u b and lifts them a chunk of outcomes at a
time, a chunk's arrays together within qsim.CHUNK_ENTRIES entries.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, asdict

import numpy as np

from . import entcf, protocol, qsim
from .errors import ModelError, ParameterError
from .protocol import THETA_ALL_G, THETA_DIAMOND

# most entries one array of the analysis may have
_ENTRY_BUDGET = 2**25
ATOL = 1e-10


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
    """Kronecker product of per-qubit bases, "computational" or "hadamard":
    column bits_to_int(u) is the pattern state of answer u."""
    qubit = {"computational": np.eye(2, dtype=complex), "hadamard": qsim.hadamard_matrix(1)}
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


def _coord_codes(trap: entcf.Trapdoor, ys: np.ndarray, ds: np.ndarray) -> np.ndarray:
    """(outcomes, 2) codes of one coordinate's (y_i, d_i) outcomes: b-hat_i,
    then h-hat_i, -1 for None. protocol.decode_bhat and decode_hhat pass the
    whole coordinate's arrays to one array decode of its trapdoor."""
    (bhat,), (hhat,) = protocol.decode_bhat([trap], [ys]), protocol.decode_hhat([trap], [ys], [ds])
    codes = np.full((ys.size, 2), -1, dtype=np.int8)
    for k, decoded in enumerate((bhat, hhat)):
        if decoded is not None:
            codes[:, k] = decoded
    return codes


def _bits(codes) -> tuple:
    return tuple(None if c < 0 else c for c in codes)


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
    refused. basis and projectors are read-only."""

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

    def masses(self, rows: np.ndarray) -> np.ndarray:
        """(outcomes, rows) array of <b|P_k|b> for each row b: P_k is applied,
        then a row-wise dot taken, so a row P_k annihilates has mass 0.0."""
        return np.einsum("...d,...d->...", rows.conj(), rows @ self.projectors.swapaxes(1, 2)).real

    def observable(self, i: int) -> np.ndarray:
        """The +-1 observable of answer bit i, sum_k (-1)^(outcomes[k][i]) P_k."""
        return np.tensordot([1.0 - 2.0 * u[i] for u in self.outcomes], self.projectors, axes=1)


@dataclass(frozen=True)
class ClassTable:
    """One theta's sigma rows. Each row stands for a set of (y, d) labels
    with nonzero mass that share a decoding and whose blocks are parallel;
    the row is their common direction scaled to the root of their summed
    mass, so |row><row| is the sum of their |block><block|. A product-form
    model merges every such set: its rows are products of coord_classes,
    which holds every theta's coordinate classes from one pass. An explicit
    model keeps a row per label.
    rows[k] decodes to the distinct (b-hat, h-hat) pair decodings[index[k]].
    blocks are the rows with a Sigma(theta, v), ordered by v, rows[stack],
    block_v their v's, and residual the mass of the other rows. The arrays
    are read-only."""

    rows: np.ndarray
    index: np.ndarray
    decodings: list
    stack: np.ndarray
    blocks: np.ndarray
    block_v: np.ndarray
    residual: float


class DeviceModel:
    """Block-diagonal device description, in one of two forms.

    A product-form model (d_meas None; the honest family) keeps psi
    factored: psi[theta][i] lists coordinate i's (y_i, weight, support)
    triples, the state on qubit (x) x register being the sum of
    amplitude |b, x> over the support's (b, x, amplitude) terms, and psi's
    block at y is the product of its coordinates' sqrt(weight) * state,
    times the CZ signs when the protocol pairs coordinates. It measures each
    x register in the Hadamard basis, a claw coordinate's column d answering
    the smallest nonzero d of its h-parity, so d = 0 is never answered. Its
    preimage measurement is the computational basis on qubits and x
    registers.
    An explicit model (d_meas given) has no x registers and keeps psi[theta]:
    dict y -> pure vector on the logical qubits (squared norm = Pr[y]); its
    d-measurement is the y-independent Measurement d_meas[theta], labelled by
    d tuples, and its preimage measurement `preimage` is labelled by (b, x)
    tuples (None: no preimage passes).
    env: unit vector on the environment, in a product with psi (default: no
    environment).
    questions[q]: the Measurement of question q on logical (x) env, labelled
    by answer tuples u; `dim` is the size of that space.
    """

    def __init__(
        self,
        protocol_kind: str,
        n: int,
        w: int,
        logical: int,
        thetas: list,
        keys: dict,
        trapdoors: dict,
        psi: dict,
        questions: dict,
        d_meas: dict | None = None,
        preimage: Measurement | None = None,
        env: np.ndarray | None = None,
        name: str = "model",
    ):
        self.protocol = protocol_kind
        self.n = n
        self.w = w
        self.logical = logical
        self.env = np.ones(1, dtype=complex) if env is None else env
        self.env_dim = self.env.size
        self.dim = 2**logical * self.env_dim
        self.thetas = list(thetas)
        self.keys = keys
        self.trapdoors = trapdoors
        self.psi = psi
        self.questions = questions
        self.d_meas = d_meas
        self.preimage = preimage
        self.name = name
        self._tables: dict = {}
        self._masses: dict = {}
        self._t_cache: dict = {}
        self._swap_cache: np.ndarray | None = None

    def derived(self, questions: dict, env: np.ndarray, name: str) -> "DeviceModel":
        """This device with other question measurements and environment; the
        states and the other measurements are shared."""
        return DeviceModel(
            self.protocol, self.n, self.w, self.logical, self.thetas, self.keys, self.trapdoors,
            self.psi, questions, d_meas=self.d_meas, preimage=self.preimage, env=env, name=name,
        )

    def Z(self, i: int) -> np.ndarray:
        return self.questions[0].observable(i)

    def X(self, i: int) -> np.ndarray:
        return self.questions[1].observable(i)

    def outcome_masses(self, theta, q: int) -> np.ndarray:
        """questions[q].masses of theta's class rows, computed once."""
        if (theta, q) not in self._masses:
            self._masses[theta, q] = _frozen(self.questions[q].masses(self.class_table(theta).rows))
        return self._masses[theta, q]

    # -- sigma rows ------------------------------------------------------------
    def class_table(self, theta) -> ClassTable:
        """theta's sigma rows and decodings, built once."""
        if theta not in self._tables:
            self._tables[theta] = self._build_table(theta)
        return self._tables[theta]

    def _build_table(self, theta) -> ClassTable:
        L = self.logical
        rows, codes = self._product_rows(theta) if self.d_meas is None else self._label_rows(theta)
        key = (codes + 1).astype(np.int64) @ 3 ** np.arange(2 * L)
        _, first, index = np.unique(key, return_index=True, return_inverse=True)
        order = np.argsort(first)  # distinct decodings in order of first row
        index = np.argsort(order)[index.ravel()]
        decodings = [(_bits(row[:L]), _bits(row[L:])) for row in codes[first[order]].tolist()]
        vs = [protocol.sigma_v(self.protocol, self.n, theta, list(b), list(h)) for b, h in decodings]
        v_keys = sorted({v for v in vs if v is not None})
        rank = np.array([-1 if v is None else v_keys.index(v) for v in vs], dtype=int)[index]
        stack = np.flatnonzero(rank >= 0)
        stack = stack[np.argsort(rank[stack], kind="stable")]
        block_v = np.array(v_keys, dtype=int).reshape(-1, L)[rank[stack]]
        residual = float(np.sum(_mass(rows[rank < 0])))
        return ClassTable(
            _frozen(rows), _frozen(index), decodings, _frozen(stack), _frozen(rows[stack]),
            _frozen(block_v), residual,
        )

    def _label_rows(self, theta):
        """(rows, codes) of an explicit model: one row per (y, d) label with
        nonzero mass, in label order."""
        L = self.logical
        ys = sorted(self.psi[theta])
        d_tuples = self.d_meas[theta].outcomes
        psi = np.array([self.psi[theta][y] for y in ys])
        rest = (psi @ self.d_meas[theta].projectors.swapaxes(1, 2)).swapaxes(0, 1)  # [y, d]: P_d psi_y
        grid = (rest[..., None] * self.env).reshape(-1, self.dim)
        keep = np.flatnonzero(_mass(grid) >= ATOL**2)
        yrow, dcol = np.divmod(keep, len(d_tuples))
        y_arr, d_arr = np.array(ys, dtype=np.int64)[yrow], np.array(d_tuples, dtype=np.int64)[dcol]
        codes = np.empty((keep.size, 2 * L), dtype=np.int8)
        for i, trap in enumerate(self.trapdoors[theta]):
            codes[:, [i, L + i]] = _coord_codes(trap, y_arr[:, i], d_arr[:, i])
        return grid[keep], codes

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
        coordinate) of a product-form model in one pass. Column d of the
        Hadamard round maps an image's support {(b_k, x_k, a_k)} to 2^(-w/2)
        sum_k (-1)^(d.x_k) a_k |b_k>. Up to sign, that vector is the same for
        every d when the image has one preimage, and depends on d only
        through parity(d & t), t = x_0 xor x_1, when it has a claw's two. So
        an image has one outcome per coset of d's (one or two), of mass
        weight * |coset| / 2^w, decoded at the coset's smallest nonzero d by
        one array decode per coordinate. One np.unique groups the outcomes,
        coordinate-major, by (coordinate, code), and one bincount sums each
        class's mass; a class's vector is its first outcome's direction
        scaled to the root of that mass, classes in order of first outcome.
        Every outcome must be parallel to its class's first within 1e-12, or
        ModelError; on the honest psi a code fixes the direction up to sign."""
        coords = [(theta, i) for theta in self.thetas for i in range(self.logical)]
        owner = np.repeat(np.arange(len(coords)), [len(self.psi[theta][i]) for theta, i in coords])
        # per image: y, weight, support size, then its first and last (b, x, amplitude) terms
        per_image = ((y, wt, len(s), *s[0], *s[-1]) for theta, i in coords for y, wt, s in self.psi[theta][i])
        images = np.fromiter(itertools.chain.from_iterable(per_image), dtype=float).reshape(-1, 9)
        b, x = images[:, [3, 6]].astype(np.int64), images[:, [4, 7]].astype(np.int64)
        amp = images[:, [5, 8]]
        amp[:, 1] *= images[:, 2] - 1  # a lone preimage's amplitude counts once
        t = x[:, 0] ^ x[:, 1]
        # smallest nonzero d per coset: 1, 2 or 3 for parity(d & t) = 0 (w >= 2), t's low bit for 1
        ds = np.stack([np.where(t & 1 == 0, 1, np.where(t & 2 == 0, 2, 3)), t & -t], axis=1)
        signs = 1.0 - 2.0 * (np.bitwise_count(ds[:, :, None] & x[:, None, :]) & 1)
        vecs = (signs * amp[:, None, :]) @ (b[:, :, None] == np.arange(2))  # (images, cosets, 2)
        keep = np.stack([np.ones_like(t, dtype=bool), t != 0], axis=1).ravel()
        units = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True)).reshape(-1, 2)[keep].astype(complex)
        masses = np.repeat(images[:, 1] / (1 + (t != 0)), 2)[keep]
        ys = np.repeat(images[:, 0].astype(np.int64), 2)[keep]
        ds, owner = ds.ravel()[keep], np.repeat(owner, 2)[keep]
        bounds = np.searchsorted(owner, np.arange(len(coords) + 1))
        codes = np.concatenate([
            _coord_codes(self.trapdoors[theta][i], ys[lo:hi], ds[lo:hi])
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

    # -- preimage test mass ---------------------------------------------------
    def t_theta(self, theta) -> float:
        """Preimage-test pass mass, computed once per theta; the environment
        is a unit vector, so it does not enter. A product-form model's mass
        is 1: its support at each y_i holds exactly the (b, x) f maps to y_i."""
        if self.d_meas is None:
            return 1.0
        if theta not in self._t_cache:
            keys = self.keys[theta]
            if self.preimage is None:
                total = 0.0
            else:
                ys = sorted(self.psi[theta])
                masses = self.preimage.masses(np.array([self.psi[theta][y] for y in ys]))
                passed = [[entcf.chk(keys, y, b, x) == 0 for y in ys] for b, x in self.preimage.outcomes]
                total = float(np.sum(masses[np.array(passed)]))
            self._t_cache[theta] = total
        return self._t_cache[theta]


# ---------------------------------------------------------------------------
# Honest model construction
# ---------------------------------------------------------------------------

def _coord_y_support(key: entcf.PublicKey):
    """(y, weight, support) triples for one honest coordinate, in y order,
    from the public table alone, as the honest device prepares them: the
    state at y is the sum of amplitude |b, x> over its (b, x, amplitude)
    support, the (b, x) with f_b(x) = y, b first, then x (an injective key's
    one preimage or a claw's two), and each preimage carries mass 2^-(w+1)."""
    w = key.params.w
    # (f_b(x), b, x) of every table entry, sorted: by y, then b, then x
    entries = sorted((y, i >> w, i & (2**w - 1)) for i, y in enumerate(key.table.ravel().tolist()))
    out = []
    for y, group in itertools.groupby(entries, key=lambda entry: entry[0]):
        pairs = [(b, x) for _, b, x in group]
        amp = 1.0 / np.sqrt(len(pairs))
        out.append((y, len(pairs) * 2.0 ** -(w + 1), tuple((b, x, amp) for b, x in pairs)))
    return out


def _cz_signs(n: int) -> np.ndarray:
    """(-1)^(sum_i q_i q_(N+i)) over the 2N-qubit computational basis."""
    bits = (np.arange(2 ** (2 * n))[:, None] >> np.arange(2 * n - 1, -1, -1)) & 1
    return 1.0 - 2.0 * (np.sum(bits[:, :n] & bits[:, n:], axis=1) % 2)


def build_honest_model(
    config: protocol.SelfTestConfig | protocol.DimTestConfig,
    protocol_kind: str,
    rng: np.random.Generator,
) -> DeviceModel:
    params = config.entcf
    if params.backend != "ideal" or params.w < 2:  # w >= 2: a claw's even coset has a nonzero d
        raise ModelError("white-box analysis supports the ideal backend with w >= 2 only")
    n, w = config.N, params.w
    logical = protocol.n_coords(protocol_kind, n)
    _check_size(logical, 1)
    # the key tables and psi hold 2^(w+1) entries per coordinate, and
    # _coord_codes sorts each table once to decode a coordinate's images
    entcf.check_scan(params)
    thetas = protocol.thetas(protocol_kind, n)
    keys, trapdoors, psi = {}, {}, {}
    for theta in thetas:
        keys[theta], trapdoors[theta] = protocol.keypairs(protocol_kind, theta, n, params, rng)
        psi[theta] = [_coord_y_support(key) for key in keys[theta]]
    questions = {q: question_measurement(protocol_kind, n, q) for q in protocol.questions(protocol_kind)}
    return DeviceModel(protocol_kind, n, w, logical, thetas, keys, trapdoors, psi, questions, name="honest")


def check_bitflip(protocol_kind: str, n: int, p: float) -> None:
    """Refuse a flip probability outside [0, 1], or a bitflip model whose
    largest array (with an environment qubit per logical qubit) exceeds the
    budget, before the honest model it dilates is built."""
    if not 0.0 <= p <= 1.0:
        raise ParameterError("flip probability must lie in [0, 1]")
    logical = protocol.n_coords(protocol_kind, n)
    _check_size(logical, 2**logical)


def build_bitflip_model(honest: DeviceModel, p: float) -> DeviceModel:
    """Dilate the answer-bit flips into an environment register: the flip
    pattern e lives in a product state beside the honest psi, and question q
    measures in the basis kron(B_q, 1_env), whose column (u, e) answers
    u xor e; so P_q^u is sum_e P_(u xor e) (x) |e><e| on logical (x) env."""
    check_bitflip(honest.protocol, honest.n, p)
    logical = honest.logical
    anc = np.array([np.sqrt(1.0 - p), np.sqrt(p)], dtype=complex)
    env = functools.reduce(np.kron, [anc] * logical)
    flips = all_bit_tuples(logical)
    questions = {
        q: Measurement(
            np.kron(meas.basis, np.eye(2**logical)),
            [tuple(a ^ b for a, b in zip(u, e)) for u in meas.labels for e in flips],
        )
        for q, meas in honest.questions.items()
    }
    return honest.derived(questions, env, f"bitflip({p})")


def build_wrongbasis_model(honest: DeviceModel) -> DeviceModel:
    questions = dict(honest.questions)
    questions[0], questions[1] = honest.questions[1], honest.questions[0]
    return honest.derived(questions, honest.env, "wrongbasis")


def build_random_model(config: protocol.SelfTestConfig, rng: np.random.Generator) -> DeviceModel:
    """Random projective device: Haar-random measurement bases assigned to
    random labels, random pure state blocks on four valid y tuples."""
    params = config.entcf
    n, w = config.N, params.w
    logical = 2 * n
    dim = 2**logical
    thetas = protocol.thetas("selftest", n)
    _check_size(logical, 1, (4 + len(thetas) + 1) * dim)
    keys, trapdoors, psi, d_meas = {}, {}, {}, {}
    for theta in thetas:
        keys[theta], trapdoors[theta] = protocol.keypairs("selftest", theta, n, params, rng)
        y_lists = [sorted(entcf.image_iter(k)) for k in keys[theta]]
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
    questions = {q: Measurement(haar_unitary(dim, rng), all_bit_tuples(logical)) for q in range(4)}
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
    questions = {q: Measurement(basis, all_bit_tuples(logical)) for q in (0, 1)}
    return DeviceModel(
        "dimtest", n, w, logical, thetas, keys, trapdoors, psi, questions, d_meas=d_meas, name="classical"
    )


# ---------------------------------------------------------------------------
# sigma, gamma, failure
# ---------------------------------------------------------------------------

def sigma_residual(model: DeviceModel, theta) -> float:
    """trace norm of sigma^theta minus the sum of its Sigma(theta, v) parts."""
    return model.class_table(theta).residual


@dataclass
class GammaReport:
    gamma_P: float
    gamma_T0: float
    gamma_T1: float
    gamma_T0_tilde: float
    gamma_T0_tilde_prime: float
    gamma_T1_tilde: float
    gamma_T: float
    gamma_diamond_0: float
    gamma_diamond_1: float
    gamma_diamond: float


@dataclass
class FailureReport:
    eps_P: float
    eps_H: dict
    eps: float


def _agreement(model: DeviceModel, theta, q: int, bits: list, v_bit: int) -> float:
    """The Sigma mass of theta whose question-q answer bits `bits` xor to bit
    v_bit of the block's v. For the +-1 observable O = sum_u (-1)^(xor of
    u's bits) P_u and a block b of v, it is (|b|^2 + (-1)^(v[v_bit]) <b|O|b>) / 2."""
    table = model.class_table(theta)
    parity = np.array([sum(u[j] for j in bits) % 2 for u in model.questions[q].outcomes])
    masses = model.outcome_masses(theta, q)[:, table.stack]
    return float(np.sum(masses[parity[:, None] == table.block_v[:, v_bit]]))


def gamma_report(model: DeviceModel) -> GammaReport:
    """Each gamma is 1 minus the least agreement mass of its terms: question
    0 tests Z_i, question 1 X_theta, questions 2 and 3 the tilde observables
    (Z on the coordinates they measure computationally, X on the others) and
    the diamond products Z~_i X~_(N+i) and X~_i Z~_(N+i)."""
    if model.protocol != "selftest":
        raise ModelError("gamma quantities are defined for the self-test model")
    n = model.n
    coords = list(range(2 * n))

    def gamma(terms) -> float:
        return 1.0 - min(_agreement(model, *term) for term in terms)

    gamma_p = 1.0 - min(model.t_theta(theta) for theta in model.thetas)
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
    return GammaReport(
        gamma_P=gamma_p,
        gamma_T0=gamma_t0,
        gamma_T1=gamma_t1,
        gamma_T0_tilde=gamma_t0t,
        gamma_T0_tilde_prime=gamma_t0tp,
        gamma_T1_tilde=gamma_t1t,
        gamma_T=gamma_t,
        gamma_diamond_0=gd0,
        gamma_diamond_1=gd1,
        gamma_diamond=max(gd0, gd1),
    )


def failure_report(model: DeviceModel) -> FailureReport:
    """Exact failure probabilities from the model's block algebra.

    Rows with the same decoded bits get the same verdict, so each verdict
    is taken once per distinct decoding of the class table and applied to
    that decoding's summed mass; a decoding whose mass is exactly 0.0 adds
    nothing whatever its verdict, and is skipped. A (theta, question)'s
    (outcomes, decodings) masses are one product of its outcome masses with
    the rows x decodings indicator of the table's index.
    """
    n_thetas = len(model.thetas)
    eps_p = 1.0 - sum(model.t_theta(theta) for theta in model.thetas) / n_thetas
    questions = sorted(model.questions)
    accept = dict.fromkeys(questions, 0.0)
    for theta in model.thetas:
        table = model.class_table(theta)
        indicator = np.eye(len(table.decodings))[table.index]
        for q in questions:
            masses = model.outcome_masses(theta, q) @ indicator
            for u, mass in zip(model.questions[q].outcomes, masses):
                for k in np.flatnonzero(mass):
                    bhat, hhat = table.decodings[k]
                    verdict = protocol.hadamard_verdict(
                        model.protocol, model.n, theta, q, u, list(bhat), list(hhat)
                    )
                    if verdict.accept:
                        accept[q] += float(mass[k])
    eps_h = {q: 1.0 - accept[q] / n_thetas for q in questions}
    return FailureReport(eps_P=eps_p, eps_H=eps_h, eps=protocol.eps(eps_p, eps_h))


def zeta_chi_sums(model: DeviceModel) -> dict:
    """sum_v zeta(i, theta, v) and sum_v chi(theta, v) tables: four times the
    Sigma mass on which Z_i, or X_theta, disagrees with v."""
    out = {"zeta": {}, "chi": {}}
    for theta in model.thetas:
        if theta == THETA_DIAMOND:
            continue
        sigma = float(np.sum(_mass(model.class_table(theta).blocks)))
        for i in range(2 * model.n):
            if i != theta:
                out["zeta"][(theta, i)] = 4.0 * (sigma - _agreement(model, theta, 0, [i], i))
        if theta != THETA_ALL_G:
            out["chi"][theta] = 4.0 * (sigma - _agreement(model, theta, 1, [theta], theta))
    return out


def _check(name: str, lhs, rhs) -> dict:
    return {"name": name, "lhs": lhs, "rhs": rhs, "ok": bool(lhs <= rhs + 1e-9)}


def check_gamma_bounds(gammas: GammaReport, failures: FailureReport, n: int) -> list[dict]:
    """The gamma-versus-failure inequality suite; each entry reports lhs,
    rhs, and whether lhs <= rhs + 1e-9."""
    m = 2 * n + 2
    eh = failures.eps_H
    checks = [
        ("gamma_P <= (2N+2) eps_P", gammas.gamma_P, m * failures.eps_P),
        ("gamma_T0 <= (2N+2) eps_H0", gammas.gamma_T0, m * eh[0]),
        ("gamma_T1 <= (2N+2) eps_H1", gammas.gamma_T1, m * eh[1]),
        (
            "tilde-gamma sum <= (2N+2)(eps_H2 + eps_H3)",
            gammas.gamma_T0_tilde
            + gammas.gamma_T0_tilde_prime
            + gammas.gamma_T1_tilde
            + gammas.gamma_diamond_0
            + gammas.gamma_diamond_1,
            m * (eh[2] + eh[3]),
        ),
        ("gamma_P <= 2(2N+2) eps", gammas.gamma_P, 2 * m * failures.eps),
        ("gamma_T <= 8(2N+2) eps", gammas.gamma_T, 8 * m * failures.eps),
        ("gamma_diamond <= 8(2N+2) eps", gammas.gamma_diamond, 8 * m * failures.eps),
    ]
    return [_check(name, lhs, rhs) for name, lhs, rhs in checks]


# ---------------------------------------------------------------------------
# Swap isometry
# ---------------------------------------------------------------------------

def swap_isometry(model: DeviceModel) -> np.ndarray:
    """V = sum_u |u> (x) prod_i X_i^{u_i} prod_j Z_j^{(u_j)}, products in
    ascending index order, as a (2^L * dim, dim) matrix. The Z_j are the
    marginals of question 0, so prod_j Z_j^{(u_j)} is its projector P_u.
    Built once per model and cached on it; callers must not modify it."""
    if model._swap_cache is None:
        L, dim = model.logical, model.dim
        xs = [model.X(i) for i in range(L)]
        v = np.zeros((2**L, dim, dim), dtype=complex)
        for u, term in zip(model.questions[0].outcomes, model.questions[0].projectors):
            for i in reversed(range(L)):
                if u[i]:
                    term = xs[i] @ term
            v[bits_to_int(u)] = term
        model._swap_cache = v.reshape(-1, dim)
    return model._swap_cache


def swap_identity_checks(model: DeviceModel, rng: np.random.Generator) -> dict:
    """Deviations for V'V = 1, V'(Z_k x 1)V = Z_k, and agreement of V with
    the circuit: Hadamard layer on the ancilla, controlled-Z_i layer,
    Hadamard layer, controlled-X_i layer, applied to random states held as
    (2^L, dim) arrays whose row a is ancilla basis state a."""
    L = model.logical
    dim = model.dim
    v = swap_isometry(model)
    zs, xs = [model.Z(k) for k in range(L)], [model.X(k) for k in range(L)]
    vtv_dev = float(np.max(np.abs(v.conj().T @ v - np.eye(dim))))
    # anc_bits[k, a] is ancilla qubit k of row a, qubit 0 most significant
    anc_bits = (np.arange(2**L)[None, :] >> np.arange(L - 1, -1, -1)[:, None]) & 1
    v_rows = v.reshape(2**L, dim, dim)
    zk = np.einsum("ka,aji,ajl->kil", 1.0 - 2.0 * anc_bits, v_rows.conj(), v_rows, optimize=True)
    zk_dev = max(float(np.max(np.abs(zk[k] - zs[k]))) for k in range(L))
    h_layer = qsim.hadamard_matrix(L)
    circ_dev = 0.0
    for _ in range(3):
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        rows = np.zeros((2**L, dim), dtype=complex)
        rows[0] = state
        for paulis in (zs, xs):
            rows = h_layer @ rows
            for i in range(L):
                on = anc_bits[i] == 1
                rows[on] = rows[on] @ paulis[i].T
        circ_dev = max(circ_dev, float(np.max(np.abs(rows.ravel() - v @ state))))
    return {"vtv": vtv_dev, "zk": zk_dev, "circuit": circ_dev}


# ---------------------------------------------------------------------------
# tau states and soundness distances
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def tau_vector(protocol_kind: str, n: int, theta, v: tuple) -> np.ndarray:
    """The ideal state of (theta, v), cached and read-only."""
    logical = protocol.n_coords(protocol_kind, n)
    if theta == THETA_DIAMOND:
        state = _kron_basis(["hadamard"] * logical)[:, 0] * _cz_signs(n)
        x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        flip = np.array([[1.0]], dtype=complex)
        for bit in v:
            flip = np.kron(flip, x if bit else np.eye(2))
        return _frozen(flip @ state)
    bases = ["computational"] * logical
    if theta != THETA_ALL_G:
        bases[theta] = "hadamard"
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
    the post-measurement analogues per question.

    Every Sigma-assigned row of theta's class table is lifted by one matmul
    against the swap isometry; each row contributes a rank-one difference
    whose trace norm comes from qsim.trace_norm_diff_rank1 over the stacked
    rows. A question's branches P_u b are stacked as (outcomes, rows, dim)
    and lifted by one product per chunk of outcomes, with one
    trace_norm_diff_rank1 call: at least one outcome, and as many as keep the
    four chunk-sized arrays alive at once (lifted branches, targets and that
    call's two temporaries) within qsim.CHUNK_ENTRIES entries.
    """
    L, dim = model.logical, model.dim
    v_iso = swap_isometry(model)
    table = model.class_table(theta)
    blocks, vs = table.blocks, table.block_v
    v_rows, row_v = np.unique(vs, axis=0, return_inverse=True)
    row_v = row_v.ravel()
    v_keys = [tuple(int(b) for b in row) for row in v_rows]
    taus = np.array([tau_vector(model.protocol, model.n, theta, v) for v in v_keys], dtype=complex)
    taus = taus.reshape(-1, 2**L)[row_v]
    lifted = (blocks @ v_iso.T).reshape(-1, 2**L, dim)
    alpha = np.einsum("kl,kld->kd", taus.conj(), lifted)
    target = taus[:, :, None] * alpha[:, None, :]
    rows = blocks.shape[0]
    dists = qsim.trace_norm_diff_rank1(lifted.reshape(rows, -1), target.reshape(rows, -1))
    per_v = dict(zip(v_keys, np.bincount(row_v, weights=dists, minlength=len(v_keys)).tolist()))
    post = {}
    width = v_iso.shape[0]
    step = max(1, qsim.CHUNK_ENTRIES // max(4 * rows * width, 1))
    for q in sorted(model.questions):
        meas = model.questions[q]
        ideal = question_measurement(model.protocol, model.n, q).basis
        ideal = ideal[:, [bits_to_int(u) for u in meas.outcomes]].T  # [k]: outcome k's ideal column
        overlap = ideal.conj() @ taus.T  # [k, r]: <ideal_k|tau_r>
        post[q] = 0.0
        for lo in range(0, len(ideal), step):
            k = slice(lo, lo + step)
            measured = blocks @ meas.projectors[k].swapaxes(1, 2)  # [k, r]: P_k b_r
            # a branch the measurement annihilates contributes its target's mass
            measured[np.vecdot(measured, measured).real < ATOL**2] = 0.0
            coef = ideal[k, None, :] * overlap[k, :, None]  # [k, r]: ideal_k <ideal_k|tau_r>
            target = (coef[..., None] * alpha[:, None, :]).reshape(-1, width)
            # the lift is a temporary: it is freed before the next chunk's is made
            post[q] += float(np.sum(qsim.trace_norm_diff_rank1(measured.reshape(-1, dim) @ v_iso.T, target)))
    return {"per_v": per_v, "total": float(sum(per_v.values())), "post_measurement": post}


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
    v_iso = swap_isometry(model)
    table = model.class_table(THETA_ALL_G)
    mass = _mass(table.blocks)
    v_rows, start, count = np.unique(table.block_v, axis=0, return_index=True, return_counts=True)
    projs = model.questions[1].projectors
    n_meas = len(projs)
    # the weights of the factor columns V m_u, then e_j (x) a, for a block of unit mass
    unit = np.concatenate([np.full(n_meas, 1.0), np.full(2**n, -(2.0**-n))])
    candidates, dists = [], []
    for v_row, lo, hi in zip(v_rows, start, start + count):
        trace = float(np.sum(mass[lo:hi]))
        if trace <= 1e-12:
            continue
        v = tuple(int(b) for b in v_row)
        _, _, factors = _certificate_arrays(model, projs, table.blocks[lo:hi], v)
        candidates.append((v, lo, hi, trace))
        dists.append(float(np.sum(qsim.trace_norm_lowrank(factors, unit / trace))))
    if not candidates:
        raise ModelError("degenerate model: no Sigma-supported blocks")
    best = _first_min(dists)
    v_min, lo, hi, trace = candidates[best]
    measured, alpha, factors = _certificate_arrays(model, projs, table.blocks[lo:hi], v_min)
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
    rank, ok = rank_bound_check(v_iso, rho_star, alpha_star, n, eps)
    return {
        "v_min": v_min,
        "v_distance": dists[best],
        "epsilon": eps,
        "rank": rank,
        "rank_ok": ok,
        "certified_dimension": max(0.0, (1.0 - eps) * 2**n),
    }


def _certificate_arrays(model: DeviceModel, projs: np.ndarray, blocks: np.ndarray, v: tuple):
    """(measured, alpha, factors) of v's Sigma rows: the (blocks, n_meas,
    dim) branches P_u b, the extracted ancilla vectors, and the (blocks,
    2^N * dim, n_meas + 2^N) columns V m_u, then e_j (x) a."""
    n, dim = model.n, model.dim
    v_iso = swap_isometry(model)
    tau = tau_vector("dimtest", n, THETA_ALL_G, v)
    measured = np.swapaxes(blocks @ projs.swapaxes(-1, -2), 0, 1)
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
    report["failures"] = {
        "eps_P": failures.eps_P,
        "eps_H": {str(q): e for q, e in failures.eps_H.items()},
        "eps": failures.eps,
    }
    if model.protocol == "selftest":
        gammas = gamma_report(model)
        report["gammas"] = asdict(gammas)
        checks = check_gamma_bounds(gammas, failures, model.n)
        sums = zeta_chi_sums(model)
        rhs = 4 * gammas.gamma_T
        for (theta, i), val in sums["zeta"].items():
            checks.append(_check(f"sum_v zeta(i={i}, theta={theta}) <= 4 gamma_T", val, rhs))
        for theta, val in sums["chi"].items():
            checks.append(_check(f"sum_v chi(theta={theta}) <= 4 gamma_T", val, rhs))
        for theta in model.thetas:
            name = f"||sigma^theta - sum_v sigma^theta_v||_1 <= gamma_P (theta={theta})"
            checks.append(_check(name, sigma_residual(model, theta), gammas.gamma_P))
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
