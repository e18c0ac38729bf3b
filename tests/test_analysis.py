"""White-box analysis unit tests (the heavy suites live in test_acceptance)."""
import argparse
import dataclasses
import functools
import gc
import itertools
import json
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from selftestsim import analysis, cli, entcf, protocol, qsim
from selftestsim.errors import DomainError, ModelError, ParameterError
from selftestsim.prover import Device
from selftestsim.protocol import THETA_ALL_G, THETA_DIAMOND, DimTestConfig, SelfTestConfig

from oracles import TableKey


@pytest.fixture(scope="module")
def honest():
    cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    return analysis.build_honest_model(cfg, "selftest", np.random.default_rng(0))


@pytest.fixture(scope="module")
def honest_dim():
    cfg = DimTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    return analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(0))


def _triples(key):
    """Oracle: one honest coordinate's (y, weight, support) triples, in y
    order, from the trapdoor-free scans: the support at y lists its preimages
    (b, x), b first, then x, each of mass 2^-(w+1) spread evenly over the
    amplitudes."""
    out = []
    for y in entcf.image_iter(key):
        pairs = entcf.preimages(key, y)
        amp = 1.0 / np.sqrt(len(pairs))
        out.append((y, len(pairs) * 2.0 ** -(key.params.w + 1), tuple((b, x, amp) for b, x in pairs)))
    return out


def _dense_state(support, w):
    """The (2, 2^w) state on qubit (x) x register of one image's (b, x,
    amplitude) support."""
    state = np.zeros((2, 2**w), dtype=complex)
    for b, x, amp in support:
        state[b, x] += amp
    return state


def _hadamard_columns(trap, w):
    """(label, column) pairs of the Hadamard basis of one coordinate's x
    register: column d answers d on an injective coordinate, and on a claw
    coordinate with shift s the smallest nonzero d of its h-parity
    parity(d & s), so no column answers d = 0."""
    cols = qsim.hadamard_matrix(w).T
    if trap.family == entcf.FAMILY_G:
        return list(enumerate(cols))
    first = [next(d for d in range(1, 2**w) if entcf.parity(d & trap.key.mask) == p) for p in (0, 1)]
    return [(first[entcf.parity(d & trap.key.mask)], col) for d, col in enumerate(cols)]


def test_psi_blocks_are_normalized(honest):
    assert honest.psi is None  # a product-form model's state is read from its key tables
    for theta in honest.thetas:
        # the honest state is a product over coordinates, so each factor has unit mass
        for key in honest.keys[theta]:
            mass = sum(
                weight * np.sum(np.abs(_dense_state(support, honest.w)) ** 2)
                for _, weight, support in _triples(key)
            )
            assert mass == pytest.approx(1.0, abs=1e-12)
        mass = sum(np.vdot(v, v).real for v in _ref_psi(honest, theta).values())
        assert mass == pytest.approx(1.0, abs=1e-12)


def _projector_dict(meas):
    """dict outcome -> dense projector of a Measurement, summed from its
    basis one labelled column at a time."""
    out = {}
    for label, col in zip(meas.labels, meas.basis.T):
        out[label] = out.get(label, 0) + np.outer(col, col.conj())
    return out


def test_p_measurement_complete():
    # the question measurements of every model: complete, idempotent, and
    # the stacked projectors are the labelled columns' sums
    for model in _every_model():
        for q, meas in model.questions.items():
            projs = _projector_dict(meas)
            assert sorted(projs) == meas.outcomes
            assert np.allclose(sum(projs.values()), np.eye(model.dim), atol=1e-12)
            for u, stacked in zip(meas.outcomes, meas.projectors):
                assert np.allclose(projs[u] @ projs[u], projs[u], atol=1e-12)
                assert np.allclose(stacked, projs[u], atol=1e-12)


def test_measurement_rejects_non_orthonormal_basis():
    labels = analysis.all_bit_tuples(2)
    for basis in (np.full((4, 4), 0.5), np.eye(4)[:, :3], np.eye(4) * 1.01):
        with pytest.raises(ModelError, match="not orthonormal"):
            analysis.Measurement(basis, labels[: basis.shape[1]])
    # a label per basis column
    with pytest.raises(ModelError):
        analysis.Measurement(np.eye(4), labels[:3])


def test_bitflip_projectors_are_shifted_honest_projectors(honest):
    """P^u of question q is sum_e P_(u xor e) (x) |e><e|, the honest
    projectors on the diagonal blocks of the flip register."""
    bf = analysis.build_device_model(honest, Device("bitflip", 0.2))
    flips = analysis.all_bit_tuples(honest.logical)
    for q, meas in honest.questions.items():
        honest_projs = _projector_dict(meas)
        expect = {}
        for u in honest_projs:
            mat = np.zeros((honest.dim, len(flips), honest.dim, len(flips)), dtype=complex)
            for k, e in enumerate(flips):
                mat[:, k, :, k] = honest_projs[tuple(a ^ b for a, b in zip(u, e))]
            expect[u] = mat.reshape(bf.dim, bf.dim)
        assert bf.questions[q].outcomes == sorted(expect)
        for u, proj in zip(bf.questions[q].outcomes, bf.questions[q].projectors):
            assert np.max(np.abs(proj - expect[u])) <= 1e-15


def test_marginal_observables_commute_and_square(honest):
    eye = np.eye(honest.dim)
    zs, xs = honest.questions[0].observables, honest.questions[1].observables
    for i in range(honest.logical):
        for obs in (zs[i], xs[i]):  # Hermitian binary observables
            assert np.allclose(obs, obs.conj().T, atol=1e-9)
            assert np.allclose(obs @ obs, eye, atol=1e-9)
        for j in range(honest.logical):
            comm = zs[i] @ zs[j] - zs[j] @ zs[i]
            assert np.max(np.abs(comm)) < 1e-12  # [Z_i, Z_j] = 0 exactly


def _codes(decoded) -> tuple:
    """Decodings with None as entcf.UNDECODED: a row of a class table's decodings."""
    return tuple(entcf.UNDECODED if c is None else c for c in decoded)


def _decodings(table) -> list:
    """A class table's decodings as tuples of codes."""
    return [tuple(codes) for codes in table.decodings.tolist()]


def _decoding_of(model, theta, label):
    """The codes (b-hat per coordinate, then h-hat) of one (y, d) label
    under the model's trapdoors."""
    y, d = label
    traps = model.trapdoors[theta]
    return _codes(protocol.decode_bhat(traps, y) + protocol.decode_hhat(traps, y, d))


def _sigma_v_of(model, theta, label):
    """protocol.sigma_v of one (y, d) label under the model's trapdoors, or None."""
    v, found = protocol.sigma_v(model.protocol, model.n, theta, np.array([_decoding_of(model, theta, label)]))
    return tuple(v[0].tolist()) if found[0] else None


def test_sigma_mass_bounded(honest):
    for theta in honest.thetas:
        table = honest.tables[theta]
        total = float(np.sum(np.abs(table.blocks) ** 2))
        assert total + table.residual == pytest.approx(1.0, abs=1e-9)
        assert total <= 1.0 + 1e-9
        # a decoding's rows are stacked under the shared Sigma(theta, v)
        # rule's v of its labels, or left out of the stack when it has none
        for label in _ref_sigma_blocks(honest, theta, 2):
            k = _decodings(table).index(_decoding_of(honest, theta, label))
            stacked = np.isin(table.stack, np.flatnonzero(table.index == k))
            v = _sigma_v_of(honest, theta, label)
            assert stacked.any() == (v is not None)
            assert all(tuple(row) == tuple(v) for row in table.block_v[stacked].tolist())


def test_sigma_v_unique(honest):
    for theta in honest.thetas:
        for label in list(_ref_sigma_blocks(honest, theta, 2))[:16]:
            v = _sigma_v_of(honest, theta, label)
            assert v is not None
            members = [
                u
                for u in analysis.all_bit_tuples(honest.logical)
                if reference_sigma_member(theta, u, *label, honest.trapdoors[theta], honest.n)
            ]
            assert members == [v]


def test_honest_failures_vanish(honest):
    f = analysis.failure_report(honest)
    assert f["eps_P"] == pytest.approx(0.0, abs=1e-12)
    assert all(e == pytest.approx(0.0, abs=1e-12) for e in f["eps_H"].values())


def test_gamma_report_requires_selftest(honest_dim):
    with pytest.raises(ModelError):
        analysis.gamma_report(honest_dim)


def test_bitflip_gamma_matches_flip_rate(honest):
    p = 0.1
    bf = analysis.build_device_model(honest, Device("bitflip", p))
    g = analysis.gamma_report(bf)
    # a single flipped coordinate costs exactly p of the tested mass
    assert g["gamma_T0"] == pytest.approx(p, abs=1e-9)
    assert g["gamma_T1"] == pytest.approx(p, abs=1e-9)
    assert g["gamma_P"] == pytest.approx(0.0, abs=1e-9)  # preimage round unaffected
    with pytest.raises(ParameterError):
        analysis.build_device_model(honest, Device("bitflip", 1.5))


def test_wrongbasis_fails_hadamard_tests(honest):
    wb = analysis.build_device_model(honest, Device("wrongbasis"))
    f = analysis.failure_report(wb)
    assert f["eps_P"] == pytest.approx(0.0, abs=1e-12)
    assert f["eps"] > 0.01
    checks = analysis.check_gamma_bounds(analysis.gamma_report(wb), f, 1)
    assert all(c["ok"] for c in checks)


def test_tau_states(honest):
    # theta = diamond, v = 0: CZ|++>, the certified pair state
    tau = analysis.tau_vector("selftest", 1, THETA_DIAMOND, (0, 0))
    expect = np.array([1, 1, 1, -1], dtype=complex) / 2.0
    assert np.allclose(tau, expect)
    # X flips move within the family and preserve orthonormality
    vs = [(a, b) for a in (0, 1) for b in (0, 1)]
    taus = [analysis.tau_vector("selftest", 1, THETA_DIAMOND, v) for v in vs]
    gram = np.array([[np.vdot(a, b) for b in taus] for a in taus])
    assert np.allclose(gram, np.eye(4), atol=1e-12)
    # theta int: one hadamard coordinate
    tau = analysis.tau_vector("selftest", 1, 0, (1, 0))
    assert np.allclose(tau, np.kron([1, -1] / np.sqrt(2), [1, 0]))


def test_swap_isometry_rejects_nonprojective(honest):
    # a question measurement whose "projectors" are each half the identity
    # has no orthonormal basis, so no model (and no isometry) gets built
    with pytest.raises(ModelError):
        half = analysis.Measurement(np.full((4, 4), 0.5), analysis.all_bit_tuples(2))
        dataclasses.replace(honest, questions={0: half, 1: half}, name="bad").swap


def test_rank_bound_rejects_nonisometry():
    # right shape (2^n * dim, dim) but V'V != 1
    v, half = np.ones((4, 2)), np.eye(2) / 2
    eps = qsim.trace_norm(v @ half @ v.T - np.kron(np.eye(2) / 2, half))
    with pytest.raises(ParameterError):
        analysis.rank_bound_check(v, half, half, 1, eps)
    # an isometry of the wrong shape for n = 1, dim = 2
    with pytest.raises(ParameterError):
        analysis.rank_bound_check(np.eye(8)[:, :2], half, half, 1, eps)


def test_dimension_certificate_requires_dimtest(honest):
    with pytest.raises(ModelError):
        analysis.dimension_certificate(honest)


def test_certificate_separates_honest_from_classical(honest_dim):
    cert = analysis.dimension_certificate(honest_dim)
    assert cert["certified_dimension"] == pytest.approx(2.0, abs=1e-9)
    assert cert["rank"] == 2 and cert["rank_ok"]
    classical = analysis.build_classical_model(
        DimTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2)), np.random.default_rng(3)
    )
    cert_c = analysis.dimension_certificate(classical)
    assert cert_c["certified_dimension"] <= 1.0
    assert cert_c["rank"] == 1


def _never_called(*args, **kwargs):
    raise AssertionError("a key was generated for a model over budget")


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(entcf, "gen_keypair", _never_called)
    # dimtest N=1 w=17: past the analysis's 2^16 cap, each coordinate's
    # 2^18-entry key table would be enumerated
    cfg = DimTestConfig(N=1, entcf=entcf.EntcfParams.ideal(17))
    with pytest.raises(DomainError, match="capped"):
        analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(0))
    # an N=3 w=2 honest-shaped model fits; its bitflip dilation adds a 2^6
    # environment, so V has 2^6 * (2^6 * 2^6)^2 = 2^30 entries, and it is
    # refused before anything is built
    fits = analysis.DeviceModel("selftest", 3, 2, 6, [], {}, {}, {}, {})
    with pytest.raises(ModelError, match="exceeds budget"):
        analysis.build_device_model(fits, Device("bitflip", 0.1))
    # random N=4 caches 4 question, 10 d- and 1 preimage projector stacks of
    # 2^8 * (2^8)^2 entries; the guard counts them all
    with pytest.raises(ModelError, match="exceeds budget"):
        analysis.build_random_model(SelfTestConfig(N=4, entcf=entcf.EntcfParams.ideal(2)), None)


def test_budget_admits_random_n3():
    # 13 stacks of 2^6 * (2^6)^2 entries: 3.4 million in all
    cfg = SelfTestConfig(N=3, entcf=entcf.EntcfParams.ideal(2))
    model = analysis.build_random_model(cfg, np.random.default_rng(0))
    assert model.dim == 64 and len(model.d_meas) == 8


def test_toylwe_models_unsupported():
    cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.toylwe(n=1, m=2, q=8, B=1))
    with pytest.raises(ModelError):
        analysis.build_honest_model(cfg, "selftest", np.random.default_rng(0))


@pytest.mark.parametrize("kind", ["selftest", "dimtest"])
def test_honest_models_need_w2(kind):
    # at w = 1 a claw coordinate's even coset of d's holds only d = 0
    cfg = (SelfTestConfig if kind == "selftest" else DimTestConfig)(N=1, entcf=entcf.EntcfParams.ideal(1))
    with pytest.raises(ModelError):
        analysis.build_honest_model(cfg, kind, np.random.default_rng(0))


def test_analysis_report_shape(honest):
    rng = np.random.default_rng(0)
    report = analysis.analysis_report(honest, rng)
    assert report["version"] == 1 and report["all_ok"]
    assert set(report["gammas"]) >= {"gamma_P", "gamma_T", "gamma_diamond"}
    assert all(c["lhs"] <= c["rhs"] + 1e-9 for c in report["checks"])


# ---------------------------------------------------------------------------
# The shared Sigma(theta, v) rule against the membership predicate
# ---------------------------------------------------------------------------

def reference_sigma_member(theta, v, y, d, trapdoors, n, kind="selftest") -> bool:
    """Is (y, d) in Sigma(theta, v)? None decodings fail every equality.
    The predicate as first written, one coordinate at a time."""
    if kind == "selftest":
        if theta == THETA_ALL_G:
            return all(entcf.decode_b(t, yi) == vi for t, yi, vi in zip(trapdoors, y, v))
        if theta == THETA_DIAMOND:
            return all(
                entcf.decode_h(trapdoors[i], y[i], d[i]) == v[protocol.partner(i, n)]
                for i in range(2 * n)
            )
        for i in range(2 * n):
            if i != theta and entcf.decode_b(trapdoors[i], y[i]) != v[i]:
                return False
        h = entcf.decode_h(trapdoors[theta], y[theta], d[theta])
        return h is not None and h == v[theta] ^ v[protocol.partner(theta, n)]
    if theta == THETA_ALL_G:
        return all(entcf.decode_b(t, yi) == vi for t, yi, vi in zip(trapdoors, y, v))
    for i in range(n):
        if i != theta and entcf.decode_b(trapdoors[i], y[i]) != v[i]:
            return False
    h = entcf.decode_h(trapdoors[theta], y[theta], d[theta])
    return h is not None and h == v[theta]


def _assert_sigma_v_matches_reference(model, theta, labels):
    """sigma_v is the unique member of Sigma(theta, .) and None when there is none."""
    traps = model.trapdoors[theta]
    answers = analysis.all_bit_tuples(model.logical)
    for label in labels:
        members = [
            u
            for u in answers
            if reference_sigma_member(theta, u, *label, traps, model.n, model.protocol)
        ]
        v = _sigma_v_of(model, theta, label)
        assert members == ([] if v is None else [v]), (theta, label)


def _sigma_oracle_models():
    """Honest, bitflip, random and classical models of both protocols."""
    st1 = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    honest = analysis.build_honest_model(st1, "selftest", np.random.default_rng(5))
    yield honest
    yield analysis.build_device_model(honest, Device("bitflip", 0.2))
    st3 = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(3))
    yield analysis.build_honest_model(st3, "selftest", np.random.default_rng(6))
    yield analysis.build_random_model(st1, np.random.default_rng(7))
    for n in (1, 2):
        dim = DimTestConfig(N=n, entcf=entcf.EntcfParams.ideal(2))
        yield analysis.build_honest_model(dim, "dimtest", np.random.default_rng(8 + n))
        yield analysis.build_classical_model(dim, np.random.default_rng(10 + n))


def test_sigma_v_matches_membership_predicate():
    rng = np.random.default_rng(12)
    for model in _sigma_oracle_models():
        params = model.keys[model.thetas[0]][0].params
        for theta in model.thetas:
            # every label the model puts mass on
            _assert_sigma_v_matches_reference(model, theta, _ref_sigma_blocks(model, theta))
            # random labels: images off the key ranges, and d with zero entries
            labels = []
            for _ in range(200):
                y = tuple(int(rng.integers(params.image_space_size)) for _ in range(model.logical))
                d = rng.integers(2**params.w, size=model.logical)
                d[rng.random(model.logical) < 0.3] = 0
                labels.append((y, tuple(int(e) for e in d)))
            _assert_sigma_v_matches_reference(model, theta, labels)


# ---------------------------------------------------------------------------
# Stacked kernels against dense per-block references
# ---------------------------------------------------------------------------

def _ref_rank1(u, w):
    """||uu+ - ww+||_1 from a 2x2 eigenproblem in the span of u and w."""
    basis = []
    for vec in (u, w):
        r = vec.astype(complex).copy()
        for b in basis:
            r -= b * (b.conj() @ r)
        norm = np.linalg.norm(r)
        if norm > 1e-14:
            basis.append(r / norm)
    if not basis:
        return 0.0
    bmat = np.array(basis)
    gu, gw = bmat.conj() @ u, bmat.conj() @ w
    small = np.outer(gu, gu.conj()) - np.outer(gw, gw.conj())
    return float(np.sum(np.abs(np.linalg.eigvalsh(small))))


def _ref_psi(model, theta, n_y=None):
    """dict y -> psi block on logical (x) x for the first n_y y's (all when
    None), in y order: an explicit model's stored blocks, or a product-form
    model's coordinate triples (_triples of its keys) multiplied out with the
    CZ signs, one y at a time."""
    if model.d_meas is not None:
        return dict(itertools.islice(sorted(model.psi[theta].items()), n_y))
    L = model.logical
    cz = analysis._cz_signs(model.n) if protocol.paired(model.protocol) else np.ones(2**L)
    order = list(range(0, 2 * L, 2)) + list(range(1, 2 * L, 2))  # qubits, then x registers
    out = {}
    for combo in itertools.islice(itertools.product(*map(_triples, model.keys[theta])), n_y):
        states = [_dense_state(support, model.w) for _, _, support in combo]
        tens = functools.reduce(np.multiply.outer, states)
        block = np.transpose(tens, order).reshape(2**L, -1) * cz[:, None]
        weight = np.prod([weight for _, weight, _ in combo])
        out[tuple(y for y, _, _ in combo)] = np.sqrt(weight) * block.ravel()
    return out


def _rank_one_factor(op):
    """u with op = |u><u|, up to a phase; op must have rank one."""
    j = int(np.argmax(op.diagonal().real))
    u = op[:, j] / np.sqrt(op[j, j].real) if op[j, j].real > 0 else op[:, j]
    assert np.max(np.abs(op - np.outer(u, u.conj()))) <= 1e-12
    return u


def _ref_sigma_blocks(model, theta, n_y=None):
    """Post-d blocks on logical (x) env of every (y, d) label with nonzero
    mass, one d tuple at a time, in label order; for the first n_y y's of psi
    (all when None). A product-form model's block is the rank-one factor of
    the summed |rest><rest| over the (y, column tuple) pairs whose columns'
    labels make up d, rest being the block contracted with the columns on the
    x registers."""
    out = {}
    for y, block in _ref_psi(model, theta, n_y).items():
        if model.d_meas is not None:
            projs = sorted(_projector_dict(model.d_meas[theta]).items())
            outcomes = [(d, proj @ block) for d, proj in projs]
        else:
            # (qubits, x registers): contract the x part with each column tuple
            full = block.reshape(2**model.logical, -1)
            per_coord = [_hadamard_columns(trap, model.w) for trap in model.trapdoors[theta]]
            summed = {}
            for combo in itertools.product(*per_coord):
                x_vec = functools.reduce(np.multiply.outer, [col for _, col in combo]).ravel()
                rest = full @ x_vec.conj()
                d = tuple(label for label, _ in combo)
                summed[d] = summed.get(d, 0) + np.outer(rest, rest.conj())
            outcomes = [(d, _rank_one_factor(op)) for d, op in sorted(summed.items())]
        for d, rest in outcomes:
            rest = np.multiply.outer(rest, model.env).ravel()
            if np.vdot(rest, rest).real >= qsim.ATOL**2:
                out[(y, d)] = rest
    return out


def _ref_groups(model, theta):
    """dict v -> dict (y, d) -> block on logical (x) env, over the labels
    with v = sigma_v(label)."""
    groups = {}
    for label, rest in _ref_sigma_blocks(model, theta).items():
        v = _sigma_v_of(model, theta, label)
        if v is not None:
            groups.setdefault(v, {})[label] = rest
    return groups


def _ref_soundness(model, theta):
    """(per_v, total, post_measurement), one label block and one outcome at a
    time."""
    L, dim = model.logical, model.dim
    v_iso = model.swap
    groups = _ref_groups(model, theta)
    per_v = {}
    post = {q: 0.0 for q in sorted(model.questions)}
    ideal = {}
    projs = {q: _projector_dict(model.questions[q]) for q in post}
    for q in post:
        meas = analysis.question_measurement(model.protocol, model.n, q)
        ideal[q] = dict(zip(meas.labels, meas.basis.T))
    for v in sorted(groups):
        tau = analysis.tau_vector(model.protocol, model.n, theta, v)
        per_v[v] = 0.0
        for _, vec in sorted(groups[v].items()):
            lifted = v_iso @ vec
            a = tau.conj() @ lifted.reshape(2**L, dim)
            per_v[v] += _ref_rank1(lifted, np.kron(tau, a))
            for q in post:
                for u, proj in projs[q].items():
                    target = np.kron(ideal[q][u] * np.vdot(ideal[q][u], tau), a)
                    post[q] += _ref_rank1(v_iso @ (proj @ vec), target)
    return per_v, sum(per_v.values()), post


def _ref_eps_h(model):
    """eps_H per question, decoding and judging every (label, u) pair."""
    verdict_fn = (
        protocol.selftest_verdict if model.protocol == "selftest" else protocol.dimtest_verdict
    )
    eps_h = {}
    blocks = {theta: _ref_sigma_blocks(model, theta) for theta in model.thetas}
    for q in sorted(model.questions):
        projs = _projector_dict(model.questions[q])
        accept = 0.0
        for theta in model.thetas:
            traps = model.trapdoors[theta]
            for (y, d), vec in blocks[theta].items():
                bhat = [
                    entcf.decode_b(t, yi) if t.family == entcf.FAMILY_G else None
                    for t, yi in zip(traps, y)
                ]
                hhat = [
                    entcf.decode_h(t, yi, di) if t.family == entcf.FAMILY_F else None
                    for t, yi, di in zip(traps, y, d)
                ]
                for u, proj in projs.items():
                    if verdict_fn(model.n, theta, q, u, bhat, hhat).accept:
                        accept += np.vdot(vec, proj @ vec).real
        eps_h[q] = 1.0 - accept / len(model.thetas)
    return eps_h


def _ref_certificate(model):
    """(v_distance, min over blocks of eps_c) from dense trace norms, one
    label block at a time; v is the smallest within 1e-12 of the minimum."""
    n, L, dim = model.n, model.logical, model.dim
    v_iso = model.swap
    groups = _ref_groups(model, THETA_ALL_G)
    mass = {v: sum(np.vdot(b, b).real for b in blk.values()) for v, blk in groups.items()}
    dists = {}
    for v in sorted(v for v in groups if mass[v] > 1e-12):
        tau = analysis.tau_vector("dimtest", n, THETA_ALL_G, v)
        dist, pairs = 0.0, []
        for _, vec in sorted(groups[v].items()):
            branches = [p @ vec for p in _projector_dict(model.questions[1]).values()]
            rho = sum(np.outer(b, b.conj()) for b in branches)
            a = tau.conj() @ (v_iso @ vec).reshape(2**L, dim)
            rho, alpha = rho / mass[v], np.outer(a, a.conj()) / mass[v]
            rhs = np.kron(np.eye(2**n) / 2**n, alpha)
            dist += qsim.trace_norm(v_iso @ rho @ v_iso.conj().T - rhs)
            pairs.append((rho, alpha))
        dists[v] = (dist, pairs)
    least = min(dist for dist, _ in dists.values())
    v_dist, pairs = next(dists[v] for v in sorted(dists) if dists[v][0] <= least + 1e-12)
    eps_c = []
    for rho, alpha in pairs:
        tr_rho, tr_alpha = np.trace(rho).real, np.trace(alpha).real
        if tr_rho < 1e-12 or tr_alpha < 1e-12:
            continue
        lhs = v_iso @ (rho / tr_rho) @ v_iso.conj().T
        eps_c.append(qsim.trace_norm(lhs - np.kron(np.eye(2**n) / 2**n, alpha / tr_alpha)))
    return v_dist, min(eps_c)


def _phase_key(vec):
    """vec's direction: the unit vector whose first entry above 1e-6 in
    modulus is real and positive, rounded to 8 decimals."""
    unit = vec / np.linalg.norm(vec)
    lead = unit[np.flatnonzero(np.abs(unit) > 1e-6)[0]]
    return tuple(np.round(unit * abs(lead) / lead, 8).tolist())


def _every_model():
    """One model of each kind, both protocols."""
    yield from _sigma_oracle_models()
    cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    honest = analysis.build_honest_model(cfg, "selftest", np.random.default_rng(4))
    yield analysis.build_device_model(honest, Device("wrongbasis"))


def _class_models():
    for w, seed in ((2, 1), (3, 2)):
        cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(w))
        honest = analysis.build_honest_model(cfg, "selftest", np.random.default_rng(seed))
        yield honest
        yield analysis.build_device_model(honest, Device("bitflip", 0.2))
        yield analysis.build_device_model(honest, Device("wrongbasis"))
    for n, seed in ((1, 3), (2, 4)):
        cfg = DimTestConfig(N=n, entcf=entcf.EntcfParams.ideal(3))
        yield analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(seed))


def test_sigma_blocks_match_per_outcome_reference():
    """The per-label reference blocks, grouped by decoding and direction:
    each group's summed |b><b| is one class row's outer product."""
    for model in _class_models():
        for theta in model.thetas:
            table = model.tables[theta]
            groups = {}
            for label, rest in _ref_sigma_blocks(model, theta).items():
                key = (_decoding_of(model, theta, label), _phase_key(rest))
                groups.setdefault(key, []).append(rest)
            assert len(groups) == len(table.rows), (model.name, theta)
            unmatched, decodings = list(range(len(table.rows))), _decodings(table)
            for (decoding, _), blocks in groups.items():
                blocks = np.array(blocks)
                summed = blocks.T @ blocks.conj()
                match = [
                    k
                    for k in unmatched
                    if decodings[table.index[k]] == decoding
                    and np.max(np.abs(np.outer(table.rows[k], table.rows[k].conj()) - summed)) <= 1e-12
                ]
                assert len(match) == 1, (model.name, theta, decoding)
                unmatched.remove(match[0])


def test_class_rows_keep_coordinate_order():
    # three coordinates, the first size where a product taken in the wrong
    # axis order can still match at two; the first 16 y's per theta: each
    # label block is parallel to a row with its decoding
    cfg = DimTestConfig(N=3, entcf=entcf.EntcfParams.ideal(2))
    model = analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(2))
    for theta in model.thetas:
        table, decodings = model.tables[theta], _decodings(model.tables[theta])
        for label, rest in _ref_sigma_blocks(model, theta, 16).items():
            rows = table.rows[[decodings[k] == _decoding_of(model, theta, label) for k in table.index]]
            overlap = np.abs(rows.conj() @ rest) ** 2 / np.sum(np.abs(rows) ** 2, axis=1)
            assert np.max(overlap) == pytest.approx(np.vdot(rest, rest).real, rel=1e-12)


@pytest.mark.parametrize("kind,w", [("selftest", 2), ("dimtest", 4), ("dimtest", 12)])
def test_class_tables_make_one_array_decode_per_coordinate(kind, w, monkeypatch):
    """Every class table of a model together decodes each (theta,
    coordinate) with one array decode, through the entcf attributes the
    benchmark tracer wraps: decode_b on an injective coordinate, decode_h
    on a claw one, which evaluates the key's P^-1 itself and makes no
    decode_x. No image is decoded alone, and the reports decode nothing more."""
    cfg = (SelfTestConfig if kind == "selftest" else DimTestConfig)(N=1, entcf=entcf.EntcfParams.ideal(w))
    model = analysis.build_honest_model(cfg, kind, np.random.default_rng(3))
    calls = {}

    def counted(name, fn):
        def wrapper(*args):
            key = (name, any(isinstance(arg, np.ndarray) for arg in args))
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)
        return wrapper

    for name in ("decode_b", "decode_x", "decode_h"):
        monkeypatch.setattr(entcf, name, counted(name, getattr(entcf, name)))
    model.tables
    families = [trap.family for theta in model.thetas for trap in model.trapdoors[theta]]
    claws = families.count(entcf.FAMILY_F)
    want = {("decode_b", True): len(families) - claws, ("decode_h", True): claws}
    assert calls == {key: count for key, count in want.items() if count}
    calls.clear()
    analysis.failure_report(model)
    assert calls == {}


def _ref_coord_classes(model, theta, i):
    """Reference: coordinate i's (codes, vecs) as the analysis built them one
    coordinate at a time, each outcome decoded alone by the scalar decoders
    and the classes split off in a loop: the outcomes that share the first
    remaining one's code and, within 1e-12, its direction."""
    coord, trap = _triples(model.keys[theta][i]), model.trapdoors[theta][i]
    b, x, amp = (np.array([[s[0][k], s[-1][k]] for _, _, s in coord]) for k in range(3))
    amp[:, 1] *= [len(s) - 1 for _, _, s in coord]
    t = x[:, 0] ^ x[:, 1]
    ds = np.stack([np.where(t & 1 == 0, 1, np.where(t & 2 == 0, 2, 3)), t & -t], axis=1)
    signs = 1.0 - 2.0 * (np.bitwise_count(ds[:, :, None] & x[:, None, :]) & 1)
    vecs = (signs * amp[:, None, :]) @ (b[:, :, None] == np.arange(2))
    keep = np.stack([np.ones_like(t, dtype=bool), t != 0], axis=1).ravel()
    units = (vecs / np.linalg.norm(vecs, axis=2, keepdims=True)).reshape(-1, 2)[keep].astype(complex)
    masses = np.repeat(np.array([weight for _, weight, _ in coord]) / (1 + (t != 0)), 2)[keep]
    ys = np.repeat([y for y, _, _ in coord], 2)[keep].tolist()
    decoded = [
        protocol.decode_bhat([trap], [y]) + protocol.decode_hhat([trap], [y], [d])
        for y, d in zip(ys, ds.ravel()[keep].tolist())
    ]
    codes = np.array([[-1 if v is None else v for v in pair] for pair in decoded], dtype=np.int8)
    out_codes, out_vecs = [], []
    left = np.arange(len(units))
    while left.size:
        unit = units[left[0]]
        same = np.all(codes[left] == codes[left[0]], axis=1) & (
            np.abs(units[left] @ unit.conj()) ** 2 >= 1.0 - 1e-12
        )
        out_codes.append(codes[left[0]])
        out_vecs.append(np.sqrt(np.sum(masses[left[same]])) * unit)
        left = left[~same]
    return np.array(out_codes), np.array(out_vecs)


def _product_models(kind, n, w, seed):
    """The honest, bitflip=0.2 and wrongbasis models of one seed; bitflip
    only where its size guard admits it."""
    cfg = (SelfTestConfig if kind == "selftest" else DimTestConfig)(N=n, entcf=entcf.EntcfParams.ideal(w))
    honest = analysis.build_honest_model(cfg, kind, np.random.default_rng(seed))
    yield honest
    try:
        yield analysis.build_device_model(honest, Device("bitflip", 0.2))
    except ModelError:
        assert (kind, n) == ("selftest", 3)
    yield analysis.build_device_model(honest, Device("wrongbasis"))


@pytest.mark.parametrize("kind", ["selftest", "dimtest"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_batched_classes_equal_the_per_coordinate_reference(kind, n):
    for w, seed in itertools.product((2, 3, 4, 6), (0, 5, 11)):
        for model in _product_models(kind, n, w, seed):
            for theta in model.thetas:
                for i in range(model.logical):
                    got, want = model.coord_classes[theta][i], _ref_coord_classes(model, theta, i)
                    assert np.array_equal(got[0], want[0]), (model.name, w, seed, theta, i)
                    assert np.array_equal(got[1], want[1]), (model.name, w, seed, theta, i)


def test_classes_refuse_a_shared_code_with_two_directions():
    """An injective key whose table swaps f_0(0) and f_1(0), given as a
    table oracle, under the original trapdoor, puts each of the two images
    on the other b: its decoded b-hat stays, so its outcome shares a code
    with the row's other images and is not parallel to them."""
    cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    honest = analysis.build_honest_model(cfg, "selftest", np.random.default_rng(3))
    theta = honest.thetas[0]
    i = next(i for i, trap in enumerate(honest.trapdoors[theta]) if trap.family == entcf.FAMILY_G)
    table = honest.keys[theta][i].table.copy()
    table[0, 0], table[1, 0] = table[1, 0], table[0, 0]
    keys = {key: list(coords) for key, coords in honest.keys.items()}
    keys[theta][i] = TableKey(keys[theta][i].params, table)  # the model reads only the table
    tampered = analysis.DeviceModel(
        honest.protocol, honest.n, honest.w, honest.logical, honest.thetas, keys, honest.trapdoors,
        None, honest.questions, name="tampered",
    )
    with pytest.raises(ModelError, match="not parallel"):
        tampered.tables
    assert all(len(table.rows) for table in honest.tables.values())


def _per_image_claw_basis(w, x0, x1):
    """The claw basis the d-measurement once used per image, row d outcome d:
    (|x0> +- |x1>)/sqrt(2) at the smallest nonzero d of each h-parity of
    x0 xor x1, the other computational states on the remaining rows."""
    delta = x0 ^ x1
    d_plus = next(d for d in range(1, 2**w) if entcf.parity(d & delta) == 0)
    d_minus = next(d for d in range(2**w) if entcf.parity(d & delta) == 1)
    eye = np.eye(2**w, dtype=complex)
    out = np.empty_like(eye)
    out[d_plus], out[d_minus] = (eye[x0] + eye[x1]) / np.sqrt(2.0), (eye[x0] - eye[x1]) / np.sqrt(2.0)
    rest_d = [d for d in range(2**w) if d not in (d_plus, d_minus)]
    out[rest_d] = eye[[x for x in range(2**w) if x not in (x0, x1)]]
    return out


@pytest.mark.parametrize(
    "kind,n,w",
    [
        ("selftest", 1, 2), ("selftest", 1, 3), ("dimtest", 2, 3),
        ("selftest", 2, 2), ("dimtest", 3, 2), ("dimtest", 1, 6),
    ],
)
def test_coordinate_classes_match_per_image_claw_basis(kind, n, w):
    """Each coordinate's codes, and its summed |v><v| per code, are those of
    the per-image claw bases (the Hadamard basis on injective coordinates)."""
    cfg = (SelfTestConfig if kind == "selftest" else DimTestConfig)(N=n, entcf=entcf.EntcfParams.ideal(w))
    model = analysis.build_honest_model(cfg, kind, np.random.default_rng(w))
    for theta in model.thetas:
        for i, (trap, key) in enumerate(zip(model.trapdoors[theta], model.keys[theta])):
            want = {}
            for y, weight, support in _triples(key):
                state = _dense_state(support, w)
                if trap.family == entcf.FAMILY_G:
                    rows = qsim.hadamard_matrix(w).T
                else:
                    rows = _per_image_claw_basis(w, entcf.decode_x(0, trap, y), entcf.decode_x(1, trap, y))
                for d, row in enumerate(rows):
                    vec = np.sqrt(weight) * (state @ row.conj())
                    if np.vdot(vec, vec).real >= qsim.ATOL**2:
                        decoded = protocol.decode_bhat([trap], [y]) + protocol.decode_hhat([trap], [y], [d])
                        code = _codes(decoded)
                        want[code] = want.get(code, 0) + np.outer(vec, vec.conj())
            got = {}
            for code, vec in zip(*model.coord_classes[theta][i]):
                code = tuple(code.tolist())
                got[code] = got.get(code, 0) + np.outer(vec, vec.conj())
            assert set(got) == set(want), (theta, i)
            for code, summed in want.items():
                assert np.max(np.abs(got[code] - summed)) <= 1e-12, (theta, i, code)


def test_class_tables_of_a_wide_coordinate_stay_small():
    # dimtest N=1: each image leaves one or two qubit vectors; at w=8 dense
    # (2, 2^w) states times the Hadamard basis peaked near 26 MiB, and a
    # grid of one matrix per image near 1 GB; at w=12 Python (y, weight,
    # support) triples per image peaked near 8.8 MiB, the key tables read
    # as arrays near 4.2 MiB
    for w, mib in ((8, 4), (12, 6)):
        tracemalloc.start()
        try:
            model = analysis.build_honest_model(
                DimTestConfig(N=1, entcf=entcf.EntcfParams.ideal(w)), "dimtest", np.random.default_rng(7)
            )
            model.tables
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mib * 2**20, w


def test_soundness_distances_stay_small():
    # selftest honest N=2 w=2: each question's branches are stacked and
    # lifted a chunk of outcomes at a time; stacking all 16 outcomes of a
    # question at once peaked near 4.0 MiB
    cfg = SelfTestConfig(N=2, entcf=entcf.EntcfParams.ideal(2))
    model = analysis.build_honest_model(cfg, "selftest", np.random.default_rng(7))
    model.tables
    tracemalloc.start()
    try:
        for theta in model.thetas:
            analysis.soundness_distance(model, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def _refused(*args):
    raise AssertionError("the honest model called a trapdoor decoder or a preimage scan")


def test_honest_model_is_built_from_the_public_table(monkeypatch):
    """The honest state comes from the key's forward table alone, as the
    honest device prepares it: no trapdoor decoding and no preimage scan,
    and every preimage test passes exactly."""
    for config, kind in (
        (SelfTestConfig(N=2, entcf=entcf.EntcfParams.ideal(3)), "selftest"),
        (DimTestConfig(N=2, entcf=entcf.EntcfParams.ideal(5)), "dimtest"),
    ):
        with monkeypatch.context() as patch:
            for name in ("preimages", "decode_b", "decode_x", "decode_h"):
                patch.setattr(entcf, name, _refused)
            model = analysis.build_honest_model(config, kind, np.random.default_rng(3))
            assert [model.preimage_mass[theta] for theta in model.thetas] == [1.0] * len(model.thetas)
        assert analysis.failure_report(model)["eps_P"] == 0.0
        if kind == "selftest":
            assert analysis.gamma_report(model)["gamma_P"] == 0.0


@pytest.mark.parametrize("w", [2, 3, 4])
@pytest.mark.parametrize("family", [entcf.FAMILY_F, entcf.FAMILY_G])
def test_coord_y_support_matches_the_preimage_scan(family, w):
    """Oracle: each image's first and last preimage are those of its
    preimage scan, in order, with mass 2^-(w+1) per preimage spread evenly
    over the amplitudes; a lone preimage is padded with amplitude 0."""
    for seed in range(3):
        key, _ = entcf.gen_keypair(family, entcf.EntcfParams.ideal(w), np.random.default_rng(seed))
        owner, ys, weights, bs, xs, amps = analysis._honest_images(np.stack([key.table, key.table]))
        assert owner.tolist() == [0] * (ys.size // 2) + [1] * (ys.size // 2)
        assert ys.tolist() == entcf.image_iter(key) * 2
        for y, weight, b, x, amp in zip(ys.tolist(), weights, bs.tolist(), xs.tolist(), amps.tolist()):
            scan = entcf.preimages(key, y)
            assert list(zip(b, x)) == [scan[0], scan[-1]]
            assert weight == len(scan) * 2.0 ** -(w + 1)
            assert amp == [1.0 / np.sqrt(len(scan)), (len(scan) - 1) / np.sqrt(len(scan))]


def test_first_min_breaks_ties_by_order_not_round_off():
    assert analysis._first_min([3e-13, 0.0, 2.0]) == 0
    assert analysis._first_min([1.5e-12, 0.8e-12, 0.0]) == 1
    assert analysis._first_min([2.0, 1.0 + 2e-12, 1.0, 1.0 + 5e-13]) == 2


def test_certificate_v_min_is_the_smallest_tied_v():
    # every v of an honest model is at a round-off distance, so v_min is 0^N
    cfg = DimTestConfig(N=3, entcf=entcf.EntcfParams.ideal(2))
    model = analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(7))
    cert = analysis.dimension_certificate(model)
    assert cert["v_distance"] <= 1e-12
    assert cert["v_min"] == (0, 0, 0)


def _oracle_models(honest):
    cfg = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
    rng = np.random.default_rng(11)
    randoms = [analysis.build_random_model(cfg, rng) for _ in range(5)]
    noisy = [
        analysis.build_device_model(honest, Device("wrongbasis")),
        analysis.build_device_model(honest, Device("bitflip", 0.1)),
    ]
    return [honest, *noisy, *randoms]


def test_soundness_distance_matches_dense_reference(honest):
    for model in _oracle_models(honest):
        for theta in model.thetas:
            sd = analysis.soundness_distance(model, theta)
            per_v, total, post = _ref_soundness(model, theta)
            assert set(sd["per_v"]) == set(per_v)
            for v, dist in per_v.items():
                assert sd["per_v"][v] == pytest.approx(dist, abs=1e-9)
            assert sd["total"] == pytest.approx(total, abs=1e-9)
            assert set(sd["post_measurement"]) == set(post)
            for q, dist in post.items():
                assert sd["post_measurement"][q] == pytest.approx(dist, abs=1e-9)


def test_failure_report_matches_dense_reference(honest):
    rng = np.random.default_rng(5)
    dimtest = [
        analysis.build_honest_model(DimTestConfig(N=1, entcf=entcf.EntcfParams.ideal(4)), "dimtest", rng),
        analysis.build_classical_model(DimTestConfig(N=2, entcf=entcf.EntcfParams.ideal(2)), rng),
    ]
    for model in [*_oracle_models(honest), *dimtest]:
        got = analysis.failure_report(model)
        eps_h = _ref_eps_h(model)
        assert set(got["eps_H"]) == set(eps_h)
        for q, eps in eps_h.items():
            assert got["eps_H"][q] == pytest.approx(eps, abs=1e-9)
        # eps = eps_P / 2 + the mean of eps_H over the questions / 2
        assert got["eps"] == pytest.approx(got["eps_P"] / 2.0 + np.mean(list(eps_h.values())) / 2.0, abs=1e-9)


def _cell_verdict(model, theta, q, u, codes):
    """The verifier's verdict on one (answer, decoding) cell of a class table."""
    verdict = protocol.selftest_verdict if model.protocol == "selftest" else protocol.dimtest_verdict
    decoded = [None if c == entcf.UNDECODED else c for c in codes]
    return verdict(model.n, theta, q, u, decoded[: model.logical], decoded[model.logical :])


def _judged_cells(monkeypatch) -> list:
    """The cells protocol.hadamard_rule is handed as arrays from now on, in
    order, as (theta, q, answer, codes) tuples."""
    cells, rule = [], protocol.hadamard_rule

    def recorded(kind, n, theta, q, v, codes):
        if isinstance(codes, np.ndarray):
            cells.extend((theta, q, tuple(u), tuple(c)) for u, c in zip(v.tolist(), codes.tolist()))
        return rule(kind, n, theta, q, v, codes)

    monkeypatch.setattr(protocol, "hadamard_rule", recorded)
    return cells


def _unskipped_eps_h(model):
    """(eps_H, verdicts taken) with a verdict on every decoding of every
    class table, those without mass included: failure_report without its skip."""
    accept = dict.fromkeys(sorted(model.questions), 0.0)
    verdicts = 0
    for theta in model.thetas:
        table = model.tables[theta]
        for q in accept:
            for u, weights in zip(model.questions[q].outcomes, model.masses[q][theta]):
                mass = np.bincount(table.index, weights=weights, minlength=len(table.decodings))
                for k, codes in enumerate(table.decodings.tolist()):
                    verdicts += 1
                    if _cell_verdict(model, theta, q, u, codes).accept:
                        accept[q] += float(mass[k])
    return {q: 1.0 - a / len(model.thetas) for q, a in accept.items()}, verdicts


def test_failure_report_skips_decodings_without_mass(monkeypatch):
    """dimtest honest N=4 w=2, seed 7: the report is bit for bit the one a
    verdict on every decoding gives, though the rule judges 912 cells
    instead of 2,560: exactly the (answer, decoding) cells that carry mass."""
    cfg = DimTestConfig(N=4, entcf=entcf.EntcfParams.ideal(2))
    model = analysis.build_honest_model(cfg, "dimtest", np.random.default_rng(7))
    cells = _judged_cells(monkeypatch)
    report = analysis.failure_report(model)
    judged = list(cells)
    assert len(judged) == 912 and judged == _ref_failure_report(model)[1]
    eps_h, verdicts = _unskipped_eps_h(model)
    assert verdicts == 2560
    assert (report["eps_P"], report["eps_H"], report["eps"]) == (0.0, eps_h, protocol.eps(0.0, eps_h))
    assert all(abs(e) <= 1e-15 for e in eps_h.values())


def _ref_failure_report(model):
    """(failure_report, cells judged) with the per-outcome scan: one
    np.flatnonzero per row of each (theta, q) masses @ indicator matrix and
    one verifier verdict per (theta, q, answer, codes) cell it lists."""
    n_thetas = len(model.thetas)
    eps_p = 1.0 - sum(model.preimage_mass[theta] for theta in model.thetas) / n_thetas
    accept = dict.fromkeys(sorted(model.questions), 0.0)
    cells = []
    for theta in model.thetas:
        table = model.tables[theta]
        indicator = np.eye(len(table.decodings))[table.index]
        for q in accept:
            masses = model.masses[q][theta] @ indicator
            for u, mass in zip(model.questions[q].outcomes, masses):
                for k in np.flatnonzero(mass):
                    codes = tuple(table.decodings[k].tolist())
                    cells.append((theta, q, u, codes))
                    if _cell_verdict(model, theta, q, u, codes).accept:
                        accept[q] += float(mass[k])
    eps_h = {q: 1.0 - a / n_thetas for q, a in accept.items()}
    return {"eps_P": eps_p, "eps_H": eps_h, "eps": protocol.eps(eps_p, eps_h)}, cells


def _cli_model(kind, model, n, w, seed):
    args = argparse.Namespace(protocol=kind, model=model, n=n, w=w)
    return cli._build_model(args, np.random.default_rng(seed))


FAILURE_SCAN_CASES = [
    *(("selftest", model, 1) for model in ("honest", "bitflip=0.1", "wrongbasis", "random")),
    *(("selftest", "honest", n) for n in (2, 3)),
    *(("dimtest", model, 3) for model in ("honest", "classical")),
]


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("kind,name,n", FAILURE_SCAN_CASES)
def test_failure_scan_matches_the_per_row_scan(kind, name, n, seed, monkeypatch):
    """One nonzero scan of each masses matrix gives the per-row scan's
    report bit for bit, and the rule judges exactly the cells that carry
    mass, in the per-row scan's order."""
    model = _cli_model(kind, name, n, 2, seed)
    cells = _judged_cells(monkeypatch)
    got = analysis.failure_report(model)
    judged = list(cells)
    want, want_cells = _ref_failure_report(model)
    assert judged == want_cells and judged
    assert (got["eps_P"], got["eps_H"], got["eps"]) == (want["eps_P"], want["eps_H"], want["eps"])


def test_no_cache_keeps_a_model_alive():
    """Every cache keyed on a model or a Measurement lives on it, so a model
    and its measurements are freed once a report on it is done."""
    refs = []
    for model in (_cli_model("selftest", "bitflip=0.1", 1, 2, 0), _cli_model("dimtest", "classical", 3, 2, 0)):
        analysis.analysis_report(model, np.random.default_rng(1))
        measurements = [*model.questions.values(), *(model.d_meas or {}).values()]
        refs += [weakref.ref(obj) for obj in (model, *measurements)]
    del model, measurements
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)


def _ref_soundness_by_theta(model, theta):
    """soundness_distance of one theta alone: its own lift, trace norm call
    and chunks of outcomes, each chunk's distances summed by one np.sum."""
    L, dim = model.logical, model.dim
    v_iso = model.swap
    table = model.tables[theta]
    blocks = table.blocks
    v_rows, row_v = np.unique(table.block_v, axis=0, return_inverse=True)
    row_v = row_v.ravel()
    v_keys = [tuple(int(b) for b in row) for row in v_rows]
    taus = np.array([analysis.tau_vector(model.protocol, model.n, theta, v) for v in v_keys], dtype=complex)
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
        ideal = analysis.question_measurement(model.protocol, model.n, q).basis
        ideal = ideal[:, [analysis.bits_to_int(u) for u in meas.outcomes]].T
        overlap = ideal.conj() @ taus.T
        post[q] = 0.0
        for lo in range(0, len(ideal), step):
            k = slice(lo, lo + step)
            measured = blocks @ meas.projectors[k].swapaxes(1, 2)
            measured[np.vecdot(measured, measured).real < qsim.ATOL**2] = 0.0
            coef = ideal[k, None, :] * overlap[k, :, None]
            target = (coef[..., None] * alpha[:, None, :]).reshape(-1, width)
            post[q] += float(np.sum(qsim.trace_norm_diff_rank1(measured.reshape(-1, dim) @ v_iso.T, target)))
    return {"per_v": per_v, "total": float(sum(per_v.values())), "post_measurement": post}


def _ref_swap_circuit(model, rng):
    """swap_identity_checks' circuit deviation, one random state at a time."""
    L, dim = model.logical, model.dim
    v = model.swap
    zs, xs = model.questions[0].observables, model.questions[1].observables
    anc_bits = (np.arange(2**L)[None, :] >> np.arange(L - 1, -1, -1)[:, None]) & 1
    circ_dev = 0.0
    for _ in range(3):
        state = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        state /= np.linalg.norm(state)
        rows = np.zeros((2**L, dim), dtype=complex)
        rows[0] = state
        for paulis in (zs, xs):
            rows = qsim.hadamard_matrix(L) @ rows
            for i in range(L):
                on = anc_bits[i] == 1
                rows[on] = rows[on] @ paulis[i].T
        circ_dev = max(circ_dev, float(np.max(np.abs(rows.ravel() - v @ state))))
    return circ_dev


STACKED_CASES = [
    *(("selftest", name, 1, 2, seed) for name in ("honest", "bitflip=0.1", "wrongbasis") for seed in (0, 7)),
    ("selftest", "wrongbasis", 1, 3, 0),
    ("selftest", "random", 1, 2, 3),
    ("selftest", "honest", 2, 2, 0),
]


@pytest.mark.parametrize("kind,name,n,w,seed", STACKED_CASES)
@pytest.mark.parametrize("budget", [qsim.CHUNK_ENTRIES, 512])
def test_stacked_soundness_equals_the_per_theta_loop(kind, name, n, w, seed, budget, monkeypatch):
    """Every theta's distances from the stacked groups equal, bit for bit,
    those of the theta alone. At the default budget all N=1 thetas are one
    group, and at N=2 each theta is a group of its own whose chunks hold one
    outcome each. A budget of 512 entries puts two honest N=1 thetas in a
    group chunked an outcome at a time, while each alone sums two chunks of
    two outcomes."""
    monkeypatch.setattr(qsim, "CHUNK_ENTRIES", budget)
    model = _cli_model(kind, name, n, w, seed)
    for theta in model.thetas:
        assert analysis.soundness_distance(model, theta) == _ref_soundness_by_theta(model, theta)


def test_soundness_stacks_thetas_within_the_chunk_budget(monkeypatch):
    """selftest honest N=1 makes one trace norm call for every theta's Sigma
    rows and one per question, where a theta at a time made four times as
    many; at N=2 each call's four arrays stay within CHUNK_ENTRIES."""
    rank1 = qsim.trace_norm_diff_rank1
    sizes = []
    monkeypatch.setattr(qsim, "trace_norm_diff_rank1", lambda u, w: sizes.append(u.size) or rank1(u, w))
    for n, calls in ((1, 1 + 4), (2, 6 * (1 + 4 * 16))):
        sizes.clear()
        model = _cli_model("selftest", "honest", n, 2, 0)
        reports = [analysis.soundness_distance(model, theta) for theta in model.thetas]
        assert len(sizes) == calls
        assert max(sizes) * 4 <= qsim.CHUNK_ENTRIES
        assert all(analysis.soundness_distance(model, theta) is r for theta, r in zip(model.thetas, reports))
        assert len(sizes) == calls


# random: dense observables, whose products round differently if a view is multiplied row by row
SWAP_MODELS = [
    ("selftest", "honest", 1), ("selftest", "bitflip=0.1", 1), ("selftest", "random", 1), ("selftest", "honest", 2),
    ("selftest", "random", 2), ("dimtest", "honest", 1), ("dimtest", "classical", 3),
]


@pytest.mark.parametrize("kind,name,n", SWAP_MODELS)
def test_stacked_swap_circuit_equals_the_per_state_loop(kind, name, n):
    """The three states pushed through the circuit as one stack give the
    per-state loop's deviation bit for bit, from the same draws."""
    model = _cli_model(kind, name, n, 2 if kind == "selftest" else 4, 0)
    for seed in range(5):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert analysis.swap_identity_checks(model, got_rng)["circuit"] == _ref_swap_circuit(model, want_rng)
        assert got_rng.random() == want_rng.random()


@pytest.mark.parametrize(
    "kind,name,n,w,seed",
    [("selftest", "honest", 1, 2, 0), ("selftest", "bitflip=0.1", 1, 2, 0), ("selftest", "honest", 2, 2, 0),
     *(("selftest", "random", 1, 2, seed) for seed in range(6)), ("dimtest", "honest", 1, 4, 0),
     ("dimtest", "classical", 3, 2, 0)],
)
def test_outcome_masses_are_slices_of_one_stacked_call(kind, name, n, w, seed):
    """Each theta's masses equal those of its rows alone, and so does their
    product with the decoding indicator, which numpy computes with another
    kernel (and other round-off) when the masses are laid out contiguously
    rather than as the real part of a complex array: random seed 3 shows it."""
    model = _cli_model(kind, name, n, w, seed)
    for q, meas in model.questions.items():
        for theta in model.thetas:
            table = model.tables[theta]
            got = model.masses[q][theta]
            want = np.einsum("...d,...d->...", table.rows.conj(), table.rows @ meas.projectors.swapaxes(1, 2)).real
            indicator = np.eye(len(table.decodings))[table.index]
            assert np.array_equal(got, want) and np.array_equal(got @ indicator, want @ indicator)
            assert not got.flags.writeable and got is model.masses[q][theta]


def test_cached_arrays_are_read_only_and_reports_do_not_share_state(tmp_path):
    lwe, bitflip = entcf.EntcfParams.toylwe(1, 3, 16, 1), _cli_model("selftest", "bitflip=0.1", 1, 2, 0)
    cached = [
        qsim.hadamard_matrix(2),
        analysis._cz_signs(1),
        analysis.question_measurement("selftest", 1, 1).observables,
        bitflip.questions[0].observables,
        bitflip.swap,
        entcf._domain(lwe),
        entcf.gen_keypair(entcf.FAMILY_F, lwe, np.random.default_rng(0))[0].lwe_centers,
    ]
    for arr in cached:
        with pytest.raises(ValueError):
            arr[(0,) * arr.ndim] = 0
    first = ["analyze", "--protocol", "selftest", "--n", "1", "--w", "2", "--model", "honest", "--seed", "0"]
    other = ["analyze", "--protocol", "dimtest", "--n", "3", "--w", "2", "--model", "classical", "--seed", "0"]
    for k, argv in enumerate((first, other, first)):
        assert cli.main([*argv, "--report", str(tmp_path / f"{k}.json")]) == 0
    assert (tmp_path / "0.json").read_bytes() == (tmp_path / "2.json").read_bytes()


@pytest.mark.parametrize(
    "kind,n,w,seed", [("honest", 1, 2, 0), ("honest", 1, 3, 1), ("classical", 2, 2, 3), ("honest", 2, 2, 2)]
)
def test_dimension_certificate_matches_dense_reference(kind, n, w, seed):
    cfg = DimTestConfig(N=n, entcf=entcf.EntcfParams.ideal(w))
    rng = np.random.default_rng(seed)
    if kind == "honest":
        model = analysis.build_honest_model(cfg, "dimtest", rng)
    else:
        model = analysis.build_classical_model(cfg, rng)
    cert = analysis.dimension_certificate(model)
    v_distance, eps = _ref_certificate(model)
    assert cert["v_distance"] == pytest.approx(v_distance, abs=1e-9)
    assert cert["epsilon"] == pytest.approx(eps, abs=1e-9)


def test_dimension_certificate_builds_no_dense_operator(honest_dim, monkeypatch):
    # epsilon comes from the low-rank factors, never from a (2^N dim)^2 operator
    def dense(a):
        raise AssertionError("qsim.trace_norm called")

    monkeypatch.setattr(qsim, "trace_norm", dense)
    cert = analysis.dimension_certificate(honest_dim)
    assert cert["epsilon"] <= 1e-12
    assert cert["rank"] == 2 and cert["rank_ok"]


# ---------------------------------------------------------------------------
# Reports against numbers recorded with the dense logical (x) x (x) env engine
# ---------------------------------------------------------------------------

# analyze --seed 0 reports recorded at commit ccc0244, where every sigma block
# and question projector still carried the x registers; certificate.v_min
# names one of several tied minimisers and is left out, as is `swap`, whose
# deviations are round-off
GOLDEN = json.loads((Path(__file__).parent / "data" / "analyze_golden.json").read_text())


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, bool):
        assert got is want, path
    else:
        assert abs(got - want) <= 1e-9, (path, got, want)


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: f"{c['protocol']}-{c['model']}-n{c['n']}w{c['w']}")
def test_report_matches_dense_engine(case, tmp_path, capsys):
    path = tmp_path / "report.json"
    argv = ["analyze", "--protocol", case["protocol"], "--n", str(case["n"]), "--w", str(case["w"])]
    argv += ["--model", case["model"], "--seed", "0", "--report", str(path)]
    assert cli.main(argv) == case["exit"]
    capsys.readouterr()
    report = json.loads(path.read_text())
    sections = [key for key in ("failures", "gammas", "soundness", "certificate") if key in case]
    assert sections == [key for key in ("failures", "gammas", "soundness", "certificate") if key in report]
    for key in sections:
        got = report[key]
        if key == "certificate":
            got = {k: v for k, v in got.items() if k != "v_min"}
        _assert_close(got, case[key], key)
