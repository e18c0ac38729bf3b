"""Linear-algebra kernel tests."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selftestsim import qsim
from selftestsim.errors import DomainError


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def test_statevector_measure_removes_register():
    rng = np.random.default_rng(0)
    sv = qsim.StateVector(np.kron([1, 0], [0, 1]), [("a", 2), ("b", 2)])
    out, collapsed = sv.measure("a", "computational", rng)
    assert out == 0
    assert collapsed.registers == [("b", 2)]
    assert np.allclose(collapsed.amps, [0, 1])


def test_hadamard_measure_transforms_once(monkeypatch):
    real = qsim.hadamard_matrix
    calls = []
    monkeypatch.setattr(qsim, "hadamard_matrix", lambda nbits: calls.append(nbits) or real(nbits))
    state = random_state(np.random.default_rng(1), 8)
    sv = qsim.StateVector(state, [("x", 4), ("q", 2)])
    outcome, collapsed = sv.measure("x", "hadamard", np.random.default_rng(2))
    assert calls == [2]
    # the Born rule in the transformed basis, with the same draw
    amps = real(2) @ state.reshape(4, 2)
    probs = np.sum(np.abs(amps) ** 2, axis=1)
    assert outcome == int(np.random.default_rng(2).choice(4, p=probs / probs.sum()))
    assert np.allclose(collapsed.amps, amps[outcome] / np.linalg.norm(amps[outcome]))
    with pytest.raises(DomainError):
        qsim.StateVector(np.ones(3) / np.sqrt(3), [("t", 3)]).measure("t", "hadamard", np.random.default_rng(0))


def test_controlled_z():
    sv = qsim.StateVector(np.ones(4) / 2.0, [("a", 2), ("b", 2)])
    out = qsim.controlled_z(sv, "a", "b")
    assert np.allclose(out.amps, [0.5, 0.5, 0.5, -0.5])


def test_trace_norm_matches_numpy():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    assert qsim.trace_norm(a) == pytest.approx(np.sum(np.linalg.svd(a, compute_uv=False)))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_trace_norm_diff_rank1_matches_dense(seed):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=6) + 1j * rng.normal(size=6)
    w = rng.normal(size=6) + 1j * rng.normal(size=6)
    dense = qsim.trace_norm(np.outer(u, u.conj()) - np.outer(w, w.conj()))
    assert qsim.trace_norm_diff_rank1(u, w) == pytest.approx(dense, abs=1e-9)


def test_partial_trace_product_state():
    rng = np.random.default_rng(2)
    a, b = random_state(rng, 2), random_state(rng, 3)
    ab = np.kron(a, b)
    rho = np.outer(ab, ab.conj())
    red = qsim.partial_trace(rho, [("a", 2), ("b", 3)], ["a"])
    assert np.allclose(red, np.outer(a, a.conj()), atol=1e-12)
    with pytest.raises(DomainError):
        qsim.partial_trace(rho, [("a", 2), ("b", 3)], ["zz"])


def test_sqrtm_psd():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4))
    p = m @ m.T
    r = qsim.sqrtm_psd(p)
    assert np.allclose(r @ r, p, atol=1e-9)


def test_numerical_rank():
    rho = np.diag([0.5, 0.5, 1e-14, 0.0])
    assert qsim.numerical_rank(rho) == 2
    assert qsim.numerical_rank(np.zeros((3, 3))) == 0


def _dense_diff_rank1(u, w):
    return qsim.trace_norm(np.outer(u, u.conj()) - np.outer(w, w.conj()))


def test_batched_trace_norm_diff_rank1_matches_dense():
    rng = np.random.default_rng(5)
    dim = 7
    u = rng.normal(size=(8, dim)) + 1j * rng.normal(size=(8, dim))
    w = rng.normal(size=(8, dim)) + 1j * rng.normal(size=(8, dim))
    w[0] = np.exp(0.7j) * u[0]  # parallel, with a phase
    w[1] = 2.0 * u[1]  # parallel, different length
    w[2] = u[2] + 1e-9 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))  # near-parallel
    w[3] = u[3] - (np.vdot(u[3], w[3]) / np.vdot(u[3], u[3])) * u[3]  # orthogonal
    u[4] = 0.0  # one zero row
    u[5] = w[5] = 0.0  # both zero
    w[6] = 0.0
    got = qsim.trace_norm_diff_rank1(u, w)
    assert got.shape == (8,)
    for i in range(8):
        assert got[i] == pytest.approx(_dense_diff_rank1(u[i], w[i]), abs=1e-9)
    # leading shape is kept, and a single pair gives a float
    assert qsim.trace_norm_diff_rank1(u.reshape(2, 4, dim), w.reshape(2, 4, dim)).shape == (2, 4)
    assert isinstance(qsim.trace_norm_diff_rank1(u[7], w[7]), float)


def test_trace_norm_diff_rank1_keeps_precision_near_equal_rows():
    rng = np.random.default_rng(6)
    u = rng.normal(size=16) + 1j * rng.normal(size=16)
    delta = 1e-9 * (rng.normal(size=16) + 1j * rng.normal(size=16))
    # the distance is of size |u| |delta| ~ 1e-8; the Gram closed form would
    # lose it in round-off of size sqrt(1e-16) |u|^2
    got = qsim.trace_norm_diff_rank1(u, np.exp(0.3j) * (u + delta))
    assert got == pytest.approx(_dense_diff_rank1(u, u + delta), rel=1e-6)
    assert got > 1e-9


@pytest.mark.parametrize("rows,cols,dim", [(3, 2, 6), (4, 5, 5), (2, 7, 4)])
def test_trace_norm_lowrank_matches_dense(rows, cols, dim):
    rng = np.random.default_rng(rows * 100 + cols)
    factors = rng.normal(size=(rows, dim, cols)) + 1j * rng.normal(size=(rows, dim, cols))
    weights = rng.normal(size=(rows, cols))
    got = qsim.trace_norm_lowrank(factors, weights)
    assert got.shape == (rows,)
    for k in range(rows):
        dense = (factors[k] * weights[k]) @ factors[k].conj().T
        assert got[k] == pytest.approx(qsim.trace_norm(dense), abs=1e-9)
    # shared weights broadcast over the leading shape
    shared = qsim.trace_norm_lowrank(factors, weights[0])
    dense0 = (factors[1] * weights[0]) @ factors[1].conj().T
    assert shared[1] == pytest.approx(qsim.trace_norm(dense0), abs=1e-9)
