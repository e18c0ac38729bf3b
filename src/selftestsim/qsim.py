"""Small dense linear-algebra and quantum-state engine.

Everything is complex128 and value-semantic. StateVector carries an ordered
register map so measurements address registers by name. Sub-normalized
operators are first-class; normalization is never implicit. A 1-D array passed
where an operator is expected is a pure, possibly sub-normalized branch vector
v standing for the rank-one operator v v-dagger.
"""
from __future__ import annotations

import functools

import numpy as np

from .errors import DomainError, SelfTestError

ATOL = 1e-10
# entries per row chunk of a batched trace norm: about 256 KB of complex128
CHUNK_ENTRIES = 2**14


@functools.lru_cache(maxsize=16)
def hadamard_matrix(nbits: int) -> np.ndarray:
    """The 2^nbits x 2^nbits Hadamard transform, cached and read-only."""
    h = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    out = np.array([[1.0]], dtype=complex)
    for _ in range(nbits):
        out = np.kron(out, h)
    out.flags.writeable = False
    return out


class StateVector:
    """Dense pure state over named registers (ordered list of (name, dim))."""

    def __init__(self, amplitudes, registers, normalize: bool = False):
        self.registers = list(registers)
        self.amps = np.asarray(amplitudes, dtype=complex).ravel().copy()
        dim = int(np.prod([d for _, d in self.registers]))
        if self.amps.size != dim:
            raise DomainError("amplitude length does not match register map")
        norm = np.linalg.norm(self.amps)
        if normalize:
            if norm < ATOL:
                raise DomainError("cannot normalize a zero vector")
            self.amps /= norm
        elif abs(norm - 1.0) > ATOL:
            raise DomainError(f"state not normalized (|.|={norm})")

    def _axis(self, register: str) -> int:
        for i, (name, _) in enumerate(self.registers):
            if name == register:
                return i
        raise DomainError(f"unknown register {register!r}")

    def _tensor(self) -> np.ndarray:
        return self.amps.reshape([d for _, d in self.registers])

    def _in_basis(self, register: str, basis: str):
        """(axis, amplitude tensor with that register written in basis, outcome
        probabilities of measuring it there)."""
        axis = self._axis(register)
        tens = self._tensor()
        if basis == "hadamard":
            dim = self.registers[axis][1]
            nbits = dim.bit_length() - 1
            if 2**nbits != dim:
                raise DomainError("hadamard basis needs a 2^k register")
            tens = np.moveaxis(
                np.tensordot(hadamard_matrix(nbits), tens, axes=([1], [axis])), 0, axis
            )
        elif basis != "computational":
            raise DomainError(f"unknown basis {basis!r}")
        moved = np.moveaxis(tens, axis, 0).reshape(self.registers[axis][1], -1)
        return axis, tens, np.sum(np.abs(moved) ** 2, axis=1)

    def measure(self, register: str, basis: str, rng: np.random.Generator):
        """Born-rule measurement; returns (outcome index, collapsed StateVector)."""
        axis, tens, probs = self._in_basis(register, basis)
        outcome = int(rng.choice(len(probs), p=probs / probs.sum()))
        sub = np.take(tens, outcome, axis=axis)
        norm = np.linalg.norm(sub)
        if norm < ATOL:
            raise SelfTestError("selected a zero-norm branch")
        registers = [r for i, r in enumerate(self.registers) if i != axis]
        if not registers:
            registers = [("scalar", 1)]
        return outcome, StateVector(sub / norm, registers)


def controlled_z(state: StateVector, qubit_i: str, qubit_j: str) -> StateVector:
    """CZ between two dim-2 registers; symmetric in its arguments."""
    ai, aj = state._axis(qubit_i), state._axis(qubit_j)
    if ai == aj:
        raise DomainError("controlled_z needs two distinct qubits")
    for a in (ai, aj):
        if state.registers[a][1] != 2:
            raise DomainError("controlled_z targets must be qubits")
    tens = state._tensor().copy()
    idx = [slice(None)] * tens.ndim
    idx[ai] = 1
    idx[aj] = 1
    tens[tuple(idx)] *= -1
    out = StateVector.__new__(StateVector)
    out.registers = list(state.registers)
    out.amps = tens.ravel()
    return out


# ---------------------------------------------------------------------------
# Density-operator helpers (plain ndarrays)
# ---------------------------------------------------------------------------

def trace_norm(a) -> float:
    """Sum of singular values."""
    a = _as_matrix(a)
    if np.allclose(a, a.conj().T, atol=1e-12):
        return float(np.sum(np.abs(np.linalg.eigvalsh(a))))
    return float(np.sum(np.sqrt(np.maximum(np.linalg.eigvalsh(a.conj().T @ a), 0.0))))


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(_as_matrix(a))
    vals = np.sqrt(np.maximum(vals, 0.0))
    return (vecs * vals) @ vecs.conj().T


def partial_trace(rho: np.ndarray, registers, keep) -> np.ndarray:
    """Trace out every register not in `keep`; registers is [(name, dim), ...]."""
    names = [n for n, _ in registers]
    for k in keep:
        if k not in names:
            raise DomainError(f"unknown register {k!r}")
    dims = [d for _, d in registers]
    rho = _as_matrix(rho).reshape(dims + dims)
    nreg = len(dims)
    # trace out discarded axes from the right to keep indices stable
    for i in reversed(range(nreg)):
        if names[i] not in keep:
            rho = np.trace(rho, axis1=i, axis2=i + (rho.ndim // 2))
    kept = int(np.prod([d for (n, d) in registers if n in keep])) or 1
    return rho.reshape(kept, kept)


def numerical_rank(rho: np.ndarray) -> int:
    vals = np.abs(np.linalg.eigvalsh(_as_matrix(rho)))
    top = vals.max(initial=0.0)
    if top == 0.0:
        return 0
    return int(np.sum(vals > 1e-8 * top))


def _as_matrix(block: np.ndarray) -> np.ndarray:
    block = np.asarray(block, dtype=complex)
    if block.ndim == 1:
        return np.outer(block, block.conj())
    return block


def trace_norm_diff_rank1(u: np.ndarray, w: np.ndarray):
    """||uu+ - ww+||_1 for each row pair of u and w (any leading shape).

    Exact identity: ||u - e^{i phi} w|| * ||u + e^{i phi} w||, with phi making
    <u, e^{i phi} w> real and >= 0. Both factors are formed from the vectors
    themselves, so the result keeps full relative precision near u = w, where
    the Gram form sqrt((|u|^2 + |w|^2)^2 - 4|<u, w>|^2) cancels. Returns a
    float for 1-D inputs and an array of the leading shape otherwise.
    """
    u = np.asarray(u, dtype=complex)
    w = np.asarray(w, dtype=complex)
    lead, width = u.shape[:-1], u.shape[-1]
    u, w = u.reshape(-1, width), w.reshape(-1, width)
    out = np.empty(len(u))
    # row chunks of CHUNK_ENTRIES keep the temporaries in cache
    step = max(1, CHUNK_ENTRIES // max(width, 1))
    for start in range(0, len(u), step):
        rows = slice(start, start + step)
        out[rows] = _rank1_rows(u[rows], w[rows])
    return float(out[0]) if not lead else out.reshape(lead)


def _rank1_rows(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    overlap = np.vecdot(u, w)[:, None]
    mag = np.abs(overlap)
    w = w * np.where(mag > 0.0, overlap.conj() / np.where(mag > 0.0, mag, 1.0), 1.0)
    both = u + w
    w -= u  # e^{i phi} w - u, the same norm as u - e^{i phi} w
    return np.sqrt(np.vecdot(w, w).real * np.vecdot(both, both).real)


def trace_norm_lowrank(factors: np.ndarray, weights: np.ndarray):
    """||F diag(weights) F+||_1 for factors F of shape (..., D, r).

    With F = QR (reduced), F W F+ = Q (R W R+) Q+ and Q has orthonormal
    columns, so the spectrum is that of the small Hermitian R W R+. weights
    has shape (r,) or (..., r).
    """
    r = np.linalg.qr(np.asarray(factors, dtype=complex), mode="r")
    core = (r * np.asarray(weights)[..., None, :]) @ r.conj().swapaxes(-1, -2)
    out = np.sum(np.abs(np.linalg.eigvalsh(core)), axis=-1)
    return float(out) if out.ndim == 0 else out
