"""ENTCF layer: claw-free (F) and injective (G) trapdoor function pairs.

Two pluggable backends:

- Ideal: deterministic truth tables (singleton supports). The claw structure is an
  XOR shift, f_{k,1}(x) = f_{k,0}(x ^ s), giving a perfect matching with O(1)
  trapdoor. Truth tables are public, so this backend is information-theoretically
  distinguishable; it exists for completeness and functional testing only.
- ToyLwe: a toy LWE instantiation over Z_q^n with q a power of two. The domain
  {0,1}^w is the bit decomposition of z in Z_q^n (w = n*log2(q)); supports are
  infinity-norm noise balls of radius B around A.z + b.u. Decoding is exhaustive
  preimage search, capped at |X| <= 2^16. No cryptographic strength is claimed.

Conventions: preimages x and Hadamard strings d are ints holding w bits
(little-endian bit order); images are ints (Ideal) or length-m tuples over Z_q
(ToyLwe); the undefined decoding is None. The ideal decoders also take an
array of images (and of d's) and answer an array, UNDECODED for None, through
one sort of the key table; a scalar image keeps the cheaper scan.
"""
from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, FamilyError, ParameterError, ProtocolError

FAMILY_F = "F"
FAMILY_G = "G"

_DECODE_CAP = 2**16  # largest |X| the exhaustive scans over X allow


def parity(n: int) -> int:
    return bin(n).count("1") & 1


def check_scan(params: EntcfParams) -> None:
    """Refuse |X| > 2^16: ToyLwe keygen and decoding, and preimages, scan X."""
    if 2**params.w > _DECODE_CAP:
        raise DomainError(f"exhaustive scans of X capped at |X| <= 2^16, got 2^{params.w}")


@dataclass(frozen=True)
class EntcfParams:
    """Backend selection and sizes. |X| = 2^w always."""

    backend: str  # "ideal" | "toylwe"
    w: int
    image_space_size: int = 0  # ideal only
    n: int = 0  # toylwe: secret dimension
    m: int = 0  # toylwe: number of samples
    q: int = 0  # toylwe: modulus (power of two)
    B: int = 0  # toylwe: noise bound

    def __post_init__(self):
        if self.w < 1:
            raise ParameterError("w must be >= 1")
        if self.backend == "ideal":
            if self.image_space_size < 2 ** (self.w + 1):
                raise ParameterError("image_space_size must be >= 2^(w+1)")
        elif self.backend == "toylwe":
            if min(self.n, self.m, self.q, self.B) < 1:
                raise ParameterError("toylwe dims must be positive")
            if 2 * self.B * self.m >= self.q:
                raise ParameterError("need 2*B*m < q")
            if self.q & (self.q - 1):
                raise ParameterError("q must be a power of two")
            if self.w != self.n * (self.q.bit_length() - 1):
                raise ParameterError("w must equal n*log2(q)")
        else:
            raise ParameterError(f"unknown backend {self.backend!r}")

    @classmethod
    def ideal(cls, w: int) -> "EntcfParams":
        # slack beyond the 2^(w+1) range union keeps "invalid y" reachable
        return cls(backend="ideal", w=w, image_space_size=2 ** (w + 1) + 2)

    @classmethod
    def toylwe(cls, n: int, m: int, q: int, B: int) -> "EntcfParams":
        w = n * (q.bit_length() - 1)
        return cls(backend="toylwe", w=w, n=n, m=m, q=q, B=B)


@dataclass(frozen=True)
class PublicKey:
    """Family-blind public key.

    Ideal: full forward truth tables, shape (2, 2^w).
    ToyLwe: matrix A (m x n) and vector u (m,) over Z_q.
    The byte encoding has identical length and layout for F and G keys.
    """

    params: EntcfParams
    table: np.ndarray | None = None  # ideal
    A: np.ndarray | None = None  # toylwe
    u: np.ndarray | None = None  # toylwe

    def to_bytes(self) -> bytes:
        p = self.params
        if p.backend == "ideal":
            head = struct.pack(">BBBI", 1, 0, p.w, p.image_space_size)
            body = self.table.astype(">u4").tobytes()
        else:
            head = struct.pack(">BBBHHIH", 1, 1, p.w, p.n, p.m, p.q, p.B)
            body = self.A.astype(">u4").tobytes() + self.u.astype(">u4").tobytes()
        return head + body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        if len(raw) < 3 or raw[0] != 1:
            raise ProtocolError("bad key encoding version")
        kind = raw[1]
        if kind == 0:
            _, _, w, size = struct.unpack(">BBBI", raw[:7])
            table = np.frombuffer(raw, dtype=">u4", offset=7).astype(np.int64)
            return cls(params=_ideal_params(w, size), table=table.reshape(2, 2**w))
        if kind == 1:
            _, _, w, n, m, q, B = struct.unpack(">BBBHHIH", raw[:13])
            params = EntcfParams(backend="toylwe", w=w, n=n, m=m, q=q, B=B)
            flat = np.frombuffer(raw[13:], dtype=">u4").astype(np.int64)
            if len(flat) != m * n + m:
                raise ProtocolError("toylwe key needs m*n entries of A and m of u")
            return cls(params=params, A=flat[: m * n].reshape(m, n), u=flat[m * n :])
        raise ProtocolError("bad key backend byte")


@functools.lru_cache(maxsize=64)
def _ideal_params(w: int, size: int) -> EntcfParams:
    """The ideal parameters a key header names, validated once per header;
    a header that fails validation raises each time (lru_cache keeps no
    exception)."""
    return EntcfParams(backend="ideal", w=w, image_space_size=size)


@dataclass(frozen=True)
class Trapdoor:
    """Secret inversion data. Never serialized onto the protocol wire.

    Ideal: the key's tables plus, for F, the claw shift s (nonzero, with
    f_{k,1}(x) = f_{k,0}(x ^ s)). ToyLwe: the secret vector s in Z_q^n.
    """

    family: str  # FAMILY_F | FAMILY_G
    key: PublicKey
    s: int = 0  # ideal F: claw shift over preimage bits
    s_vec: tuple[int, ...] = ()  # toylwe secret

    @property
    def params(self) -> EntcfParams:
        return self.key.params


# ---------------------------------------------------------------------------
# ToyLwe coordinate helpers
# ---------------------------------------------------------------------------

def _lwe_bits(q: int) -> int:
    return q.bit_length() - 1


def x_to_z(x: int, params: EntcfParams) -> np.ndarray:
    """Bit-decomposition inverse: w-bit preimage -> vector in Z_q^n."""
    k = _lwe_bits(params.q)
    return np.array([(x >> (j * k)) & (params.q - 1) for j in range(params.n)], dtype=np.int64)


def z_to_x(z: np.ndarray, params: EntcfParams) -> int:
    k = _lwe_bits(params.q)
    x = 0
    for j in range(params.n):
        x |= (int(z[j]) % params.q) << (j * k)
    return x


def _centered(v: np.ndarray, q: int) -> np.ndarray:
    return (v + q // 2) % q - q // 2


def _lwe_center(key: PublicKey, b: int, x: int) -> np.ndarray:
    z = x_to_z(x, key.params)
    return (key.A @ z + b * key.u) % key.params.q


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def gen_keypair(family: str, params: EntcfParams, rng: np.random.Generator) -> tuple[PublicKey, Trapdoor]:
    """Sample a key pair. Deterministic given (family, params, rng state)."""
    if family not in (FAMILY_F, FAMILY_G):
        raise ParameterError(f"unknown family {family!r}")
    if params.backend == "ideal":
        return _gen_ideal(family, params, rng)
    return _gen_toylwe(family, params, rng)


def _gen_ideal(family, params, rng):
    # each table is a fresh int64 array taken from one permutation: F's rows
    # are f0 = its first 2^w entries and f1(x) = f0(x ^ s), G's its first 2^(w+1)
    perm = rng.permutation(params.image_space_size)
    size_x = 2**params.w
    if family == FAMILY_F:
        s = 1 + int(rng.integers(size_x - 1))
        x = np.arange(size_x)
        key = PublicKey(params=params, table=perm[np.array([x, x ^ s])])
        return key, Trapdoor(family=FAMILY_F, key=key, s=s)
    key = PublicKey(params=params, table=perm[: 2 * size_x].reshape(2, size_x).copy())
    return key, Trapdoor(family=FAMILY_G, key=key)


_KEYGEN_TRIES = 10_000


def _gen_toylwe(family, params, rng):
    q, B = params.q, params.B
    check_scan(params)
    offset = np.full(params.m, q // 2, dtype=np.int64)
    lattice_x = np.stack([x_to_z(x, params) for x in range(2**params.w)])
    for _ in range(_KEYGEN_TRIES):
        A = rng.integers(0, q, size=(params.m, params.n), dtype=np.int64)
        lattice = (lattice_x @ A.T) % q
        margin = np.abs(_centered(lattice, q)).max(axis=1)
        # distinct preimages must keep disjoint supports at either b
        if margin[1:].min() <= 2 * B:
            continue
        # G only: no A.t may land within noise reach of the b=1 branch
        # u = A.s + (q/2).1, so the two ranges stay disjoint as sets
        if family == FAMILY_G:
            shifted = np.abs(_centered(lattice - offset, q)).max(axis=1)
            if shifted.min() <= 2 * B:
                continue
        break
    else:
        raise ParameterError("no injective ToyLwe key found at these dimensions")
    if family == FAMILY_F:
        while True:
            s = rng.integers(0, q, size=params.n, dtype=np.int64)
            if s.any():
                break
        u = (A @ s) % q  # exact: f1(J(z)) = A(z+s)+e = f0(J(z+s))-matched
    else:
        s = rng.integers(0, q, size=params.n, dtype=np.int64)
        u = (A @ s + offset) % q
    key = PublicKey(params=params, A=A, u=u)
    return key, Trapdoor(family=family, key=key, s_vec=tuple(int(v) for v in s))


# ---------------------------------------------------------------------------
# Forward evaluation
# ---------------------------------------------------------------------------

def _check_x(params: EntcfParams, x: int) -> None:
    if not 0 <= x < 2**params.w:
        raise DomainError(f"preimage {x} outside {{0,1}}^{params.w}")


def support(key: PublicKey, b: int, x: int) -> frozenset:
    """Set of images with nonzero mass under f_{k,b}(x)."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return frozenset({int(key.table[b, x])})
    center = _lwe_center(key, b, x)
    q, B, m = key.params.q, key.params.B, key.params.m
    out = set()
    for e in itertools.product(range(-B, B + 1), repeat=m):
        out.add(tuple((center + np.array(e)) % q))
    return frozenset(out)


def support_contains(key: PublicKey, b: int, x: int, y) -> bool:
    """Membership test without enumeration; needs no trapdoor."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return int(key.table[b, x]) == y
    diff = _centered(np.array(y, dtype=np.int64) - _lwe_center(key, b, x), key.params.q)
    return bool(np.all(np.abs(diff) <= key.params.B))


def forward_sample(key: PublicKey, b: int, x: int, rng: np.random.Generator):
    """Draw one image from f_{k,b}(x)."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return int(key.table[b, x])
    e = rng.integers(-key.params.B, key.params.B + 1, size=key.params.m)
    return tuple((_lwe_center(key, b, x) + e) % key.params.q)


def chk(keys, y, b, x) -> int:
    """0 iff y_i is in Supp(f_{k_i,b_i}(x_i)) for every coordinate. Trapdoor-free."""
    if not (len(keys) == len(y) == len(b) == len(x)) or len(keys) < 1:
        raise ProtocolError("chk tuple length mismatch")
    for key_i, y_i, b_i, x_i in zip(keys, y, b, x):
        if not support_contains(key_i, b_i, x_i, y_i):
            return 1
    return 0


# ---------------------------------------------------------------------------
# Decoding maps
# ---------------------------------------------------------------------------

def _lwe_search(trapdoor: Trapdoor, b: int, y) -> int | None:
    """Exhaustive preimage search; returns the smallest matching x or None."""
    params = trapdoor.params
    check_scan(params)
    for x in range(2**params.w):
        if support_contains(trapdoor.key, b, x, y):
            return x
    return None


UNDECODED = -1  # an array decoding's entry for None


def _lookup(values: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Index of each entry of ys in values, whose entries are distinct, or
    UNDECODED: one argsort of values and one searchsorted of ys."""
    order = np.argsort(values)
    at = order.take(np.searchsorted(values, ys, sorter=order), mode="clip")
    return np.where(values[at] == ys, at, UNDECODED)


def decode_b(trapdoor: Trapdoor, y) -> int | None:
    """b-hat: which injective function produced y. G keys only. An array of
    ideal images gets an array, UNDECODED where the decoding is None."""
    if trapdoor.family != FAMILY_G:
        raise FamilyError("decode_b is defined only for G trapdoors")
    if isinstance(y, np.ndarray) and trapdoor.params.backend == "ideal":
        # the rows share no image, so the flat table's entries are distinct;
        # b = flat index >> w, and UNDECODED >> w is UNDECODED
        return _lookup(trapdoor.key.table.ravel(), y) >> trapdoor.params.w
    if trapdoor.params.backend == "ideal":
        # one scan of both rows; they share no image, so at most one entry hits
        hits = trapdoor.key.table == y
        first = int(hits.argmax())
        return first // hits.shape[1] if hits.flat[first] else None
    for b in (0, 1):
        if _lwe_search(trapdoor, b, y) is not None:
            return b
    return None


def decode_x(b: int | None, trapdoor: Trapdoor, y) -> int | None:
    """x-hat: the preimage with y in Supp(f_{k,b}(x)), or None. An array of
    ideal images gets an array, UNDECODED where the decoding is None."""
    if b is None:
        return None
    if isinstance(y, np.ndarray) and trapdoor.params.backend == "ideal":
        return _lookup(trapdoor.key.table[b], y)
    if trapdoor.params.backend == "ideal":
        # one scan of the row; its images are distinct, so at most one entry hits
        hits = trapdoor.key.table[b] == y
        x = int(hits.argmax())
        return x if hits[x] else None
    if trapdoor.family == FAMILY_F and b == 1:
        # invert side 0 and take the claw partner
        x0 = _lwe_search(trapdoor, 0, y)
        return None if x0 is None else claw_partner(trapdoor, x0)
    return _lwe_search(trapdoor, b, y)


def decode_h(trapdoor: Trapdoor, y, d) -> int | None:
    """h-hat = d . (x-hat_0 xor x-hat_1), or None for d = 0^w / y out of range.
    An array of ideal images, with an array of d's, gets an array,
    UNDECODED where the decoding is None."""
    if trapdoor.family != FAMILY_F:
        raise FamilyError("decode_h is defined only for F trapdoors")
    if isinstance(y, np.ndarray) and trapdoor.params.backend == "ideal":
        h = np.bitwise_count(d & trapdoor.s).astype(np.int64) & 1  # an ideal claw's x0 xor x1 is s
        return np.where((decode_x(0, trapdoor, y) < 0) | (d == 0), UNDECODED, h)
    if d == 0:
        return None
    x0 = decode_x(0, trapdoor, y)
    if x0 is None:
        return None
    return parity(d & (x0 ^ claw_partner(trapdoor, x0)))


def claw_partner(trapdoor: Trapdoor, x0: int) -> int:
    """The x1 matched with x0: Supp(f_{k,0}(x0)) = Supp(f_{k,1}(x1))."""
    if trapdoor.family != FAMILY_F:
        raise FamilyError("claws exist only for F keys")
    if trapdoor.params.backend == "ideal":
        return x0 ^ trapdoor.s
    z1 = (x_to_z(x0, trapdoor.params) - np.array(trapdoor.s_vec)) % trapdoor.params.q
    return z_to_x(z1, trapdoor.params)


def preimages(key: PublicKey, y) -> list[tuple[int, int]]:
    """All (b, x) with y in Supp(f_{k,b}(x)). Public (trapdoor-free) exhaustive scan."""
    params = key.params
    check_scan(params)
    if params.backend == "ideal":
        bs, xs = (key.table == y).nonzero()  # row-major: b first, then x
        return list(zip(bs.tolist(), xs.tolist()))
    return [
        (b, x)
        for b in (0, 1)
        for x in range(2**params.w)
        if support_contains(key, b, x, y)
    ]


def image_iter(key: PublicKey):
    """All images with nonzero mass under uniform (b, x); Ideal backend only."""
    if key.params.backend != "ideal":
        raise DomainError("image_iter is Ideal-only (ToyLwe unions are huge)")
    return sorted({int(v) for v in key.table.ravel()})
