"""ENTCF layer: claw-free (F) and injective (G) trapdoor function pairs.

Two pluggable backends:

- Ideal: deterministic truth tables (singleton supports). The claw structure is an
  XOR shift, f_{k,1}(x) = f_{k,0}(x ^ s), giving a perfect matching with O(1)
  trapdoor. Truth tables are public, so this backend is information-theoretically
  distinguishable; it exists for completeness and functional testing only.
- ToyLwe: a toy LWE instantiation over Z_q^n with q a power of two. The domain
  {0,1}^w is the bit decomposition of z in Z_q^n (w = n*log2(q)); supports are
  infinity-norm noise balls of radius B around A.z + b.u. Decoding tests y
  against the support of every x in one array pass over X, capped at
  |X| <= 2^16. No cryptographic strength is claimed.

Conventions: preimages x and Hadamard strings d are ints holding w bits
(little-endian bit order); images are ints (Ideal) or length-m tuples over Z_q
(ToyLwe); the undefined decoding is None. An ideal trapdoor decodes by
indexing the inverse of its key table, which serves one image and an array of
images (and of d's) alike; an array gets an array, UNDECODED for None.
"""
from __future__ import annotations

import functools
import itertools
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FamilyError, ParameterError, ProtocolError

FAMILY_F = "F"
FAMILY_G = "G"

_DECODE_CAP = 2**16  # largest |X| the exhaustive scans over X allow
_U32 = np.dtype(">u4")  # a key's wire entries: built once, not parsed from ">u4" per key
UNDECODED = -1  # an array decoding's entry for None


def parity(n):
    """The parity of n's bits; an array of ints gets an array of parities."""
    return n.bit_count() & 1 if isinstance(n, int) else np.bitwise_count(n).astype(np.int64) & 1


def check_scan(params: EntcfParams) -> None:
    """Refuse |X| > 2^16: keygen of either backend (a ToyLwe key scans X, an
    ideal key holds a 2^(w+1)-row table) and the public preimages scan X."""
    if 2**params.w > _DECODE_CAP:
        raise DomainError(f"|X| = 2^w is capped at 2^16, got 2^{params.w}")


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
            body = self.table.astype(_U32).tobytes()
        else:
            head = struct.pack(">BBBHHIH", 1, 1, p.w, p.n, p.m, p.q, p.B)
            body = self.A.astype(_U32).tobytes() + self.u.astype(_U32).tobytes()
        return head + body

    @functools.cached_property
    def lwe_centers(self) -> np.ndarray:
        """ToyLwe: the (2, 2^w, m) array whose [b, x] is A.x_to_z(x) + b.u,
        not reduced mod q, computed once per key and read-only."""
        lattice = _domain(self.params) @ self.A.T
        centers = np.stack([lattice, lattice + self.u])
        centers.flags.writeable = False
        return centers

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PublicKey":
        if len(raw) < 3 or raw[0] != 1:
            raise ProtocolError("bad key encoding version")
        kind = raw[1]
        if kind == 0:
            _, _, w, size = struct.unpack(">BBBI", raw[:7])
            table = np.frombuffer(raw, dtype=_U32, offset=7).astype(np.int64)
            return cls(params=_ideal_params(w, size), table=table.reshape(2, 2**w))
        if kind == 1:
            _, _, w, n, m, q, B = struct.unpack(">BBBHHIH", raw[:13])
            params = EntcfParams(backend="toylwe", w=w, n=n, m=m, q=q, B=B)
            flat = np.frombuffer(raw[13:], dtype=_U32).astype(np.int64)
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
    f_{k,1}(x) = f_{k,0}(x ^ s)), and their inverse: inverse[y] = b << w | x
    for the (b, x) with table[b, x] == y (an F key's x0), or UNDECODED.
    ToyLwe: the secret vector s in Z_q^n.
    """

    family: str  # FAMILY_F | FAMILY_G
    key: PublicKey
    s: int = 0  # ideal F: claw shift over preimage bits
    s_vec: tuple[int, ...] = ()  # toylwe secret
    inverse: np.ndarray | None = field(default=None, compare=False, repr=False)  # ideal

    @property
    def params(self) -> EntcfParams:
        return self.key.params


# ---------------------------------------------------------------------------
# ToyLwe coordinate helpers
# ---------------------------------------------------------------------------

def _lwe_bits(q: int) -> int:
    return q.bit_length() - 1


def x_to_z(x, params: EntcfParams) -> np.ndarray:
    """Bit-decomposition inverse: w-bit preimage -> vector in Z_q^n. A column
    of preimages, shape (k, 1), gives one such row each."""
    return (x >> (_lwe_bits(params.q) * np.arange(params.n))) & (params.q - 1)


@functools.lru_cache(maxsize=16)
def _domain(params: EntcfParams) -> np.ndarray:
    """The (2^w, n) array whose row x is x_to_z(x), cached and read-only."""
    domain = x_to_z(np.arange(2**params.w)[:, None], params)
    domain.flags.writeable = False
    return domain


def z_to_x(z: np.ndarray, params: EntcfParams) -> int:
    """Bit decomposition: vector in Z_q^n -> w-bit preimage; x_to_z's inverse."""
    return int(((z % params.q) << (_lwe_bits(params.q) * np.arange(params.n))).sum())


def _centered(v: np.ndarray, q: int) -> np.ndarray:
    return (v + q // 2) % q - q // 2


def _lwe_center(key: PublicKey, b: int, x: int) -> np.ndarray:
    return key.lwe_centers[b, x] % key.params.q


# ---------------------------------------------------------------------------
# Key generation
# ---------------------------------------------------------------------------

def gen_keypair(family: str, params: EntcfParams, rng: np.random.Generator) -> tuple[PublicKey, Trapdoor]:
    """Sample a key pair. Deterministic given (family, params, rng state)."""
    if family not in (FAMILY_F, FAMILY_G):
        raise ParameterError(f"unknown family {family!r}")
    check_scan(params)
    if params.backend == "ideal":
        return _gen_ideal(family, params, rng)
    return _gen_toylwe(family, params, rng)


def _gen_ideal(family, params, rng):
    # each table is a fresh int64 array taken from one permutation: F's rows
    # are f0 = its first 2^w entries and f1(x) = f0(x ^ s), G's its first 2^(w+1);
    # an image's position in it is x0 (F) or b << w | x (G), so the
    # permutation's inverse, UNDECODED past the rows, is the trapdoor's
    perm = rng.permutation(params.image_space_size)
    size_x = 2**params.w
    inverse = np.empty_like(perm)
    inverse[perm] = np.arange(perm.size)
    inverse[perm[(1 if family == FAMILY_F else 2) * size_x :]] = UNDECODED
    if family == FAMILY_F:
        s = 1 + int(rng.integers(size_x - 1))
        x = np.arange(size_x)
        key = PublicKey(params=params, table=perm[np.array([x, x ^ s])])
        return key, Trapdoor(family=FAMILY_F, key=key, s=s, inverse=inverse)
    key = PublicKey(params=params, table=perm[: 2 * size_x].reshape(2, size_x).copy())
    return key, Trapdoor(family=FAMILY_G, key=key, inverse=inverse)


_KEYGEN_TRIES = 10_000


def _gen_toylwe(family, params, rng):
    q, B = params.q, params.B
    offset = np.full(params.m, q // 2, dtype=np.int64)
    domain = _domain(params)
    for _ in range(_KEYGEN_TRIES):
        A = rng.integers(0, q, size=(params.m, params.n), dtype=np.int64)
        lattice = (domain @ A.T) % q
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
    B = key.params.B
    offsets = np.array(list(itertools.product(range(-B, B + 1), repeat=key.params.m)))
    return frozenset(map(tuple, ((_lwe_center(key, b, x) + offsets) % key.params.q).tolist()))


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

def _lwe_preimages(key: PublicKey, b: int, y) -> np.ndarray:
    """Every x with y in Supp(f_{k,b}(x)), ascending: one array pass over X."""
    diff = _centered(np.asarray(y, dtype=np.int64) - key.lwe_centers[b], key.params.q)
    return np.flatnonzero(np.abs(diff).max(axis=1) <= key.params.B)


def _ideal_decode(trapdoor: Trapdoor, y, rule, defined=True):
    """rule(i) of i = trapdoor.inverse[y] where y is an image of the tables,
    `defined` holds and rule(i) lies in [0, 2^w), else None; an array of
    images (and of `defined`) gets an array, UNDECODED for None. An int y
    indexes as a Python int (numpy would read a bool as a mask). A y outside
    the image space (the wire admits up to 2^32 - 1, and numpy wraps a
    negative index) is undecodable."""
    inverse, size_x = trapdoor.inverse, 2**trapdoor.params.w
    if isinstance(y, np.ndarray):
        i = inverse.take(y, mode="clip")
        v = rule(i)
        found = (y >= 0) & (y < inverse.size) & (i != UNDECODED) & defined
        return np.where(found & (v < size_x), v, UNDECODED)
    i = int(inverse[int(y)]) if 0 <= y < inverse.size else UNDECODED
    v = rule(i) if i != UNDECODED and defined else UNDECODED
    return int(v) if 0 <= v < size_x else None


def decode_b(trapdoor: Trapdoor, y) -> int | None:
    """b-hat: which injective function produced y. G keys only."""
    if trapdoor.family != FAMILY_G:
        raise FamilyError("decode_b is defined only for G trapdoors")
    if trapdoor.params.backend == "ideal":
        return _ideal_decode(trapdoor, y, lambda i: i >> trapdoor.params.w)
    return next((b for b in (0, 1) if _lwe_preimages(trapdoor.key, b, y).size), None)


def decode_x(b: int | None, trapdoor: Trapdoor, y) -> int | None:
    """x-hat: the preimage with y in Supp(f_{k,b}(x)), or None."""
    if b is None:
        return None
    if trapdoor.params.backend == "ideal":
        # row b holds y at i ^ (b * s) on an F key (the claw partner of x0 = i)
        # and at i ^ (b << w) on a G key, outside X if y is in the other row
        flip = b * (trapdoor.s if trapdoor.family == FAMILY_F else 2**trapdoor.params.w)
        return _ideal_decode(trapdoor, y, lambda i: i ^ flip)
    xs = _lwe_preimages(trapdoor.key, b, y)
    return int(xs[0]) if xs.size else None


def decode_h(trapdoor: Trapdoor, y, d) -> int | None:
    """h-hat = d . (x-hat_0 xor x-hat_1), or None for d = 0^w / y out of range.
    A ToyLwe image takes an array of d's too, decoded once: it gets an array."""
    if trapdoor.family != FAMILY_F:
        raise FamilyError("decode_h is defined only for F trapdoors")
    if trapdoor.params.backend == "ideal":
        # an ideal claw's x0 xor x1 is s
        return _ideal_decode(trapdoor, y, lambda i: parity(d & trapdoor.s), d != 0)
    x0 = decode_x(0, trapdoor, y) if np.any(d != 0) else None
    h = None if x0 is None else parity(d & (x0 ^ claw_partner(trapdoor, x0)))
    return np.where(d != 0, UNDECODED if h is None else h, UNDECODED) if isinstance(d, np.ndarray) else h


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
    return [(b, x) for b in (0, 1) for x in _lwe_preimages(key, b, y).tolist()]


def image_iter(key: PublicKey):
    """All images with nonzero mass under uniform (b, x); Ideal backend only."""
    if key.params.backend != "ideal":
        raise DomainError("image_iter is Ideal-only (ToyLwe unions are huge)")
    return np.unique(key.table).tolist()
