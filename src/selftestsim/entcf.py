"""ENTCF layer: claw-free (F) and injective (G) trapdoor function pairs.

Two pluggable backends:

- Ideal: f_{k,b}(x) = P(x ^ b.mask) for a public affine bijection P(z) =
  (a.z + c) mod M of the image space [0, M), M = 2^(w+1) + 2: singleton
  supports. An F key's mask is the claw shift s in [1, 2^w), so f_{k,1}(x) =
  f_{k,0}(x ^ s), a perfect matching; a G key's has bit w set, so its rows are
  P of the disjoint halves of [0, 2^(w+1)). Every map is one P or P^-1
  evaluation. F and G keys travel alike, as the numbers [a, c, mask], but a
  key reveals P and its mask, so its family and an F key's s, as the truth
  table it replaces did: this backend is information-theoretically
  distinguishable; it exists for completeness and functional testing only.
- ToyLwe: a toy LWE instantiation over Z_q^n with q a power of two. The domain
  {0,1}^w is the bit decomposition of z in Z_q^n (w = n*log2(q)); supports are
  infinity-norm noise balls of radius B around A.z + b.u. Decoding tests y
  against the support of every x in one array pass over X, capped at
  |X| <= 2^16. No cryptographic strength is claimed.

Conventions: preimages x and Hadamard strings d are ints holding w bits
(little-endian bit order); images are ints (Ideal) or length-m tuples over Z_q
(ToyLwe); the undefined decoding is None. An ideal decoder serves one image
and an array of images (and of d's) alike, with the same expression; an array
gets an array, UNDECODED for None.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FamilyError, ParameterError, ProtocolError

FAMILY_F = "F"
FAMILY_G = "G"

_W_CAP = {"toylwe": 16, "ideal": 30}  # largest w per backend; see check_scan
UNDECODED = -1  # an array decoding's entry for None


def parity(n):
    """The parity of n's bits; an array of ints gets an array of parities."""
    return n.bit_count() & 1 if isinstance(n, int) else np.bitwise_count(n).astype(np.int64) & 1


def int_list(values, bound: int | None = None, count: int | None = None) -> list:
    """values if it is a list of ints (a bool is none), count of them when
    count is given and each in [0, bound) when bound is, else ProtocolError:
    one pass over the types, one min and one max."""
    if type(values) is not list or not set(map(type, values)) <= {int}:
        raise ProtocolError("expected a list of ints")
    if count is not None and len(values) != count:
        raise ProtocolError(f"expected {count} ints, got {len(values)}")
    if bound is not None and values and not (min(values) >= 0 and max(values) < bound):
        raise ProtocolError(f"expected ints in [0, {bound})")
    return values


def check_scan(params: EntcfParams, visitor: str = "") -> None:
    """Refuse a w past its cap before any key is drawn: ToyLwe keygen and
    preimages scan X, as does a `visitor` of every x of either backend (the
    analysis, the exhaustive checks), so |X| <= 2^16; an ideal key's
    M = 2^(w+1) + 2 must keep its images below the wire's 2^32, so |X| <= 2^30."""
    cap = _W_CAP["toylwe" if visitor else params.backend]
    if params.w > cap:
        visitor = visitor or f"{params.backend} keys"
        raise DomainError(f"|X| = 2^w is capped at 2^{cap} for {visitor}, got 2^{params.w}")


@dataclass(frozen=True)
class EntcfParams:
    """Backend selection and sizes. |X| = 2^w always."""

    backend: str  # "ideal" | "toylwe"
    w: int
    n: int = 0  # toylwe: secret dimension
    m: int = 0  # toylwe: number of samples
    q: int = 0  # toylwe: modulus (power of two)
    B: int = 0  # toylwe: noise bound
    # ideal: M = 2^(w+1) + 2, set from w, whose slack past the range union keeps an invalid y reachable
    image_space_size: int = field(init=False)

    def __post_init__(self):
        if self.w < 1:
            raise ParameterError("w must be >= 1")
        if self.backend == "toylwe":
            if min(self.n, self.m, self.q, self.B) < 1:
                raise ParameterError("toylwe dims must be positive")
            if 2 * self.B * self.m >= self.q:
                raise ParameterError("need 2*B*m < q")
            if self.q & (self.q - 1):
                raise ParameterError("q must be a power of two")
            if self.w != self.n * (self.q.bit_length() - 1):
                raise ParameterError("w must equal n*log2(q)")
        elif self.backend != "ideal":
            raise ParameterError(f"unknown backend {self.backend!r}")
        object.__setattr__(self, "image_space_size", 2 ** (self.w + 1) + 2)

    @classmethod
    def ideal(cls, w: int) -> "EntcfParams":
        return cls(backend="ideal", w=w)

    @classmethod
    def toylwe(cls, n: int, m: int, q: int, B: int) -> "EntcfParams":
        w = n * (q.bit_length() - 1)
        return cls(backend="toylwe", w=w, n=n, m=m, q=q, B=B)


@dataclass(frozen=True)
class PublicKey:
    """Public key; F and G keys share one layout of numbers.

    Ideal: a, c and mask of f_{k,b}(x) = P(x ^ b.mask), P(z) = (a.z + c) mod M
    for a unit a mod M, numbers [a, c, mask] that reveal P, the family (a G
    mask has bit w set) and an F key's claw shift.
    ToyLwe: matrix A (m x n) and vector u (m,) over Z_q; numbers A row by row, then u.
    """

    params: EntcfParams
    a: int = 0  # ideal
    c: int = 0  # ideal
    mask: int = 0  # ideal
    A: np.ndarray | None = None  # toylwe
    u: np.ndarray | None = None  # toylwe

    def numbers(self) -> list:
        if self.params.backend == "ideal":
            return [self.a, self.c, self.mask]
        return self.A.ravel().tolist() + self.u.tolist()

    @functools.cached_property
    def table(self) -> np.ndarray:
        """Ideal: the (2, 2^w) truth table whose [b, x] is f_{k,b}(x), evaluated
        from P once per key and read-only; the analysis enumerates images by it."""
        x = np.arange(2**self.params.w)
        table = _permute(self, np.stack([x, x ^ self.mask]))
        table.flags.writeable = False
        return table

    @functools.cached_property
    def lwe_centers(self) -> np.ndarray:
        """ToyLwe: the (2, 2^w, m) array whose [b, x] is A.x_to_z(x) + b.u,
        not reduced mod q, computed once per key and read-only."""
        lattice = _domain(self.params) @ self.A.T
        centers = np.stack([lattice, lattice + self.u])
        centers.flags.writeable = False
        return centers

    @classmethod
    def from_numbers(cls, params: EntcfParams, values) -> "PublicKey":
        """The key of params whose numbers() are values; ProtocolError unless
        they are such a key's: the right count of ints, and for an ideal key a
        unit a mod M, c < M and mask in [1, 2^(w+1)), for toylwe each in [0, q)."""
        if params.backend == "ideal":
            size = params.image_space_size
            a, c, mask = int_list(values, size, 3)
            if math.gcd(a, size) != 1 or not 0 < mask < 2 ** (params.w + 1):
                raise ProtocolError("an ideal key needs a unit a mod M and a mask in [1, 2^(w+1))")
            return cls(params=params, a=a, c=c, mask=mask)
        m, n = params.m, params.n
        flat = np.array(int_list(values, params.q, m * n + m), dtype=np.int64)
        return cls(params=params, A=flat[: m * n].reshape(m, n), u=flat[m * n :])


@dataclass(frozen=True)
class Trapdoor:
    """Secret inversion data. Never serialized onto the protocol wire.

    Ideal: nothing beyond the key, whose public P^-1 inverts it; an F key's
    mask is the claw shift s, f_{k,1}(x) = f_{k,0}(x ^ s).
    ToyLwe: the secret vector s in Z_q^n.
    """

    family: str  # FAMILY_F | FAMILY_G
    key: PublicKey
    s_vec: tuple[int, ...] = ()  # toylwe secret

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
    # (a, c) uniform on [1, M) x [0, M) from one draw of a.M + c per try, until
    # a is a unit mod M; then an F mask, the claw shift in [1, 2^w), or a G
    # mask, 2^w | r for r in [0, 2^w)
    size, size_x = params.image_space_size, 2**params.w
    while True:
        a, c = divmod(int(rng.integers(size, size * size)), size)
        if math.gcd(a, size) == 1:
            break
    mask = int(rng.integers(1, size_x) if family == FAMILY_F else rng.integers(size_x, 2 * size_x))
    key = PublicKey(params=params, a=a, c=c, mask=mask)
    return key, Trapdoor(family=family, key=key)


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

def _permute(key: PublicKey, z):
    """P(z) = (a.z + c) mod M of an int, or of an int64 array in [0, 2^(w+1)):
    for w <= 30, a.z < 2^32 * 2^31 = 2^63."""
    return (key.a * z + key.c) % key.params.image_space_size


def _unpermute(key: PublicKey, y):
    """P^-1(y) = a^-1 (y - c) mod M of an int, or of an int64 array: y - c is
    reduced mod M first, so for M = 2^(w+1) + 2 and w <= 30 no product
    reaches 2^63. a^-1 costs less to compute per call than to cache."""
    size = key.params.image_space_size
    return (y - key.c) % size * pow(key.a, -1, size) % size


def _check_x(params: EntcfParams, x: int) -> None:
    if not 0 <= x < 2**params.w:
        raise DomainError(f"preimage {x} outside {{0,1}}^{params.w}")


def support(key: PublicKey, b: int, x: int) -> frozenset:
    """Set of images with nonzero mass under f_{k,b}(x)."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return frozenset({_permute(key, x ^ (b * key.mask))})
    B = key.params.B
    offsets = np.array(list(itertools.product(range(-B, B + 1), repeat=key.params.m)))
    return frozenset(map(tuple, ((_lwe_center(key, b, x) + offsets) % key.params.q).tolist()))


def support_contains(key: PublicKey, b: int, x: int, y) -> bool:
    """Membership test without enumeration; needs no trapdoor."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return _permute(key, x ^ (b * key.mask)) == y
    diff = _centered(np.array(y, dtype=np.int64) - _lwe_center(key, b, x), key.params.q)
    return bool(np.all(np.abs(diff) <= key.params.B))


def forward_sample(key: PublicKey, b: int, x: int, rng: np.random.Generator):
    """Draw one image from f_{k,b}(x)."""
    _check_x(key.params, x)
    if key.params.backend == "ideal":
        return _permute(key, x ^ (b * key.mask))
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
    """rule(z) of z = P^-1(y) where y lies in the image space [0, M) (the wire
    admits up to 2^32 - 1), z in the rows' preimage range, [0, 2^w) for F and
    [0, 2^(w+1)) for G, `defined` holds and rule(z) lies in [0, 2^w), else
    None. An array of images (and of `defined`) runs the same expressions and
    gets an array, UNDECODED for None."""
    key, size_x = trapdoor.key, 2**trapdoor.params.w
    z = _unpermute(key, y)
    v = rule(z)
    span = size_x if trapdoor.family == FAMILY_F else 2 * size_x
    found = (y >= 0) & (y < key.params.image_space_size) & (z < span) & defined & (v < size_x)
    if isinstance(y, np.ndarray):
        return np.where(found, v, UNDECODED)
    return int(v) if found else None


def decode_b(trapdoor: Trapdoor, y) -> int | None:
    """b-hat: which injective function produced y. G keys only."""
    if trapdoor.family != FAMILY_G:
        raise FamilyError("decode_b is defined only for G trapdoors")
    if trapdoor.params.backend == "ideal":
        return _ideal_decode(trapdoor, y, lambda z: z >> trapdoor.params.w)
    return next((b for b in (0, 1) if _lwe_preimages(trapdoor.key, b, y).size), None)


def decode_x(b: int | None, trapdoor: Trapdoor, y) -> int | None:
    """x-hat: the preimage with y in Supp(f_{k,b}(x)), or None."""
    if b is None:
        return None
    if trapdoor.params.backend == "ideal":
        # row b holds y at z ^ (b * mask): on an F key the claw partner of
        # x0 = z, on a G key outside X if y is in the other row
        flip = b * trapdoor.key.mask
        return _ideal_decode(trapdoor, y, lambda z: z ^ flip)
    xs = _lwe_preimages(trapdoor.key, b, y)
    return int(xs[0]) if xs.size else None


def decode_h(trapdoor: Trapdoor, y, d) -> int | None:
    """h-hat = d . (x-hat_0 xor x-hat_1), or None for d = 0^w / y out of range.
    A ToyLwe image takes an array of d's too, decoded once: it gets an array."""
    if trapdoor.family != FAMILY_F:
        raise FamilyError("decode_h is defined only for F trapdoors")
    if trapdoor.params.backend == "ideal":
        # an ideal claw's x0 xor x1 is s, the key's mask
        return _ideal_decode(trapdoor, y, lambda z: parity(d & trapdoor.key.mask), d != 0)
    x0 = decode_x(0, trapdoor, y) if np.any(d != 0) else None
    h = None if x0 is None else parity(d & (x0 ^ claw_partner(trapdoor, x0)))
    return np.where(d != 0, UNDECODED if h is None else h, UNDECODED) if isinstance(d, np.ndarray) else h


def claw_partner(trapdoor: Trapdoor, x0: int) -> int:
    """The x1 matched with x0: Supp(f_{k,0}(x0)) = Supp(f_{k,1}(x1))."""
    if trapdoor.family != FAMILY_F:
        raise FamilyError("claws exist only for F keys")
    if trapdoor.params.backend == "ideal":
        return x0 ^ trapdoor.key.mask
    z1 = (x_to_z(x0, trapdoor.params) - np.array(trapdoor.s_vec)) % trapdoor.params.q
    return z_to_x(z1, trapdoor.params)


def preimages(key: PublicKey, y) -> list[tuple[int, int]]:
    """All (b, x) with y in Supp(f_{k,b}(x)), b first, then x. Public
    (trapdoor-free): one P^-1 evaluation of an ideal key, row b holding y at
    z ^ (b * mask) when that lies in X, or one ToyLwe scan of X."""
    params = key.params
    if params.backend == "ideal":
        if not 0 <= y < params.image_space_size:
            return []
        z = _unpermute(key, y)
        return [(b, x) for b in (0, 1) if (x := z ^ (b * key.mask)) < 2**params.w]
    check_scan(params)
    return [(b, x) for b in (0, 1) for x in _lwe_preimages(key, b, y).tolist()]


def image_iter(key: PublicKey):
    """All images with nonzero mass under uniform (b, x); Ideal backend only."""
    if key.params.backend != "ideal":
        raise DomainError("image_iter is Ideal-only (ToyLwe unions are huge)")
    return np.unique(key.table).tolist()
