"""Function-family unit tests: key generation, supports, decoding, codec."""
import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selftestsim import entcf
from selftestsim.errors import DomainError, FamilyError, ParameterError


@pytest.fixture(scope="module")
def ideal_pair():
    rng = np.random.default_rng(0)
    params = entcf.EntcfParams.ideal(3)
    f = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
    g = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
    return f, g


def test_params_validation():
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="ideal", w=0, image_space_size=16)
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="nope", w=2)
    with pytest.raises(ParameterError):
        entcf.EntcfParams.toylwe(n=1, m=4, q=8, B=1)  # 2*B*m >= q
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="toylwe", w=3, n=1, m=2, q=6, B=1)  # q not 2^k


def test_claw_matching_ideal(ideal_pair):
    (key, trap), _ = ideal_pair
    for x0 in range(8):
        x1 = entcf.claw_partner(trap, x0)
        assert entcf.support(key, 0, x0) == entcf.support(key, 1, x1)
        assert x1 == x0 ^ trap.s
    assert trap.s != 0


def test_g_ranges_disjoint(ideal_pair):
    _, (key, _) = ideal_pair
    r0 = {next(iter(entcf.support(key, 0, x))) for x in range(8)}
    r1 = {next(iter(entcf.support(key, 1, x))) for x in range(8)}
    assert not (r0 & r1)


def test_decode_inversions(ideal_pair):
    (f_key, f_trap), (g_key, g_trap) = ideal_pair
    for x in range(8):
        for b in (0, 1):
            (y,) = entcf.support(g_key, b, x)
            assert entcf.decode_b(g_trap, y) == b
            assert entcf.decode_x(b, g_trap, y) == x
        (y,) = entcf.support(f_key, 0, x)
        assert entcf.decode_x(0, f_trap, y) == x
        assert entcf.decode_x(1, f_trap, y) == entcf.claw_partner(f_trap, x)


def test_decode_h_equation(ideal_pair):
    (f_key, f_trap), _ = ideal_pair
    for x in range(8):
        (y,) = entcf.support(f_key, 0, x)
        delta = x ^ entcf.claw_partner(f_trap, x)
        assert entcf.decode_h(f_trap, y, 0) is None
        for d in range(1, 8):
            assert entcf.decode_h(f_trap, y, d) == entcf.parity(d & delta)


def test_decode_family_errors(ideal_pair):
    (f_key, f_trap), (g_key, g_trap) = ideal_pair
    with pytest.raises(FamilyError):
        entcf.decode_b(f_trap, 0)
    with pytest.raises(FamilyError):
        entcf.decode_h(g_trap, 0, 1)
    with pytest.raises(FamilyError):
        entcf.claw_partner(g_trap, 0)


def test_invalid_y_decodes_to_none(ideal_pair):
    (f_key, f_trap), (g_key, g_trap) = ideal_pair
    used = set(f_key.table.ravel())
    spare = next(y for y in range(f_key.params.image_space_size) if y not in used)
    assert entcf.decode_x(0, f_trap, spare) is None
    assert entcf.decode_h(f_trap, spare, 3) is None
    used_g = set(g_key.table.ravel())
    spare_g = next(y for y in range(g_key.params.image_space_size) if y not in used_g)
    assert entcf.decode_b(g_trap, spare_g) is None


def _scan_decode_b(trapdoor, y):
    """Reference: decode_b as a membership scan of each row of the table."""
    for b in (0, 1):
        if y in trapdoor.key.table[b]:
            return b
    return None


def _scan_decode_x(b, trapdoor, y):
    """Reference: decode_x as an index search of row b of the table."""
    row = trapdoor.key.table[b].tolist()
    return row.index(y) if y in row else None


def _scan_decode_h(trapdoor, y, d):
    """Reference: decode_h with both preimages found by their own row scan."""
    if d == 0:
        return None
    x0, x1 = (_scan_decode_x(b, trapdoor, y) for b in (0, 1))
    return None if x0 is None or x1 is None else entcf.parity(d & (x0 ^ x1))


def _as_none(decoded: np.ndarray) -> list:
    """An array decoding as a list, None where it holds UNDECODED."""
    return [None if v == entcf.UNDECODED else v for v in decoded.tolist()]


@pytest.mark.parametrize("w", [2, 4, 8])
def test_ideal_decoding_matches_the_table_scans(w):
    """Each decoding of one image, and each entry of all the images decoded
    as one array (shuffled, so the array is not sorted), equals its scan
    reference; None is the array's UNDECODED."""
    rng = np.random.default_rng(w)
    params = entcf.EntcfParams.ideal(w)
    for _ in range(3):
        _, f_trap = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
        _, g_trap = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
        ds = sorted({0, 1, f_trap.s, 2**w - 1, *rng.integers(2**w, size=4).tolist()})
        # the whole image space holds every image of both tables and some in
        # neither; the last two lie outside the space
        ys = rng.permutation([*range(params.image_space_size), 2**w * 8, 2**32 - 1]).tolist()
        y_arr = np.array(ys, dtype=np.int64)
        want = [_scan_decode_b(g_trap, y) for y in ys]
        assert [entcf.decode_b(g_trap, y) for y in ys] == want
        assert _as_none(entcf.decode_b(g_trap, y_arr)) == want
        for trap in (f_trap, g_trap):
            for b in (0, 1):
                want = [_scan_decode_x(b, trap, y) for y in ys]
                assert [entcf.decode_x(b, trap, y) for y in ys] == want
                assert _as_none(entcf.decode_x(b, trap, y_arr)) == want
        for d in ds:
            want = [_scan_decode_h(f_trap, y, d) for y in ys]
            assert [entcf.decode_h(f_trap, y, d) for y in ys] == want
            assert _as_none(entcf.decode_h(f_trap, y_arr, np.full(len(ys), d))) == want
        # one array of mixed d's, 0 among them
        d_arr = rng.choice(ds, size=len(ys))
        want = [_scan_decode_h(f_trap, y, d) for y, d in zip(ys, d_arr.tolist())]
        assert _as_none(entcf.decode_h(f_trap, y_arr, d_arr)) == want


@given(b=st.integers(0, 1), x=st.integers(0, 7), y=st.integers(0, 17))
@settings(max_examples=200, deadline=None)
def test_chk_equals_support_membership(ideal_pair, b, x, y):
    for (key, _) in ideal_pair:
        member = entcf.support_contains(key, b, x, y)
        assert (entcf.chk((key,), (y,), (b,), (x,)) == 0) == member


def test_chk_tuple_mismatch(ideal_pair):
    (key, _), _ = ideal_pair
    from selftestsim.errors import ProtocolError

    with pytest.raises(ProtocolError):
        entcf.chk((key,), (1, 2), (0,), (0,))


def test_preimages_public_scan(ideal_pair):
    (f_key, f_trap), _ = ideal_pair
    for x in range(8):
        (y,) = entcf.support(f_key, 0, x)
        pres = entcf.preimages(f_key, y)
        assert (0, x) in pres and (1, entcf.claw_partner(f_trap, x)) in pres
        assert len(pres) == 2


def test_key_codec_family_blind(ideal_pair):
    (f_key, _), (g_key, _) = ideal_pair
    f_raw, g_raw = f_key.to_bytes(), g_key.to_bytes()
    assert len(f_raw) == len(g_raw)  # format does not leak the family
    for key, raw in ((f_key, f_raw), (g_key, g_raw)):
        back = entcf.PublicKey.from_bytes(raw)
        assert np.array_equal(back.table, key.table)
        assert back.params == key.params


def test_forward_sample_in_support(ideal_pair):
    rng = np.random.default_rng(5)
    for (key, _) in ideal_pair:
        for x in range(8):
            y = entcf.forward_sample(key, 1, x, rng)
            assert entcf.support_contains(key, 1, x, y)


def test_x_domain_check(ideal_pair):
    (key, _), _ = ideal_pair
    with pytest.raises(DomainError):
        entcf.support(key, 0, 8)


# ---------------------------------------------------------------------------
# ToyLwe backend
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def lwe_pair():
    rng = np.random.default_rng(2)
    params = entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1)
    f = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
    g = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
    return f, g


def test_toylwe_claw_support_equality(lwe_pair):
    (key, trap), _ = lwe_pair
    for x0 in range(2**key.params.w):
        x1 = entcf.claw_partner(trap, x0)
        assert entcf.support(key, 0, x0) == entcf.support(key, 1, x1)


def test_toylwe_same_x_disjoint_g(lwe_pair):
    _, (key, _) = lwe_pair
    for x in range(2**key.params.w):
        assert not (entcf.support(key, 0, x) & entcf.support(key, 1, x))


def test_toylwe_decodes(lwe_pair):
    (f_key, f_trap), (g_key, g_trap) = lwe_pair
    rng = np.random.default_rng(3)
    for x in range(2**f_key.params.w):
        y = entcf.forward_sample(g_key, 1, x, rng)
        assert entcf.decode_b(g_trap, y) == 1
        y = entcf.forward_sample(f_key, 0, x, rng)
        x1 = entcf.claw_partner(f_trap, x)
        delta = x ^ x1
        for d in range(1, 2**f_key.params.w):
            assert entcf.decode_h(f_trap, y, d) == entcf.parity(d & delta)


def test_toylwe_key_codec(lwe_pair):
    (key, _), _ = lwe_pair
    back = entcf.PublicKey.from_bytes(key.to_bytes())
    assert np.array_equal(back.A, key.A) and np.array_equal(back.u, key.u)


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_ideal_tables_are_fresh_int64_arrays(w):
    rng = np.random.default_rng(w)
    params = entcf.EntcfParams.ideal(w)
    tables = [entcf.gen_keypair(fam, params, rng)[0].table for fam in ("F", "G", "F", "G")]
    for table in tables:
        assert table.dtype == np.int64 and table.shape == (2, 2**w)
        assert table.flags.owndata and table.flags.c_contiguous and table.flags.writeable
    for a, b in itertools.combinations(tables, 2):
        assert not np.shares_memory(a, b)


def test_ideal_keygen_draws_are_unchanged():
    """f0 is the first 2^w entries of one permutation draw and f1(x) = f0(x ^ s)
    for the next draw s; G's rows are the first 2^(w+1) entries of one draw."""
    params = entcf.EntcfParams.ideal(3)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    f_key, f_trap = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
    g_key, _ = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
    f0 = ref.permutation(params.image_space_size)[:8]
    s = 1 + int(ref.integers(7))
    assert f_trap.s == s
    assert f_key.table.tolist() == [f0.tolist(), f0[np.arange(8) ^ s].tolist()]
    assert g_key.table.tolist() == ref.permutation(params.image_space_size)[:16].reshape(2, 8).tolist()


@pytest.mark.parametrize(
    "w,size,message",
    [(0, 34, "w must be >= 1"), (2, 3, "image_space_size must be >= 2^(w+1)")],
)
def test_bad_key_header_raises_on_every_call(w, size, message):
    """The parameters of a key header are cached; a header that fails
    validation is not, so it raises the same error each time."""
    raw = struct.pack(">BBBI", 1, 0, w, size) + bytes(8 * 2**w)
    for _ in range(2):
        with pytest.raises(ParameterError, match=re.escape(message)):
            entcf.PublicKey.from_bytes(raw)
    good = entcf.PublicKey.from_bytes(struct.pack(">BBBI", 1, 0, 2, 10) + bytes(32))
    assert good.params == entcf.EntcfParams.ideal(2)
