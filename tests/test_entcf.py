"""Function-family unit tests: key generation, supports, decoding, codec."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selftestsim import entcf, protocol, transport
from selftestsim.errors import DomainError, FamilyError, ParameterError, ProtocolError, TransportError

from oracles import TableKey


@pytest.fixture(scope="module")
def ideal_pair():
    rng = np.random.default_rng(0)
    params = entcf.EntcfParams.ideal(3)
    f = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
    g = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
    return f, g


def test_params_validation():
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="ideal", w=0)
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="nope", w=2)
    with pytest.raises(ParameterError):
        entcf.EntcfParams.toylwe(n=1, m=4, q=8, B=1)  # 2*B*m >= q
    with pytest.raises(ParameterError):
        entcf.EntcfParams(backend="toylwe", w=3, n=1, m=2, q=6, B=1)  # q not 2^k


def test_image_space_size_follows_from_w():
    # keygen draws a.M + c below M^2, in int64, for the one M of each w
    for w in range(1, 31):
        assert entcf.EntcfParams.ideal(w).image_space_size == 2 ** (w + 1) + 2
    with pytest.raises(TypeError):
        entcf.EntcfParams(backend="ideal", w=4, image_space_size=2**32)


def test_claw_matching_ideal(ideal_pair):
    (key, trap), _ = ideal_pair
    for x0 in range(8):
        x1 = entcf.claw_partner(trap, x0)
        assert entcf.support(key, 0, x0) == entcf.support(key, 1, x1)
        assert x1 == x0 ^ trap.key.mask
    assert 0 < trap.key.mask < 8  # the claw shift


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


def _as_none(decoded: np.ndarray) -> list:
    """An array decoding as a list, None where it holds UNDECODED."""
    return [None if v == entcf.UNDECODED else v for v in decoded.tolist()]


@pytest.mark.parametrize("w", [2, 4, 8])
def test_ideal_decoding_matches_the_table_scans(w):
    """Each decoding of one image, and each entry of all the images decoded
    as one array (shuffled, so the array is not sorted), equals its scan of
    the key's table oracle; None is the array's UNDECODED."""
    rng = np.random.default_rng(w)
    params = entcf.EntcfParams.ideal(w)
    for _ in range(3):
        _, f_trap = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
        _, g_trap = entcf.gen_keypair(entcf.FAMILY_G, params, rng)
        f_table, g_table = TableKey.of(f_trap.key), TableKey.of(g_trap.key)
        ds = sorted({0, 1, f_trap.key.mask, 2**w - 1, *rng.integers(2**w, size=4).tolist()})
        # the whole image space holds every image of both tables and some in
        # neither; the last three lie outside the space, and an unchecked
        # index would wrap -1 round to the last image
        ys = rng.permutation([*range(params.image_space_size), 2**w * 8, 2**32 - 1, -1]).tolist()
        y_arr = np.array(ys, dtype=np.int64)
        # one image alone may also be a bool (the wire admits it as an int),
        # which numpy would read as an index mask
        scalars = [*ys, True, False]
        assert [entcf.decode_b(g_trap, y) for y in scalars] == [g_table.decode_b(y) for y in scalars]
        assert _as_none(entcf.decode_b(g_trap, y_arr)) == [g_table.decode_b(y) for y in ys]
        for trap, table in ((f_trap, f_table), (g_trap, g_table)):
            for b in (0, 1):
                want = [table.decode_x(b, y) for y in scalars]
                assert [entcf.decode_x(b, trap, y) for y in scalars] == want
                assert _as_none(entcf.decode_x(b, trap, y_arr)) == want[: len(ys)]
        for d in ds:
            want = [f_table.decode_h(y, d) for y in scalars]
            assert [entcf.decode_h(f_trap, y, d) for y in scalars] == want
            assert _as_none(entcf.decode_h(f_trap, y_arr, np.full(len(ys), d))) == want[: len(ys)]
        # one array of mixed d's, 0 among them
        d_arr = rng.choice(ds, size=len(ys))
        want = [f_table.decode_h(y, d) for y, d in zip(ys, d_arr.tolist())]
        assert _as_none(entcf.decode_h(f_trap, y_arr, d_arr)) == want


@given(b=st.integers(0, 1), x=st.integers(0, 7), y=st.integers(0, 17))
@settings(max_examples=200, deadline=None)
def test_chk_equals_support_membership(ideal_pair, b, x, y):
    for (key, _) in ideal_pair:
        member = entcf.support_contains(key, b, x, y)
        assert (entcf.chk((key,), (y,), (b,), (x,)) == 0) == member


def test_chk_tuple_mismatch(ideal_pair):
    (key, _), _ = ideal_pair
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
    f_numbers, g_numbers = f_key.numbers(), g_key.numbers()
    assert len(f_numbers) == len(g_numbers) == 3  # one layout; the mask tells the family
    for key, numbers in ((f_key, f_numbers), (g_key, g_numbers)):
        back = entcf.PublicKey.from_numbers(key.params, numbers)
        assert back == key and np.array_equal(back.table, key.table)


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


def _lwe_scan(key):
    """Reference: the per-x scan. scan(b, y) is every x whose support
    Supp(f_{k,b}(x)) holds y, by one membership test per x in the boxes
    `support` enumerates (scan.boxes); y's coordinates count mod q, as in
    support_contains."""
    q = key.params.q
    boxes = [[entcf.support(key, b, x) for x in range(2**key.params.w)] for b in (0, 1)]

    def scan(b, y):
        y = tuple(c % q for c in y)
        return [x for x, box in enumerate(boxes[b]) if y in box]

    scan.boxes = boxes[0] + boxes[1]
    return scan


@pytest.mark.parametrize("n,m,q", [(1, 3, 16), (1, 3, 64), (2, 4, 16)])
def test_toylwe_decoding_matches_the_per_x_scans(n, m, q):
    """preimages, decode_b, decode_x (both b, both families) and decode_h
    (every d, 0 included, one at a time and as one array of d's) equal what
    the per-x scans give: the smallest x found, and an F key's x1 as the
    claw partner of its x0. At the CLI's n=1, m=3, B=1 the images are every
    image of every support box, some of them lifted by q and by 2^32 - q
    (the wire's u32 range), and some off all boxes; at n=2 (w=8, two limbs)
    a seeded sample of on- and off-box ones."""
    params = entcf.EntcfParams.toylwe(n=n, m=m, q=q, B=1)
    rng = np.random.default_rng(0)
    (f_key, f_trap), (g_key, g_trap) = (entcf.gen_keypair(fam, params, rng) for fam in ("F", "G"))
    f_scan, g_scan = _lwe_scan(f_key), _lwe_scan(g_key)
    size_x = 2**params.w
    on_box = set().union(*f_scan.boxes, *g_scan.boxes)
    off_box = [y for y in map(tuple, rng.integers(q, size=(300, m)).tolist()) if y not in on_box][:100]
    on_box = sorted(on_box)
    if n == 1:
        ys = on_box + off_box + [tuple(c + lift for c in y) for lift in (q, 2**32 - q) for y in on_box[::61]]
    else:
        ys = [on_box[i] for i in rng.choice(len(on_box), size=300, replace=False)] + off_box
    for k, y in enumerate(ys):
        f_xs, g_xs = [f_scan(b, y) for b in (0, 1)], [g_scan(b, y) for b in (0, 1)]
        assert entcf.preimages(f_key, y) == [(b, x) for b in (0, 1) for x in f_xs[b]]
        assert entcf.preimages(g_key, y) == [(b, x) for b in (0, 1) for x in g_xs[b]]
        assert entcf.decode_b(g_trap, y) == next((b for b in (0, 1) if g_xs[b]), None)
        x0 = f_xs[0][0] if f_xs[0] else None
        x1 = None if x0 is None else entcf.claw_partner(f_trap, x0)
        assert [entcf.decode_x(b, f_trap, y) for b in (0, 1)] == [x0, x1]
        assert [entcf.decode_x(b, g_trap, y) for b in (0, 1)] == [xs[0] if xs else None for xs in g_xs]
        want = [None if d == 0 or x0 is None else entcf.parity(d & (x0 ^ x1)) for d in range(size_x)]
        # every d at once, as one array; one d alone, cycling through them, and every d for the first three
        assert _as_none(entcf.decode_h(f_trap, y, np.arange(size_x))) == want
        for d in range(size_x) if k < 3 else [k % size_x]:
            assert entcf.decode_h(f_trap, y, d) == want[d]


def test_toylwe_key_codec(lwe_pair):
    (key, _), _ = lwe_pair
    numbers = key.numbers()
    assert numbers == [*key.A.ravel().tolist(), *key.u.tolist()] and set(map(type, numbers)) == {int}
    back = entcf.PublicKey.from_numbers(key.params, numbers)
    assert np.array_equal(back.A, key.A) and np.array_equal(back.u, key.u)
    assert back.A.dtype == back.u.dtype == np.int64


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_ideal_tables_are_fresh_int64_arrays(w):
    """Each key evaluates its table once, into its own read-only array."""
    rng = np.random.default_rng(w)
    params = entcf.EntcfParams.ideal(w)
    keys = [entcf.gen_keypair(fam, params, rng)[0] for fam in ("F", "G", "F", "G")]
    tables = [key.table for key in keys]
    for key, table in zip(keys, tables):
        assert table.dtype == np.int64 and table.shape == (2, 2**w)
        assert table.flags.owndata and table.flags.c_contiguous and not table.flags.writeable
        assert key.table is table
    for a, b in itertools.combinations(tables, 2):
        assert not np.shares_memory(a, b)


def test_ideal_keygen_draws_are_unchanged():
    """Each try is one integers draw of a.M + c in [M, M^2), so (a, c) is
    uniform on [1, M) x [0, M), until a is a unit mod M; then one draw of the
    mask in [1, 2^w) for F or [2^w, 2^(w+1)) for G; the trapdoor holds the
    key alone."""
    params = entcf.EntcfParams.ideal(3)  # M = 18: a unit is odd and prime to 3
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    keys = [entcf.gen_keypair(family, params, rng) for family in ("F", "G", "F", "G")]
    tries = 0
    for (key, trap), (low, high) in zip(keys, [(1, 8), (8, 16)] * 2):
        while True:
            tries += 1
            a, c = divmod(int(ref.integers(18, 18 * 18)), 18)
            if a % 2 and a % 3:
                break
        assert (key.a, key.c, key.mask) == (a, c, int(ref.integers(low, high)))
        assert trap == entcf.Trapdoor(family=trap.family, key=key)
    assert tries > len(keys)  # some draw was refused
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("family", [entcf.FAMILY_F, entcf.FAMILY_G])
def test_ideal_keygen_past_the_scan_cap_draws_nothing(family):
    """Keygen refuses w = 31, whose M = 2^32 + 2 the u32 image field cannot
    hold, before any draw; w = 30 is drawn."""
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="2\\^30"):
        entcf.gen_keypair(family, entcf.EntcfParams.ideal(31), rng)
    assert rng.bit_generator.state == state
    key, _ = entcf.gen_keypair(family, entcf.EntcfParams.ideal(30), rng)
    assert entcf.PublicKey.from_numbers(key.params, key.numbers()) == key


def test_toylwe_keygen_past_the_scan_cap_draws_nothing():
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(DomainError, match="2\\^16"):
        entcf.gen_keypair(entcf.FAMILY_G, entcf.EntcfParams.toylwe(n=1, m=3, q=2**17, B=1), rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("w", [1, 8, 16, 30])
def test_an_ideal_key_is_its_three_numbers(w):
    """An ideal key is [a, c, mask], Python ints that a JSON writer takes as
    they are; the run's parameters are not repeated in it."""
    rng = np.random.default_rng(w)
    for family in (entcf.FAMILY_F, entcf.FAMILY_G):
        params = entcf.EntcfParams.ideal(w)
        key, _ = entcf.gen_keypair(family, params, rng)
        assert key.numbers() == [key.a, key.c, key.mask] and set(map(type, key.numbers())) == {int}
        payload = transport.Codec(params).to_payload(protocol.Keys(keys=(key,)))
        assert payload == {"keys": [[key.a, key.c, key.mask]]}


# w = 3: M = 18, so a must be odd and prime to 3
@pytest.mark.parametrize(
    "values",
    [[5, 1], [5, 1, 1, 0], [0, 1, 1], [4, 1, 1], [9, 1, 1], [23, 1, 1], [5, 18, 1], [5, 1, 0], [5, 1, 16]],
    ids=["short", "long", "a=0", "a-even", "a-shares-3", "a>=M", "c=M", "mask=0", "mask=2^(w+1)"],
)
def test_malformed_ideal_keys_are_refused(values):
    """PublicKey.from_numbers refuses a key of other than three numbers, an a
    that is no unit mod M in [1, M), a c outside [0, M) and a mask outside
    [1, 2^(w+1)); the codec turns each into a malformed-payload error."""
    params = entcf.EntcfParams.ideal(3)
    with pytest.raises(ProtocolError):
        entcf.PublicKey.from_numbers(params, values)
    with pytest.raises(TransportError, match="malformed payload"):
        transport.Codec(params).from_payload(protocol.Keys, {"keys": [values]})


def test_the_edges_of_an_ideal_key_decode():
    params = entcf.EntcfParams.ideal(3)
    assert entcf.PublicKey.from_numbers(params, [17, 17, 15]) == entcf.PublicKey(params, a=17, c=17, mask=15)


def _every_image(params) -> list:
    """Every y of the image space, and three outside it: -1, M and 2^32 - 1."""
    return [*range(params.image_space_size), -1, params.image_space_size, 2**32 - 1]


@pytest.mark.parametrize("w", range(1, 7))
@pytest.mark.parametrize("family", [entcf.FAMILY_F, entcf.FAMILY_G])
def test_succinct_keys_match_their_table_oracle(family, w):
    """Every map of a succinct key equals the scan of the table built from
    that key, over every (b, x), every image in the image space and out of
    it, and every d: the forward map, membership, chk and the public
    preimages, and the trapdoor's decoders, one image at a time and as one
    array of images."""
    params = entcf.EntcfParams.ideal(w)
    rng = np.random.default_rng(w)
    for _ in range(2):
        key, trap = entcf.gen_keypair(family, params, rng)
        table = TableKey.of(key)
        assert np.array_equal(key.table, table.table)
        ys, size_x = _every_image(params), 2**w
        y_arr = np.array(ys)
        for b in (0, 1):
            for x in range(size_x):
                assert entcf.forward_sample(key, b, x, rng) == table.forward(b, x)
                for y in ys:
                    assert entcf.support_contains(key, b, x, y) == table.contains(b, x, y)
                    assert entcf.chk((key,), (y,), (b,), (x,)) == table.chk(y, b, x)
        assert [entcf.preimages(key, y) for y in ys] == [table.preimages(y) for y in ys]
        for b in (0, 1):
            want = [table.decode_x(b, y) for y in ys]
            assert [entcf.decode_x(b, trap, y) for y in ys] == want
            assert _as_none(entcf.decode_x(b, trap, y_arr)) == want
        if family == entcf.FAMILY_G:
            want = [table.decode_b(y) for y in ys]
            assert [entcf.decode_b(trap, y) for y in ys] == want
            assert _as_none(entcf.decode_b(trap, y_arr)) == want
            continue
        for d in range(size_x):
            want = [table.decode_h(y, d) for y in ys]
            assert [entcf.decode_h(trap, y, d) for y in ys] == want
            assert _as_none(entcf.decode_h(trap, y_arr, np.full(len(ys), d))) == want
