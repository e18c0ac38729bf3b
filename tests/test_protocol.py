"""Verdict logic and verifier state machine tests."""
import itertools

import numpy as np
import pytest

from selftestsim import entcf, protocol, transport
from selftestsim.errors import ProtocolError
from selftestsim.protocol import (
    THETA_ALL_G,
    THETA_DIAMOND,
    DimTestConfig,
    SelfTestConfig,
    partner,
)


def test_partner_involution():
    for n in (1, 2, 3):
        for i in range(2 * n):
            assert partner(partner(i, n), n) == i
            assert abs(partner(i, n) - i) == n


def test_families_per_theta():
    assert protocol.families("selftest", 0, 2) == ("F", "G", "G", "G")
    assert protocol.families("selftest", 3, 2) == ("G", "G", "G", "F")
    assert protocol.families("selftest", THETA_ALL_G, 2) == ("G",) * 4
    assert protocol.families("selftest", THETA_DIAMOND, 2) == ("F",) * 4
    assert protocol.families("dimtest", 1, 3) == ("G", "F", "G")
    assert protocol.families("dimtest", THETA_ALL_G, 3) == ("G",) * 3


# ---------------------------------------------------------------------------
# Self-test verdicts (N=1: coordinates 0, 1)
# ---------------------------------------------------------------------------

def test_case_a_q1_equation():
    # theta=0 claw in first half: q=1 checks hhat(0) ^ bhat(1) == v[0]
    bhat = [None, 1]
    hhat = [0, None]
    ok = protocol.selftest_verdict(1, 0, 1, (1, 0), bhat, hhat)
    assert ok.accept == 1 and ok.reason == "accept"
    bad = protocol.selftest_verdict(1, 0, 1, (0, 0), bhat, hhat)
    assert bad.accept == 0 and bad.reason == "A.q1.equation"


def test_case_a_q0_bhat():
    bhat = [None, 1]
    hhat = [0, None]
    assert protocol.selftest_verdict(1, 0, 0, (0, 1), bhat, hhat).accept == 1
    assert protocol.selftest_verdict(1, 0, 0, (0, 0), bhat, hhat).reason == "A.q0.bhat"


def test_bot_suffix_on_none():
    bhat = [None, None]  # undecodable injective coordinate
    hhat = [0, None]
    r = protocol.selftest_verdict(1, 0, 0, (0, 0), bhat, hhat)
    assert r.accept == 0 and r.reason.endswith(".bot")
    r = protocol.selftest_verdict(1, 0, 1, (0, 0), [None, 1], [None, None])
    assert r.reason == "A.q1.equation.bot"


def test_case_b_question_split():
    # theta=1 (second half): q=2 checks first-half bhat plus the equation
    bhat = [1, None]
    hhat = [None, 1]
    ok = protocol.selftest_verdict(1, 1, 2, (1, 0), bhat, hhat)
    assert ok.accept == 1
    bad = protocol.selftest_verdict(1, 1, 2, (0, 0), bhat, hhat)
    assert bad.reason == "B.q2.bhat"
    # q=3 checks only the second-half bhat scan, which excludes theta itself
    assert protocol.selftest_verdict(1, 1, 3, (0, 1), bhat, hhat).accept == 1


def test_case_c_all_g():
    bhat = [1, 0]
    hhat = [None, None]
    assert protocol.selftest_verdict(1, THETA_ALL_G, 0, (1, 0), bhat, hhat).accept == 1
    assert protocol.selftest_verdict(1, THETA_ALL_G, 1, (0, 0), bhat, hhat).accept == 1
    assert (
        protocol.selftest_verdict(1, THETA_ALL_G, 2, (0, 0), bhat, hhat).reason
        == "C.q2.bhat"
    )
    # q=3 scans the second half only
    assert protocol.selftest_verdict(1, THETA_ALL_G, 3, (1, 0), bhat, hhat).accept == 1


def test_case_d_bell():
    hhat = [1, 0]
    bhat = [None, None]
    # q=2 checks v_i ^ v_{n+i} against hhat of the second-half coordinate
    assert protocol.selftest_verdict(1, THETA_DIAMOND, 2, (0, 0), bhat, hhat).accept == 1
    assert (
        protocol.selftest_verdict(1, THETA_DIAMOND, 2, (1, 0), bhat, hhat).reason
        == "D.q2.bell"
    )
    # q=3 checks against hhat of the first-half coordinate
    assert protocol.selftest_verdict(1, THETA_DIAMOND, 3, (1, 0), bhat, hhat).accept == 1
    none_h = protocol.selftest_verdict(1, THETA_DIAMOND, 3, (1, 0), bhat, [None, 0])
    assert none_h.reason == "D.q3.bell.bot"
    # q in {0, 1} always accepts for the diamond case
    assert protocol.selftest_verdict(1, THETA_DIAMOND, 0, (1, 1), bhat, hhat).accept == 1


def test_dimtest_verdicts():
    assert protocol.dimtest_verdict(2, THETA_ALL_G, 0, (1, 0), [1, 0], [None] * 2).accept == 1
    assert protocol.dimtest_verdict(2, THETA_ALL_G, 1, (0, 0), [1, 0], [None] * 2).accept == 1
    assert (
        protocol.dimtest_verdict(2, 0, 1, (1, 0), [None, 0], [0, None]).reason
        == "B.q1.equation"
    )
    assert protocol.dimtest_verdict(2, 0, 1, (0, 0), [None, 0], [0, None]).accept == 1
    assert (
        protocol.dimtest_verdict(2, 0, 1, (0, 0), [None, 0], [None, None]).reason
        == "B.q1.equation.bot"
    )


def test_verdict_arity_check():
    with pytest.raises(ProtocolError):
        protocol.selftest_verdict(1, 0, 0, (0,), [None, 1], [0, None])
    with pytest.raises(ProtocolError):
        protocol.dimtest_verdict(2, 0, 0, (0,), [None, 1], [0, None])


# ---------------------------------------------------------------------------
# Verdict oracle: the hand-written case tables the one rule replaced
# ---------------------------------------------------------------------------

def _scan_bhat(v, bhat, indices):
    for i in indices:
        if bhat[i] is None:
            return ".bhat.bot"
        if bhat[i] != v[i]:
            return ".bhat"
    return None


def _scan_equation(v, bhat, hhat, i_claw, i_inj):
    """Clause h-hat(i_claw) xor b-hat(i_inj) == v[i_claw]."""
    if hhat[i_claw] is None or bhat[i_inj] is None:
        return ".equation.bot"
    if hhat[i_claw] ^ bhat[i_inj] != v[i_claw]:
        return ".equation"
    return None


def reference_selftest_verdict(n, theta, q, v, bhat, hhat):
    two_n = 2 * n
    if len(v) != two_n:
        raise ProtocolError("answer arity mismatch")
    if theta == THETA_ALL_G:
        case = "C"
        if q == 0:
            fail = _scan_bhat(v, bhat, range(two_n))
        elif q == 1:
            fail = None
        elif q == 2:
            fail = _scan_bhat(v, bhat, range(n))
        else:
            fail = _scan_bhat(v, bhat, range(n, two_n))
    elif theta == THETA_DIAMOND:
        case = "D"
        fail = None
        if q in (2, 3):
            for i in range(n):
                h = hhat[n + i] if q == 2 else hhat[i]
                if h is None:
                    fail = ".bell.bot"
                    break
                if v[i] ^ v[n + i] != h:
                    fail = ".bell"
                    break
    elif theta < n:
        case = "A"
        others = [i for i in range(two_n) if i != theta]
        if q == 0:
            fail = _scan_bhat(v, bhat, others)
        elif q == 1:
            fail = _scan_equation(v, bhat, hhat, theta, theta + n)
        elif q == 2:
            fail = _scan_bhat(v, bhat, [i for i in range(n) if i != theta])
        else:
            fail = _scan_bhat(v, bhat, range(n, two_n)) or _scan_equation(
                v, bhat, hhat, theta, theta + n
            )
    else:
        case = "B"
        others = [i for i in range(two_n) if i != theta]
        if q == 0:
            fail = _scan_bhat(v, bhat, others)
        elif q == 1:
            fail = _scan_equation(v, bhat, hhat, theta, theta - n)
        elif q == 2:
            fail = _scan_bhat(v, bhat, range(n)) or _scan_equation(
                v, bhat, hhat, theta, theta - n
            )
        else:
            fail = _scan_bhat(v, bhat, [i for i in range(n, two_n) if i != theta])
    if fail is None:
        return protocol.Verdict(accept=1, reason="accept")
    return protocol.Verdict(accept=0, reason=f"{case}.q{q}{fail}")


def reference_dimtest_verdict(n, theta, q, v, bhat, hhat):
    if len(v) != n:
        raise ProtocolError("answer arity mismatch")
    if theta == THETA_ALL_G:
        if q == 0:
            fail = _scan_bhat(v, bhat, range(n))
            if fail:
                return protocol.Verdict(accept=0, reason=f"A.q0{fail}")
        return protocol.Verdict(accept=1, reason="accept")
    if q == 0:
        fail = _scan_bhat(v, bhat, [i for i in range(n) if i != theta])
        if fail:
            return protocol.Verdict(accept=0, reason=f"B.q0{fail}")
        return protocol.Verdict(accept=1, reason="accept")
    if hhat[theta] is None:
        return protocol.Verdict(accept=0, reason="B.q1.equation.bot")
    if hhat[theta] != v[theta]:
        return protocol.Verdict(accept=0, reason="B.q1.equation")
    return protocol.Verdict(accept=1, reason="accept")


_VERDICTS = {
    "selftest": (protocol.selftest_verdict, reference_selftest_verdict),
    "dimtest": (protocol.dimtest_verdict, reference_dimtest_verdict),
}


def _exhaustive_cases(kind, n):
    m = protocol.n_coords(kind, n)
    decoded = list(itertools.product((None, 0, 1), repeat=m))
    return itertools.product(
        protocol.thetas(kind, n),
        protocol.questions(kind),
        itertools.product((0, 1), repeat=m),
        decoded,
        decoded,
    )


def _sampled_cases(kind, n, count, seed):
    rng = np.random.default_rng(seed)
    m = protocol.n_coords(kind, n)
    thetas, qs = protocol.thetas(kind, n), protocol.questions(kind)
    for _ in range(count):
        vals = [(None, 0, 1)[k] for k in rng.integers(3, size=2 * m)]
        yield (
            thetas[int(rng.integers(len(thetas)))],
            qs[int(rng.integers(len(qs)))],
            tuple(int(b) for b in rng.integers(2, size=m)),
            vals[:m],
            vals[m:],
        )


@pytest.mark.parametrize(
    "kind,n,cases,count",
    [
        ("selftest", 1, lambda: _exhaustive_cases("selftest", 1), 4 * 4 * 4 * 9 * 9),
        ("dimtest", 1, lambda: _exhaustive_cases("dimtest", 1), 2 * 2 * 2 * 3 * 3),
        ("dimtest", 2, lambda: _exhaustive_cases("dimtest", 2), 3 * 2 * 4 * 9 * 9),
        ("selftest", 2, lambda: _sampled_cases("selftest", 2, 20_000, seed=2), 20_000),
        ("selftest", 3, lambda: _sampled_cases("selftest", 3, 20_000, seed=3), 20_000),
        # past N = 31 the 2N+2 thetas and 4 questions outnumber the 256 cached rules
        ("selftest", 40, lambda: _sampled_cases("selftest", 40, 3_000, seed=40), 3_000),
    ],
    ids=[
        "selftest-1-all", "dimtest-1-all", "dimtest-2-all", "selftest-2-sample", "selftest-3-sample",
        "selftest-40-sample",
    ],
)
def test_verdict_rule_matches_case_tables(kind, n, cases, count):
    """Every case, judged alone and again in the array path: one evaluation
    over the stacked cells of each (theta, q), whose acceptance per cell is
    the case tables'."""
    rule, reference = _VERDICTS[kind]
    checked, stacked = 0, {}
    for theta, q, v, bhat, hhat in cases():
        want = reference(n, theta, q, v, bhat, hhat)
        got = rule(n, theta, q, v, list(bhat), list(hhat))
        assert got == want, (theta, q, v, bhat, hhat)
        codes = [entcf.UNDECODED if c is None else c for c in (*bhat, *hhat)]
        for column, value in zip(stacked.setdefault((theta, q), ([], [], [])), (v, codes, want.accept == 1)):
            column.append(value)
        checked += 1
    assert checked == count
    for (theta, q), (vs, codes, accepts) in stacked.items():
        got = protocol.hadamard_rule(kind, n, theta, q, np.array(vs), np.array(codes, dtype=np.int8))
        assert got.tolist() == accepts, (theta, q)


def test_a_session_verdict_builds_no_mark_matrices(monkeypatch):
    """A Monte Carlo session is judged by the checks alone; only the cell path
    builds the 0/1 mark matrices. At N = 40 the (theta, q) rules outnumber
    their cache, so a session that built them would build them afresh."""
    from selftestsim import harness

    def refuse(*args):
        raise AssertionError("a session built a mark matrix")

    monkeypatch.setattr(protocol, "_marks", refuse)
    config = SelfTestConfig(N=40, entcf=entcf.EntcfParams.ideal(4))
    stats, transcripts = harness.run_sessions("selftest", "honest", config, 60, seed=1)
    hadamard = [t for t in transcripts if t["round_type"] == protocol.HADAMARD]
    assert stats["sessions"] == 60 and hadamard and any(t["accept"] for t in hadamard)


# ---------------------------------------------------------------------------
# The Sigma(theta, v) rule vs decoded values
# ---------------------------------------------------------------------------

def _label_sigma_v(theta, y, d, traps, n):
    """(b-hat, h-hat, sigma_v) of a self-test label."""
    bhat = protocol.decode_bhat(traps, y)
    hhat = protocol.decode_hhat(traps, y, d)
    codes = np.array([[entcf.UNDECODED if c is None else c for c in (*bhat, *hhat)]])
    v, found = protocol.sigma_v("selftest", n, theta, codes)
    return bhat, hhat, tuple(v[0].tolist()) if found[0] else None


def test_sigma_membership_consistency():
    rng = np.random.default_rng(0)
    params = entcf.EntcfParams.ideal(2)
    n = 1
    for theta in (0, 1, THETA_ALL_G, THETA_DIAMOND):
        traps = []
        keys = []
        for fam in protocol.families("selftest", theta, n):
            k, t = entcf.gen_keypair(fam, params, rng)
            keys.append(k)
            traps.append(t)
        y = tuple(entcf.forward_sample(k, 0, 1, rng) for k in keys)
        d = (3, 3)
        # valid (y, d) pairs land in exactly one Sigma(theta, v)
        bhat, hhat, v = _label_sigma_v(theta, y, d, traps, n)
        assert v is not None and len(v) == 2 * n
        if theta != THETA_DIAMOND:
            # outside the all-claw case, that v passes every question
            for q in range(4):
                assert protocol.selftest_verdict(n, theta, q, v, bhat, hhat).accept == 1


def test_sigma_membership_d_zero_fails():
    rng = np.random.default_rng(1)
    params = entcf.EntcfParams.ideal(2)
    keys, traps = zip(
        *[entcf.gen_keypair(f, params, rng) for f in protocol.families("selftest", 0, 1)]
    )
    y = tuple(entcf.forward_sample(k, 0, 0, rng) for k in keys)
    assert _label_sigma_v(0, y, (0, 0), traps, 1)[2] is None
    assert _label_sigma_v(0, y, (1, 0), traps, 1)[2] is not None


# ---------------------------------------------------------------------------
# Verifier state machine
# ---------------------------------------------------------------------------

def _fresh_verifier(seed=0, n=1, w=2):
    cfg = SelfTestConfig(N=n, entcf=entcf.EntcfParams.ideal(w))
    return protocol.SelfTestVerifier(cfg, np.random.default_rng(seed))


def test_verifier_rng_determinism():
    a, b = _fresh_verifier(7), _fresh_verifier(7)
    assert a.theta == b.theta
    assert all(np.array_equal(x.table, y.table) for x, y in zip(a.keys, b.keys))


def test_verifier_happy_path_preimage():
    for seed in range(40):
        v = _fresh_verifier(seed)
        keys_msg = v.step(None)
        assert isinstance(keys_msg, protocol.Keys)
        # answer with genuine preimages of a forward sample
        rng = np.random.default_rng(seed + 1)
        b = tuple(int(rng.integers(2)) for _ in keys_msg.keys)
        x = tuple(int(rng.integers(4)) for _ in keys_msg.keys)
        y = tuple(
            entcf.forward_sample(k, bi, xi, rng) for k, bi, xi in zip(keys_msg.keys, b, x)
        )
        rt = v.step(protocol.Images(y=y))
        assert isinstance(rt, protocol.RoundType)
        if rt.kind == protocol.PREIMAGE:
            out = v.step(protocol.PreimageAnswer(b=b, x=x))
            assert isinstance(out, protocol.Verdict) and out.accept == 1
        else:
            q = v.step(protocol.HadamardD(d=(1,) * v.n_coords))
            assert isinstance(q, protocol.Question)
            out = v.step(protocol.FinalAnswer(v=(0,) * v.n_coords))
            assert isinstance(out, protocol.Verdict)


def test_verifier_malformed_message_rejects():
    v = _fresh_verifier(3)
    v.step(None)
    out = v.step(protocol.Question(q=0))  # wrong type for this phase
    assert isinstance(out, protocol.Verdict)
    assert out.accept == 0 and out.reason == "protocol"
    with pytest.raises(ProtocolError):
        v.step(protocol.Question(q=0))  # already done


def test_verifier_wrong_arity_rejects():
    v = _fresh_verifier(4)
    v.step(None)
    out = v.step(protocol.Images(y=(1,)))  # needs 2 coordinates at N=1
    assert out.accept == 0 and out.reason == "protocol"


def test_dimtest_verifier_theta_range():
    cfg = DimTestConfig(N=3, entcf=entcf.EntcfParams.ideal(2))
    seen = set()
    for seed in range(60):
        v = protocol.DimTestVerifier(cfg, np.random.default_rng(seed))
        seen.add(v.theta)
    assert seen == {0, 1, 2, THETA_ALL_G}


def test_config_validation():
    with pytest.raises(ProtocolError):
        SelfTestConfig(N=0, entcf=entcf.EntcfParams.ideal(2))
    with pytest.raises(ProtocolError):
        DimTestConfig(N=0, entcf=entcf.EntcfParams.ideal(2))


# ---------------------------------------------------------------------------
# Field domains: out-of-domain replies get a reject verdict, never an exception
# ---------------------------------------------------------------------------

def _verifier_awaiting(round_type, w=2):
    """A verifier that has sent its round type, fed genuine images."""
    for seed in range(100):
        v = _fresh_verifier(seed, w=w)
        keys = v.step(None).keys
        rng = np.random.default_rng(seed)
        y = tuple(entcf.forward_sample(k, 0, 0, rng) for k in keys)
        if v.step(protocol.Images(y=y)).kind == round_type:
            return v
    raise AssertionError("no seed reached the round type")


def _via_codec(msg):
    """msg as the verifier receives it over the wire."""
    codec = transport.Codec(entcf.EntcfParams.ideal(2))
    _, back, _ = codec.decode_frame(codec.encode_frame(bytes(16), msg))
    return back


@pytest.mark.parametrize(
    "b, x, reason",
    [
        ((0, 0), (0, 4), "protocol.x"),  # x >= 2^w
        ((0, 0), (-1, 0), "protocol.x"),
        ((2, 0), (0, 0), "protocol.b"),
        ((-1, 0), (0, 0), "protocol.b"),  # numpy would read row 1
    ],
)
def test_preimage_answer_out_of_domain_rejects(b, x, reason):
    v = _verifier_awaiting(protocol.PREIMAGE)
    out = v.step(_via_codec(protocol.PreimageAnswer(b=b, x=x)))
    assert out == protocol.Verdict(accept=0, reason=reason)


def test_preimage_answer_x_arity_rejects():
    v = _verifier_awaiting(protocol.PREIMAGE)
    out = v.step(protocol.PreimageAnswer(b=(0, 0), x=(0,)))
    assert out == protocol.Verdict(accept=0, reason="protocol")


@pytest.mark.parametrize("d", [-1, 2**40, 4])
def test_hadamard_d_out_of_domain_rejects(d):
    v = _verifier_awaiting(protocol.HADAMARD)
    out = v.step(_via_codec(protocol.HadamardD(d=(d, 1))))
    assert out == protocol.Verdict(accept=0, reason="protocol.d")
    assert v.hhat == [None, None]  # nothing was decoded from it


@pytest.mark.parametrize("bad", [5, -1, 2])
def test_final_answer_out_of_domain_rejects(bad):
    v = _verifier_awaiting(protocol.HADAMARD)
    assert isinstance(v.step(protocol.HadamardD(d=(1, 1))), protocol.Question)
    out = v.step(_via_codec(protocol.FinalAnswer(v=(0, bad))))
    assert out == protocol.Verdict(accept=0, reason="protocol.v")


def test_in_domain_edges_still_accepted():
    v = _verifier_awaiting(protocol.HADAMARD)
    assert isinstance(v.step(protocol.HadamardD(d=(0, 3))), protocol.Question)
    assert isinstance(v.step(protocol.FinalAnswer(v=(np.int64(1), True))), protocol.Verdict)


TOYLWE = entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1)


def _images_reply(params, bad, good, seeds=range(8)):
    """Verdicts for Images(y=(bad, good)) over seeds whose thetas put G and F
    keys on the probed coordinate."""
    out = set()
    for seed in seeds:
        v = protocol.SelfTestVerifier(SelfTestConfig(N=1, entcf=params), np.random.default_rng(seed))
        v.step(None)
        out.add(v.step(protocol.Images(y=(bad, good))))
    return out


@pytest.mark.parametrize(
    "bad", [(1, 2), (1, 2, 3), -1, 2**32, 1.0, "7"], ids=["2-tuple", "3-tuple", "-1", "2^32", "float", "str"]
)
def test_ideal_image_outside_u32_rejects(bad):
    assert _images_reply(entcf.EntcfParams.ideal(2), bad, 0) == {
        protocol.Verdict(accept=0, reason="protocol.y")
    }


@pytest.mark.parametrize(
    "bad",
    [2**70, "abc", b"x", None, (1, 2), [1, 2, 3], (1, 2, 2**32), (1, 2, -1), (1, 2, 16), (1, 2, 2**32 - 1)],
    ids=[
        "2^70", "str", "bytes", "None", "2-tuple", "list", "entry-2^32", "entry-negative", "entry-q",
        "entry-2^32-1",
    ],
)
def test_toylwe_image_outside_codec_domain_rejects(bad):
    # a coordinate must be reduced mod q (16): y_i + q would decode like y_i
    assert _images_reply(TOYLWE, bad, (0, 0, 0), seeds=range(4)) == {
        protocol.Verdict(accept=0, reason="protocol.y")
    }


def test_image_domain_edges_still_accepted():
    assert all(
        isinstance(out, protocol.RoundType)
        for out in _images_reply(entcf.EntcfParams.ideal(2), 2**32 - 1, np.int64(0))
    )
    assert all(
        isinstance(out, protocol.RoundType)
        for out in _images_reply(TOYLWE, (0, np.int64(5), TOYLWE.q - 1), (0, 0, 0), seeds=range(4))
    )


def test_ideal_bool_images_decode_as_ints():
    """A bool image passes the wire's int check; decode_b (G) at the images
    and decode_h (F) at the d's read it as 0 or 1, never as an index mask."""
    rounds = set()
    for seed in range(16):
        v = protocol.SelfTestVerifier(
            SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2)), np.random.default_rng(seed)
        )
        v.step(None)
        kind = v.step(protocol.Images(y=(True, False))).kind
        rounds.add(kind)
        if kind == protocol.HADAMARD:
            assert isinstance(v.step(protocol.HadamardD(d=(1, 1))), protocol.Question)
            assert isinstance(v.step(protocol.FinalAnswer(v=(0, 0))), protocol.Verdict)
        else:
            assert isinstance(v.step(protocol.PreimageAnswer(b=(0, 0), x=(0, 0))), protocol.Verdict)
    assert rounds == {protocol.PREIMAGE, protocol.HADAMARD}


def test_preimage_answer_bool_entries_are_bits():
    v = _verifier_awaiting(protocol.PREIMAGE)
    out = v.step(protocol.PreimageAnswer(b=(True, False), x=(True, 0)))
    assert isinstance(out, protocol.Verdict)

