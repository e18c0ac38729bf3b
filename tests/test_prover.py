"""Prover behavior tests: honest modes, adversaries, contracts."""
import itertools

import numpy as np
import pytest

from selftestsim import entcf, harness, protocol, prover, qsim
from selftestsim.errors import DomainError, ParameterError, ProtocolError
from selftestsim.prover import (
    ClassicalGuessProver,
    Device,
    HonestProver,
    make_prover,
    parse_device_spec,
)
from selftestsim.protocol import question_bases

import oracles
from oracles import (
    BudgetError,
    FixedDraws,
    FullsimProver,
    answer_distribution,
    reference_measure_pair,
    reference_measure_qubit_vector,
    threshold,
)


def fixed_keys(theta, n=1, w=2, seed=0):
    rng = np.random.default_rng(seed)
    params = entcf.EntcfParams.ideal(w)
    pairs = [
        entcf.gen_keypair(fam, params, rng)
        for fam in protocol.families("selftest", theta, n)
    ]
    return tuple(k for k, _ in pairs), tuple(t for _, t in pairs)


def drive_hadamard(p, keys, q):
    """Push one Hadamard round through the message interface."""
    images = p.handle(protocol.Keys(keys=keys))
    d_msg = p.handle(protocol.RoundType(kind=protocol.HADAMARD))
    v_msg = p.handle(protocol.Question(q=q))
    p.handle(protocol.Verdict(accept=1, reason="accept"))
    return images.y, d_msg.d, v_msg.v


def test_question_bases_patterns():
    assert question_bases("selftest", 2, 0) == ("computational",) * 4
    assert question_bases("selftest", 2, 1) == ("hadamard",) * 4
    assert question_bases("selftest", 2, 2) == ("computational",) * 2 + ("hadamard",) * 2
    assert question_bases("selftest", 2, 3) == ("hadamard",) * 2 + ("computational",) * 2
    assert question_bases("dimtest", 3, 1) == ("hadamard",) * 3
    assert question_bases("dimtest", 3, 0) == ("computational",) * 3
    with pytest.raises(ParameterError):
        question_bases("selftest", 1, 4)
    with pytest.raises(ParameterError):
        question_bases("dimtest", 1, 2)


def test_honest_images_are_valid(seed=0):
    keys, _ = fixed_keys(theta=0)
    p = HonestProver("selftest", np.random.default_rng(seed))
    y = p.on_keys(keys)
    for key, yi in zip(keys, y):
        assert entcf.preimages(key, yi)


def test_honest_preimage_round_accepts():
    keys, _ = fixed_keys(theta=0)
    for seed in range(20):
        p = HonestProver("selftest", np.random.default_rng(seed))
        images = p.handle(protocol.Keys(keys=keys))
        ans = p.handle(protocol.RoundType(kind=protocol.PREIMAGE))
        assert entcf.chk(keys, images.y, ans.b, ans.x) == 0


def test_honest_hadamard_round_accepts_when_h_defined():
    keys, traps = fixed_keys(theta=0)
    rejects = 0
    for seed in range(300):
        p = HonestProver("selftest", np.random.default_rng(seed))
        y, d, v = drive_hadamard(p, keys, q=1)
        bhat = [None, entcf.decode_b(traps[1], y[1])]
        hhat = [entcf.decode_h(traps[0], y[0], d[0]), None]
        verdict = protocol.selftest_verdict(1, 0, 1, v, bhat, hhat)
        if not verdict.accept:
            rejects += 1
            assert verdict.reason.endswith(".bot")  # only d=0 events reject
    assert rejects < 300 * 0.25 + 50  # d=0 has mass 1/4 at w=2


def test_honest_diamond_bell_correlations():
    keys, traps = fixed_keys(theta=protocol.THETA_DIAMOND)
    for seed in range(200):
        p = HonestProver("selftest", np.random.default_rng(seed))
        y, d, v = drive_hadamard(p, keys, q=2)
        hhat = [entcf.decode_h(t, yi, di) for t, yi, di in zip(traps, y, d)]
        verdict = protocol.selftest_verdict(1, protocol.THETA_DIAMOND, 2, v, [None, None], hhat)
        assert verdict.accept == 1 or verdict.reason.endswith(".bot")


_KEYS = protocol.Keys(keys=fixed_keys(theta=0)[0])
_PREIMAGE_ROUND = protocol.RoundType(kind=protocol.PREIMAGE)


@pytest.mark.parametrize(
    "accepted, refused",
    [
        ((), protocol.Question(q=0)),
        ((), protocol.RoundType(kind=protocol.HADAMARD)),
        ((_KEYS,), _KEYS),
        ((_KEYS, _PREIMAGE_ROUND), protocol.Question(q=0)),
        ((_KEYS, _PREIMAGE_ROUND, protocol.Verdict(accept=1, reason="accept")), _KEYS),
        ((), protocol.Images(y=(0, 0))),
    ],
    ids=["question-first", "roundtype-first", "keys-twice", "question-after-preimage",
         "keys-after-verdict", "images"],
)
def test_out_of_order_message_raises(accepted, refused):
    """handle is the one order guard: it refuses each message out of the
    Keys, RoundType, (Question,) Verdict order, and a message the verifier
    never sends, before any hook runs."""
    p = HonestProver("selftest", np.random.default_rng(0))
    for message in accepted:
        p.handle(message)
    with pytest.raises(ProtocolError):
        p.handle(refused)


def test_fullsim_budget_error_toylwe():
    rng = np.random.default_rng(0)
    params = entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1)
    keys = tuple(entcf.gen_keypair("G", params, rng)[0] for _ in range(2))
    p = FullsimProver("selftest", rng)
    with pytest.raises(BudgetError):
        p.on_keys(keys)


def test_fullsim_budget_error_small_budget(monkeypatch):
    keys, _ = fixed_keys(theta=0)
    monkeypatch.setattr(oracles, "FULLSIM_BUDGET", 4)
    p = FullsimProver("selftest", np.random.default_rng(0))
    with pytest.raises(BudgetError):
        p.on_keys(keys)


def test_bitflip_zero_matches_honest():
    keys, _ = fixed_keys(theta=0)
    honest_v = []
    flip_v = []
    for seed in range(30):
        h = make_prover("honest", "selftest", np.random.default_rng(seed))
        f = make_prover("bitflip=0.0", "selftest", np.random.default_rng(seed))
        honest_v.append(drive_hadamard(h, keys, q=0))
        flip_v.append(drive_hadamard(f, keys, q=0))
    assert honest_v == flip_v


def test_bitflip_one_flips_everything():
    keys, _ = fixed_keys(theta=0)
    h = make_prover("honest", "selftest", np.random.default_rng(9))
    f = make_prover("bitflip=1.0", "selftest", np.random.default_rng(9))
    _, _, vh = drive_hadamard(h, keys, q=0)
    _, _, vf = drive_hadamard(f, keys, q=0)
    assert all(a != b for a, b in zip(vh, vf))


def test_classical_guess_answers_its_bits():
    keys, _ = fixed_keys(theta=0)
    p = ClassicalGuessProver("selftest", np.random.default_rng(1))
    y, d, v = drive_hadamard(p, keys, q=1)
    assert tuple(v) == tuple(p.b)
    assert all(di != 0 for di in d)
    # the preimage answer is genuine
    p2 = ClassicalGuessProver("selftest", np.random.default_rng(1))
    images = p2.handle(protocol.Keys(keys=keys))
    ans = p2.handle(protocol.RoundType(kind=protocol.PREIMAGE))
    assert entcf.chk(keys, images.y, ans.b, ans.x) == 0


def test_wrongbasis_differs_from_honest_on_q0():
    keys, _ = fixed_keys(theta=protocol.THETA_ALL_G)
    diffs = 0
    for seed in range(60):
        h = HonestProver("selftest", np.random.default_rng(seed))
        wrong = HonestProver("selftest", np.random.default_rng(seed), Device("wrongbasis"))
        wy, wd, wv = drive_hadamard(wrong, keys, q=0)
        hy, hd, hv = drive_hadamard(h, keys, q=0)
        assert wy == hy and wd == hd  # only the last measurement differs
        diffs += tuple(wv) != tuple(hv)
    assert diffs > 0


@pytest.mark.parametrize("kind,theta", [("selftest", 0), ("selftest", protocol.THETA_DIAMOND), ("dimtest", 0)])
def test_wrongbasis_answers_the_swapped_question(kind, theta):
    # q=0 and q=1 trade measurement bases; q=2 and q=3 are measured honestly
    rng = np.random.default_rng(3)
    params = entcf.EntcfParams.ideal(2)
    keys = tuple(entcf.gen_keypair(f, params, rng)[0] for f in protocol.families(kind, theta, 1))
    for q, honest_q in [(0, 1), (1, 0), (2, 2), (3, 3)][: len(protocol.questions(kind))]:
        for seed in range(8):
            device = HonestProver(kind, np.random.default_rng(seed), Device("wrongbasis"))
            wrong = drive_hadamard(device, keys, q)
            honest = drive_hadamard(HonestProver(kind, np.random.default_rng(seed)), keys, honest_q)
            assert wrong == honest


def test_a_device_is_its_spec_name_and_p():
    assert parse_device_spec("bitflip=0.25") is parse_device_spec("bitflip=0.25")  # built once per spec
    wrong, flip = parse_device_spec("wrongbasis"), parse_device_spec("bitflip=0.25")
    assert (wrong.name, wrong.p, flip.name, flip.p) == ("wrongbasis", None, "bitflip", 0.25)
    assert [wrong.question(q) for q in range(4)] == [1, 0, 2, 3] and wrong.flip is None
    assert [flip.question(q) for q in range(4)] == [0, 1, 2, 3] and flip.flip == 0.25
    assert Device("wrongbasis", 0.25).flip is None  # only bitflip flips: no device is both
    for p in (-0.1, 1.5, float("nan")):
        with pytest.raises(ParameterError, match="flip probability must lie in"):
            Device("bitflip", p)


def test_make_prover_unknown_spec():
    with pytest.raises(ParameterError):
        make_prover("nope", "selftest", np.random.default_rng(0))
    for spec in (
        "bitflip", "bitflip=2.0", "bitflip=abc", "bitflip=", "bitflipx", "bitflip0.5", "honest-fullsim",
    ):
        with pytest.raises(ParameterError):
            make_prover(spec, "selftest", np.random.default_rng(0))
    assert make_prover("bitflip=0.25", "dimtest", np.random.default_rng(0)).device.p == 0.25


# ---------------------------------------------------------------------------
# Closed-form measurement against the state-vector reference
# ---------------------------------------------------------------------------

def reference_pair_distribution(vec_i, vec_j, basis_i, basis_j):
    """Joint outcome probabilities p[out_i][out_j] from the dense state after CZ."""
    state = qsim.StateVector(np.kron(vec_i, vec_j), [("i", 2), ("j", 2)], normalize=True)
    state = qsim.controlled_z(state, "i", "j")
    change = [qsim.hadamard_matrix(1) if b == "hadamard" else np.eye(2) for b in (basis_i, basis_j)]
    probs = np.abs(np.kron(*change) @ state.amps) ** 2
    return (probs / probs.sum()).reshape(2, 2)


def closed_form_pair_distribution(vec_i, vec_j, basis_i, basis_j):
    def pair(us):
        return prover.measure_pair(vec_i, vec_j, basis_i, basis_j, FixedDraws(*us))

    out = np.zeros((2, 2))
    for (out_i, out_j), weight in answer_distribution(pair, 2).items():
        out[out_i, out_j] = weight
    return out


def _qubit_inputs():
    s = 1.0 / np.sqrt(2.0)
    rng = np.random.default_rng(2024)
    rand = rng.normal(size=2) + 1j * rng.normal(size=2)
    rand /= np.linalg.norm(rand)
    return {
        "0": (1.0, 0.0),
        "1": (0.0, 1.0),
        "+": (s, s),
        "-": (s, -s),
        "rand": tuple(rand.tolist()),
    }


QUBITS = _qubit_inputs()
BASES = ("computational", "hadamard")


# measure_pair always applies CZ, as the ids say
@pytest.mark.parametrize(
    "basis_i, basis_j",
    list(itertools.product(BASES, repeat=2)),
    ids=[f"{a}-{b}-cz" for a, b in itertools.product(BASES, repeat=2)],
)
def test_measure_pair_matches_state_vector_reference(basis_i, basis_j):
    for a, b in itertools.product(QUBITS, repeat=2):
        vec_i, vec_j = QUBITS[a], QUBITS[b]
        expect = reference_pair_distribution(vec_i, vec_j, basis_i, basis_j)
        got = closed_form_pair_distribution(vec_i, vec_j, basis_i, basis_j)
        np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12, err_msg=f"|{a}>|{b}>")
        # equal seeds give equal outcomes and leave the streams in step
        for seed in range(8):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert prover.measure_pair(vec_i, vec_j, basis_i, basis_j, rng) == (
                reference_measure_pair(vec_i, vec_j, basis_i, basis_j, ref_rng)
            ), f"|{a}>|{b}> seed {seed}"
            assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("name", list(QUBITS))
def test_measure_qubit_vector_matches_state_vector_reference(name, basis):
    vec = QUBITS[name]
    change = qsim.hadamard_matrix(1) if basis == "hadamard" else np.eye(2)
    expect = np.abs(change @ np.asarray(vec, dtype=complex)) ** 2
    got = threshold(lambda u: prover.measure_qubit_vector(vec, basis, FixedDraws(u)))
    assert got == pytest.approx(expect[0] / expect.sum(), abs=1e-12)
    for seed in range(8):
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert prover.measure_qubit_vector(vec, basis, rng) == (
            reference_measure_qubit_vector(vec, basis, ref_rng)
        )
        assert rng.random() == ref_rng.random()


def test_measurement_rejects_unknown_basis_and_zero_vector():
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError):
        prover.measure_pair((1.0, 0.0), (1.0, 0.0), "diagonal", "hadamard", rng)
    with pytest.raises(DomainError):
        prover.measure_qubit_vector((0.0, 0.0), "computational", rng)


@pytest.mark.parametrize(
    "protocol_kind, config",
    [
        ("selftest", protocol.SelfTestConfig(N=2, entcf=entcf.EntcfParams.ideal(4))),
        ("dimtest", protocol.DimTestConfig(N=3, entcf=entcf.EntcfParams.ideal(4))),
    ],
)
def test_runs_match_state_vector_reference_byte_for_byte(protocol_kind, config, tmp_path, monkeypatch):
    harness.run_sessions(protocol_kind, "honest", config, 200, seed=21, out_dir=tmp_path / "new")
    monkeypatch.setattr(prover, "measure_pair", reference_measure_pair)
    monkeypatch.setattr(prover, "measure_qubit_vector", reference_measure_qubit_vector)
    harness.run_sessions(protocol_kind, "honest", config, 200, seed=21, out_dir=tmp_path / "ref")
    for name in ("stats.json", "transcripts.jsonl"):
        assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes()
