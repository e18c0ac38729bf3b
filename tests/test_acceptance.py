"""End-to-end acceptance checks: protocol statistics at scale, exhaustive
family properties, white-box analysis identities, and reproducibility."""
import collections
import itertools
import json
import time

import numpy as np
import pytest

from selftestsim import analysis, cli, entcf, harness, protocol, prover, qsim
from selftestsim.protocol import DimTestConfig, SelfTestConfig
from selftestsim.prover import Device

import oracles


def selftest_config(n, w):
    return SelfTestConfig(N=n, entcf=entcf.EntcfParams.ideal(w))


def dimtest_config(n, w):
    return DimTestConfig(N=n, entcf=entcf.EntcfParams.ideal(w))


# ---------------------------------------------------------------------------
# Large-sample protocol statistics
# ---------------------------------------------------------------------------

def test_selftest_honest_acceptance_rate():
    n, w, sessions = 2, 4, 10_000
    start = time.monotonic()
    stats, _ = harness.run_sessions(
        "selftest", "honest", selftest_config(n, w), sessions, seed=2024
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    acc = stats["acceptance_rate"]
    sigma = np.sqrt(acc * (1.0 - acc) / sessions)
    assert acc >= 1.0 - 2 * n * 2.0 ** (1 - w) - 3 * sigma
    assert acc >= 0.97


def test_dimtest_honest_acceptance_and_rejection_reasons():
    n, w, sessions = 3, 4, 10_000
    stats, transcripts = harness.run_sessions(
        "dimtest", "honest", dimtest_config(n, w), sessions, seed=77
    )
    assert stats["acceptance_rate"] >= 0.97
    rejected = [t for t in transcripts if not t["accept"]]
    assert rejected, "expected some undecodable-d rejections at this w"
    # an honest device is only ever rejected for undecodable equation bits
    assert all(t["reason"].endswith(".bot") for t in rejected)


# ---------------------------------------------------------------------------
# Collapsed simulation agrees with the full state-vector simulation
# ---------------------------------------------------------------------------

def _hadamard_samples(device, keys, samples, seed):
    """Per-coordinate (y, d, v) counters for repeated Hadamard rounds."""
    streams = np.random.SeedSequence(seed).spawn(samples)
    counts = [collections.Counter(), collections.Counter()]
    for stream in streams:
        p = device("selftest", np.random.default_rng(stream))
        images = p.handle(protocol.Keys(keys=keys))
        d_msg = p.handle(protocol.RoundType(kind=protocol.HADAMARD))
        v_msg = p.handle(protocol.Question(q=1))
        p.handle(protocol.Verdict(accept=1, reason="accept"))
        for i in range(2):
            counts[i][(images.y[i], d_msg.d[i], v_msg.v[i])] += 1
    return counts


def test_collapsed_matches_fullsim_distribution():
    start = time.monotonic()
    rng = np.random.default_rng(31337)
    params = entcf.EntcfParams.ideal(2)
    keys = tuple(
        entcf.gen_keypair(fam, params, rng)[0]
        for fam in protocol.families("selftest", 0, 1)
    )
    samples = 20_000
    fast = _hadamard_samples(prover.HonestProver, keys, samples, seed=1)
    full = _hadamard_samples(oracles.FullsimProver, keys, samples, seed=2)
    for i in range(2):
        assert set(fast[i]) == set(full[i])
        support = set(fast[i]) | set(full[i])
        tv = 0.5 * sum(
            abs(fast[i][k] - full[i][k]) / samples for k in support
        )
        assert tv <= 0.05
    assert time.monotonic() - start < 120.0


def _collapsed_distribution(kind, keys, q):
    """{(y, d, v): probability} of HonestProver's Hadamard round on keys.
    Each queue of its integers() draws (b_i and x_i per coordinate, then
    each d_i) has weight 1 / (2 * 4^w) per coordinate; the answer bits'
    weights are their random() thresholds, read by bisection."""
    size = 2 ** keys[0].params.w
    queues = itertools.product(*[range(2), range(size)] * len(keys), *[range(size)] * len(keys))
    out = collections.defaultdict(float)
    for queue in queues:
        device = prover.HonestProver(kind, oracles.FixedDraws(*queue))
        y, d = tuple(device.on_keys(keys)), tuple(device.on_hadamard())

        def answer(us):
            device.rng = oracles.FixedDraws(*us)
            return device.on_question(q)

        for v, weight in oracles.answer_distribution(answer, len(keys)).items():
            out[(y, d, v)] += weight / (2 * size * size) ** len(keys)
    return out


def _fullsim_distribution(kind, keys, q):
    """{(y, d, v): Born probability} of the fullsim oracle's Hadamard round
    on keys."""

    def run(rng):
        device = oracles.FullsimProver(kind, rng)
        y = device.handle(protocol.Keys(keys=keys)).y
        d = device.handle(protocol.RoundType(kind=protocol.HADAMARD)).d
        v = device.handle(protocol.Question(q=q)).v
        return y, d, v

    return oracles.born_distribution(run)


@pytest.mark.parametrize(
    "kind, families, w, q",
    [
        pytest.param("dimtest", (fam,), w, q, id=f"{fam}-w{w}-q{q}")
        for fam in (entcf.FAMILY_F, entcf.FAMILY_G)
        for w in (2, 3, 4)
        for q in (0, 1)
    ]
    + [
        pytest.param("selftest", (entcf.FAMILY_F, entcf.FAMILY_G), 2, q, id=f"FG-pair-w2-q{q}")
        for q in (0, 1, 2, 3)
    ],
)
def test_collapsed_matches_fullsim_exactly(kind, families, w, q, monkeypatch):
    """The collapsed path's probability of every (y, d, v) equals the
    fullsim oracle's Born probability: one F and one G coordinate in both
    bases, and one self-test CZ pair, F with G, under every question."""
    rng = np.random.default_rng(w)
    params = entcf.EntcfParams.ideal(w)
    keys = tuple(entcf.gen_keypair(fam, params, rng)[0] for fam in families)
    collapsed = _collapsed_distribution(kind, keys, q)
    # the oracle takes its answer on the state vector too
    monkeypatch.setattr(prover, "measure_pair", oracles.reference_measure_pair)
    monkeypatch.setattr(prover, "measure_qubit_vector", oracles.reference_measure_qubit_vector)
    born = _fullsim_distribution(kind, keys, q)
    assert sum(born.values()) == pytest.approx(1.0, abs=1e-12)
    for outcome in set(collapsed) | set(born):
        assert abs(collapsed.get(outcome, 0.0) - born.get(outcome, 0.0)) <= 1e-12, outcome


# ---------------------------------------------------------------------------
# Function family properties, exhaustively
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend,w", [("ideal", 2), ("ideal", 3), ("ideal", 4), ("toylwe", 4)])
def test_entcf_family_properties_exhaustive(backend, w):
    failures = cli.entcf_property_suite(backend, w, seed=9, n_keys=3)
    assert failures == []


# ---------------------------------------------------------------------------
# Swap isometry identities
# ---------------------------------------------------------------------------

def _random_models(count, seed):
    rng = np.random.default_rng(seed)
    cfg = selftest_config(1, 2)
    return [analysis.build_random_model(cfg, rng) for _ in range(count)]


def test_swap_isometry_identities():
    rng = np.random.default_rng(0)
    honest = analysis.build_honest_model(selftest_config(1, 2), "selftest", rng)
    models = [
        honest,
        analysis.build_device_model(honest, Device("bitflip", 0.1)),
        analysis.build_device_model(honest, Device("wrongbasis")),
        analysis.build_honest_model(dimtest_config(2, 2), "dimtest", rng),
        analysis.build_classical_model(dimtest_config(3, 2), rng),
    ]
    models += _random_models(20, seed=5)
    for model in models:
        checks = analysis.swap_identity_checks(model, rng)
        for value in checks.values():
            assert value <= 1e-10


# ---------------------------------------------------------------------------
# Honest device marginals and soundness distances
# ---------------------------------------------------------------------------

def test_honest_logical_marginals_are_ideal():
    rng = np.random.default_rng(1)
    n, w = 1, 2
    model = analysis.build_honest_model(selftest_config(n, w), "selftest", rng)
    for theta in model.thetas:
        table = model.tables[theta]
        assert table.residual <= 1e-12
        for v in {tuple(v) for v in table.block_v.tolist()}:
            tau = analysis.tau_vector("selftest", n, theta, v)
            target = np.outer(tau, tau.conj()) / 2 ** (2 * n)
            # rows live on the logical qubits: the honest model has no environment
            rows = table.blocks[np.all(table.block_v == v, axis=1)]
            assert np.abs(rows.T @ rows.conj() - target).max() <= 1e-9


def test_honest_soundness_distances():
    rng = np.random.default_rng(2)
    n, w = 1, 2
    model = analysis.build_honest_model(selftest_config(n, w), "selftest", rng)
    bound = 4 * 2.0 ** (1 - w)
    for theta in model.thetas:
        sd = analysis.soundness_distance(model, theta)
        assert sd["total"] <= min(bound, 1e-8)
        for total in sd["post_measurement"].values():
            assert total <= min(bound, 1e-8)


@pytest.mark.parametrize(
    "kind,n,w",
    [("selftest", 2, 2), ("dimtest", 4, 2), ("dimtest", 5, 2), ("selftest", 2, 3)],
    ids=["selftest-2", "dimtest-4", "dimtest-5", "selftest-2-w3"],
)
def test_honest_reports_at_scale(kind, n, w, tmp_path, capsys):
    # models with up to 2,101,248 (y, d) labels per report at w=2; their
    # class tables have a few dozen rows, and no state is built over x
    path = tmp_path / "report.json"
    argv = ["analyze", "--protocol", kind, "--n", str(n), "--w", str(w), "--seed", "7", "--report", str(path)]
    assert cli.main(argv) == 0
    capsys.readouterr()
    report = json.loads(path.read_text())
    assert report["all_ok"]
    if kind == "dimtest":
        cert = report["certificate"]
        assert cert["rank"] == 2**n and cert["rank_ok"]
        assert cert["certified_dimension"] == pytest.approx(2.0**n, abs=1e-9)


# ---------------------------------------------------------------------------
# Gamma-versus-failure inequalities across device models
# ---------------------------------------------------------------------------

def _inequality_suite(model):
    gammas = analysis.gamma_report(model)
    failures = analysis.failure_report(model)
    checks = analysis.check_gamma_bounds(gammas, failures, model.n)
    assert all(c["ok"] for c in checks), [c for c in checks if not c["ok"]]
    sums = analysis.zeta_chi_sums(model)
    for val in sums["zeta"].values():
        assert val <= 4 * gammas["gamma_T"] + 1e-9
    for val in sums["chi"].values():
        assert val <= 4 * gammas["gamma_T"] + 1e-9
    for theta in model.thetas:
        assert analysis.sigma_residual(model, theta) <= gammas["gamma_P"] + 1e-9


def test_gamma_failure_inequalities_hold_for_all_models():
    rng = np.random.default_rng(3)
    cfg = selftest_config(1, 2)
    honest = analysis.build_honest_model(cfg, "selftest", rng)
    models = [honest]
    models += [analysis.build_device_model(honest, Device("bitflip", p)) for p in (0.05, 0.1, 0.25)]
    models.append(analysis.build_device_model(honest, Device("wrongbasis")))
    models += _random_models(20, seed=8)
    for model in models:
        _inequality_suite(model)


# ---------------------------------------------------------------------------
# Rank lower bound
# ---------------------------------------------------------------------------

def _dense_epsilon(v, rho, alpha, n):
    """||V rho V' - 1/2^n (x) alpha||_1 from the dense operator."""
    return qsim.trace_norm(v @ rho @ v.conj().T - np.kron(np.eye(2**n) / 2**n, alpha))


def _swap_unitary(dim):
    u = np.zeros((dim * dim, dim * dim))
    for i in range(dim):
        for j in range(dim):
            u[i * dim + j, j * dim + i] = 1.0
    return u


@pytest.mark.parametrize("n", [1, 2])
def test_rank_bound_swap_example(n):
    dim = 2**n
    rho = np.eye(dim) / dim
    alpha = np.zeros((dim, dim))
    alpha[0, 0] = 1.0
    v = _swap_unitary(dim)[:, :dim]
    eps = _dense_epsilon(v, rho, alpha, n)
    rank, ok = analysis.rank_bound_check(v, rho, alpha, n, eps)
    assert eps <= 1e-10
    assert rank == dim
    assert ok


def test_rank_bound_random_instances():
    rng = np.random.default_rng(4)
    for trial in range(50):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(2, 5))
        u = analysis.haar_unitary(2**n * d, rng)
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        zero = np.zeros((2**n, 2**n))
        zero[0, 0] = 1.0
        lhs = u @ np.kron(zero, rho) @ u.conj().T
        alpha = qsim.partial_trace(lhs, [("a", 2**n), ("b", d)], ["b"])
        _, ok = analysis.rank_bound_check(u[:, :d], rho, alpha, n, _dense_epsilon(u[:, :d], rho, alpha, n))
        assert ok


# ---------------------------------------------------------------------------
# Classical cheating rate on the dimension test
# ---------------------------------------------------------------------------

def _exhaustive_guess_failure(n, w, seed):
    """Exact q=1 failure rate of the preimage-guessing device, by enumerating
    every image and nonzero d of a claw-free key: the answer bit is a uniform
    coin, so the claw coordinate fails half the time whenever theta picks it."""
    rng = np.random.default_rng(seed)
    params = entcf.EntcfParams.ideal(w)
    key, trap = entcf.gen_keypair(entcf.FAMILY_F, params, rng)
    fails = total = 0
    for y in entcf.image_iter(key):
        for d in range(1, 2**w):
            hh = entcf.decode_h(trap, y, d)
            for b in (0, 1):
                fails += hh != b
                total += 1
    return (n / (n + 1)) * fails / total


def test_classical_guess_equation_failure_rate():
    n, w, sessions = 2, 6, 10_000
    cfg = dimtest_config(n, w)
    exact = _exhaustive_guess_failure(n, w, seed=6)
    assert exact == pytest.approx(n / (2 * (n + 1)))
    stats, _ = harness.run_sessions("dimtest", "classical", cfg, sessions, seed=404)
    cheat = stats["eps_H"]["1"]
    assert abs(cheat - exact) <= 0.02
    assert cheat >= 0.2
    honest_stats, _ = harness.run_sessions("dimtest", "honest", cfg, sessions, seed=405)
    assert honest_stats["eps_H"]["1"] <= 0.03


# ---------------------------------------------------------------------------
# Monte Carlo runs and exact models of one device
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind,n", [("selftest", 1), ("dimtest", 2)])
def test_monte_carlo_and_exact_agree_on_each_honest_family_device(kind, n):
    """The exact eps_H of build_device_model and the Monte Carlo rate of a run
    of the same spec agree per question within 4 standard errors, plus L 2^-w
    for the honest device's d = 0, which its model never answers; eps_P is 0
    on both sides. The dimtest variants are built through the API alone."""
    w, sessions, seed = 8, 4000, 11
    config = protocol.CONFIGS[kind](N=n, entcf=entcf.EntcfParams.ideal(w))
    honest = analysis.build_honest_model(config, kind, np.random.default_rng(seed))
    slack = protocol.n_coords(kind, n) * 2.0**-w
    for spec in ("honest", "bitflip=0.1", "wrongbasis"):
        exact = analysis.failure_report(analysis.build_device_model(honest, prover.parse_device_spec(spec)))
        stats, transcripts = harness.run_sessions(kind, spec, config, sessions, seed)
        assert exact["eps_P"] == pytest.approx(0.0, abs=1e-12) and stats["eps_P"] == 0.0
        asked = collections.Counter(t["q"] for t in transcripts)
        for q in protocol.questions(kind):
            rate = stats["eps_H"][str(q)]
            standard_error = np.sqrt(rate * (1.0 - rate) / asked[q])
            assert abs(exact["eps_H"][q] - rate) <= 4 * standard_error + slack, (spec, q)


# ---------------------------------------------------------------------------
# Reproducibility
# ---------------------------------------------------------------------------

def test_runs_are_byte_reproducible(tmp_path):
    cfg = selftest_config(1, 3)
    for name in ("a", "b"):
        harness.run_sessions(
            "selftest", "honest", cfg, 300, seed=123, out_dir=tmp_path / name
        )
    for fname in ("stats.json", "transcripts.jsonl"):
        first = (tmp_path / "a" / fname).read_bytes()
        second = (tmp_path / "b" / fname).read_bytes()
        assert first == second
