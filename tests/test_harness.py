"""Harness and CLI tests: determinism, stats, replay, exit codes."""
import collections
import itertools
import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from selftestsim import analysis, cli, entcf, harness, protocol, prover, transport
from selftestsim.errors import DomainError, ParameterError
from selftestsim.protocol import KINDS, DimTestConfig, SelfTestConfig

CFG = SelfTestConfig(N=1, entcf=entcf.EntcfParams.ideal(2))
DCFG = DimTestConfig(N=2, entcf=entcf.EntcfParams.ideal(4))
SRC = Path(__file__).resolve().parent.parent / "src"


def test_wilson_interval_properties():
    lo, hi = harness.wilson_interval(90, 100)
    assert lo <= 0.9 <= hi
    assert harness.wilson_interval(0, 0) == (0.0, 1.0)
    lo, hi = harness.wilson_interval(0, 50)
    assert lo == 0.0 and hi < 0.12


def test_theta_class():
    assert protocol.theta_class("selftest", 0, 2) == "claw_first"
    assert protocol.theta_class("selftest", 3, 2) == "claw_second"
    assert protocol.theta_class("selftest", "all_g", 2) == "all_g"
    assert protocol.theta_class("selftest", "diamond", 2) == "diamond"
    assert protocol.theta_class("dimtest", 1, 2) == "claw"
    assert protocol.theta_class("dimtest", "all_g", 2) == "all_g"


def test_run_sessions_stats_consistency():
    stats, transcripts = harness.run_sessions("selftest", "honest", CFG, 120, seed=5)
    assert stats["sessions"] == 120 and len(transcripts) == 120
    assert sum(c["sessions"] for c in stats["cells"].values()) == 120
    lo, hi = stats["acceptance_ci95"]
    assert lo <= stats["acceptance_rate"] <= hi
    # eps recomposition is exact on the recorded counts
    expect = stats["eps_P"] / 2 + sum(stats["eps_H"].values()) / 8
    assert stats["eps"] == pytest.approx(expect, abs=1e-15)


def test_same_seed_same_results():
    a = harness.run_sessions("selftest", "honest", CFG, 60, seed=11)
    b = harness.run_sessions("selftest", "honest", CFG, 60, seed=11)
    assert json.dumps(a[0], sort_keys=True) == json.dumps(b[0], sort_keys=True)
    assert a[1] == b[1]
    c = harness.run_sessions("selftest", "honest", CFG, 60, seed=12)
    assert a[1] != c[1]


def test_replay_audit_passes():
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 80, seed=3)
    assert harness.replay_audit(transcripts, "selftest", CFG, 3)
    # a tampered verdict is caught
    transcripts[0]["accept"] ^= 1
    assert not harness.replay_audit(transcripts, "selftest", CFG, 3)


def _tamper(transcripts, message_type, change):
    """Apply change to the payload of the first recorded message_type."""
    for record in transcripts:
        for entry in record["messages"]:
            if entry["type"] == message_type:
                change(entry["payload"])
                return
    raise AssertionError(f"no {message_type} message recorded")


def test_replay_audit_checks_verifier_messages():
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 80, seed=3)
    untouched = json.loads(json.dumps(transcripts))  # as read back from disk
    assert harness.replay_audit(untouched, "selftest", CFG, 3)

    tampered_q = json.loads(json.dumps(transcripts))
    _tamper(tampered_q, "Question", lambda p: p.update(q=(p["q"] + 1) % 4))
    assert not harness.replay_audit(tampered_q, "selftest", CFG, 3)

    tampered_keys = json.loads(json.dumps(transcripts))
    _tamper(tampered_keys, "Keys", lambda p: p["keys"].reverse())
    assert not harness.replay_audit(tampered_keys, "selftest", CFG, 3)


def test_replay_audit_rejects_reordered_truncated_or_garbled_records():
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 20, seed=4)
    dropped = json.loads(json.dumps(transcripts))
    del dropped[0]["messages"][2]  # the RoundType the prover answered
    assert not harness.replay_audit(dropped, "selftest", CFG, 4)
    truncated = json.loads(json.dumps(transcripts))
    del truncated[0]["messages"][-1]  # the Verdict
    assert not harness.replay_audit(truncated, "selftest", CFG, 4)
    garbled = json.loads(json.dumps(transcripts))
    _tamper(garbled, "Images", lambda p: p.update(y=["not a number"] * len(p["y"])))
    assert not harness.replay_audit(garbled, "selftest", CFG, 4)
    swapped = json.loads(json.dumps(transcripts))
    swapped[0]["session"], swapped[1]["session"] = swapped[1]["session"], swapped[0]["session"]
    assert not harness.replay_audit(swapped, "selftest", CFG, 4)


def _flip(bits):
    return [1 if b is None else 1 - b for b in bits]


# edits to one record that leave its messages and verdict as they are
RECORD_EDITS = {
    "q": lambda r: r.update(q=(r["q"] + 1) % 4),
    "round_type": lambda r: r.update(round_type=protocol.PREIMAGE),
    "theta_class": lambda r: r.update(theta_class="diamond" if r["theta_class"] != "diamond" else "all_g"),
    "bhat": lambda r: r.update(bhat=_flip(r["bhat"])),
    "hhat": lambda r: r.update(hhat=_flip(r["hhat"])),
    "theta": lambda r: r.update(theta="diamond" if r["theta"] != "diamond" else "all_g"),
    "protocol": lambda r: r.update(protocol="dimtest"),
    "message-t": lambda r: r["messages"][3].update(t=7),
    "device-payload-key": lambda r: r["messages"][1]["payload"].update(junk=[1]),
}


@pytest.mark.parametrize("edit", RECORD_EDITS)
def test_replay_audit_checks_every_field_of_a_record(edit):
    """The audit passes a record only if replaying it writes the same record:
    the fields session_stats counts by, the decodings and theta, each
    message's timestamp and a device's exact payload included."""
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 40, seed=3)
    records = json.loads(json.dumps(transcripts))
    assert harness.replay_audit(records, "selftest", CFG, 3)
    hadamard = next(r for r in records if r["round_type"] == protocol.HADAMARD and r["accept"])
    RECORD_EDITS[edit](hadamard)
    assert not harness.replay_audit(records, "selftest", CFG, 3)


def _every_third_session_fails(monkeypatch, spec):
    """A run whose every third session ends in a transport failure: the
    device answers the keys with an image that has no u32 encoding."""
    on_keys, calls = prover.HonestProver.on_keys, itertools.count()

    def every_third_unencodable(self, keys):
        return [2**32] * len(keys) if next(calls) % 3 == 0 else on_keys(self, keys)

    monkeypatch.setattr(prover.HonestProver, "on_keys", every_third_unencodable)
    return harness.run_sessions("selftest", "honest", CFG, 12, seed=7, transport_spec=spec)[1]


@pytest.mark.parametrize("spec", ["inproc", "tcp"])
def test_replay_audit_checks_sessions_that_ended_in_a_transport_failure(monkeypatch, spec):
    _, clean = harness.run_sessions("selftest", "honest", CFG, 12, seed=7)  # before the patch
    transcripts = _every_third_session_fails(monkeypatch, spec)
    assert [r["reason"] for r in transcripts[::3]] == ["transport"] * 4
    assert harness.replay_audit(transcripts, "selftest", CFG, 7)

    changed = json.loads(json.dumps(transcripts))
    changed[3]["bhat"] = [0, 1]
    assert not harness.replay_audit(changed, "selftest", CFG, 7)
    # the device's images of the clean run, recorded after the failure point
    appended = json.loads(json.dumps(transcripts))
    appended[3]["messages"].append(clean[3]["messages"][1])
    assert not harness.replay_audit(appended, "selftest", CFG, 7)


def test_output_files(tmp_path):
    harness.run_sessions("dimtest", "honest", DCFG, 20, seed=1, out_dir=tmp_path)
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert stats["sessions"] == 20
    lines = (tmp_path / "transcripts.jsonl").read_text().splitlines()
    assert len(lines) == 20
    for line in lines:
        json.loads(line)


def test_bad_args():
    with pytest.raises(ParameterError):
        harness.run_sessions("selftest", "honest", CFG, 0, seed=1)
    with pytest.raises(ParameterError):
        harness.run_sessions("selftest", "honest", CFG, 1, seed=1, transport_spec="pigeon")
    for spec in ("tcp:abc", "tcp:-1", "tcp:", "tcp:65536", "tcp:١٢", "tcp:１２"):
        with pytest.raises(ParameterError):
            harness.run_sessions("selftest", "honest", CFG, 1, seed=1, transport_spec=spec)
    for prover_spec in ("bitflip=abc", "bitflipx"):
        with pytest.raises(ParameterError):
            harness.run_sessions("selftest", prover_spec, CFG, 1, seed=1)
    with pytest.raises(ParameterError):
        harness.run_one_session(
            0,
            "nope",
            CFG,
            "honest",
            np.random.default_rng(0),
            np.random.default_rng(1),
            np.random.default_rng(2),
            transport.Link(transport.Codec(CFG.entcf)),
        )


@pytest.mark.parametrize(
    "call",
    [
        lambda: analysis.build_honest_model(CFG, "selftset", np.random.default_rng(0)),
        lambda: harness.session_stats([], "selftset", 1),
        lambda: protocol.question_bases("x", 1, 0),
    ],
    ids=["build_honest_model", "session_stats", "question_bases"],
)
def test_unknown_protocol_kind_is_refused(call):
    with pytest.raises(ParameterError, match="unknown protocol kind"):
        call()


def _audit_a_selftest_run_as_dimtest():
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 2, seed=1)
    harness.replay_audit(transcripts, "dimtest", CFG, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: protocol.SelfTestVerifier(DCFG, np.random.default_rng(0)),
        _audit_a_selftest_run_as_dimtest,
        lambda: analysis.build_honest_model(CFG, "dimtest", np.random.default_rng(0)),
    ],
    ids=["SelfTestVerifier", "replay_audit", "build_honest_model"],
)
def test_a_config_of_the_other_kind_is_refused(call):
    with pytest.raises(ParameterError, match="needs a"):
        call()


def test_run_sessions_refuses_a_config_of_the_other_kind_before_any_session(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "run_one_session", None)
    with pytest.raises(ParameterError, match="a dimtest needs a DimTestConfig, not a SelfTestConfig"):
        harness.run_sessions("dimtest", "honest", CFG, 20, seed=1, out_dir=tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_replay_audit_is_total_on_malformed_records():
    _, transcripts = harness.run_sessions("selftest", "honest", CFG, 6, seed=4)
    assert harness.replay_audit(transcripts, "selftest", CFG, 4)

    def audit(change) -> bool:
        records = json.loads(json.dumps(transcripts))
        change(records)
        return harness.replay_audit(records, "selftest", CFG, 4)

    for index in (len(transcripts), 10**30, -1, "0", 1.0, None, True):
        assert not audit(lambda r, index=index: r[0].update(index=index))
    for key in ("index", "messages", "session", "reason", "accept"):
        assert not audit(lambda r, key=key: r[0].pop(key))
    # a duplicated record: each session's streams are rebuilt on demand, so
    # only the index check stops it
    assert not audit(lambda r: r.__setitem__(1, r[0]))
    assert not audit(lambda r: r.__setitem__(0, None))
    assert not audit(lambda r: r[0]["messages"][1].pop("dir"))
    assert not audit(lambda r: r[0].update(messages=None))


def test_session_stream_matches_the_spawn_tree():
    tree = np.random.SeedSequence(9).spawn(1000)
    for i in (0, 1, 7, 999):
        children = tree[i].spawn(3)
        for j in range(3):
            expect = np.random.default_rng(children[j]).bit_generator.state
            assert harness.session_stream(9, i, j).bit_generator.state == expect
    streams = list(harness.session_streams(9, 8))
    assert streams[7][2].bit_generator.state == harness.session_stream(9, 7, 2).bit_generator.state


def test_session_id_is_the_streams_first_sixteen_bytes():
    for seed, index in itertools.product((0, 3, 2**40 + 1), range(0, 1000, 3)):
        expect = harness.session_stream(seed, index, 2).bytes(16)
        assert transport.session_id_from_rng(harness.session_stream(seed, index, 2)) == expect


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**130 + 3])
def test_session_streams_match_seed_sequence(seed):
    """The block hash agrees with numpy's SeedSequence for seeds of one to
    five 32-bit words, across a block boundary and at the last index."""
    streams = list(harness.session_streams(seed, 260))
    for index in (0, 1, 254, 255, 256, 259):
        for j in range(3):
            expect = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index, j)))
            assert streams[index][j].bit_generator.state == expect.bit_generator.state
    last = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2**32 - 1, 1)))
    assert harness.session_stream(seed, 2**32 - 1, 1).bit_generator.state == last.bit_generator.state


@pytest.mark.parametrize("seed,index", [(-1, 0), (1, -1), (1, 2**32)])
def test_session_stream_out_of_range_is_a_parameter_error(seed, index):
    with pytest.raises(ParameterError):
        harness.session_stream(seed, index, 0)


def test_tcp_matches_inproc():
    for protocol_kind, prover_spec, config in (
        ("selftest", "honest", CFG),
        ("dimtest", "classical", DimTestConfig(N=3, entcf=entcf.EntcfParams.ideal(4))),
    ):
        a = harness.run_sessions(protocol_kind, prover_spec, config, 8, seed=2)
        b = harness.run_sessions(protocol_kind, prover_spec, config, 8, seed=2, transport_spec="tcp")
        assert a[1] == b[1]
        assert json.dumps(a[0], sort_keys=True) == json.dumps(b[0], sort_keys=True)


def test_unencodable_reply_gives_the_same_transcript_on_both_transports(monkeypatch):
    monkeypatch.setattr(prover.HonestProver, "on_keys", lambda self, keys: [2**32] * len(keys))
    runs = [
        harness.run_sessions("selftest", "honest", CFG, 4, seed=5, transport_spec=spec)
        for spec in ("inproc", "tcp")
    ]
    assert runs[0][1] == runs[1][1]
    for record in runs[0][1]:
        assert record["reason"] == "transport"
        assert [entry["type"] for entry in record["messages"]] == ["Keys"]
    assert harness.replay_audit(runs[0][1], "selftest", CFG, 5)


TOYLWE_CFG = SelfTestConfig(N=1, entcf=entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1))


@pytest.mark.parametrize("spec", ["inproc", "tcp"])
@pytest.mark.parametrize("config", [CFG, TOYLWE_CFG], ids=["ideal", "toylwe"])
def test_transcript_line_is_the_json_encoding_of_the_record(config, spec, tmp_path):
    """Each line run_sessions writes, and the line its writer makes of a
    record it never wrote, is the compact JSON encoding of the record."""
    _, transcripts = harness.run_sessions(
        "selftest", "bitflip=0.3", config, 30, seed=4, transport_spec=spec, out_dir=tmp_path
    )
    record = transcripts[0]
    # a reply payload that carries a key besides its fields, as json.loads parses
    # it (decode_frame refuses such a frame)
    body = json.dumps({"junk": ['\u00e9"', 1], **record["messages"][1]["payload"]}).encode()
    parsed = json.loads(body)
    reply = {**record["messages"][1], "payload": parsed}
    variants = [
        {**record, "messages": []},
        {**record, "messages": record["messages"][:1]},
        {**record, "messages": record["messages"][1:]},
        {**record, "messages": [record["messages"][0], reply, *record["messages"][2:]]},
    ]
    assert "junk" in parsed and len(transcripts) == 30
    lines = (tmp_path / "transcripts.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines == [json.dumps(t, separators=(",", ":")) for t in transcripts]
    for t in variants:
        assert harness._TRANSCRIPT_LINE.encode(t) == json.dumps(t, separators=(",", ":"))


def test_number_lists_skip_the_json_encoders(monkeypatch, tmp_path):
    """Keys frames write each key's numbers (three ints at w=8) with `str`,
    without the frame encoder's escape scan: only strings reach it. A
    transcript line goes through its encoder whole, its keys' number lists
    included."""
    seen = {}

    class Spy:
        def __init__(self, name, encoder):
            self.name, self.encoder = name, encoder

        def encode(self, obj):
            seen.setdefault(self.name, []).append(obj)
            return self.encoder.encode(obj)

    monkeypatch.setattr(transport, "_CANONICAL_JSON", Spy("frame", transport._CANONICAL_JSON))
    monkeypatch.setattr(harness, "_TRANSCRIPT_LINE", Spy("line", harness._TRANSCRIPT_LINE))
    config = DimTestConfig(N=4, entcf=entcf.EntcfParams.ideal(8))
    stats, transcripts = harness.run_sessions(
        "dimtest", "classical", config, 6, seed=7, transport_spec="tcp", out_dir=tmp_path
    )
    assert stats["sessions"] == 6 and "transport" not in stats["reasons"]
    assert sorted(seen) == ["frame", "line"]
    assert {type(obj) for obj in seen["frame"]} == {str}, seen["frame"]
    assert seen["line"] == transcripts
    for record in transcripts:
        keys = record["messages"][0]["payload"]["keys"]
        assert len(keys) == 4 and all(len(key) == 3 and set(map(type, key)) == {int} for key in keys)


def test_inproc_run_builds_no_frames(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was built in process")

    monkeypatch.setattr(transport.Codec, "encode_frame", refuse)
    monkeypatch.setattr(transport.Codec, "decode_frame", refuse)
    stats, transcripts = harness.run_sessions("selftest", "honest", CFG, 20, seed=8)
    assert stats["sessions"] == len(transcripts) == 20
    assert stats["reasons"].get("transport", 0) == 0


def _count_accepts(monkeypatch) -> list:
    accepted = []
    accept = socket.socket.accept

    def counting(sock):
        accepted.append(sock.getsockname())
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", counting)
    return accepted


def test_tcp_run_uses_one_connection(monkeypatch):
    accepted = _count_accepts(monkeypatch)
    stats, _ = harness.run_sessions("selftest", "honest", CFG, 20, seed=6, transport_spec="tcp")
    assert stats["sessions"] == 20 and "transport" not in stats["reasons"]
    assert len(accepted) == 1


def test_tcp_sockets_send_without_delay(monkeypatch):
    nodelay, waits, timeouts = {}, set(), (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO)
    send = transport.TcpChannel.send

    def recording(chan, msg):
        option = chan.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        nodelay.setdefault(type(msg).__name__, set()).add(option)
        bound = [chan.sock.getsockopt(socket.SOL_SOCKET, option, 16) for option in timeouts]
        waits.add((chan.sock.gettimeout(), *bound))
        return send(chan, msg)

    monkeypatch.setattr(transport.TcpChannel, "send", recording)
    harness.run_sessions("selftest", "honest", CFG, 3, seed=6, transport_spec="tcp")
    # Keys leave the verifier's socket, Images the prover's
    assert nodelay["Keys"] == nodelay["Images"] == {1}
    # both block, with the kernel bounding each wait by TIMEOUT_S (a struct timeval)
    ten_seconds = struct.pack("@ll", 10, 0)
    assert transport.TIMEOUT_S == 10.0 and waits == {(None, ten_seconds, ten_seconds)}


def test_failed_sessions_do_not_disturb_the_next_over_one_link(monkeypatch):
    on_keys = prover.HonestProver.on_keys

    def run(spec):
        calls = itertools.count()

        def every_third_unencodable(self, keys):
            if next(calls) % 3 == 0:
                return [2**32] * len(keys)
            return on_keys(self, keys)

        monkeypatch.setattr(prover.HonestProver, "on_keys", every_third_unencodable)
        stats, transcripts = harness.run_sessions(
            "selftest", "honest", CFG, 20, seed=7, transport_spec=spec
        )
        return json.dumps(stats, sort_keys=True), transcripts

    _, clean = harness.run_sessions("selftest", "honest", CFG, 20, seed=7)
    inproc = run("inproc")
    accepted = _count_accepts(monkeypatch)
    tcp = run("tcp")
    assert inproc == tcp
    failed = [i for i, record in enumerate(tcp[1]) if record["reason"] == "transport"]
    assert failed == list(range(0, 20, 3))
    # every other session, the ones right after a failure included, gets the
    # transcript and verdict it gets when no session fails
    assert [tcp[1][i] for i in range(20) if i not in failed] == [
        clean[i] for i in range(20) if i not in failed
    ]
    # the first session, and each one after a failure, connects afresh
    assert len(accepted) == 1 + len([i for i in failed if i + 1 < 20])
    assert harness.replay_audit(tcp[1], "selftest", CFG, 7)
    assert harness.replay_audit(inproc[1], "selftest", CFG, 7)


def test_tcp_runs_back_to_back_on_one_port():
    with socket.create_server(("127.0.0.1", 0)) as probe:
        port = probe.getsockname()[1]
    spec = f"tcp:{port}"
    runs = [
        harness.run_sessions("selftest", "honest", CFG, 5, seed=9, transport_spec=spec)
        for _ in range(2)
    ]
    assert runs[0][1] == runs[1][1]
    assert "transport" not in runs[1][0]["reasons"]


def test_tcp_frames_larger_than_the_socket_buffers(monkeypatch):
    """Both ends run on one thread, so a send that fills the kernel's buffers
    must drain them into the peer itself. The buffers shrink to 4 KiB before
    the connection is made, so its window is small too; dimtest N=3072 w=8
    has 42 KB Keys frames. The link's sockets block, so each of these sends
    must ask the kernel not to wait."""
    def small(sock):
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF):
            sock.setsockopt(socket.SOL_SOCKET, option, 4096)
        return sock

    def create_connection(address):
        sock = small(socket.socket())
        sock.connect(address)
        return sock

    send, partial = socket.socket.send, []

    def counting(sock, data, *flags):
        assert sock.gettimeout() is None and flags == (socket.MSG_DONTWAIT,)
        sent = send(sock, data, *flags)
        partial.append(sent < len(data))
        return sent

    create_server = socket.create_server
    monkeypatch.setattr(socket, "create_server", lambda *a, **k: small(create_server(*a, **k)))
    monkeypatch.setattr(socket, "create_connection", create_connection)
    monkeypatch.setattr(socket.socket, "send", counting)
    config = DimTestConfig(N=3072, entcf=entcf.EntcfParams.ideal(8))
    inproc = harness.run_sessions("dimtest", "classical", config, 6, seed=3)
    start = time.perf_counter()
    tcp = harness.run_sessions("dimtest", "classical", config, 6, seed=3, transport_spec="tcp")
    assert time.perf_counter() - start < 5.0
    assert tcp[1] == inproc[1] and "transport" not in tcp[0]["reasons"]
    assert any(partial)  # the frames did not fit in one send


def test_tcp_run_starts_no_thread(monkeypatch):
    def refuse(thread):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    stats, transcripts = harness.run_sessions("selftest", "honest", CFG, 5, seed=6, transport_spec="tcp")
    assert stats["sessions"] == 5 and "transport" not in stats["reasons"]
    assert transcripts == harness.run_sessions("selftest", "honest", CFG, 5, seed=6)[1]
    assert not {"threading", "queue"} & set(vars(harness))


@pytest.mark.parametrize("transport", ["inproc", "tcp"])
def test_prover_error_aborts_the_batch_on_both_transports(capsys, monkeypatch, transport):
    def refuse(self, keys):
        raise DomainError("the device refuses its keys")

    monkeypatch.setattr(prover.HonestProver, "on_keys", refuse)
    argv = ["selftest", "run", "--prover", "honest", "--sessions", "2", "--transport", transport]
    start = time.perf_counter()
    assert cli.main(argv) == 1
    # the prover closes its socket, so no session waits out the 10 s timeout
    assert time.perf_counter() - start < 5.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: the device refuses its keys"]


def test_gamma_bounds_only_in_selftest_stats():
    selftest_stats, _ = harness.run_sessions("selftest", "honest", CFG, 10, seed=3)
    assert set(selftest_stats["gamma_bounds"]) == {
        "gamma_P", "gamma_T0", "gamma_T1", "gamma_T", "gamma_diamond"
    }
    dimtest_stats, _ = harness.run_sessions("dimtest", "honest", DCFG, 10, seed=3)
    assert "gamma_bounds" not in dimtest_stats


def test_run_gamma_bounds_are_the_analysis_bounds_bit_for_bit():
    """A self-test run's Monte Carlo gamma bounds are, bit for bit, the
    right-hand sides the exact inequality suite gives for the run's eps_P,
    eps_H and eps: the two workloads read one bound table."""
    config = SelfTestConfig(N=2, entcf=entcf.EntcfParams.ideal(2))
    stats, _ = harness.run_sessions("selftest", "bitflip=0.2", config, 200, seed=5)
    failures = {
        "eps_P": stats["eps_P"], "eps_H": {int(q): e for q, e in stats["eps_H"].items()}, "eps": stats["eps"]
    }
    assert all(e > 0.0 for e in failures["eps_H"].values())
    gammas = collections.defaultdict(float)  # the left-hand sides play no part here
    rhs = {c["name"]: c["rhs"] for c in analysis.check_gamma_bounds(gammas, failures, config.N)}
    check_of = {
        "gamma_P": "gamma_P <= (2N+2) eps_P",
        "gamma_T0": "gamma_T0 <= (2N+2) eps_H0",
        "gamma_T1": "gamma_T1 <= (2N+2) eps_H1",
        "gamma_T": "gamma_T <= 8(2N+2) eps",
        "gamma_diamond": "gamma_diamond <= 8(2N+2) eps",
    }
    assert {key: bound.hex() for key, bound in stats["gamma_bounds"].items()} == {
        key: rhs[check].hex() for key, check in check_of.items()
    }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_dimtest_run(capsys, tmp_path):
    code = cli.main(
        [
            "dimtest",
            "run",
            "--n",
            "2",
            "--w",
            "4",
            "--prover",
            "honest",
            "--sessions",
            "100",
            "--seed",
            "42",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["acceptance_rate"] >= 0.9
    assert (tmp_path / "stats.json").exists()


def test_cli_analyze_honest(capsys):
    assert cli.main(["analyze", "--n", "1", "--w", "2", "--model", "honest"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["gammas"]["gamma_P"] <= 1e-12
    assert report["all_ok"]


def test_cli_parser_is_built_once_and_keeps_each_commands_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "_analyze_command", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "_run_command", lambda args: seen.append(vars(args)) or 0)
    assert cli.main(["analyze", "--n", "3", "--seed", "5"]) == 0
    assert cli.main(["selftest", "run", "--sessions", "7"]) == 0
    assert cli.main(["analyze"]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert seen[0] == {
        "command": "analyze", "n": 3, "w": 2, "model": "honest",
        "protocol": "selftest", "seed": 5, "report": None,
    }
    assert seen[1] == {
        "command": "selftest", "action": "run", "n": 2, "w": 4, "backend": "ideal",
        "prover": "honest", "sessions": 7, "seed": 0, "transport": "inproc", "out": None,
    }
    assert seen[2] == dict(seen[0], n=1, seed=0)


def test_cli_analyze_rejects_w1(capsys):
    assert cli.main(["analyze", "--n", "1", "--w", "1", "--model", "honest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["selftest", "run", "--prover", "bitflip=abc", "--sessions", "2"],
        ["selftest", "run", "--prover", "bitflipx", "--sessions", "2"],
        ["selftest", "run", "--transport", "tcp:abc", "--sessions", "2"],
        ["analyze", "--model", "bitflip=abc"],
        ["analyze", "--model", "random=x"],
        ["analyze", "--model", "random=-1"],
        ["analyze", "--model", "random=3"],
        ["analyze", "--protocol", "dimtest", "--model", "bitflip=0.1"],
        ["entcf-check", "--keys", "0"],
        ["entcf-check", "--keys", "-1"],
    ],
)
def test_cli_bad_spec_is_one_error_line(capsys, argv):
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize(
    "spec", ["bitflip", "bitflip=", "bitflip=abc", "bitflip=1.5", "bitflipx", "honest-fullsim"]
)
def test_cli_device_spec_is_refused_by_both_workloads(capsys, spec):
    """A run's --prover and analyze's --model read one grammar, name[=p]:
    each refuses the same malformed bitflip spec, and a device neither
    knows, with one error line."""
    for argv in (["selftest", "run", "--prover", spec, "--sessions", "2"], ["analyze", "--model", spec]):
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), argv


def test_cli_analyze_dimtest_n2_certifies_dimension_4(capsys):
    argv = ["analyze", "--protocol", "dimtest", "--n", "2", "--w", "2", "--model", "honest"]
    assert cli.main(argv) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified_dimension"] == pytest.approx(4.0, abs=1e-9)
    assert cert["rank_ok"]


def test_cli_analyze_dimtest_n3_certifies_dimension_8(capsys):
    argv = ["analyze", "--protocol", "dimtest", "--n", "3", "--w", "2", "--model", "honest"]
    assert cli.main(argv) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified_dimension"] == pytest.approx(8.0, abs=1e-6)
    assert cert["rank_ok"]


def test_cli_analyze_dimtest_w10_certifies_dimension_2(capsys):
    # 2^11 images per coordinate, each with one or two outcomes
    argv = ["analyze", "--protocol", "dimtest", "--n", "1", "--w", "10", "--model", "honest"]
    assert cli.main(argv) == 0
    cert = json.loads(capsys.readouterr().out)["certificate"]
    assert cert["certified_dimension"] == pytest.approx(2.0, abs=1e-9)
    assert cert["rank_ok"]


def test_cli_analyze_bitflip_n2_is_all_ok(capsys):
    # dim 16 * 16 = 256: V has 2^20 entries, inside the budget
    assert cli.main(["analyze", "--n", "2", "--w", "2", "--model", "bitflip=0.1", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["all_ok"]


def _never_built(*args, **kwargs):
    raise AssertionError("a model was built before its checks")


def test_cli_analyze_over_budget_is_one_error_line(capsys, monkeypatch):
    monkeypatch.setattr(entcf, "gen_keypair", _never_built)
    for argv in (
        # selftest bitflip at N=3 w=2: V has 2^6 * (2^6 * 2^6)^2 = 2^30 entries
        ["--n", "3", "--w", "2", "--model", "bitflip=0.1"],
        # dimtest honest at N=1 w=17: past check_scan's cap, each coordinate
        # would hold a 2^18-entry key table and its inverse
        ["--protocol", "dimtest", "--n", "1", "--w", "17", "--model", "honest"],
        # selftest random at N=5: V has 2^10 * (2^10)^2 = 2^30 entries
        ["--n", "5", "--model", "random"],
        # selftest random at N=4: V has 2^24 entries, but the model caches
        # 15 projector stacks of 2^8 * (2^8)^2 entries each
        ["--n", "4", "--model", "random"],
        # dimtest classical at N=9: V has 2^9 * (2^9)^2 = 2^27 entries
        ["--protocol", "dimtest", "--n", "9", "--model", "classical"],
    ):
        assert cli.main(["analyze"] + argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in captured.err


# N=3 w=2 is over budget at any p; 1.5 is no probability, even where N=1 fits
@pytest.mark.parametrize("n,p", [("3", "0.1"), ("1", "1.5")])
def test_cli_analyze_bitflip_refuses_before_building(capsys, monkeypatch, n, p):
    monkeypatch.setattr(analysis, "build_honest_model", _never_built)
    assert cli.main(["analyze", "--n", n, "--w", "2", "--model", f"bitflip={p}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("where", ["missing-directory", "a-directory", "read-only-directory"])
def test_cli_analyze_unwritable_report_fails_before_building(capsys, monkeypatch, tmp_path, where):
    monkeypatch.setattr(analysis, "build_honest_model", _never_built)
    report = tmp_path / "nowhere" / "x.json" if where == "missing-directory" else tmp_path
    if where == "read-only-directory":
        # a superuser may write any directory, so os.access is made to deny this one
        monkeypatch.setattr(cli.os, "access", lambda path, mode: not (path == str(tmp_path) and mode & os.W_OK))
        report = tmp_path / "x.json"
    assert cli.main(["analyze", "--n", "1", "--w", "2", "--report", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "nowhere").exists()


def test_cli_run_out_on_a_file_fails_before_any_session(capsys, monkeypatch, tmp_path):
    def never_run(*args, **kwargs):
        raise AssertionError("a session ran before the output directory was made")

    monkeypatch.setattr(harness, "run_one_session", never_run)
    taken = tmp_path / "taken"
    taken.write_text("keep")
    assert cli.main(["selftest", "run", "--sessions", "3", "--out", str(taken)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert taken.read_text() == "keep"


@pytest.mark.parametrize(
    "flags",
    [["--prover", "nosuch"], ["--w", "31"], ["--transport", "tcp:{busy}"]],
    ids=["unknown-prover", "w-past-the-cap", "busy-port"],
)
def test_cli_refused_run_makes_no_out_directory(tmp_path, capsys, flags):
    """A run refused for its device spec, for a w past the 2^30 cap or for a
    busy TCP port exits 1 with one error line and leaves no output
    directory, nor its parent."""
    out = tmp_path / "runs" / "out"
    with socket.create_server(("127.0.0.1", 0)) as listener:
        flags = [flag.format(busy=listener.getsockname()[1]) for flag in flags]
        assert cli.main(["selftest", "run", *flags, "--sessions", "2", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("spec", ["honest", "classical", "bitflip=0.1", "wrongbasis"])
def test_cli_run_past_the_scan_cap_is_refused_before_any_key(capsys, monkeypatch, kind, spec):
    """An ideal run at w=31, whose image space the u32 image field cannot
    hold, is refused by the check of the 2^30 cap before any key is drawn,
    for every device and on both transports."""
    monkeypatch.setattr(entcf, "_gen_ideal", _never_built)
    for transport_spec in ("inproc", "tcp"):
        argv = [kind, "run", "--w", "31", "--prover", spec, "--sessions", "2", "--transport", transport_spec]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "2^30" in lines[0], argv


def test_cli_toylwe_run_past_the_scan_cap_is_refused_before_any_key(capsys, monkeypatch, tmp_path):
    """A toylwe run at w=17 is refused by the check of its 2^16 scan cap
    before any key is drawn, and leaves no output directory."""
    monkeypatch.setattr(entcf, "_gen_toylwe", _never_built)
    for kind in KINDS:
        argv = [kind, "run", "--backend", "toylwe", "--w", "17", "--sessions", "2", "--out", str(tmp_path / kind)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert captured.out == "" and len(lines) == 1 and "2^16" in lines[0], argv
        assert not (tmp_path / kind).exists()


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("command", ["selftest", "dimtest", "entcf-check"])
def test_cli_toylwe_below_w_4_is_one_error_line(capsys, monkeypatch, tmp_path, command, w):
    """At the CLI's n=1, m=3, B=1, toylwe has no parameters below w=2 and no
    G key at w=3, so --w < 4 is refused naming both flags, before any key."""
    monkeypatch.setattr(entcf, "gen_keypair", _never_built)
    flags = ["--backend", "toylwe", "--w", str(w)]
    argv = [command, *flags, "--keys", "1"] if command == "entcf-check" else [command, "run", *flags]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)] * (command != "entcf-check")) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:")
    assert "--backend toylwe" in lines[0] and "--w >= 4" in lines[0]
    assert not out.exists()


@pytest.mark.parametrize("backend", ["ideal", "toylwe"])
def test_cli_entcf_check_past_2_to_the_16_is_one_error_line(capsys, monkeypatch, backend):
    """The exhaustive checks visit every x, so entcf-check keeps the 2^16 cap
    on |X| for ideal keys too, which no longer scan X themselves."""
    monkeypatch.setattr(entcf, "gen_keypair", _never_built)
    assert cli.main(["entcf-check", "--backend", backend, "--w", "17", "--keys", "1"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.strip().splitlines()
    assert captured.out == "" and len(lines) == 1 and lines[0].startswith("error:") and "2^16" in lines[0]


@pytest.mark.parametrize("transport_spec", ["inproc", "tcp"])
def test_runs_at_the_ideal_cap_replay(transport_spec):
    """A w=30 self-test run, whose images fill most of the u32 field, runs
    and passes its replay audit on either transport."""
    config = SelfTestConfig(N=2, entcf=entcf.EntcfParams.ideal(30))
    stats, transcripts = harness.run_sessions("selftest", "honest", config, 20, seed=5, transport_spec=transport_spec)
    assert stats["sessions"] == 20 and stats["acceptance_rate"] == 1.0
    assert harness.replay_audit(transcripts, "selftest", config, 5)


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "selftestsim", "entcf-check", "--w", "2", "--keys", "1"]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("entcf-check: OK")


def test_run_commands_import_neither_analysis_nor_qsim():
    """The run path compiles and loads no analysis or state-vector engine,
    also while it runs sessions of every prover on both transports; the
    package still hands them out on first use."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, itertools, sys, selftestsim.cli, selftestsim.harness\n"
        "specs = ('honest', 'classical', 'bitflip=0.1', 'wrongbasis')\n"
        "for kind, spec, link in itertools.product(('selftest', 'dimtest'), specs, ('inproc', 'tcp')):\n"
        "    argv = [kind, 'run', '--sessions', '2', '--prover', spec, '--transport', link]\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert selftestsim.cli.main(argv) == 0, argv\n"
        "print(sorted({'selftestsim.analysis', 'selftestsim.qsim'} & set(sys.modules)))\n"
        "import selftestsim\n"
        "print(selftestsim.analysis.__name__, selftestsim.qsim.__name__)"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "selftestsim.analysis selftestsim.qsim"]


def test_cli_memory_error_is_one_error_line(capsys, monkeypatch):
    def out_of_memory(model, rng):
        raise MemoryError("Unable to allocate 4.88 GiB")

    monkeypatch.setattr(analysis, "analysis_report", out_of_memory)
    assert cli.main(["analyze", "--n", "1", "--w", "2", "--model", "honest"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_entcf_check(capsys):
    assert cli.main(["entcf-check", "--backend", "ideal", "--w", "2", "--keys", "2"]) == 0


def test_cli_usage_error():
    assert cli.main(["bogus-command"]) == 2
    assert cli.main(["selftest", "run", "--unknown-flag"]) == 2


@pytest.mark.parametrize("env,flag", [("abc", None), ("-3", None), (None, "-1")], ids=["env-abc", "env-neg", "flag-neg"])
@pytest.mark.parametrize(
    "command",
    [["selftest", "run", "--sessions", "2"], ["analyze"], ["entcf-check", "--keys", "1"]],
    ids=["run", "analyze", "entcf-check"],
)
def test_cli_bad_seed_is_one_error_line(capsys, monkeypatch, command, env, flag):
    if env is None:
        monkeypatch.delenv("SELFTEST_SEED", raising=False)
    else:
        monkeypatch.setenv("SELFTEST_SEED", env)
    assert cli.main(command + ([] if flag is None else ["--seed", flag])) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_cli_entcf_check_reads_seed_env(monkeypatch):
    seeds = []
    monkeypatch.setattr(cli, "entcf_property_suite", lambda backend, w, seed, n_keys: seeds.append(seed) or [])
    monkeypatch.setenv("SELFTEST_SEED", "5")
    assert cli.main(["entcf-check", "--seed", "1"]) == 0
    assert seeds == [5]


def test_cli_seed_env_override(capsys, monkeypatch, tmp_path):
    args = ["dimtest", "run", "--n", "1", "--w", "2", "--sessions", "30", "--seed", "1"]
    monkeypatch.setenv("SELFTEST_SEED", "99")
    cli.main(args + ["--out", str(tmp_path / "a")])
    monkeypatch.delenv("SELFTEST_SEED")
    cli.main(args + ["--out", str(tmp_path / "b")])
    cli.main(["dimtest", "run", "--n", "1", "--w", "2", "--sessions", "30", "--seed", "99", "--out", str(tmp_path / "c")])
    a = (tmp_path / "a" / "transcripts.jsonl").read_bytes()
    b = (tmp_path / "b" / "transcripts.jsonl").read_bytes()
    c = (tmp_path / "c" / "transcripts.jsonl").read_bytes()
    assert a == c and a != b
