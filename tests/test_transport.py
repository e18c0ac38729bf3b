"""Wire codec and channel tests."""
import contextlib
import copy
import dataclasses
import json
import pickle
import signal
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from selftestsim import entcf, harness, protocol, transport
from selftestsim.errors import TransportError

import test_fuzz

PARAMS = entcf.EntcfParams.ideal(2)
CODEC = transport.Codec(PARAMS)
SID = bytes(range(16))


def sample_key():
    rng = np.random.default_rng(0)
    key, _ = entcf.gen_keypair(entcf.FAMILY_F, PARAMS, rng)
    return key


ALL_MESSAGES = [
    protocol.Keys(keys=(sample_key(), sample_key())),
    protocol.Images(y=(3, 7)),
    protocol.RoundType(kind=protocol.PREIMAGE),
    protocol.RoundType(kind=protocol.HADAMARD),
    protocol.PreimageAnswer(b=(0, 1), x=(2, 3)),
    protocol.HadamardD(d=(0, 3)),
    protocol.Question(q=2),
    protocol.FinalAnswer(v=(1, 0)),
    protocol.Verdict(accept=0, reason="A.q1.equation.bot"),
]


@pytest.mark.parametrize("msg", ALL_MESSAGES, ids=lambda m: type(m).__name__)
def test_frame_roundtrip_every_variant(msg):
    frame = CODEC.encode_frame(SID, msg)
    sid, back, payload = CODEC.decode_frame(frame)
    assert sid == SID
    # the payload travels with the frame and comes back from the JSON as built
    assert payload == frame.payload == CODEC.to_payload(msg)
    assert back == msg  # an ideal key is its integers, so keys compare too


TOYLWE = entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1)
# P(z) = (7z + 3) mod 10 with claw shift 2; its table is [[3, 0, 7, 4], [7, 4, 3, 0]]
IDEAL_KEY = entcf.PublicKey(params=PARAMS, a=7, c=3, mask=2)
TOYLWE_KEY = entcf.PublicKey(params=TOYLWE, A=np.array([[1], [2], [3]]), u=np.array([4, 5, 6]))

# (parameters, message, the payload it travels as): one message of each type,
# and keys and images of both backends
WIRE = [
    # an ideal key is [a, c, mask]; a toylwe key is A row by row, then u
    (PARAMS, protocol.Keys(keys=(IDEAL_KEY,)), {"keys": [[7, 3, 2]]}),
    (TOYLWE, protocol.Keys(keys=(TOYLWE_KEY,)), {"keys": [[1, 2, 3, 4, 5, 6]]}),
    (PARAMS, protocol.Images(y=(3, 2**32 - 1)), {"y": [3, 4294967295]}),
    (TOYLWE, protocol.Images(y=((1, 15, 0), (2, 3, 4))), {"y": [[1, 15, 0], [2, 3, 4]]}),
    (PARAMS, protocol.RoundType(kind=protocol.HADAMARD), {"kind": "hadamard"}),
    (PARAMS, protocol.PreimageAnswer(b=(0, 1), x=(3, 0)), {"b": [0, 1], "x": [3, 0]}),
    (PARAMS, protocol.HadamardD(d=(2, 1)), {"d": [2, 1]}),
    (PARAMS, protocol.Question(q=3), {"q": 3}),
    (PARAMS, protocol.FinalAnswer(v=(1, 0)), {"v": [1, 0]}),
    (PARAMS, protocol.Verdict(accept=0, reason="B.q2.bell"), {"accept": 0, "reason": "B.q2.bell"}),
]


@pytest.mark.parametrize(
    "params, msg, payload", WIRE, ids=[f"{params.backend}-{type(msg).__name__}" for params, msg, _ in WIRE]
)
def test_wire_payload_of_every_message(params, msg, payload):
    codec = transport.Codec(params)
    assert codec.to_payload(msg) == payload
    back = codec.from_payload(type(msg), payload)
    if isinstance(msg, protocol.Keys):
        for a, b in zip(msg.keys, back.keys, strict=True):
            assert a.params == b.params
            assert all(np.array_equal(getattr(a, f), getattr(b, f)) for f in ("a", "c", "mask", "A", "u"))
    else:
        assert back == msg


def test_fields_name_every_message_and_its_dataclass_fields():
    # the type bytes are the 1-based positions in this order
    assert protocol.MESSAGE_TYPES == tuple(protocol.FIELDS) == (
        protocol.Keys, protocol.Images, protocol.RoundType, protocol.PreimageAnswer,
        protocol.HadamardD, protocol.Question, protocol.FinalAnswer, protocol.Verdict,
    )
    kinds = {"bit", "wbits", "image", "key", "int", "str"}
    for cls, fields in protocol.FIELDS.items():
        assert [name for name, _ in fields] == [f.name for f in dataclasses.fields(cls)]
        assert {kind for _, kind in fields} <= kinds
        # each class built from FIELDS is a frozen dataclass of protocol:
        # immutable, picklable, copyable and hashable, with the dataclass repr
        assert cls.__module__ == "selftestsim.protocol"
        msg = cls(*(7 for _ in fields))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(msg, fields[0][0], 8)
        assert pickle.loads(pickle.dumps(msg)) == msg
        assert copy.deepcopy(msg) == msg and hash(copy.deepcopy(msg)) == hash(msg)
        assert repr(msg) == f"{cls.__name__}({', '.join(f'{name}=7' for name, _ in fields)})"
    # equality compares the class, not only the values
    assert protocol.Images(y=(3,)) != protocol.FinalAnswer(v=(3,))
    assert protocol.Question(q=1) != protocol.RoundType(kind=1)


@given(
    b=st.lists(st.integers(0, 1), min_size=1, max_size=6),
    x=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    d=st.lists(st.integers(0, 3), min_size=1, max_size=6),
    q=st.integers(0, 3),
    reason=st.text(max_size=40),
)
@settings(max_examples=100, deadline=None)
def test_codec_totality(b, x, d, q, reason):
    for msg in (
        protocol.PreimageAnswer(b=tuple(b), x=tuple(x)),
        protocol.HadamardD(d=tuple(d)),
        protocol.Question(q=q),
        protocol.FinalAnswer(v=tuple(b)),
        protocol.Verdict(accept=1, reason=reason),
    ):
        _, back, _ = CODEC.decode_frame(CODEC.encode_frame(SID, msg))
        assert back == msg


def test_toylwe_image_roundtrip():
    params = entcf.EntcfParams.toylwe(n=1, m=2, q=8, B=1)
    codec = transport.Codec(params)
    msg = protocol.Images(y=((1, 7), (0, 3)))
    _, back, _ = codec.decode_frame(codec.encode_frame(SID, msg))
    assert back == msg


@pytest.mark.parametrize("y", [-1, 2**32])
def test_encode_y_out_of_range_is_a_transport_error(y):
    with pytest.raises(TransportError):
        CODEC.to_payload(protocol.Images(y=(y,)))
    with pytest.raises(TransportError):
        transport.Codec(entcf.EntcfParams.toylwe(n=1, m=2, q=8, B=1)).to_payload(protocol.Images(y=((0, y),)))
    with pytest.raises(TransportError):
        CODEC.encode_frame(SID, protocol.Images(y=(3, y)))


def _messages(cls, params):
    """Messages of class cls under params, with every value the encoder can
    take: any int (or bool) where ints go, any text where strings go."""
    ints = st.integers() | st.booleans()
    int_lists = st.lists(ints, max_size=4).map(tuple)
    u32 = st.integers(0, 2**32 - 1)
    image = u32 if params.backend == "ideal" else st.tuples(*[u32] * params.m)
    family = st.sampled_from([entcf.FAMILY_F, entcf.FAMILY_G])
    key = st.builds(lambda f, seed: entcf.gen_keypair(f, params, np.random.default_rng(seed))[0], family, u32)
    return {
        protocol.Keys: st.builds(protocol.Keys, st.lists(key, max_size=3).map(tuple)),
        protocol.Images: st.builds(protocol.Images, st.lists(image, max_size=4).map(tuple)),
        protocol.RoundType: st.builds(protocol.RoundType, st.text()),
        protocol.PreimageAnswer: st.builds(protocol.PreimageAnswer, int_lists, int_lists),
        protocol.HadamardD: st.builds(protocol.HadamardD, int_lists),
        protocol.Question: st.builds(protocol.Question, ints),
        protocol.FinalAnswer: st.builds(protocol.FinalAnswer, int_lists),
        protocol.Verdict: st.builds(protocol.Verdict, ints, st.text()),
    }[cls]


@pytest.mark.parametrize("params", [entcf.EntcfParams.ideal(3), TOYLWE], ids=["ideal", "toylwe"])
@pytest.mark.parametrize("cls", protocol.MESSAGE_TYPES, ids=lambda cls: cls.__name__)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_frame_json_is_the_json_encoding_of_the_payload(params, cls, data):
    """The frame's JSON, written field by field, is byte for byte what the
    json module makes of the payload: quotes, control characters and
    non-ASCII text in strings included."""
    codec = transport.Codec(params)
    msg = data.draw(_messages(cls, params))
    frame = codec.encode_frame(SID, msg)
    expected = transport._CANONICAL_JSON.encode(codec.to_payload(msg)).encode("utf-8")
    assert frame[4 + transport._HEADER :] == expected


def _frame(cls, payload) -> bytes:
    body = bytes([transport.VERSION, *SID, transport._TYPE_BYTES[cls]]) + json.dumps(payload).encode()
    return struct.pack(">I", len(body)) + body


IDEAL_KEY_NUMBERS = WIRE[0][2]["keys"][0]
# the same key's hex in the former layout: a 7-byte head, then a, c and mask as u32s
IDEAL_KEY_HEX = "0100020000000a" "00000007" "00000003" "00000002"


@pytest.mark.parametrize(
    "cls, payload",
    [
        (protocol.FinalAnswer, {"v": [1.9, True]}),
        (protocol.FinalAnswer, {"v": {"1": 0, "0": 1}}),
        (protocol.Images, {"y": ["00 00 00 1F"]}),
        (protocol.Question, {"q": "2"}),
        (protocol.Question, {"q": True}),
        (protocol.Question, {"q": 2.0}),
        (protocol.Images, {"y": ["0000001F"]}),
        (protocol.Images, {"y": "00000003"}),
        (protocol.Images, {"y": ["000003"]}),
        (protocol.PreimageAnswer, {"b": [0], "x": [False]}),
        (protocol.PreimageAnswer, {"b": "01", "x": [2, 3]}),
        (protocol.PreimageAnswer, {"b": [0, 1], "x": [2.5, "3"]}),
        (protocol.HadamardD, {"d": [None]}),
        (protocol.RoundType, {"kind": ["preimage"]}),
        (protocol.Verdict, {"accept": 1, "reason": 7}),
        (protocol.Keys, {"keys": [IDEAL_KEY_HEX]}),
        (protocol.Keys, {"keys": [[str(number) for number in IDEAL_KEY_NUMBERS]]}),
    ],
)
def test_values_of_another_json_type_or_hex_do_not_decode(cls, payload):
    """Each value must be of its kind's JSON type: an int (no bool, no float),
    an array or a string; a key or an image is numbers, so no hex decodes."""
    with pytest.raises(TransportError):
        CODEC.from_payload(cls, payload)
    with pytest.raises(TransportError):
        CODEC.decode_frame(_frame(cls, payload))


@pytest.mark.parametrize(
    "cls, body",
    [
        (protocol.Question, b'{"junk":[1],"q":2}'),
        (protocol.Question, b'{"q": 2}'),
        (protocol.PreimageAnswer, b'{"x":[2,3],"b":[0,1]}'),
        (protocol.Question, b'{"q":1,"q":2}'),
        (protocol.RoundType, b'{"kind":"\\u0070reimage"}'),
    ],
    ids=["extra-key", "spacing", "key-order", "duplicate-key", "escape"],
)
def test_a_frame_whose_json_is_not_the_canonical_text_does_not_decode(cls, body):
    """Each value decodes, but the frame's JSON is not the one text its message
    is written as, so a device cannot send one answer as many byte strings."""
    msg = CODEC.from_payload(cls, json.loads(body))
    with pytest.raises(TransportError):
        CODEC.decode_frame(test_fuzz._frame(transport._TYPE_BYTES[cls], body))
    assert CODEC.decode_frame(CODEC.encode_frame(SID, msg))[1] == msg


@st.composite
def _candidate_frames(draw, backend: str) -> bytes:
    """Frames near the wire's: an honest session's frame as sent, its payload
    written again with other json.dumps options, or with bytes changed; or a
    structurally right payload with junk values."""
    if draw(st.booleans()):
        cls = draw(st.sampled_from(protocol.MESSAGE_TYPES))
        payload = draw(test_fuzz.shaped_payloads)
    else:
        frames = [f for _, _, session in test_fuzz.SESSIONS[backend] for f in session]
        frame = draw(st.sampled_from(frames))
        how = draw(st.sampled_from(["as sent", "rewritten", "mutated"]))
        if how == "as sent":
            return frame
        body = bytearray(frame[4 + transport._HEADER :])
        cls = transport._TYPE_CLASSES[frame[4 + transport._HEADER - 1]]
        if how == "mutated":
            for _ in range(draw(st.integers(1, 3))):
                body[draw(st.integers(0, len(body) - 1))] = draw(st.sampled_from(b'0aA9 ,:"[]{}\\'))
            return test_fuzz._frame(transport._TYPE_BYTES[cls], bytes(body))
        payload = json.loads(body)
    separators = draw(st.sampled_from([(",", ":"), (", ", ": "), (",", ": ")]))
    text = json.dumps(payload, sort_keys=draw(st.booleans()), separators=separators)
    return test_fuzz._frame(transport._TYPE_BYTES[cls], text.encode())


@settings(max_examples=300, deadline=None)
@given(backend=st.sampled_from(sorted(test_fuzz.BACKENDS)), data=st.data())
def test_every_frame_that_decodes_is_the_encoding_of_its_message(backend, data):
    codec = transport.Codec(test_fuzz.BACKENDS[backend])
    frame = data.draw(_candidate_frames(backend))
    try:
        sid, msg, _ = codec.decode_frame(frame)
    except TransportError:
        return
    assert codec.encode_frame(sid, msg) == frame


# toylwe keys at n=1, m=3 in the former hex layout: A carried m*n = 3 entries and u m = 3
TOYLWE_HEAD = "01010400010003000000100001" + "0000000d0000000a00000008"


@pytest.mark.parametrize(
    "key_hex",
    [
        "01",
        "0109",
        "010000",
        TOYLWE_HEAD + "000000040000000800000000" + "00000005",  # u with 4 entries
        TOYLWE_HEAD + "0000000400000008",  # u with 2 entries
    ],
)
def test_unparsable_key_is_a_transport_error(key_hex):
    """Hex of the former key layout, a string, is no key: a key is numbers."""
    with pytest.raises(TransportError):
        CODEC.decode_frame(_frame(protocol.Keys, {"keys": [key_hex]}))


# numbers of the wrong JSON type, or not canonical, or out of [0, 2^32)
_JUNK_NUMBERS = {
    "bool": b"true", "1.0": b"1.0", "1e0": b"1e0", "-0": b"-0", "-1": b"-1", "2^32": b"4294967296",
}
# w = 2: M = 10, so a unit a is odd and not 5, and a mask lies in [1, 8)
_BAD_IDEAL_KEYS = {
    "key-2-numbers": b"[7,3]", "key-4-numbers": b"[7,3,2,0]", "key-a=5": b"[5,3,2]", "key-a-even": b"[4,3,2]",
    "key-c=M": b"[7,10,2]", "key-mask=0": b"[7,3,0]", "key-mask=2^(w+1)": b"[7,3,8]",
}


@pytest.mark.parametrize(
    "cls, body",
    [
        *[(protocol.Images, b'{"y":[3,%s]}' % number) for number in _JUNK_NUMBERS.values()],
        *[(protocol.Keys, b'{"keys":[[7,%s,2]]}' % number) for number in _JUNK_NUMBERS.values()],
        *[(protocol.Keys, b'{"keys":[%s]}' % key) for key in _BAD_IDEAL_KEYS.values()],
    ],
    ids=[*[f"image-{n}" for n in _JUNK_NUMBERS], *[f"key-{n}" for n in _JUNK_NUMBERS], *_BAD_IDEAL_KEYS],
)
def test_numbers_out_of_their_type_or_range_do_not_decode(cls, body):
    """An image or key number is an int in its range, as one canonical text:
    no bool, float, exponent, -0 or number out of range, and a key of
    exactly three numbers with a unit a, c < M and mask in [1, 2^(w+1))."""
    with pytest.raises(TransportError):
        CODEC.decode_frame(test_fuzz._frame(transport._TYPE_BYTES[cls], body))
    if b"-0" not in body:  # -0 reads as 0: only the canonical-text check refuses it
        with pytest.raises(TransportError):
            CODEC.from_payload(cls, json.loads(body))


@pytest.mark.parametrize(
    "body",
    [
        b'{"y":[[1,2]]}',
        b'{"y":[[1,2,3,4]]}',
        b'{"y":[1]}',
        b'{"y":[[1,2,true]]}',
        b'{"keys":[[1,2,3,4,5,16]]}',
        b'{"keys":[[16,2,3,4,5,6]]}',
        b'{"keys":[[1,2,3,4,5]]}',
        b'{"keys":[[1,2,3,4,5,6,7]]}',
    ],
    ids=["image-m-1", "image-m+1", "image-int", "image-bool", "key-u=q", "key-A=q", "key-short", "key-long"],
)
def test_toylwe_numbers_out_of_their_count_or_range_do_not_decode(body):
    """A toylwe image is a list of m ints in [0, 2^32); a key is m*n + m
    entries in [0, q), A row by row, then u."""
    cls = protocol.Keys if body.startswith(b'{"keys"') else protocol.Images
    codec, frame = transport.Codec(TOYLWE), test_fuzz._frame(transport._TYPE_BYTES[cls], body)
    with pytest.raises(TransportError):
        codec.decode_frame(frame)


@pytest.mark.parametrize("body", [b"[" * 100_000, b"7" * 5_000, b'{"q": Infinity}'])
def test_hostile_json_is_a_transport_error(body):
    frame = bytes([transport.VERSION]) + SID + bytes([6]) + body
    with pytest.raises(TransportError):
        CODEC.decode_frame(struct.pack(">I", len(frame)) + frame)


def test_truncated_frame_rejected():
    frame = CODEC.encode_frame(SID, protocol.Question(q=1))
    with pytest.raises(TransportError):
        CODEC.decode_frame(frame[:-2])
    with pytest.raises(TransportError):
        CODEC.decode_frame(frame[:3])


def test_unknown_version_rejected():
    frame = bytearray(CODEC.encode_frame(SID, protocol.Question(q=1)))
    frame[4] = 0x02
    with pytest.raises(TransportError):
        CODEC.decode_frame(bytes(frame))


def test_unknown_type_byte_rejected():
    frame = bytearray(CODEC.encode_frame(SID, protocol.Question(q=1)))
    frame[4 + 17] = 0xEE
    with pytest.raises(TransportError):
        CODEC.decode_frame(bytes(frame))


def test_frame_layout_byte_for_byte():
    """A 4-byte big-endian length, the version, the session id, the type byte,
    then the canonical JSON."""
    assert CODEC.encode_frame(bytes(range(16)), protocol.Question(q=1)) == (
        bytes.fromhex("00000019" "01" "000102030405060708090a0b0c0d0e0f" "06") + b'{"q":1}'
    )
    frame = CODEC.encode_frame(SID, protocol.Keys(keys=(IDEAL_KEY,)))
    keys = ",".join(map(str, IDEAL_KEY_NUMBERS)).encode()
    assert frame == bytes.fromhex("00000024" "01") + SID + b'\x01{"keys":[[' + keys + b"]]}"


def test_bad_session_id_length():
    with pytest.raises(TransportError):
        CODEC.encode_frame(b"\x00" * 4, protocol.Question(q=1))


def _same_message(a, b) -> bool:
    # toylwe keys hold numpy arrays, so keys compare through their canonical payload
    if isinstance(a, protocol.Keys):
        return type(b) is protocol.Keys and CODEC.to_payload(a) == CODEC.to_payload(b)
    return type(a) is type(b) and a == b


@pytest.mark.parametrize(
    "protocol_kind, config",
    [
        ("selftest", protocol.SelfTestConfig(N=1, entcf=PARAMS)),
        ("selftest", protocol.SelfTestConfig(N=1, entcf=entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1))),
        ("dimtest", protocol.DimTestConfig(N=2, entcf=entcf.EntcfParams.ideal(4))),
        ("dimtest", protocol.DimTestConfig(N=2, entcf=entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1))),
    ],
    ids=["selftest-ideal", "selftest-toylwe", "dimtest-ideal", "dimtest-toylwe"],
)
def test_inproc_link_hands_over_what_a_frame_carries(monkeypatch, protocol_kind, config):
    """Every message the in-process link hands to either side, and the payload
    recorded for it, is what a TCP peer decodes from that message's frame."""
    handed = []  # (sent message, payload, message handed to the other side)
    to_payload, from_payload = transport.Codec.to_payload, transport.Codec.from_payload
    pending = []

    def spy_to(codec, msg):
        payload = to_payload(codec, msg)
        pending.append((msg, payload))
        return payload

    def spy_from(codec, cls, payload):
        msg, sent_payload = pending.pop()
        assert payload is sent_payload and cls is type(msg)
        rebuilt = from_payload(codec, cls, payload)
        handed.append((msg, payload, rebuilt))
        return rebuilt

    with monkeypatch.context() as m:
        m.setattr(transport.Codec, "to_payload", spy_to)
        m.setattr(transport.Codec, "from_payload", spy_from)
        _, transcripts = harness.run_sessions(protocol_kind, "honest", config, 12, seed=6)
    recorded = [entry for t in transcripts for entry in t["messages"]]
    assert not pending and len(handed) == len(recorded)
    codec = transport.Codec(config.entcf)
    for (msg, payload, rebuilt), entry in zip(handed, recorded):
        assert entry["payload"] == payload and entry["type"] == type(msg).__name__
        sid, decoded, frame_payload = codec.decode_frame(codec.encode_frame(SID, msg))
        assert sid == SID and frame_payload == payload
        assert _same_message(decoded, rebuilt) and _same_message(rebuilt, msg)
        assert rebuilt is not msg  # the two sides never share an object


@pytest.mark.parametrize("port", [None, 0], ids=["inproc", "tcp"])
def test_recv_without_reply_is_a_transport_error(port):
    """A recv with no answer held fails at once, without waiting on the socket."""
    class Silent:
        def handle(self, message):
            return None

    link = transport.Link(CODEC, port)
    start = time.perf_counter()
    try:
        link.session(SID, Silent())
        assert link.send(protocol.Question(q=1)) == {"q": 1}
        with pytest.raises(TransportError):
            link.recv()
    finally:
        link.close()
    assert time.perf_counter() - start < 1.0


def test_tcp_channel_roundtrip():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    received = []
    sent = []

    def serve():
        conn, _ = listener.accept()
        conn.settimeout(5)
        chan = transport.TcpChannel(CODEC, SID, conn)
        received.append(chan.recv())
        sent.append(chan.send(protocol.Verdict(accept=1, reason="accept")))
        chan.close()

    t = threading.Thread(target=serve)
    t.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    chan = transport.TcpChannel(CODEC, SID, sock)
    answer = chan.send(protocol.FinalAnswer(v=(0, 1)))
    verdict = chan.recv()
    t.join()
    listener.close()
    chan.close()
    assert received == [(protocol.FinalAnswer(v=(0, 1)), answer)]
    assert answer == {"v": [0, 1]}
    assert verdict == (protocol.Verdict(accept=1, reason="accept"), sent[0])


def test_tcp_closed_mid_frame():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def serve():
        conn, _ = listener.accept()
        conn.sendall(struct.pack(">I", 100) + b"\x01tooshort")
        conn.close()

    t = threading.Thread(target=serve)
    t.start()
    sock = socket.create_connection(("127.0.0.1", port), timeout=5)
    chan = transport.TcpChannel(CODEC, SID, sock)
    try:
        with pytest.raises(TransportError):
            chan.recv()
    finally:
        chan.close()
    t.join()
    listener.close()


def test_session_id_mismatch():
    left, right = socket.socketpair()
    sender = transport.TcpChannel(CODEC, SID, left)
    right.settimeout(5)
    receiver = transport.TcpChannel(CODEC, bytes(16), right)
    sender.send(protocol.Question(q=0))
    with pytest.raises(TransportError):
        receiver.recv()
    sender.close()
    receiver.close()


def _link_pair(buffer_bytes=None):
    """(client, server) sockets of one loopback connection, each set up as
    `Link` sets up its own, with the kernel's buffers shrunk first if given."""
    def sized(sock):
        for option in (socket.SO_SNDBUF, socket.SO_RCVBUF) if buffer_bytes else ():
            sock.setsockopt(socket.SOL_SOCKET, option, buffer_bytes)
        return sock

    with sized(socket.create_server(("127.0.0.1", 0))) as listener:
        client = sized(socket.socket())
        client.connect(listener.getsockname())
        server = listener.accept()[0]
    return transport._link_socket(client), transport._link_socket(server)


@contextlib.contextmanager
def _fail_after(seconds):
    """Fail, rather than hang, a wait that outlasts seconds."""
    def fail(signum, frame):
        raise AssertionError(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, fail)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_recv_from_a_silent_peer_ends_at_the_kernel_timeout(monkeypatch):
    monkeypatch.setattr(transport, "TIMEOUT_S", 0.2)
    client, server = _link_pair()
    chan = transport.TcpChannel(CODEC, SID, client)
    start = time.perf_counter()
    try:
        with _fail_after(5), pytest.raises(TransportError):
            chan.recv()
    finally:
        chan.close()
        server.close()
    assert client.gettimeout() is None  # the kernel bounds the wait, not a poll
    assert 0.1 < time.perf_counter() - start < 1.0


def test_send_to_a_peer_that_never_reads_ends_at_the_kernel_timeout(monkeypatch):
    monkeypatch.setattr(transport, "TIMEOUT_S", 0.2)
    params = entcf.EntcfParams.ideal(8)
    codec = transport.Codec(params)
    rng = np.random.default_rng(0)
    msg = protocol.Keys(keys=tuple(entcf.gen_keypair(entcf.FAMILY_F, params, rng)[0] for _ in range(22_000)))
    client, server = _link_pair(buffer_bytes=4096)
    chan = transport.TcpChannel(codec, SID, client)
    start = time.perf_counter()
    try:
        # 289 KB, at about 13 bytes a key: far more than the two 4 KiB buffers hold
        assert len(codec.encode_frame(SID, msg)) > 250_000
        with _fail_after(5), pytest.raises(TransportError):
            chan.send(msg)
    finally:
        chan.close()
        server.close()
    assert time.perf_counter() - start < 2.0


def test_a_stray_connection_leaves_a_tcp_run_unchanged(monkeypatch):
    """A connection another client opens to the link's port before the first
    session is closed, never paired: each session's prover end is the link's
    own connection, so the TCP run's stats and transcripts are the in-process run's."""
    config = protocol.SelfTestConfig(N=1, entcf=PARAMS)
    expected = harness.run_sessions("selftest", "honest", config, 3, seed=8)
    strays, init = [], transport.Link.__init__

    def init_then_stray(link, codec, port=None):
        init(link, codec, port)
        strays.append(socket.create_connection(link._listener.getsockname()))

    monkeypatch.setattr(transport, "TIMEOUT_S", 0.5)
    monkeypatch.setattr(transport.Link, "__init__", init_then_stray)
    try:
        with _fail_after(20):
            run = harness.run_sessions("selftest", "honest", config, 3, seed=8, transport_spec="tcp")
    finally:
        for sock in strays:
            sock.close()
    assert len(strays) == 1
    assert run == expected
