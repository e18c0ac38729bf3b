"""Hostile-device fuzzing: the verifier and the codec are total functions.

Random and mutated messages go into `verifier.step` at every phase a device
can reach, and random or mutated bytes into `Codec.decode_frame`, on both
backends. The only allowed outcomes are a message (a `Verdict` included) or a
`TransportError`; any other exception fails.
"""
import copy
import json
import struct

import numpy as np
from hypothesis import example, given, settings, strategies as st

from selftestsim import entcf, protocol, transport
from selftestsim.errors import TransportError
from selftestsim.prover import HonestProver

BACKENDS = {
    "ideal": entcf.EntcfParams.ideal(2),
    "toylwe": entcf.EntcfParams.toylwe(n=1, m=3, q=16, B=1),
}
PHASES = ("await_images", "await_preimage", "await_d", "await_answer")
SID = bytes(range(16))

# message class -> the field a mutation edits (PreimageAnswer: b or x)
_FIELDS = {
    protocol.Images: "y",
    protocol.PreimageAnswer: "b",
    protocol.HadamardD: "d",
    protocol.FinalAnswer: "v",
}


def _session(backend: str, seed: int):
    """(verifier snapshots by phase, honest replies by phase, frames sent)."""
    params = BACKENDS[backend]
    codec = transport.Codec(params)
    verifier = protocol.SelfTestVerifier(
        protocol.SelfTestConfig(N=1, entcf=params), np.random.default_rng(seed)
    )
    device = HonestProver("selftest", np.random.default_rng(seed + 1))
    snapshots, replies, frames = {}, {}, []
    outgoing = verifier.step(None)
    while not isinstance(outgoing, protocol.Verdict):
        frames.append(codec.encode_frame(SID, outgoing))
        reply = device.handle(outgoing)
        frames.append(codec.encode_frame(SID, reply))
        snapshots[verifier.phase] = copy.deepcopy(verifier)
        replies[verifier.phase] = reply
        outgoing = verifier.step(reply)
    frames.append(codec.encode_frame(SID, outgoing))
    return snapshots, replies, frames


def _sessions(backend: str):
    """Sessions covering every theta with both round types."""
    out = {}
    for seed in range(200):
        snapshots, replies, frames = _session(backend, seed)
        kind = "await_preimage" if "await_preimage" in snapshots else "await_d"
        out.setdefault((str(snapshots["await_images"].theta), kind), (snapshots, replies, frames))
        if len(out) == 8:
            return list(out.values())
    raise AssertionError("no seed reached some theta and round type")


SESSIONS = {backend: _sessions(backend) for backend in BACKENDS}


def _start(backend: str, phase: str, pick: int):
    """A fresh copy of a verifier waiting in `phase`, and the honest reply."""
    reached = [(snap, replies) for snap, replies, _ in SESSIONS[backend] if phase in snap]
    snapshots, replies = reached[pick % len(reached)]
    return copy.deepcopy(snapshots[phase]), replies[phase]


def _drive(verifier, messages) -> None:
    for msg in messages:
        try:
            out = verifier.step(msg)
        except TransportError:
            return
        assert isinstance(out, protocol.MESSAGE_TYPES), out
        if isinstance(out, protocol.Verdict):
            return


# --- strategies -------------------------------------------------------------

scalars = st.one_of(
    st.integers(-3, 20),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**32 - 1, 2**32, 2**63, -(2**63) - 1, True]),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.none(),
)
entries = st.one_of(
    scalars,
    st.tuples(scalars, scalars),
    st.tuples(scalars, scalars, scalars),
    st.lists(st.integers(0, 20), min_size=3, max_size=3),
    st.lists(st.integers(0, 20), min_size=3, max_size=3).map(tuple),
)
fields = st.one_of(
    st.lists(entries, max_size=3).map(tuple),
    st.lists(entries, max_size=3),
    scalars,
)
messages = st.one_of(
    st.builds(protocol.Keys, keys=fields),
    st.builds(protocol.Images, y=fields),
    st.builds(protocol.RoundType, kind=scalars),
    st.builds(protocol.PreimageAnswer, b=fields, x=fields),
    st.builds(protocol.HadamardD, d=fields),
    st.builds(protocol.Question, q=scalars),
    st.builds(protocol.FinalAnswer, v=fields),
    st.builds(protocol.Verdict, accept=scalars, reason=scalars),
    scalars,
)


@st.composite
def mutated(draw, honest):
    """The honest reply with one field entry replaced, dropped or added."""
    name = _FIELDS[type(honest)]
    if isinstance(honest, protocol.PreimageAnswer):
        name = draw(st.sampled_from(["b", "x"]))
    values = list(getattr(honest, name))
    how = draw(st.sampled_from(["replace", "drop", "add"]))
    if how == "replace":
        values[draw(st.integers(0, len(values) - 1))] = draw(entries)
    elif how == "drop":
        values.pop()
    else:
        values.append(draw(entries))
    return type(honest)(**{**honest.__dict__, name: tuple(values)})


# --- verifier.step ------------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    phase=st.sampled_from(PHASES),
    pick=st.integers(0, 7),
    batch=st.lists(messages, min_size=1, max_size=4),
)
def test_verifier_step_is_total_on_random_messages(backend, phase, pick, batch):
    verifier, _ = _start(backend, phase, pick)
    _drive(verifier, batch)


@settings(max_examples=150, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    phase=st.sampled_from(PHASES),
    pick=st.integers(0, 7),
    data=st.data(),
)
def test_verifier_step_is_total_on_mutated_replies(backend, phase, pick, data):
    verifier, honest = _start(backend, phase, pick)
    _drive(verifier, [data.draw(mutated(honest))])


# --- Codec.decode_frame -------------------------------------------------------

def _frame(type_byte: int, body: bytes) -> bytes:
    inner = bytes([transport.VERSION]) + SID + bytes([type_byte]) + body
    return struct.pack(">I", len(inner)) + inner


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
# numbers at and past the edges of a key's or an image's range, and numbers of other JSON types
junk_numbers = st.one_of(
    st.integers(-3, 20),
    st.integers(),
    st.sampled_from([2**32 - 1, 2**32, True, False, 0.0, 1.0, -0.0, float("inf")]),
)
# a key's count is 3 (ideal) or m*n + m = 6 (toylwe here), and a toylwe image's m = 3
number_lists = st.lists(junk_numbers, min_size=1, max_size=7)
# structurally right payloads whose values are junk: numbers that are no key
# or image, and numbers where ints are read
shaped_payloads = st.one_of(
    st.builds(lambda k: {"keys": k}, st.lists(number_lists, max_size=2)),
    st.builds(lambda y: {"y": y}, st.lists(junk_numbers | number_lists, max_size=2)),
    st.builds(lambda b, x: {"b": b, "x": x}, st.lists(json_values, max_size=2), st.lists(json_values, max_size=2)),
    st.builds(lambda q: {"q": q}, json_values),
    st.builds(lambda v: {"v": v}, st.lists(json_values, max_size=2)),
    st.builds(lambda a, r: {"accept": a, "reason": r}, json_values, json_values),
    json_values,
)


def _decode(backend: str, frame: bytes) -> None:
    codec = transport.Codec(BACKENDS[backend])
    try:
        sid, msg, payload = codec.decode_frame(frame)
    except TransportError:
        return
    assert isinstance(msg, protocol.MESSAGE_TYPES) and len(sid) == transport.SESSION_ID_BYTES
    assert payload is not None


@settings(max_examples=200, deadline=None)
@given(backend=st.sampled_from(sorted(BACKENDS)), raw=st.binary(max_size=64))
def test_decode_frame_is_total_on_random_bytes(backend, raw):
    _decode(backend, raw)
    _decode(backend, struct.pack(">I", len(raw)) + raw)


@settings(max_examples=200, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    type_byte=st.integers(1, len(protocol.MESSAGE_TYPES)),
    payload=shaped_payloads,
)
@example(backend="ideal", type_byte=1, payload={"keys": ["01"]})
@example(backend="ideal", type_byte=1, payload={"keys": ["0109"]})
@example(backend="ideal", type_byte=1, payload={"keys": ["010000"]})
@example(backend="ideal", type_byte=6, payload={"q": float("inf")})
def test_decode_frame_is_total_on_junk_payloads(backend, type_byte, payload):
    _decode(backend, _frame(type_byte, json.dumps(payload).encode("utf-8")))


@settings(max_examples=200, deadline=None)
@given(
    backend=st.sampled_from(sorted(BACKENDS)),
    data=st.data(),
)
def test_decode_frame_is_total_on_mutated_frames(backend, data):
    frames = [f for _, _, session in SESSIONS[backend] for f in session]
    frame = bytearray(data.draw(st.sampled_from(frames)))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(frame) - 1))
        how = data.draw(st.sampled_from(["flip", "drop", "insert"]))
        if how == "flip":
            frame[at] ^= data.draw(st.integers(1, 255))
        elif how == "drop":
            del frame[at]
        else:
            frame.insert(at, data.draw(st.integers(0, 255)))
    _decode(backend, bytes(frame))
    # the same bytes with the length prefix repaired reach the JSON layer
    body = bytes(frame[4:])
    _decode(backend, struct.pack(">I", len(body)) + body)
