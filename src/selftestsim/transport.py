"""Wire codec and channels.

One canonical encoding for every protocol message (a trapdoor never travels): a
4-byte big-endian length prefix, a version byte (0x01), a 16-byte session id, a
message type byte, and a canonical-JSON payload (UTF-8, sorted keys, no spaces)
mapping each field to its value by its kind in `protocol.FIELDS`: numbers as
JSON numbers, strings as they are. A key is its `PublicKey.numbers()`, decoded
with the codec's parameters (the version byte versions the wire, so no key
repeats them); an image is an int in [0, 2^32), or for toylwe a list of m such
ints. `payload_json` writes it, numbers by `str` as they need no escaping. A
frame decodes only if each value has its kind's JSON type and range and its
JSON is that very text.

One `Link` joins the verifier to the prover over either transport and holds
the prover's answer to each message the same way; only the carrying differs.
In process it hands each payload straight to the other side and rebuilds the
message from it, so both ends see exactly what a TCP peer would decode and the
recorded payloads and transcripts are the same over either transport. Over TCP
it carries framed bytes on blocking sockets, each read with one recv in the
common case and each wait bounded by the kernel's 10 s socket timeout; a channel
whose peer is read by the same thread pumps its sends, which never block, so a
frame larger than the kernel's socket buffers goes through without a second thread.
"""
from __future__ import annotations

import json
import socket
import struct

import numpy as np

from . import entcf, protocol
from .entcf import PublicKey
from .errors import ProtocolError, TransportError

VERSION = 0x01
SESSION_ID_BYTES = 16
_HEADER = 1 + SESSION_ID_BYTES + 1  # version + session id + type byte
_FRAME_HEAD = struct.Struct(f">IB{SESSION_ID_BYTES}sB")  # length prefix, then the _HEADER bytes

_TYPE_BYTES = {cls: i + 1 for i, cls in enumerate(protocol.MESSAGE_TYPES)}
_TYPE_CLASSES = {v: k for k, v in _TYPE_BYTES.items()}
_READ = 1 << 16  # the fewest bytes a recv asks for
TIMEOUT_S = 10.0  # longest wait for a peer's next frame, or for room to send one
_IMAGE_BOUND = 2**32  # an image number lies in [0, 2^32)

# one encoder for every frame: json.dumps with these options builds a new one per call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_PARSE_JSON = json.JSONDecoder().raw_decode  # (value, end) of the JSON at the start of a text


def _exact(kind):
    """A decoder that passes only values of type kind: a bool is no int."""
    def decode(value):
        if type(value) is not kind:
            raise TypeError(f"{type(value).__name__} where {kind.__name__} belongs")
        return value
    return decode


# a field's JSON text from its payload value, per kind: numbers and lists of them need no escaping
_WRITE = dict.fromkeys(("bit", "wbits", "image", "key", "int"), lambda value: str(value).replace(" ", ""))
_WRITE["str"] = lambda text: _CANONICAL_JSON.encode(text)


def payload_json(cls, payload: dict) -> str:
    """_CANONICAL_JSON.encode(payload) of a cls message's payload; FIELDS lists its keys sorted."""
    fields = ",".join(f'"{name}":{_WRITE[kind](payload[name])}' for name, kind in protocol.FIELDS[cls])
    return "{" + fields + "}"


class Frame(bytes):
    """One encoded frame. `payload` is the dict serialised into it, so a
    sender can record what it put on the wire without building it again."""

    payload: dict


class Codec:
    """Message <-> frame translation for a fixed parameter set."""

    def __init__(self, params: entcf.EntcfParams):
        self.params = params
        ints = (lambda values: list(map(int, values)), lambda values: tuple(entcf.int_list(values)))
        # one image to its numbers and back: an int, or for toylwe a list, then a tuple, of m
        out, back = (int, int) if params.backend == "ideal" else ((lambda y_i: list(map(int, y_i))), tuple)
        # (encode, decode) of a field's value, per kind
        coder = {
            "bit": ints,
            "wbits": ints,
            "image": (lambda y: self._images(list(map(out, y))), lambda v: tuple(map(back, self._images(v)))),
            "key": (
                lambda keys: [key.numbers() for key in keys],
                lambda values: tuple([PublicKey.from_numbers(params, v) for v in _exact(list)(values)]),
            ),
            "int": (int, _exact(int)),
            "str": (lambda s: s, _exact(str)),
        }
        # message class -> its fields' (name, encode, decode)
        self._coders = {
            cls: [(name, *coder[kind]) for name, kind in fields] for cls, fields in protocol.FIELDS.items()
        }

    # -- images ---------------------------------------------------------------
    def _images(self, values):
        """values, an image field's numbers (a list of m per image for toylwe),
        if each lies in [0, 2^32), else TransportError, in either direction."""
        try:
            if self.params.backend == "ideal":
                return entcf.int_list(values, _IMAGE_BOUND)
            for image in _exact(list)(values):
                entcf.int_list(image, _IMAGE_BOUND, self.params.m)
        except (TypeError, ProtocolError) as exc:
            raise TransportError(f"malformed images: {exc}") from exc
        return values

    # -- message payloads ------------------------------------------------------
    def to_payload(self, msg) -> dict:
        coders = self._coders.get(type(msg))
        if coders is None:
            raise TransportError(f"unknown message type {type(msg).__name__}")
        return {name: encode(getattr(msg, name)) for name, encode, _ in coders}

    def from_payload(self, cls, payload: dict):
        try:
            # positional: FIELDS lists each class's fields in their order
            return cls(*[decode(payload[name]) for name, _, decode in self._coders[cls]])
        # a key or a list of numbers out of its kind's type, count or range raises ProtocolError
        except (KeyError, TypeError, ProtocolError) as exc:
            raise TransportError(f"malformed payload: {exc}") from exc

    # -- frames ---------------------------------------------------------------
    def encode_frame(self, session_id: bytes, msg) -> Frame:
        if len(session_id) != SESSION_ID_BYTES:
            raise TransportError("session id must be 16 bytes")
        payload = self.to_payload(msg)
        text = payload_json(type(msg), payload).encode("utf-8")
        head = _FRAME_HEAD.pack(_HEADER + len(text), VERSION, session_id, _TYPE_BYTES[type(msg)])
        frame = Frame(head + text)
        frame.payload = payload
        return frame

    def decode_frame(self, frame: bytes):
        """(session_id, message, payload) from one complete frame, whose JSON
        must be the one text of its message: no other spacing, order or key."""
        if len(frame) < _FRAME_HEAD.size:
            raise TransportError("truncated frame")
        length, version, session_id, type_byte = _FRAME_HEAD.unpack_from(frame)
        if len(frame) != 4 + length:
            raise TransportError("frame length mismatch")
        if version != VERSION:
            raise TransportError(f"unknown wire version {version}")
        cls = _TYPE_CLASSES.get(type_byte)
        if cls is None:
            raise TransportError("unknown message type byte")
        try:
            text = frame[_FRAME_HEAD.size :].decode("utf-8")
            payload, end = _PARSE_JSON(text)
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals;
        # deeply nested arrays raise RecursionError
        except (ValueError, RecursionError) as exc:
            raise TransportError(f"bad payload JSON: {exc}") from exc
        msg = self.from_payload(cls, payload)
        if end != len(text) or text != payload_json(cls, payload):
            raise TransportError("payload JSON is not the canonical encoding of its message")
        return session_id, msg, payload


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class TcpChannel:
    """Framed messages over a connected socket, for the session `session_id`
    names: a frame with another id, or a socket error, is a TransportError.
    Bytes read past the end of a frame wait in the channel for the next recv.
    `peer`, when set, is the channel at the socket's other end, read by the
    same thread: a send then never blocks, and what fills the kernel's buffers
    drains into the peer instead of waiting for a reader that cannot run."""

    def __init__(self, codec: Codec, session_id: bytes, sock: socket.socket):
        self.codec = codec
        self.session_id = session_id
        self.sock = sock
        self.peer: TcpChannel | None = None
        self._buffer = b""

    def send(self, msg) -> dict:
        """Write msg's frame; returns the payload the frame carries."""
        frame = self.codec.encode_frame(self.session_id, msg)
        try:
            if self.peer is None:
                self.sock.sendall(frame)
            else:
                unsent = memoryview(frame)
                # the peer reads all that went out, so the next send finds the kernel's buffers empty
                while unsent := unsent[(sent := self.sock.send(unsent, socket.MSG_DONTWAIT)) :]:
                    self.peer._read_to(len(self.peer._buffer) + sent)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        return frame.payload

    def _read_to(self, size: int) -> None:
        """recv until the channel's buffer holds at least size bytes."""
        while len(self._buffer) < size:
            try:
                chunk = self.sock.recv(max(size - len(self._buffer), _READ))
            except OSError as exc:  # the kernel's timeout included
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed mid-frame")
            self._buffer += chunk

    def recv(self):
        """(message, payload) from the next frame on the socket, waiting no
        longer than the socket's timeout for each read."""
        self._read_to(4)
        size = 4 + int.from_bytes(self._buffer[:4], "big")
        if len(self._buffer) != size:  # mostly it holds this one frame, which slices without a copy
            self._read_to(size)
        frame, self._buffer = self._buffer[:size], self._buffer[size:]
        session_id, msg, payload = self.codec.decode_frame(frame)
        if session_id != self.session_id:
            raise TransportError("session id mismatch")
        return msg, payload

    def close(self) -> None:
        """Close the socket and drop unread bytes: a later send or recv is a TransportError."""
        self._buffer = b""
        try:
            self.sock.close()
        except OSError:
            pass


def _link_socket(sock: socket.socket) -> socket.socket:
    """sock, blocking, with TIMEOUT_S as the kernel's bound on each wait: a Python timeout polls first."""
    bound = struct.pack("@ll", int(TIMEOUT_S), round(TIMEOUT_S % 1 * 1e6))  # a struct timeval
    for option in (socket.SO_RCVTIMEO, socket.SO_SNDTIMEO):
        sock.setsockopt(socket.SOL_SOCKET, option, bound)
    # each frame is a request or reply the peer waits for: Nagle would hold it for the last one's delayed ACK
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


class Link:
    """The verifier's one path to a prover, built once per run: in process
    when port is None, else over one loopback TCP connection whose two ends
    the calling thread drives. It is each session's verifier channel: `send`
    carries a message to the prover, which answers at once, and the link
    holds the answer for `recv` to carry back. In process a message is
    carried as its payload and rebuilt from it, so the two sides never share
    an object; over TCP the sender's channel writes its frame and the
    receiver's reads it. A transport failure closes the connection, and the
    next session connects afresh."""

    def __init__(self, codec: Codec, port: int | None = None):
        self.codec = codec
        self._listener = None if port is None else socket.create_server(("127.0.0.1", port))
        self._ends: list = []  # over TCP, the verifier's channel, then the prover's
        self._prover = self._reply = None

    def session(self, session_id: bytes, prover) -> None:
        """Make this link the verifier's channel for one session, with its id
        and prover; over TCP, connect afresh if the last connection failed,
        accepting only the new client's own end (any other is closed)."""
        if self._listener is not None and (not self._ends or self._ends[0].sock.fileno() == -1):
            client = socket.create_connection(self._listener.getsockname())
            while (server := self._listener.accept()[0]).getpeername() != client.getsockname():
                server.close()
            self._ends = [TcpChannel(self.codec, session_id, _link_socket(s)) for s in (client, server)]
            self._ends[0].peer, self._ends[1].peer = self._ends[1], self._ends[0]
        for end in self._ends:
            end.session_id = session_id
        self._prover, self._reply = prover, None

    def _carry(self, msg, sender: int):
        """(payload sent, message received, payload received) when msg goes
        from side sender (0: the verifier, 1: the prover) to the other side."""
        if self._listener is None:
            payload = self.codec.to_payload(msg)
            return payload, self.codec.from_payload(type(msg), payload), payload
        try:
            return (self._ends[sender].send(msg), *self._ends[1 - sender].recv())
        except TransportError:
            # a frame may be cut off, so the stream is out of step: drop it
            for end in self._ends:
                end.close()
            raise

    def send(self, msg) -> dict:
        """Carry msg to the prover and hold its answer; returns the payload
        msg was sent as."""
        payload, received, _ = self._carry(msg, 0)
        self._reply = self._prover.handle(received)
        return payload

    def recv(self):
        """(message, payload) of the prover's answer to the last send, as
        the verifier receives it."""
        reply, self._reply = self._reply, None
        if reply is None:
            raise TransportError("recv with no reply from the prover")
        return self._carry(reply, 1)[1:]

    def close(self) -> None:
        for end in self._ends:
            end.close()
        if self._listener is not None:
            self._listener.close()


def session_id_from_rng(rng: np.random.Generator) -> bytes:
    """rng.bytes(16) of a fresh generator: its first two raw 64-bit draws in
    little-endian order, the same bytes without Generator.bytes' overhead."""
    return rng.bit_generator.random_raw(SESSION_ID_BYTES // 8).astype("<u8", copy=False).tobytes()
