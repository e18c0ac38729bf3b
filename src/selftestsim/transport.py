"""Wire codec and channels.

One canonical encoding for every protocol message: a 4-byte big-endian length
prefix, a version byte (0x01), a 16-byte session id, a message type byte, and
a canonical-JSON payload (UTF-8, sorted keys, no insignificant whitespace).
Public keys and images travel as lowercase hex strings. Trapdoors are not
part of the message vocabulary and never touch the wire.

Two transports share the payload codec. TCP carries framed bytes, each read
with one recv in the common case; a channel whose peer is read by the same
thread pumps its sends, so a frame larger than the kernel's socket buffers
goes through without a second thread. The in-process link hands each payload
straight to the other side and rebuilds the message from it, so both ends see
exactly what a TCP peer would decode and the recorded payloads and transcripts
are the same over either transport.
"""
from __future__ import annotations

import json
import socket
import struct

import numpy as np

from . import entcf, protocol
from .errors import ProtocolError, TransportError

VERSION = 0x01
SESSION_ID_BYTES = 16
_HEADER = 1 + SESSION_ID_BYTES + 1  # version + session id + type byte

_TYPE_BYTES = {cls: i + 1 for i, cls in enumerate(protocol.MESSAGE_TYPES)}
_TYPE_CLASSES = {v: k for k, v in _TYPE_BYTES.items()}
_READ = 1 << 16  # the fewest bytes a recv asks for

# one encoder for every frame: json.dumps with these options builds a new one per call
_CANONICAL_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


class Frame(bytes):
    """One encoded frame. `payload` is the dict serialised into it, so a
    sender can record what it put on the wire without building it again."""

    payload: dict


class Codec:
    """Message <-> frame translation for a fixed parameter set."""

    def __init__(self, params: entcf.EntcfParams):
        self.params = params

    # -- image coordinates ---------------------------------------------------
    def encode_y(self, y_i) -> str:
        try:
            if self.params.backend == "ideal":
                return struct.pack(">I", int(y_i)).hex()
            return b"".join(struct.pack(">I", int(c)) for c in y_i).hex()
        except struct.error as exc:
            raise TransportError(f"image not encodable as u32: {exc}") from exc

    def decode_y(self, text: str):
        raw = bytes.fromhex(text)
        if self.params.backend == "ideal":
            if len(raw) != 4:
                raise TransportError("bad image encoding length")
            return struct.unpack(">I", raw)[0]
        if len(raw) != 4 * self.params.m:
            raise TransportError("bad image encoding length")
        return tuple(struct.unpack(f">{self.params.m}I", raw))

    # -- message payloads ------------------------------------------------------
    def to_payload(self, msg) -> dict:
        if isinstance(msg, protocol.Keys):
            return {"keys": [k.to_bytes().hex() for k in msg.keys]}
        if isinstance(msg, protocol.Images):
            return {"y": [self.encode_y(y) for y in msg.y]}
        if isinstance(msg, protocol.RoundType):
            return {"kind": msg.kind}
        if isinstance(msg, protocol.PreimageAnswer):
            return {"b": [int(b) for b in msg.b], "x": [int(x) for x in msg.x]}
        if isinstance(msg, protocol.HadamardD):
            return {"d": [int(d) for d in msg.d]}
        if isinstance(msg, protocol.Question):
            return {"q": int(msg.q)}
        if isinstance(msg, protocol.FinalAnswer):
            return {"v": [int(v) for v in msg.v]}
        if isinstance(msg, protocol.Verdict):
            return {"accept": int(msg.accept), "reason": msg.reason}
        raise TransportError(f"unknown message type {type(msg).__name__}")

    def from_payload(self, cls, payload: dict):
        try:
            if cls is protocol.Keys:
                return protocol.Keys(
                    keys=tuple(entcf.PublicKey.from_bytes(bytes.fromhex(h)) for h in payload["keys"])
                )
            if cls is protocol.Images:
                return protocol.Images(y=tuple(self.decode_y(t) for t in payload["y"]))
            if cls is protocol.RoundType:
                return protocol.RoundType(kind=payload["kind"])
            if cls is protocol.PreimageAnswer:
                return protocol.PreimageAnswer(
                    b=tuple(int(b) for b in payload["b"]),
                    x=tuple(int(x) for x in payload["x"]),
                )
            if cls is protocol.HadamardD:
                return protocol.HadamardD(d=tuple(int(d) for d in payload["d"]))
            if cls is protocol.Question:
                return protocol.Question(q=int(payload["q"]))
            if cls is protocol.FinalAnswer:
                return protocol.FinalAnswer(v=tuple(int(v) for v in payload["v"]))
            if cls is protocol.Verdict:
                return protocol.Verdict(accept=int(payload["accept"]), reason=payload["reason"])
        # a key that PublicKey.from_bytes cannot parse raises ProtocolError or
        # struct.error; int() of an infinite float raises OverflowError
        except (KeyError, ValueError, TypeError, OverflowError, ProtocolError, struct.error) as exc:
            raise TransportError(f"malformed payload: {exc}") from exc
        raise TransportError("unknown message type byte")

    # -- frames ---------------------------------------------------------------
    def encode_frame(self, session_id: bytes, msg) -> Frame:
        if len(session_id) != SESSION_ID_BYTES:
            raise TransportError("session id must be 16 bytes")
        payload = self.to_payload(msg)
        body = (
            bytes([VERSION])
            + session_id
            + bytes([_TYPE_BYTES[type(msg)]])
            + _CANONICAL_JSON.encode(payload).encode("utf-8")
        )
        frame = Frame(struct.pack(">I", len(body)) + body)
        frame.payload = payload
        return frame

    def decode_frame(self, frame: bytes):
        """(session_id, message, payload) from one complete frame; payload is
        the JSON object the frame carried."""
        if len(frame) < 4:
            raise TransportError("truncated frame")
        (length,) = struct.unpack(">I", frame[:4])
        if len(frame) != 4 + length or length < _HEADER:
            raise TransportError("frame length mismatch")
        body = frame[4:]
        if body[0] != VERSION:
            raise TransportError(f"unknown wire version {body[0]}")
        session_id = body[1 : 1 + SESSION_ID_BYTES]
        type_byte = body[1 + SESSION_ID_BYTES]
        if type_byte not in _TYPE_CLASSES:
            raise TransportError("unknown message type byte")
        try:
            payload = json.loads(body[_HEADER:].decode("utf-8"))
        # ValueError covers bad UTF-8, bad JSON and over-long integer literals;
        # deeply nested arrays raise RecursionError
        except (ValueError, RecursionError) as exc:
            raise TransportError(f"bad payload JSON: {exc}") from exc
        return session_id, self.from_payload(_TYPE_CLASSES[type_byte], payload), payload


# ---------------------------------------------------------------------------
# Channels
# ---------------------------------------------------------------------------

class InProcChannel:
    """The verifier's end of an in-process link to a prover. Messages pass as
    payloads, never as frames: `send` encodes and rebuilds the message for the
    prover and keeps its reply, `recv` encodes and rebuilds that reply, so the
    two sides never share an object."""

    def __init__(self, codec: Codec, prover):
        self.codec = codec
        self.prover = prover
        self._reply = None

    def send(self, msg) -> dict:
        """Hand msg to the prover; returns the payload it was rebuilt from."""
        payload = self.codec.to_payload(msg)
        self._reply = self.prover.handle(self.codec.from_payload(type(msg), payload))
        return payload

    def recv(self, timeout: float | None = None):
        """(message, payload) of the prover's reply to the last send."""
        reply, self._reply = self._reply, None
        if reply is None:
            raise TransportError("recv with no reply from the in-process prover")
        payload = self.codec.to_payload(reply)
        return self.codec.from_payload(type(reply), payload), payload


class TcpChannel:
    """Framed messages over a connected socket, for the session `session_id`
    names: a frame with another id, or a socket error, is a TransportError.
    Bytes read past the end of a frame wait in the channel for the next recv.
    `peer`, when set, is the channel at the socket's other end, read by the
    same thread: a send that fills the kernel's buffers then drains them into
    the peer instead of waiting for a reader that cannot run."""

    def __init__(self, codec: Codec, session_id: bytes, sock: socket.socket):
        self.codec = codec
        self.session_id = session_id
        self.sock = sock
        self.peer: TcpChannel | None = None
        self.open = True
        self._buffer = b""
        self._timeout = sock.gettimeout()

    def send(self, msg) -> dict:
        """Write msg's frame; returns the payload the frame carries."""
        if not self.open:
            raise TransportError("channel closed")
        frame = self.codec.encode_frame(self.session_id, msg)
        try:
            if self.peer is None:
                self.sock.sendall(frame)
            else:
                unsent = memoryview(frame)
                # the peer reads all that went out, so the next send finds the kernel's buffers empty
                while unsent := unsent[(sent := self.sock.send(unsent)) :]:
                    self.peer._read_to(len(self.peer._buffer) + sent)
        except OSError as exc:
            raise TransportError(f"send failed: {exc}") from exc
        return frame.payload

    def _read_to(self, size: int) -> None:
        """recv until the channel's buffer holds at least size bytes."""
        while len(self._buffer) < size:
            try:
                chunk = self.sock.recv(max(size - len(self._buffer), _READ))
            except OSError as exc:  # a timeout included
                raise TransportError(f"recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("connection closed mid-frame")
            self._buffer += chunk

    def recv(self, timeout: float | None = None):
        """(message, payload) from the next frame on the socket."""
        if not self.open:
            raise TransportError("channel closed")
        if timeout != self._timeout:
            self.sock.settimeout(timeout)
            self._timeout = timeout
        self._read_to(4)
        size = 4 + int.from_bytes(self._buffer[:4], "big")
        self._read_to(size)
        frame, self._buffer = self._buffer[:size], self._buffer[size:]
        session_id, msg, payload = self.codec.decode_frame(frame)
        if session_id != self.session_id:
            raise TransportError("session id mismatch")
        return msg, payload

    def close(self) -> None:
        self.open = False
        try:
            self.sock.close()
        except OSError:
            pass


def session_id_from_rng(rng: np.random.Generator) -> bytes:
    """rng.bytes(16) of a fresh generator: its first two raw 64-bit draws in
    little-endian order, the same bytes without Generator.bytes' overhead."""
    return rng.bit_generator.random_raw(SESSION_ID_BYTES // 8).astype("<u8", copy=False).tobytes()
