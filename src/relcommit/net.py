"""Networked sessions: P, Q and V as processes over a length-prefixed protocol.

Frame layout: 4-byte big-endian length, then type (1), round (2, big-endian),
body.  Bodies carry one field element in ceil(n/8) big-endian bytes except
for ABORT (1-byte reason).  The verifier enforces a wall-clock deadline per
round on its side only: a response landing later than the deadline after its
challenge aborts the session, which is what makes the no-communication
window operational.  Provers are untrusted and untimed.

The verifier connects out to the two prover listeners and drives the same
sans-IO ``engine.Verifier`` as the in-process engine, with a strict barrier
(never issuing challenge i before response i-1 is validated); it requests
the final opening with an OPEN frame and distributes the RESULT.  A loopback
session with the provers seeded like the in-process engine produces a
byte-identical transcript.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .engine import (Transcript, Verifier, check_committed_value, honest_reply,
                     prover_root_seed, shared_pads)
from .scheme import BOT, SchemeParams, active_prover

MAGIC = b"RELCOMMT"
VERSION = 1

T_CHALLENGE = 0x01
T_RESPONSE = 0x02
T_OPEN = 0x03
T_RESULT = 0x04
T_ABORT = 0x05
_TYPES = (T_CHALLENGE, T_RESPONSE, T_OPEN, T_RESULT, T_ABORT)

ABORT_DEADLINE = 0x01
ABORT_MALFORMED = 0x02
ABORT_CONNECTION = 0x03

MAX_FRAME = 1 << 16
MAX_ROUND = 0xFFFF  # frames carry the round as ">H"; the last one is m + 1


class WireError(Exception):
    """Malformed or oversized frame."""


@dataclass(frozen=True)
class WireMessage:
    type: int
    round: int
    body: bytes


def body_len(n: int) -> int:
    return (n + 7) // 8


def frame(msg: WireMessage) -> bytes:
    if msg.type not in _TYPES:
        raise WireError(f"unknown frame type 0x{msg.type:02x}")
    length = 3 + len(msg.body)
    if length > MAX_FRAME:
        raise WireError("frame exceeds 2^16 bytes")
    return struct.pack(">IBH", length, msg.type, msg.round) + msg.body


def parse(data: bytes) -> WireMessage:
    if len(data) < 7:
        raise WireError("frame underflow (need length prefix and header)")
    (length,) = struct.unpack(">I", data[:4])
    if length > MAX_FRAME:
        raise WireError("declared length exceeds 2^16 bytes")
    if length < 3:
        raise WireError("declared length below header size")
    if len(data) != 4 + length:
        raise WireError(f"frame length mismatch: declared {length}, "
                        f"carried {len(data) - 4}")
    mtype, rnd = struct.unpack(">BH", data[4:7])
    if mtype not in _TYPES:
        raise WireError(f"unknown frame type 0x{mtype:02x}")
    return WireMessage(mtype, rnd, data[7:])


def element_body(spec_n: int, value: int) -> bytes:
    return value.to_bytes(body_len(spec_n), "big")


def bot_body(spec_n: int) -> bytes:
    return b"\xff" * body_len(spec_n)


def _recv_exact(sock: socket.socket, size: int, started: bool = False) -> bytes:
    """Read exactly size bytes; EOF mid-frame is a truncation, not a close."""
    buf = b""
    while len(buf) < size:
        part = sock.recv(size - len(buf))
        if not part:
            if started or buf:
                raise WireError("truncated frame (peer closed mid-frame)")
            raise ConnectionError("peer closed the connection")
        buf += part
    return buf


def recv_frame(sock: socket.socket) -> WireMessage:
    head = _recv_exact(sock, 4)
    (length,) = struct.unpack(">I", head)
    if length > MAX_FRAME:
        raise WireError("declared length exceeds 2^16 bytes")
    if length < 3:
        raise WireError("declared length below header size")
    return parse(head + _recv_exact(sock, length, started=True))


def send_frame(sock: socket.socket, msg: WireMessage):
    sock.sendall(frame(msg))


def _check_round_count(params: SchemeParams):
    """Raise ValueError unless every round 0..m+1 fits a frame header."""
    if params.m + 1 > MAX_ROUND:
        raise ValueError(f"networked sessions need m <= {MAX_ROUND - 1}, "
                         f"got m={params.m}")


def _handshake_blob(params: SchemeParams, role: str) -> bytes:
    return (MAGIC + bytes([VERSION, params.field.n])
            + struct.pack(">IH", params.field.poly, params.m)
            + bytes([params.domain_bits or params.field.n])
            + params.first_committer.encode()
            + role.encode())


@dataclass
class DeadlineConfig:
    per_round_ms: int
    p_endpoint: Tuple[str, int]
    q_endpoint: Tuple[str, int]

    def __post_init__(self):
        if self.per_round_ms <= 0:
            raise ValueError("per_round_ms must be positive")


@dataclass
class SessionResult:
    transcript: Transcript
    aborted: bool = False
    abort_reason: Optional[int] = None


def _abort_all(conns, reason: int, round_index: int):
    for c in conns.values():
        try:
            send_frame(c, WireMessage(T_ABORT, round_index, bytes([reason])))
        except OSError:
            pass


def serve_verifier(params: SchemeParams, deadlines: DeadlineConfig, seed: int,
                   out_path: Optional[str] = None) -> SessionResult:
    """Drive one session against listening provers, enforcing deadlines.

    Returns the transcript (written to out_path when given).  Late or
    malformed responses and connection losses abort with reasons 0x01,
    0x02 and 0x03 respectively.  Raises ValueError, before connecting,
    when m + 1 does not fit the 16-bit round field of a frame.
    """
    _check_round_count(params)
    spec = params.field
    nbytes = body_len(spec.n)
    timeout = deadlines.per_round_ms / 1000.0
    conns = {}
    verifier = Verifier(params, seed)
    t = verifier.transcript
    try:
        for role, ep in (("P", deadlines.p_endpoint), ("Q", deadlines.q_endpoint)):
            c = socket.create_connection(ep, timeout=5.0)
            conns[role] = c
            c.settimeout(5.0)
            send_frame(c, WireMessage(T_OPEN, 0, _handshake_blob(params, role)))
            echo = recv_frame(c)
            if echo.body != _handshake_blob(params, role):
                _abort_all(conns, ABORT_MALFORMED, 0)
                return _finish(t, out_path, aborted=True, reason=ABORT_MALFORMED)

        def exchange(conn, ask: WireMessage):
            """Returns (reply, None) or (None, abort reason)."""
            want = T_RESPONSE if ask.type == T_CHALLENGE else T_OPEN
            conn.settimeout(timeout)
            sent_at = time.monotonic()
            send_frame(conn, ask)
            try:
                reply = recv_frame(conn)
            except (TimeoutError, socket.timeout):
                return None, ABORT_DEADLINE
            except WireError:
                return None, ABORT_MALFORMED
            if time.monotonic() - sent_at > timeout:
                return None, ABORT_DEADLINE
            if (reply.type != want or reply.round != ask.round
                    or len(reply.body) != nbytes
                    or int.from_bytes(reply.body, "big") >= spec.order):
                return None, ABORT_MALFORMED
            return reply, None

        while not verifier.done:
            i, prover, a = verifier.request()
            ask = (WireMessage(T_OPEN, i, bytes(nbytes)) if a is None
                   else WireMessage(T_CHALLENGE, i, element_body(spec.n, a)))
            reply, reason = exchange(conns[prover], ask)
            if reply is None:
                _abort_all(conns, reason, i)
                return _finish(t, out_path, aborted=True, reason=reason)
            verifier.receive(int.from_bytes(reply.body, "big"))
        body = (bot_body(spec.n) if t.outcome is BOT
                else element_body(spec.n, t.outcome))
        for c in conns.values():
            c.settimeout(5.0)
            send_frame(c, WireMessage(T_RESULT, params.m + 1, body))
        return _finish(t, out_path)
    except WireError:
        _abort_all(conns, ABORT_MALFORMED, 0)
        return _finish(t, out_path, aborted=True, reason=ABORT_MALFORMED)
    except (ConnectionError, OSError):
        _abort_all(conns, ABORT_CONNECTION, 0)
        return _finish(t, out_path, aborted=True, reason=ABORT_CONNECTION)
    finally:
        for c in conns.values():
            c.close()


def _finish(t: Transcript, out_path: Optional[str], aborted: bool = False,
            reason: Optional[int] = None) -> SessionResult:
    if out_path and not aborted:
        with open(out_path, "w") as fh:
            fh.write(t.to_text())
    return SessionResult(t, aborted, reason)


def run_prover(role: str, params: SchemeParams, shared_secret_seed: int,
               endpoint: Tuple[str, int], value: int = 0,
               delay_ms_at_round: Optional[Tuple[int, int]] = None,
               ready=None, trace: Optional[list] = None) -> int:
    """Serve one honest prover session on a listening endpoint.

    Both provers must hold the same shared_secret_seed (their joint
    randomness); pads are the same labeled stream the in-process engine
    uses, so equal seeds reproduce engine transcripts byte for byte.
    The prover answers each of its own rounds once and in order, a
    CHALLENGE for rounds up to m and the OPEN at m+1; any other frame gets
    ABORT 0x02, since a second challenge for a round would reveal the
    committed value.
    delay_ms_at_round=(round, ms) stalls one response past the verifier's
    deadline; trace collects every received frame (test hooks).  Returns 0
    on a completed session (RESULT seen), 1 on abort or handshake rejection.
    Raises ValueError, before binding, for a bad role, a committed value
    outside the field or the domain, or an m too large for the 16-bit round
    field of a frame.
    """
    if role not in ("P", "Q"):
        raise ValueError("role must be 'P' or 'Q'")
    check_committed_value(params, value)
    _check_round_count(params)
    spec = params.field
    pad = shared_pads(prover_root_seed(shared_secret_seed), spec.n)

    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    try:
        srv.bind(endpoint)
        srv.listen(1)
        if ready is not None:
            ready((srv.getsockname()[0], srv.getsockname()[1]))
        conn, _ = srv.accept()
    finally:
        srv.close()
    try:
        conn.settimeout(30.0)
        hello = recv_frame(conn)
        if trace is not None:
            trace.append(hello)
        if hello.type != T_OPEN or hello.body != _handshake_blob(params, role):
            send_frame(conn, WireMessage(T_ABORT, 0, bytes([ABORT_MALFORMED])))
            return 1
        send_frame(conn, WireMessage(T_OPEN, 0, hello.body))
        m = params.m
        mine = iter([i for i in range(m + 2) if active_prover(params, i) == role])
        i = next(mine, None)
        while True:
            msg = recv_frame(conn)
            if trace is not None:
                trace.append(msg)
            if msg.type == T_ABORT:
                return 1
            if msg.type == T_RESULT and i is None:
                return 0
            a = int.from_bytes(msg.body, "big")
            if (i is None or msg.round != i
                    or msg.type != (T_CHALLENGE if i <= m else T_OPEN)
                    or len(msg.body) != body_len(spec.n) or a >= spec.order):
                send_frame(conn, WireMessage(T_ABORT, msg.round,
                                             bytes([ABORT_MALFORMED])))
                return 1
            x = honest_reply(spec, m, i, a if i <= m else None, pad, value)
            if delay_ms_at_round and delay_ms_at_round[0] == i:
                time.sleep(delay_ms_at_round[1] / 1000.0)
            send_frame(conn, WireMessage(T_RESPONSE if i <= m else T_OPEN, i,
                                         element_body(spec.n, x)))
            i = next(mine, None)
    except (WireError, ConnectionError, OSError):
        return 1
    finally:
        conn.close()
