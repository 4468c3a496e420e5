"""Networked sessions: P, Q and V as processes over a length-prefixed protocol.

Frame layout (``_HEAD``): 4-byte big-endian length, then type (1), round
(2, big-endian), body.  Bodies carry one field element in ceil(n/8)
big-endian bytes except for the handshake and ABORT (1-byte reason).  One
rule, ``_round_frames``, gives both ends the layout of every round frame
and the RESULT and the types asked and answered at each round.  Each side
knows the size of every frame it expects.  One loop, ``_fill``, reads
every frame: it refuses an expected one as soon as its first 4 bytes
declare another length, and it tells a close before a frame's first byte
(ConnectionError) from one after it (WireError).  Only the verifier keeps
time: one absolute deadline per handshake (SETUP_S) and per round (taken
as the challenge is sent, at most MAX_DEADLINE_MS), each read waiting only
for the time that remains, so a frame not in by then aborts the session,
whatever length it declares.  That is what makes the no-communication
window operational.  ABORT frames carry the round.

The verifier drives the same sans-IO ``engine.Verifier`` as the in-process
engine, never issuing challenge i before response i-1 is validated.  With
the provers seeded as in the engine, the two transcripts are byte-identical.
"""

from __future__ import annotations

import socket
import struct
import time
from dataclasses import dataclass
from typing import Optional, Tuple

from .engine import HonestProver, Transcript, Verifier, honest_reply, prover_root_seed
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
SETUP_S = 5.0  # the verifier's limit on each connect, handshake and RESULT send
MAX_DEADLINE_MS = 86_400_000  # one day; far longer ones overflow a socket timeout
_HEAD = struct.Struct(">IBH")  # length, type, round


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
    return _HEAD.pack(length, msg.type, msg.round) + msg.body


def _declared_length(data: bytes) -> int:
    """The length that a frame's first 4 bytes declare; raises WireError
    unless it is between the header size and 2^16."""
    length = int.from_bytes(data[:4], "big")
    if length > MAX_FRAME:
        raise WireError("declared length exceeds 2^16 bytes")
    if length < 3:
        raise WireError("declared length below header size")
    return length


def parse(data: bytes) -> WireMessage:
    if len(data) < 7:
        raise WireError("frame underflow (need length prefix and header)")
    length = _declared_length(data)
    if len(data) != 4 + length:
        raise WireError(f"frame length mismatch: declared {length}, "
                        f"carried {len(data) - 4}")
    _, mtype, rnd = _HEAD.unpack_from(data)
    if mtype not in _TYPES:
        raise WireError(f"unknown frame type 0x{mtype:02x}")
    return WireMessage(mtype, rnd, data[7:])


def element_body(spec_n: int, value: int) -> bytes:
    return value.to_bytes(body_len(spec_n), "big")


def _fill(sock: socket.socket, buf: bytearray, got: int = 0,
          deadline: Optional[float] = None, expect: bytes = b"") -> int:
    """Read into buf, whose first got bytes are in, until it is full or
    its first 4 bytes are in and differ from expect's; return the count
    in.  With a deadline (a time.monotonic() reading) each recv waits only
    for the time left, and TimeoutError is raised once none is.  A close
    is ConnectionError before a frame's first byte, WireError after it."""
    size = len(buf)
    while got < size:
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("reply deadline passed")
            sock.settimeout(left)
        k = sock.recv_into(memoryview(buf)[got:] if got else buf)
        if not k:
            if got:
                raise WireError("truncated frame (peer closed mid-frame)")
            raise ConnectionError("peer closed the connection")
        got += k
        if 4 <= got < size and not buf.startswith(expect[:4]):
            break
    return got


def recv_frame(sock: socket.socket, head: bytes = b"") -> WireMessage:
    """Read one frame, of which head (empty, or at least its 4 length
    bytes) has already been read; bytes of head past the frame are dropped."""
    if not head:
        head = bytearray(4)
        _fill(sock, head)
    buf = bytearray(4 + _declared_length(head))
    got = min(len(head), len(buf))
    buf[:got] = head[:got]
    _fill(sock, buf, got)
    return parse(bytes(buf))


def _recv_reply(sock: socket.socket, buf: bytearray, expect: bytes, order: int,
                deadline: Optional[float] = None) -> int:
    """Read one frame of exactly len(buf) bytes into buf (``_fill``);
    return 0 when it is the frame expected, else the count of bytes read
    (at least 4).  The frame expected starts with expect (a header or a
    whole frame) and the bytes after it are a big-endian value below
    order.  With a deadline, TimeoutError is raised once it has passed,
    also when the frame is complete."""
    got = _fill(sock, buf, 0, deadline, expect)
    if got == len(buf) and deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("reply deadline passed")
    if buf.startswith(expect) and int.from_bytes(buf[len(expect):], "big") < order:
        return 0
    return got


def send_frame(sock: socket.socket, msg: WireMessage):
    sock.sendall(frame(msg))


def _check_round_count(params: SchemeParams):
    """Raise ValueError unless every round 0..m+1 fits a frame header."""
    if params.m + 1 > MAX_ROUND:
        raise ValueError(f"networked sessions need m <= {MAX_ROUND - 1}, "
                         f"got m={params.m}")


def _round_frames(params: SchemeParams):
    """The round-frame rule, for both ends of a session.

    Returns (length, nbytes, pack, kinds).  Every round frame and the
    RESULT is 4 + length bytes whose body is one field element in nbytes
    big-endian bytes (all-FF for a rejecting RESULT, zero for the OPEN
    request); pack(length, type, round, body) builds one.  kinds[i > m] is
    the (asked, answered) type pair of round i: a CHALLENGE answered by a
    RESPONSE up to m, an OPEN request answered by the OPEN at m + 1.
    """
    nbytes = body_len(params.field.n)
    return (3 + nbytes, nbytes, struct.Struct(_HEAD.format + f"{nbytes}s").pack,
            ((T_CHALLENGE, T_RESPONSE), (T_OPEN, T_OPEN)))


def _hello(params: SchemeParams, role: str) -> bytes:
    """The handshake frame the verifier sends a prover, which echoes it."""
    blob = (MAGIC + bytes([VERSION, params.field.n])
            + struct.pack(">IH", params.field.poly, params.m)
            + bytes([params.domain_bits or params.field.n])
            + params.first_committer.encode()
            + role.encode())
    return frame(WireMessage(T_OPEN, 0, blob))


@dataclass
class DeadlineConfig:
    per_round_ms: int
    p_endpoint: Tuple[str, int]
    q_endpoint: Tuple[str, int]

    def __post_init__(self):
        if not 0 < self.per_round_ms <= MAX_DEADLINE_MS:
            raise ValueError(f"per_round_ms must be in 1..{MAX_DEADLINE_MS} (one day), "
                             f"got {self.per_round_ms}")


@dataclass
class SessionResult:
    transcript: Transcript
    abort_reason: Optional[int] = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None


def _abort_all(conns, reason: int, round_index: int):
    for c in conns.values():
        try:
            send_frame(c, WireMessage(T_ABORT, round_index, bytes([reason])))
        except OSError:
            pass


def serve_verifier(params: SchemeParams, deadlines: DeadlineConfig,
                   seed: int) -> SessionResult:
    """Drive one session against listening provers, enforcing deadlines.

    A late handshake echo or reply aborts with reason 0x01, a malformed one
    with 0x02 and a lost connection with 0x03, in ABORT frames that carry
    the round in progress.  Raises ValueError, before connecting, when
    m + 1 does not fit the 16-bit round field of a frame.
    """
    _check_round_count(params)
    verifier = Verifier(params, seed)
    conns = {}
    try:
        try:
            reason = _session(params, deadlines, verifier, conns)
        except OSError:  # refused, reset or closed; or a setup step timed out
            reason = ABORT_CONNECTION
        if reason is not None:
            _abort_all(conns, reason, min(verifier.round, params.m + 1))
    finally:
        for c in conns.values():
            c.close()
    return SessionResult(verifier.transcript, reason)


def _session(params: SchemeParams, deadlines: DeadlineConfig, verifier: Verifier,
             conns: dict) -> Optional[int]:
    """Connect (into conns), shake hands, run every round and send the
    RESULT; return None, or the reason an echo or a reply was refused."""
    for role, ep in (("P", deadlines.p_endpoint), ("Q", deadlines.q_endpoint)):
        c = conns[role] = socket.create_connection(ep, timeout=SETUP_S)
        hello = _hello(params, role)
        deadline = time.monotonic() + SETUP_S
        c.sendall(hello)
        reason = _await_reply(c, bytearray(len(hello)), hello, 1, deadline)
        if reason is not None:
            return reason

    length, nbytes, pack, kinds = _round_frames(params)
    m, order = params.m, params.field.order
    timeout = deadlines.per_round_ms / 1000.0
    buf = bytearray(4 + length)
    while not verifier.done:
        i, prover, a = verifier.request()
        conn = conns[prover]
        ask, answer = kinds[i > m]
        request = pack(length, ask, i, (a or 0).to_bytes(nbytes, "big"))  # OPEN: a is None
        expect = _HEAD.pack(length, answer, i)
        deadline = time.monotonic() + timeout
        conn.sendall(request)
        reason = _await_reply(conn, buf, expect, order, deadline)
        if reason is not None:
            return reason
        verifier.receive(int.from_bytes(buf[7:], "big"))
    outcome = verifier.transcript.outcome
    result = pack(length, T_RESULT, m + 1,
                  b"\xff" * nbytes if outcome is BOT else outcome.to_bytes(nbytes, "big"))
    for c in conns.values():
        c.settimeout(SETUP_S)
        c.sendall(result)
    return None


def _await_reply(conn: socket.socket, buf: bytearray, expect: bytes, order: int,
                 deadline: float) -> Optional[int]:
    """The verifier's wait for one echo or reply: None when buf holds it,
    else the abort reason; a close raises ConnectionError (0x03)."""
    try:
        return ABORT_MALFORMED if _recv_reply(conn, buf, expect, order, deadline) else None
    except TimeoutError:
        return ABORT_DEADLINE
    except WireError:
        return ABORT_MALFORMED


def run_prover(role: str, params: SchemeParams, shared_secret_seed: int,
               endpoint: Tuple[str, int], value: int = 0, ready=None) -> int:
    """Serve one honest prover session on a listening endpoint.

    Both provers must hold the same shared_secret_seed (their joint
    randomness); the prover binds an ``engine.HonestProver`` to its root
    split before listening, as the in-process engine binds it, so equal
    seeds reproduce engine transcripts byte for byte.
    The prover echoes the handshake for its role, answers each of its own
    rounds once and in order (a CHALLENGE up to m, the OPEN at m+1) and
    takes the RESULT; any other frame gets ABORT 0x02, since a second
    challenge for a round would reveal the committed value.  ready, when
    given, is called with the bound endpoint once listening.  Returns 0
    on a completed session (RESULT seen), 1 on abort or handshake rejection.
    Raises ValueError, before listening and in this order, for a bad role,
    an m too large for the 16-bit round field of a frame, or a committed
    value outside the field or the domain.
    """
    if role not in ("P", "Q"):
        raise ValueError("role must be 'P' or 'Q'")
    _check_round_count(params)
    honest = HonestProver(value)
    honest.begin_session(params, prover_root_seed(shared_secret_seed))
    spec = params.field

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
        hello = _hello(params, role)
        buf = bytearray(len(hello))
        got = _recv_reply(conn, buf, hello, 1)
        if got:
            return _refuse(conn, bytes(buf[:got]))
        conn.sendall(hello)
        length, nbytes, pack, kinds = _round_frames(params)
        m = params.m
        buf = bytearray(4 + length)
        for i in [i for i in range(m + 2) if active_prover(params, i) == role]:
            ask, answer = kinds[i > m]
            got = _recv_reply(conn, buf, _HEAD.pack(length, ask, i), spec.order)
            if got:
                return _refuse(conn, bytes(buf[:got]))
            a = int.from_bytes(buf[7:], "big") if i <= m else None
            x = honest_reply(spec, m, i, a, honest.pad, value)
            conn.sendall(pack(length, answer, i, x.to_bytes(nbytes, "big")))
        # The RESULT body is a field element or all-FF for a rejection.
        got = _recv_reply(conn, buf, _HEAD.pack(length, T_RESULT, m + 1), 1 << 8 * nbytes)
        return _refuse(conn, bytes(buf[:got])) if got else 0
    except (WireError, OSError):  # a ConnectionError is an OSError
        return 1
    finally:
        conn.close()


def _refuse(conn: socket.socket, head: bytes) -> int:
    """A prover's answer to an unexpected frame, of which head (at least 4
    bytes) has been read: 1 after an ABORT, else ABORT 0x02 and 1."""
    msg = recv_frame(conn, head)
    if msg.type != T_ABORT:
        send_frame(conn, WireMessage(T_ABORT, msg.round, bytes([ABORT_MALFORMED])))
    return 1
