"""Wire framing and networked sessions on the loopback interface."""

import queue
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loopback
from relcommit import engine, net
from relcommit.field import FieldSpec
from relcommit.net import (
    ABORT_CONNECTION,
    ABORT_DEADLINE,
    ABORT_MALFORMED,
    T_ABORT,
    T_CHALLENGE,
    T_OPEN,
    T_RESPONSE,
    T_RESULT,
    DeadlineConfig,
    WireError,
    WireMessage,
    frame,
    parse,
    run_prover,
    serve_verifier,
)
from relcommit.scheme import SchemeParams


def test_frame_worked_example():
    msg = WireMessage(T_CHALLENGE, 0, bytes([0x2A]))
    assert frame(msg) == bytes.fromhex("0000000401 0000 2a".replace(" ", ""))


def test_parse_round_trip_examples():
    for mtype, rnd, body in [(T_CHALLENGE, 0, b"\x07"), (T_RESPONSE, 3, b"\xff\x01"),
                             (T_OPEN, 5, b""), (T_RESULT, 6, b"\xff"),
                             (T_ABORT, 2, b"\x01")]:
        msg = WireMessage(mtype, rnd, body)
        assert parse(frame(msg)) == msg


@settings(max_examples=200)
@given(st.sampled_from([T_CHALLENGE, T_RESPONSE, T_OPEN, T_RESULT, T_ABORT]),
       st.integers(0, 2**16 - 1), st.binary(max_size=64))
def test_parse_round_trip_random(mtype, rnd, body):
    msg = WireMessage(mtype, rnd, body)
    assert parse(frame(msg)) == msg


def test_parse_rejects_bad_frames():
    good = frame(WireMessage(T_CHALLENGE, 0, b"\x2a"))
    with pytest.raises(WireError):
        parse(good[:-1])  # truncated
    with pytest.raises(WireError):
        parse(good + b"\x00")  # trailing junk
    with pytest.raises(WireError):
        parse(b"\x00\x00")  # underflow
    bad_type = bytearray(good)
    bad_type[4] = 0x07
    with pytest.raises(WireError):
        parse(bytes(bad_type))
    oversize = bytearray(good)
    oversize[0:4] = (1 << 17).to_bytes(4, "big")
    with pytest.raises(WireError):
        parse(bytes(oversize))
    with pytest.raises(WireError):
        frame(WireMessage(0x07, 0, b""))
    with pytest.raises(WireError):
        frame(WireMessage(T_OPEN, 0, b"\x00" * (1 << 16)))


@pytest.mark.parametrize("length, why", [
    (0, "declared length below header size"),
    (2, "declared length below header size"),
    ((1 << 16) + 1, "declared length exceeds 2^16 bytes"),
    ((1 << 32) - 1, "declared length exceeds 2^16 bytes"),
])
def test_parse_and_recv_frame_refuse_a_declared_length_alike(length, why):
    # parse and recv_frame check a frame's declared length by one rule, so
    # both refuse it with one text, recv_frame before it reads the body.
    data = length.to_bytes(4, "big") + bytes([T_CHALLENGE, 0, 0])
    with pytest.raises(WireError) as parsed:
        parse(data)
    a, b = socket.socketpair()
    with a, b:
        a.sendall(data)
        with pytest.raises(WireError) as received:
            net.recv_frame(b)
        assert b.recv(3) == data[4:]
    assert str(parsed.value) == str(received.value) == why
    for length in (3, 1 << 16):
        good = frame(WireMessage(T_OPEN, 1, b"\x00" * (length - 3)))
        a, b = socket.socketpair()
        with a, b:
            a.sendall(good)
            assert net.recv_frame(b) == parse(good) == WireMessage(T_OPEN, 1, good[7:])


@pytest.mark.parametrize(
    "sent", [b"", b"\x00\x00", frame(WireMessage(T_OPEN, 1, b"\x2a\x2b"))[:8]],
    ids=["nothing", "half-the-length", "part-of-the-body"])
def test_recv_frame_tells_a_close_from_a_truncated_frame(sent):
    # A peer that closes before a frame's first byte has closed the
    # connection; one that closes after it has cut the frame short.
    a, b = socket.socketpair()
    with a, b:
        a.sendall(sent)
        a.shutdown(socket.SHUT_WR)
        if not sent:
            with pytest.raises(ConnectionError, match="^peer closed the connection$"):
                net.recv_frame(b)
        else:
            with pytest.raises(WireError, match=r"^truncated frame \(peer closed mid-frame\)$"):
                net.recv_frame(b)


def start_provers(params, seed, value=0):
    """Both honest provers listening on ephemeral ports: (endpoints, join)."""
    return loopback.start(*loopback.honest(params, seed, value))


def test_loopback_transcript_matches_engine():
    params = SchemeParams(FieldSpec.default(8), m=4)
    seed = 42
    endpoints, join = start_provers(params, seed, value=0x17)
    cfg = DeadlineConfig(2000, endpoints["P"], endpoints["Q"])
    res = serve_verifier(params, cfg, seed)
    statuses = join()
    assert not res.aborted
    assert statuses == {"P": 0, "Q": 0}
    expected = engine.run_honest_session(params, 0x17, seed)
    assert res.transcript.to_text() == expected.to_text()


def test_loopback_odd_m_final_sender():
    params = SchemeParams(FieldSpec.default(3), m=3)
    endpoints, join = start_provers(params, 7, value=0x5)
    cfg = DeadlineConfig(2000, endpoints["P"], endpoints["Q"])
    res = serve_verifier(params, cfg, 7)
    join()
    assert res.transcript.to_text() == engine.run_honest_session(params, 0x5, 7).to_text()
    assert res.transcript.messages[-1].sender == "P"


@pytest.mark.parametrize("n", [8, 16])
def test_delayed_prover_aborts_with_deadline_reason(monkeypatch, n):
    # At n = 16 the ABORT frame (8 bytes) is one byte shorter than the
    # challenge P waits for; P must still read it as an ABORT and stop.
    # Round 1 is Q's, so Q is the late prover.
    params = SchemeParams(FieldSpec.default(n), m=4)
    loopback.late_reply(monkeypatch, 1, 400)
    endpoints, join = start_provers(params, 42, value=1)
    cfg = DeadlineConfig(100, endpoints["P"], endpoints["Q"])
    res = serve_verifier(params, cfg, 42)
    start = time.monotonic()
    statuses = join()
    assert time.monotonic() - start < 3.0
    assert res.aborted
    assert res.abort_reason == ABORT_DEADLINE
    assert statuses == {"P": 1, "Q": 1}


def test_aborted_session_keeps_the_engine_prefix(monkeypatch):
    # Q stalls its round-3 response: the verifier has issued challenges
    # 0..3 and taken responses 0..2, the first 2k+1 messages of the
    # in-process session with the same seed.  Q stalling the opening at
    # round m+1 = 5 leaves all 2(m+1) challenge and response messages.
    params = SchemeParams(FieldSpec.default(8), m=4)
    for k, kept in ((3, 7), (5, 10)):
        loopback.late_reply(monkeypatch, k, 400)
        endpoints, join = start_provers(params, 42, value=0x17)
        res = serve_verifier(params, DeadlineConfig(100, endpoints["P"], endpoints["Q"]), 42)
        join()
        assert res.aborted and res.abort_reason == ABORT_DEADLINE
        expected = engine.run_honest_session(params, 0x17, 42).messages[:kept]
        assert list(res.transcript.messages) == expected


@pytest.mark.parametrize("role,script", [
    # P answers round 0 once: a second round-0 challenge would give away
    # the committed value as (x + x')(a + a')^-1.
    ("P", [WireMessage(T_CHALLENGE, 0, b"\x01"), WireMessage(T_CHALLENGE, 0, b"\x02")]),
    ("P", [WireMessage(T_CHALLENGE, 1, b"\x01")]),   # round 1 is Q's
    ("Q", [WireMessage(T_OPEN, 3, b"\x00")]),        # y_m before the challenges
    ("P", [WireMessage(T_CHALLENGE, 0, b"\x00\x01")]),  # body longer than n bits need
    ("P", [WireMessage(T_CHALLENGE, 0, b"\x08")]),   # value not below 2^n
], ids=["repeated-round", "other-provers-round", "early-open", "long-body", "big-value"])
def test_prover_answers_only_its_next_round(role, script):
    # A scripted verifier: each frame but the last is answered, the last
    # one gets ABORT 0x02 and the prover reports failure.
    params = SchemeParams(FieldSpec.default(3), m=2)
    status = []
    endpoint = queue.Queue()
    t = threading.Thread(target=lambda: status.append(run_prover(
        role, params, 5, ("127.0.0.1", 0), value=0x5, ready=endpoint.put)), daemon=True)
    t.start()
    with socket.create_connection(endpoint.get(timeout=5.0), timeout=5.0) as c:
        c.sendall(net._hello(params, role))
        net.recv_frame(c)
        replies = []
        for msg in script:
            net.send_frame(c, msg)
            replies.append(net.recv_frame(c))
    t.join(10.0)
    assert not t.is_alive()
    assert [r.type for r in replies] == [T_RESPONSE] * (len(script) - 1) + [T_ABORT]
    assert replies[-1].body == bytes([ABORT_MALFORMED])
    assert status == [1]


def test_prover_answers_on_the_wire():
    # n = 3, m = 1, seed 11: P answers the round-0 CHALLENGE (a = 3) with a
    # RESPONSE and the round-2 OPEN request with an OPEN, each 8 bytes,
    # carrying x_0 = 7 and y = 2 as the engine records them for challenges
    # 3 and 6; then it takes the RESULT and reports success.
    params = SchemeParams(FieldSpec.default(3), m=1)
    status = []
    endpoint = queue.Queue()
    t = threading.Thread(target=lambda: status.append(run_prover(
        "P", params, 11, ("127.0.0.1", 0), value=0x5, ready=endpoint.put)), daemon=True)
    t.start()
    with socket.create_connection(endpoint.get(timeout=5.0), timeout=5.0) as c:
        c.sendall(net._hello(params, "P"))
        net.recv_frame(c)
        replies = []
        for ask in ("0000000401000003", "0000000403000200"):
            c.sendall(bytes.fromhex(ask))
            replies.append(frame(net.recv_frame(c)).hex())
        c.sendall(bytes.fromhex("0000000404000205"))
    t.join(10.0)
    assert not t.is_alive()
    assert replies == ["0000000402000007", "0000000403000202"]
    assert status == [0]


def test_mismatched_seeds_break_opening():
    params = SchemeParams(FieldSpec.default(8), m=2)
    value = 0x33
    wrong = 0
    runs = 60
    for i in range(runs):
        res, _, _ = loopback.run(params, 3000 + i, 2000,
                                 loopback.prover("P", params, 1000 + i, value),
                                 loopback.prover("Q", params, 2000 + i, value))
        if res.transcript.outcome == value:
            wrong += 1
    assert wrong <= 2  # chance alignment only


def test_role_mismatch_rejected():
    # Both listeners claim role P; the verifier's Q handshake must fail.
    params = SchemeParams(FieldSpec.default(3), m=0)
    res, statuses, _ = loopback.run(params, 5, 2000, loopback.prover("P", params, 5),
                                    loopback.prover("P", params, 5))
    assert res.aborted
    assert res.abort_reason == ABORT_MALFORMED
    assert statuses["Q"] == 1


def after_round_0_challenge(act):
    """A fake P's script: echo the handshake, read the round-0 challenge,
    then return act(conn)."""
    def script(conn):
        hello = net.recv_frame(conn)
        net.send_frame(conn, WireMessage(T_OPEN, 0, hello.body))
        net.recv_frame(conn)
        return act(conn)
    return script


def test_truncated_frame_aborts_malformed():
    # A raw fake prover completes the handshake, then sends a lying length
    # prefix; the verifier must abort with reason 0x02.
    params = SchemeParams(FieldSpec.default(8), m=0)
    seed = 9

    def lie(conn):
        conn.sendall(b"\x00\x00\x00\x09\x02\x00\x00\xab")  # declares 9, carries 4
        conn.shutdown(socket.SHUT_WR)
        try:
            return net.recv_frame(conn)
        except Exception:
            return None

    res, got, _ = loopback.run(params, seed, 500, loopback.fake(after_round_0_challenge(lie)),
                               loopback.prover("Q", params, seed))
    assert res.aborted
    assert res.abort_reason == ABORT_MALFORMED
    assert got["P"] is not None and got["P"].type == T_ABORT
    assert got["P"].body == bytes([ABORT_MALFORMED])


def serve_against_fake_p(params, seed, deadline_ms, act):
    """serve_verifier against a real Q and a fake P that completes the
    handshake, reads the round-0 challenge, calls act(conn) and then holds
    the connection open until the verifier closes it.  Returns (result,
    seconds serve_verifier took)."""
    def hold(conn):
        conn.settimeout(5.0)
        try:
            act(conn)
            while conn.recv(64):  # hold the connection until V closes it
                pass
        except OSError:
            pass  # the verifier has aborted and closed

    res, _, took = loopback.run(params, seed, deadline_ms,
                                loopback.fake(after_round_0_challenge(hold)),
                                loopback.prover("Q", params, seed))
    return res, took


def trickle(data, every_s=0.08):
    def act(conn):
        for b in data:
            conn.sendall(bytes([b]))
            time.sleep(every_s)
    return act


@pytest.mark.parametrize("act,reason", [
    # a well-formed round-0 RESPONSE, one byte every 80 ms
    (trickle(frame(WireMessage(T_RESPONSE, 0, b"\x2a"))), ABORT_DEADLINE),
    # a frame declaring 60 bytes, trickled: the deadline passes before
    # the 4 length bytes are in
    (trickle(frame(WireMessage(T_RESPONSE, 0, bytes(57)))), ABORT_DEADLINE),
    # a declared length of 60 sent at once, its body never: refused on the
    # length alone
    (lambda conn: conn.sendall(frame(WireMessage(T_RESPONSE, 0, bytes(57)))[:7]),
     ABORT_MALFORMED),
], ids=["trickled-reply", "trickled-long-frame", "wrong-length"])
def test_verifier_decides_within_twice_the_deadline(act, reason):
    params = SchemeParams(FieldSpec.default(8), m=0)
    res, took = serve_against_fake_p(params, 9, 100, act)
    assert res.aborted and res.abort_reason == reason
    assert took < 0.2


def serve_against_fake_hello(params, act):
    """serve_verifier against a fake P that reads the handshake and calls
    act(conn, hello); P's handshake fails first, so Q's endpoint, where
    nothing listens, is never reached.  Returns (result, seconds
    serve_verifier took)."""
    with socket.socket() as srv:
        srv.bind(("127.0.0.1", 0))
        srv.listen(1)

        def fake_p():
            conn, _ = srv.accept()
            with conn:
                try:
                    act(conn, net.recv_frame(conn))
                except OSError:
                    pass  # the verifier has aborted and closed

        t = threading.Thread(target=fake_p, daemon=True)
        t.start()
        start = time.monotonic()
        res = serve_verifier(params, DeadlineConfig(100, srv.getsockname(), ("127.0.0.1", 1)),
                             9)
        took = time.monotonic() - start
        t.join(5.0)
        assert not t.is_alive()
    return res, took


def test_trickled_handshake_echo_misses_the_setup_deadline(monkeypatch):
    # A correct echo, one byte every 80 ms, takes ~2 s; the verifier gives
    # each handshake one deadline and decides when it passes.
    monkeypatch.setattr(net, "SETUP_S", 0.3)
    params = SchemeParams(FieldSpec.default(8), m=2)
    res, took = serve_against_fake_hello(params, lambda conn, hello: trickle(frame(hello))(conn))
    assert res.aborted and res.abort_reason == ABORT_DEADLINE
    assert took < 2 * 0.3


def test_trickled_handshake_echo_of_another_length_is_refused_on_its_length():
    # The echo declares one byte more than the handshake: refused with 0x02
    # once its 4 length bytes are in (~0.24 s), not after its ~2 s body.
    params = SchemeParams(FieldSpec.default(8), m=2)
    res, took = serve_against_fake_hello(
        params, lambda conn, hello: trickle(frame(WireMessage(T_OPEN, 0, hello.body + b"\0")))(conn))
    assert res.aborted and res.abort_reason == ABORT_MALFORMED
    assert took < 0.45


def test_abort_frames_carry_the_round_in_progress(monkeypatch):
    # The fake P answers round 0, then closes on round 2's challenge: the
    # real Q, waiting for round 3, gets ABORT 0x03 marked round 2.
    params = SchemeParams(FieldSpec.default(8), m=4)

    def act(conn):
        net.send_frame(conn, WireMessage(T_RESPONSE, 0, b"\x00"))
        assert net.recv_frame(conn).round == 2
        conn.close()

    q_trace = loopback.record_reads(monkeypatch)["Q"]
    res, _ = serve_against_fake_p(params, 9, 2000, act)
    assert res.aborted and res.abort_reason == ABORT_CONNECTION
    assert [(msg.type, msg.round) for msg in q_trace[1:]] == [(T_CHALLENGE, 1), (T_ABORT, 2)]
    assert q_trace[-1].body == bytes([ABORT_CONNECTION])


def test_an_abort_send_to_a_reset_connection_keeps_the_reason(monkeypatch):
    # The fake P resets its connection on round 0's challenge, so the ABORT
    # sent to it fails; Q still gets its ABORT and the session its reason.
    params = SchemeParams(FieldSpec.default(8), m=2)
    failed, send_frame = [], net.send_frame

    def sending(sock, msg):
        try:
            send_frame(sock, msg)
        except OSError:
            failed.append(msg)
            raise

    def reset(conn):
        conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        conn.close()

    monkeypatch.setattr(net, "send_frame", sending)
    q_trace = loopback.record_reads(monkeypatch)["Q"]
    res, _ = serve_against_fake_p(params, 9, 2000, reset)
    assert res.aborted and res.abort_reason == ABORT_CONNECTION
    assert failed == [WireMessage(T_ABORT, 0, bytes([ABORT_CONNECTION]))]
    assert q_trace[-1] == WireMessage(T_ABORT, 0, bytes([ABORT_CONNECTION]))


@settings(max_examples=300)
@given(st.binary(max_size=80))
def test_parse_returns_a_message_or_raises_wire_error(data):
    try:
        msg = parse(data)
    except WireError:
        return
    assert isinstance(msg, WireMessage)
    assert frame(msg) == data


REPLY_HEAD = frame(WireMessage(T_RESPONSE, 3, b"\x00"))[:7]  # n = 3, round 3


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([b"", REPLY_HEAD[:4], REPLY_HEAD]), st.binary(max_size=73),
       st.booleans())
def test_reply_reader_ends_every_input_within_the_deadline(head, tail, close):
    # Whatever a prover sends for a round, the verifier's wait ends in
    # accept (None), 0x01, 0x02 or, as serve_verifier reports a
    # ConnectionError, 0x03, and within twice the deadline.
    data = (head + tail)[:80]
    deadline_s = 0.1
    v, p = socket.socketpair()
    with v, p:
        p.sendall(data)
        if close:
            p.shutdown(socket.SHUT_WR)
        buf = bytearray(8)
        start = time.monotonic()
        try:
            got = net._await_reply(v, buf, REPLY_HEAD, 8, start + deadline_s)
        except ConnectionError:
            got = ABORT_CONNECTION
        took = time.monotonic() - start
    if len(data) >= 4 and data[:4] != REPLY_HEAD[:4]:
        want = ABORT_MALFORMED
    elif len(data) >= 8:
        want = None if data[:7] == REPLY_HEAD and data[7] < 8 else ABORT_MALFORMED
    elif close:
        want = ABORT_MALFORMED if data else ABORT_CONNECTION
    else:
        want = ABORT_DEADLINE
    assert got == want
    if got is None:
        assert buf == data[:8]
    assert took < 2 * deadline_s


def test_reply_reader_reads_nothing_once_the_deadline_has_passed(monkeypatch):
    monkeypatch.setattr(net.time, "monotonic", lambda: 10.0)
    reply = frame(WireMessage(T_RESPONSE, 3, b"\x01"))
    v, p = socket.socketpair()
    with v, p:
        p.sendall(reply)
        with pytest.raises(TimeoutError):
            net._recv_reply(v, bytearray(8), REPLY_HEAD, 8, deadline=1.0)
        assert v.recv(64) == reply  # no recv happened


def test_a_reply_completed_after_the_deadline_is_late(monkeypatch):
    # The clock reads 0 before the one recv that brings the whole frame,
    # and 10 after it: the frame is complete, but past the deadline.
    ticks = iter([0.0])
    monkeypatch.setattr(net.time, "monotonic", lambda: next(ticks, 10.0))
    v, p = socket.socketpair()
    with v, p:
        p.sendall(frame(WireMessage(T_RESPONSE, 3, b"\x01")))
        with pytest.raises(TimeoutError):
            net._recv_reply(v, bytearray(8), REPLY_HEAD, 8, deadline=1.0)


def test_connection_loss_aborts():
    params = SchemeParams(FieldSpec.default(3), m=0)
    cfg = DeadlineConfig(200, ("127.0.0.1", 1), ("127.0.0.1", 1))
    res = serve_verifier(params, cfg, 1)
    assert res.aborted
    assert res.abort_reason == ABORT_CONNECTION


def test_round_count_beyond_the_frame_header_is_rejected_before_connecting(monkeypatch):
    cfg = DeadlineConfig(200, ("127.0.0.1", 1), ("127.0.0.1", 1))
    # m = 65534 puts the opening at round 65535, the last a frame can carry.
    fits = SchemeParams(FieldSpec.default(3), m=0xFFFE)
    assert serve_verifier(fits, cfg, 1).abort_reason == ABORT_CONNECTION
    too_long = SchemeParams(FieldSpec.default(3), m=0xFFFF)
    with pytest.raises(ValueError, match="m <= 65534"):
        serve_verifier(too_long, cfg, 1)

    def bound(endpoint):
        pytest.fail(f"run_prover listened on {endpoint} for an m it cannot serve")
    drawn = []
    stream_values = engine.stream_values
    monkeypatch.setattr(engine, "stream_values", lambda *args: drawn.append(args) or
                        stream_values(*args))
    with pytest.raises(ValueError, match="m <= 65534"):
        run_prover("P", too_long, 1, ("127.0.0.1", 0), ready=bound)
    assert drawn == []  # no pad column for an m it cannot serve
    # The role is refused first, then the round count, then the value.
    with pytest.raises(ValueError, match="^role must be 'P' or 'Q'$"):
        run_prover("X", too_long, 1, ("127.0.0.1", 0), value=0x100, ready=bound)
    with pytest.raises(ValueError, match="m <= 65534"):
        run_prover("Q", too_long, 1, ("127.0.0.1", 0), value=0x100, ready=bound)
    assert drawn == []


def test_committed_value_outside_field_or_domain_is_rejected_before_binding():
    def bound(endpoint):
        pytest.fail(f"run_prover listened on {endpoint} for a value it cannot commit")
    gf256 = SchemeParams(FieldSpec.default(8), m=2)
    four_bits = SchemeParams(FieldSpec.default(8), m=2, domain_bits=4)
    for params, value, why in ((gf256, 0x100, r"^value 256 outside GF\(2\^8\)$"),
                               (four_bits, 0x10, "^committed value outside the scheme domain$")):
        for role in ("P", "Q"):
            with pytest.raises(ValueError, match=why):
                run_prover(role, params, 1, ("127.0.0.1", 0), value=value, ready=bound)
        # The same binder refuses it in process, with the same text.
        with pytest.raises(ValueError, match=why):
            engine.HonestProver(value).begin_session(params, 1)
    with pytest.raises(ValueError, match="^role must be 'P' or 'Q'$"):
        run_prover("X", gf256, 1, ("127.0.0.1", 0), ready=bound)


def echo_hello(conn, hello):
    conn.sendall(hello)
    net.recv_frame(conn)


@pytest.mark.parametrize("act", [
    lambda conn, hello: None,
    echo_hello,
    lambda conn, hello: (echo_hello(conn, hello),
                         conn.sendall(frame(WireMessage(T_CHALLENGE, 0, b"\x2a"))[:5])),
], ids=["before-the-handshake", "after-the-handshake", "mid-challenge"])
def test_prover_exits_1_when_the_verifier_closes(act):
    # A fake verifier connects to a real P, calls act(conn, handshake) and
    # closes: P reads a close or a cut frame and exits 1.
    params = SchemeParams(FieldSpec.default(8), m=2)
    endpoint, status = queue.Queue(), queue.Queue()
    threading.Thread(target=lambda: status.put(
        run_prover("P", params, 1, ("127.0.0.1", 0), ready=endpoint.put)), daemon=True).start()
    with socket.create_connection(endpoint.get(timeout=5.0)) as conn:
        act(conn, net._hello(params, "P"))
    assert status.get(timeout=5.0) == 1


def test_verifier_never_relays_prover_messages(monkeypatch):
    params = SchemeParams(FieldSpec.default(8), m=4)
    traces = loopback.record_reads(monkeypatch)
    endpoints, join = start_provers(params, 42, value=0x17)
    cfg = DeadlineConfig(2000, endpoints["P"], endpoints["Q"])
    res = serve_verifier(params, cfg, 42)
    join()
    assert not res.aborted
    for role in ("P", "Q"):
        kinds = [m.type for m in traces[role]]
        # Handshake, this prover's challenges, possibly one OPEN request,
        # and the final RESULT; never a RESPONSE or another prover's frame.
        assert T_RESPONSE not in kinds
        assert kinds.count(T_RESULT) == 1
    p_rounds = [m.round for m in traces["P"] if m.type == T_CHALLENGE]
    q_rounds = [m.round for m in traces["Q"] if m.type == T_CHALLENGE]
    assert p_rounds == [0, 2, 4]
    assert q_rounds == [1, 3]
    # m = 4 ends on P's round, so Q receives the OPEN request.
    assert any(m.type == T_OPEN and m.round == 5 for m in traces["Q"][1:])
    assert not any(m.type == T_OPEN for m in traces["P"][1:])


def test_deadline_config_validation():
    with pytest.raises(ValueError):
        DeadlineConfig(0, ("h", 1), ("h", 2))
    # Far longer deadlines overflow the socket timeout of a round read.
    DeadlineConfig(net.MAX_DEADLINE_MS, ("h", 1), ("h", 2))
    with pytest.raises(ValueError, match="one day"):
        DeadlineConfig(net.MAX_DEADLINE_MS + 1, ("h", 1), ("h", 2))
