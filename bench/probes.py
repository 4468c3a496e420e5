"""Per-layer probes: timed loops over one layer's public functions.

Inputs come from a random.Random seeded by the benchmark's seed.  Each
probe repeats its loop and reports the median repetition, and checks what
the loop computed so a probe never times a broken call.
"""

from __future__ import annotations

import random
import socket
import statistics
import threading
from time import perf_counter_ns

from relcommit import adversary, engine, net
from relcommit.field import FieldSpec

import oracles
from workloads import POLY2, POLY8, Honest, NetLoopback, Stats, run_pass


class ProbeError(Exception):
    """A probed call returned a wrong result."""


def _median_per_item(reps: int, once) -> float:
    """Median over repetitions of ns per item; once() returns its items."""
    samples = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        items = once()
        samples.append((perf_counter_ns() - t0) / items)
    return statistics.median(samples)


def field_mul_ns(rng: random.Random, pairs: int = 10_000, reps: int = 3) -> float:
    spec = FieldSpec(8, POLY8)
    data = [(rng.randrange(256), rng.randrange(256)) for _ in range(pairs)]
    for a, b in data[:64]:
        if spec.mul_i(a, b) != oracles.gf_mul(a, b, 8, POLY8):
            raise ProbeError(f"mul_i({a}, {b}) is wrong")
    mul = spec.mul_i

    def once():
        for a, b in data:
            mul(a, b)
        return len(data)
    return _median_per_item(reps, once)


def field_inv_cold_ns(rng: random.Random, reps: int = 5) -> float:
    """Inversions of every nonzero element on a fresh FieldSpec, whose
    inverse cache starts empty."""
    elems = list(range(1, 256))
    rng.shuffle(elems)
    samples = []
    for _ in range(reps):
        spec = FieldSpec(8, POLY8)
        inv = spec.inv_i
        t0 = perf_counter_ns()
        for a in elems:
            inv(a)
        samples.append((perf_counter_ns() - t0) / len(elems))
        for a in elems[:16]:
            if oracles.gf_mul(a, spec.inv_i(a), 8, POLY8) != 1:
                raise ProbeError(f"inv_i({a}) is wrong")
    return statistics.median(samples)


def stream_value_ns(rng: random.Random, calls: int = 10_000, reps: int = 3) -> float:
    seed = rng.getrandbits(64)
    idx = [rng.getrandbits(16) for _ in range(calls)]
    if engine.stream_value(seed, oracles.STREAM_CHALLENGE, 0, 8) != \
            oracles.verifier_challenges(seed, 8, 0)[0]:
        raise ProbeError("stream_value disagrees with SplitMix64")
    sv = engine.stream_value

    def once():
        for i in idx:
            sv(seed, 0x56, i, 8)
        return len(idx)
    return _median_per_item(reps, once)


def _session_latencies_us(wl, passes: int) -> list:
    """Latencies of a workload's first passes, every session checked."""
    wl.setup()
    stats = Stats(wl.seed, 1 << 12)
    for k in range(passes):
        run_pass(wl, k, stats)
    if stats.failed:
        raise ProbeError("; ".join(stats.reasons))
    return [ns / 1e3 for ns in stats.latencies()]


def round_us(seed: int, m: int, sessions: int) -> float:
    """Median over honest n = 8 sessions of µs per round (m + 2 rounds)."""
    wl = Honest(seed, "", f"probe-m{m}", m, sessions, codec=False)
    return statistics.median(_session_latencies_us(wl, 1)) / (m + 2)


def tables_ms(reps: int = 5) -> float:
    """brute_force_chsh at n = 2 plus a serialize/parse round trip."""
    samples = []
    for _ in range(reps):
        t0 = perf_counter_ns()
        tables = adversary.brute_force_chsh(FieldSpec(2, POLY2))
        back = adversary.parse_tables(adversary.serialize_tables(tables))
        samples.append((perf_counter_ns() - t0) / 1e6)
        if back != tables or tables.q != oracles.Q2:
            raise ProbeError("n=2 tables are wrong or do not survive the codec")
    return statistics.median(samples)


def frame_codec_ns(rng: random.Random, frames: int = 10_000, reps: int = 3) -> float:
    """net.frame + net.parse of one RESPONSE frame at n = 8."""
    msgs = [net.WireMessage(net.T_RESPONSE, rng.randrange(1 << 16),
                            net.element_body(8, rng.randrange(256)))
            for _ in range(frames)]
    if any(net.parse(net.frame(msg)) != msg for msg in msgs[:64]):
        raise ProbeError("frame/parse round trip changed a message")
    frame, parse = net.frame, net.parse

    def once():
        for msg in msgs:
            parse(frame(msg))
        return len(msgs)
    return _median_per_item(reps, once)


def loopback_rtt_us(rng: random.Random, echoes: int = 1000) -> float:
    """Median time to echo one CHALLENGE frame through send_frame/recv_frame
    over a TCP connection on 127.0.0.1: the floor under every session round."""
    srv = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    srv.bind(("127.0.0.1", 0))
    srv.listen(1)
    errors = []

    def echo():
        try:
            conn, _ = srv.accept()
            with conn:
                conn.settimeout(10.0)
                while True:
                    msg = net.recv_frame(conn)
                    if msg.type == net.T_RESULT:
                        return
                    net.send_frame(conn, msg)
        except Exception as e:  # surfaced below as a probe failure
            errors.append(e)

    th = threading.Thread(target=echo, daemon=True)
    th.start()
    samples = []
    try:
        with socket.create_connection(srv.getsockname(), timeout=10.0) as c:
            for i in range(echoes):
                msg = net.WireMessage(net.T_CHALLENGE, i, net.element_body(8, rng.randrange(256)))
                t0 = perf_counter_ns()
                net.send_frame(c, msg)
                back = net.recv_frame(c)
                samples.append((perf_counter_ns() - t0) / 1e3)
                if back != msg:
                    raise ProbeError("echoed frame differs")
            net.send_frame(c, net.WireMessage(net.T_RESULT, 0, b""))
    finally:
        th.join(10.0)
        srv.close()
    if errors or th.is_alive():
        raise ProbeError(f"echo thread failed: {errors or 'still running'}")
    return statistics.median(samples)


def connect_us(seed: int, passes: int = 3) -> float:
    """Median latency of a networked session at m = 0: connect, handshake,
    one challenge, the opening and the result."""
    return statistics.median(_session_latencies_us(NetLoopback(seed, "", m=0), passes))
