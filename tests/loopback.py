"""Loopback harness for networked sessions.

Two listeners, one per prover role, each an honest ``net.run_prover`` or a
fake that scripts its connection; lateness at one round, added from
outside the prover; and a recorder of the frames each listener reads.
"""

import queue
import socket
import threading
import time
from functools import partial

from relcommit import engine, net
from relcommit.net import DeadlineConfig, serve_verifier


def prover(role, params, seed, value=0):
    """A listener running net.run_prover for role on an ephemeral port."""
    return partial(net.run_prover, role, params, seed, ("127.0.0.1", 0), value)


def honest(params, seed, value=0):
    """Both honest provers, sharing seed: (P listener, Q listener)."""
    return prover("P", params, seed, value), prover("Q", params, seed, value)


def fake(act):
    """A listener that accepts one connection on an ephemeral port and
    returns act(conn)."""
    def listen(ready):
        with socket.socket() as srv:
            srv.bind(("127.0.0.1", 0))
            srv.listen(1)
            ready(srv.getsockname())
            conn, _ = srv.accept()
        with conn:
            return act(conn)
    return listen


def start(p, q):
    """Run listeners p and q on threads named P and Q; each is called with
    ready=, which it calls with its endpoint once it listens.  Returns
    (endpoints, join) once both listen; join() waits for both threads to
    end and returns what each listener returned, by role."""
    listening, results = queue.Queue(), {}

    def run_listener(role, listen):
        results[role] = listen(ready=lambda endpoint: listening.put((role, endpoint)))

    threads = [threading.Thread(target=run_listener, args=(role, listen), name=role,
                                daemon=True)
               for role, listen in (("P", p), ("Q", q))]
    for t in threads:
        t.start()
    endpoints = dict(listening.get(timeout=5.0) for _ in threads)

    def join(timeout=5.0):
        for t in threads:
            t.join(timeout)
            assert not t.is_alive()
        return results

    return endpoints, join


def run(params, seed, deadline_ms, p, q):
    """One serve_verifier session against listeners p and q: (result, what
    each listener returned, seconds serve_verifier took)."""
    endpoints, join = start(p, q)
    began = time.monotonic()
    res = serve_verifier(params, DeadlineConfig(deadline_ms, endpoints["P"], endpoints["Q"]),
                         seed)
    took = time.monotonic() - began
    return res, join(), took


def late_reply(monkeypatch, round_index, ms):
    """Make the honest prover of round_index send its reply ms late."""
    def reply(spec, m, i, a, pad, value=0):
        x = engine.honest_reply(spec, m, i, a, pad, value)
        if i == round_index:
            time.sleep(ms / 1000.0)
        return x
    monkeypatch.setattr(net, "honest_reply", reply)


def record_reads(monkeypatch):
    """Record each frame that listener threads P and Q read through net's
    readers; returns {role: [WireMessage, ...]}, filled as they read.  A
    reply reader that returns 0 has read the frame it expected; one that
    returns a count has read a head, which recv_frame then completes."""
    frames = {"P": [], "Q": []}
    recv_reply, recv_frame = net._recv_reply, net.recv_frame

    def log(msg):
        frames.get(threading.current_thread().name, []).append(msg)
        return msg

    def reading_reply(sock, buf, expect, order, deadline=None):
        got = recv_reply(sock, buf, expect, order, deadline)
        if not got:
            log(net.parse(bytes(buf)))
        return got

    monkeypatch.setattr(net, "_recv_reply", reading_reply)
    monkeypatch.setattr(net, "recv_frame", lambda sock, head=b"": log(recv_frame(sock, head)))
    return frames
