"""The benchmark's five workloads and the closed loop that drives them.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.  A pass is a
fixed-size batch of operations whose inputs come from
random.Random(f"{seed}/{workload}/{pass}"), so one seed always gives the
same inputs and relcommit only ever sees those generated inputs.  Every
operation is checked against an oracle from oracles.py; a wrong result, an
exception or an abort counts as a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import socket
import tempfile
import threading
from array import array
from contextlib import nullcontext
from time import perf_counter_ns
from typing import Callable, List, Optional

from relcommit import adversary, analysis, cli, engine, net
from relcommit.field import FieldSpec
from relcommit.scheme import SchemeParams, multiround_verify

import oracles
from tracing import TracedStrategy, Tracer, traced_module

POLY8 = 0x11B
POLY2 = 0x7


class SetupError(Exception):
    """The workload's fixed inputs contradict their oracle."""


class Failure:
    """Marks an operation that raised instead of returning."""

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __repr__(self):
        return f"raised {type(self.exc).__name__}: {self.exc}"


def warm_inverses(spec: FieldSpec):
    for a in range(1, spec.order):
        spec.inv_i(a)


class Workload:
    name = ""
    m = 0
    pass_size = 1

    def __init__(self, seed: int, tmp_dir: str):
        self.seed = seed
        self.tmp_dir = tmp_dir

    def setup(self):
        """Build fixed inputs and fill caches before anything is timed."""

    def rng(self, k: int) -> random.Random:
        return random.Random(f"{self.seed}/{self.name}/{k}")

    def inputs(self, k: int) -> list:
        rng = self.rng(k)
        return [self.make_input(rng) for _ in range(self.pass_size)]

    def make_input(self, rng: random.Random):
        raise NotImplementedError

    def prepare(self, inp):
        """Untimed work an operation needs before its clock starts."""
        return inp

    def run(self, ctx, tracer: Optional[Tracer]):
        raise NotImplementedError

    def check(self, inp, ctx, result) -> Optional[str]:
        """None if the operation's result is right, else why it is wrong."""
        raise NotImplementedError

    def rounds(self, inp) -> int:
        """Protocol rounds one operation completes: m + 1 challenge/response
        rounds plus the opening."""
        return self.m + 2

    def kind(self, inp):
        """Operations of one kind do the same work on different inputs."""
        return 0

    def traced(self, tracer: Tracer):
        return nullcontext()

    def end_pass(self):
        pass

    def aggregate(self) -> List[str]:
        """Statistical checks over every operation run so far."""
        return []


class Honest(Workload):
    """Honest in-process sessions at n = 8; with codec, each session is also
    written with Transcript.to_text, parsed back and re-verified."""

    def __init__(self, seed, tmp_dir, name, m, pass_size, codec):
        super().__init__(seed, tmp_dir)
        self.name, self.m, self.pass_size, self.codec = name, m, pass_size, codec
        self.sessions = 0
        self.rejected = 0

    def setup(self):
        self.spec = FieldSpec(8, POLY8)
        self.params = SchemeParams(self.spec, self.m)
        warm_inverses(self.spec)

    def make_input(self, rng):
        return rng.getrandbits(8), rng.getrandbits(64)

    def run(self, inp, tracer):
        value, seed = inp
        if tracer is None:
            t = engine.run_honest_session(self.params, value, seed)
            if not self.codec:
                return t, None, None
            text = t.to_text()
            back = engine.parse_transcript(text)
            return t, back, multiround_verify(
                back.params, back.challenges(), back.responses(),
                back.final_opening())
        t = tracer.call(
            "engine.run_attack_session", engine.run_attack_session, self.params,
            TracedStrategy(tracer, "engine.strategy", engine.HonestCommit(value)),
            TracedStrategy(tracer, "engine.strategy", engine.HonestOpen()), seed)
        if not self.codec:
            return t, None, None
        text = tracer.call("engine.transcript_encode", t.to_text)
        back = tracer.call("engine.transcript_parse", engine.parse_transcript, text)
        args = (back.params, back.challenges(), back.responses(), back.final_opening())
        return t, back, tracer.call("scheme.multiround_verify", multiround_verify, *args)

    def check(self, inp, ctx, result):
        if isinstance(result, Failure):
            return repr(result)
        value, seed = inp
        t, back, reverified = result
        self.sessions += 1
        if t.outcome != value:
            self.rejected += 1
        if not oracles.check_honest(self.spec.n, self.m, value, seed, t.outcome):
            return "honest session with nonzero challenges did not open its value"
        if self.codec:
            if back.to_text() != t.to_text():
                return "transcript is not byte-identical after a parse round trip"
            if reverified != t.outcome:
                return "re-verification disagrees with the recorded outcome"
        return None

    def aggregate(self):
        p = oracles.honest_reject_probability(self.spec.n, self.m)
        if not oracles.binomial_consistent(self.rejected, self.sessions, p):
            return [f"{self.rejected} rejections in {self.sessions} honest sessions "
                    f"is outside the binomial tail bound of p={p:.6f}"]
        return []


class TightnessAttack(Workload):
    """The n = 2 tightness attack with exact game tables, challenges drawn
    uniformly from the nonzero elements."""

    name = "tightness-attack"
    m = 21
    pass_size = 200

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        self.sessions = 0
        self.misses = 0

    def setup(self):
        self.spec = FieldSpec(2, POLY2)
        self.params = SchemeParams(self.spec, self.m)
        self.tables = adversary.brute_force_chsh(self.spec)
        wins = oracles.chsh_wins(self.tables.x_table, self.tables.y_table, 2, POLY2)
        if self.tables.q != oracles.Q2 or wins != 9:
            raise SetupError(f"n=2 tables win {wins}/16 and claim q={self.tables.q}, "
                             f"not the game value {oracles.Q2}")
        warm_inverses(self.spec)

    def make_input(self, rng):
        target = rng.randrange(self.spec.order)
        challenges = tuple(rng.randrange(1, self.spec.order) for _ in range(self.m + 1))
        return target, challenges, rng.getrandbits(64)

    def run(self, inp, tracer):
        target, challenges, seed = inp
        commit, open_ = adversary.tightness_strategy(target, self.tables, self.params)
        if tracer is None:
            return engine.run_attack_session(self.params, commit, open_, seed,
                                             fixed_challenges=challenges)
        return tracer.call(
            "engine.run_attack_session", engine.run_attack_session, self.params,
            TracedStrategy(tracer, "adversary.commit_step", commit),
            TracedStrategy(tracer, "adversary.open_step", open_), seed,
            fixed_challenges=challenges)

    def check(self, inp, ctx, result):
        if isinstance(result, Failure):
            return repr(result)
        target, challenges, _seed = inp
        self.sessions += 1
        if result.outcome != target:
            self.misses += 1
        sent = tuple(msg.payload for msg in result.messages if msg.sender == "V")
        if sent != challenges:
            return "session did not use the fixed challenges"
        return None

    def aggregate(self):
        p = oracles.tightness_miss_probability(self.m)
        if not oracles.binomial_consistent(self.misses, self.sessions, p):
            return [f"{self.misses} misses in {self.sessions} attack sessions is "
                    f"outside the binomial tail bound of p={p:.3e}"]
        return []


# (command, metric, n, extra arguments) of one analyzer pass, in order.
ANALYZER_CALLS = [
    ("analyze", "p0p1", 2, ()),
    ("analyze", "p0p1", 3, ()),
    ("analyze", "sim-open", 2, ()),
    ("analyze", "sim-open", 3, ()),
    ("analyze", "hiding", 2, ("--m", "1")),
    ("analyze", "hiding", 3, ("--m", "1")),
    ("analyze", "extractor", 2, ()),
    ("analyze", "k", 5, ()),
    ("analyze", "coupling", None, ("--trials", "1000")),
    ("chsh-search", None, 2, ()),
]


def analyzer_label(command: str, metric: Optional[str]) -> str:
    return metric if command == "analyze" else command


class ExactAnalysis(Workload):
    """One pass of in-process cli.main analyzer calls, stdout captured; each
    call is one operation."""

    name = "exact-analysis"
    pass_size = len(ANALYZER_CALLS)

    def __init__(self, seed, tmp_dir):
        super().__init__(seed, tmp_dir)
        self._dirs = []

    def inputs(self, k):
        coupling_seed = self.rng(k).getrandbits(31)
        cache = tempfile.mkdtemp(prefix="chsh-cache-", dir=self.tmp_dir)
        self._dirs.append(cache)
        out = []
        for idx, (command, metric, n, extra) in enumerate(ANALYZER_CALLS):
            argv = [command] + ([metric] if metric else [])
            if n is not None:
                argv += ["--n", str(n)]
            argv += list(extra)
            if metric == "coupling":
                argv += ["--seed", str(coupling_seed)]
            if command == "chsh-search":
                argv += ["--cache", cache]
            out.append((idx, command, metric, n, argv))
        return out

    def run(self, inp, tracer):
        idx, _command, _metric, _n, argv = inp
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    rc = tracer.call("cli.main", cli.main, argv, arg=idx)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
        return rc, buf.getvalue()

    def check(self, inp, ctx, result):
        if isinstance(result, Failure):
            return repr(result)
        _idx, command, metric, n, _argv = inp
        rc, out = result
        return oracles.check_analyzer(command, metric, n, rc, out)

    def rounds(self, inp):
        return 1

    def kind(self, inp):
        return inp[0]

    def traced(self, tracer):
        return traced_module(tracer, analysis, "analysis")

    def end_pass(self):
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)
        self._dirs = []


class Provers:
    """The two honest provers of one session, each on its own thread, both
    listening on 127.0.0.1 before the verifier is started."""

    def __init__(self, params: SchemeParams, seed: int, value: int):
        self.seed = seed
        self.endpoints = {}
        self.status = {}
        lock = threading.Lock()
        ready = threading.Event()

        def serve(role):
            def on_ready(ep):
                with lock:
                    self.endpoints[role] = ep
                    if len(self.endpoints) == 2:
                        ready.set()
            try:
                self.status[role] = net.run_prover(
                    role, params, seed, ("127.0.0.1", 0), value, ready=on_ready)
            except Exception as e:  # reported as a failed session by join()
                self.status[role] = repr(e)
                ready.set()

        self.threads = [threading.Thread(target=serve, args=(role,), daemon=True)
                        for role in ("P", "Q")]
        for th in self.threads:
            th.start()
        if not ready.wait(10.0) or len(self.endpoints) != 2:
            self.join()
            raise RuntimeError(f"provers did not start listening: {self.status}")

    def join(self, timeout: float = 10.0) -> dict:
        """Wait for both provers; unblock any still waiting for a verifier."""
        for role, th in zip(("P", "Q"), self.threads):
            th.join(0.5 if role in self.endpoints else timeout)
            if th.is_alive() and role in self.endpoints:
                try:
                    socket.create_connection(self.endpoints[role], timeout=1.0).close()
                except OSError:
                    pass
                th.join(timeout)
            if th.is_alive():
                self.status[role] = "still running"
        return dict(self.status)


class NetLoopback(Workload):
    """A networked session: net.serve_verifier on this thread against two
    net.run_prover threads over 127.0.0.1."""

    name = "net-loopback"
    m = 256
    pass_size = 8
    deadline_ms = 2000

    def __init__(self, seed, tmp_dir, m=None):
        super().__init__(seed, tmp_dir)
        if m is not None:
            self.m = m
        self.sessions = 0
        self.rejected = 0

    def setup(self):
        self.spec = FieldSpec(8, POLY8)
        self.params = SchemeParams(self.spec, self.m)
        warm_inverses(self.spec)

    def make_input(self, rng):
        return rng.getrandbits(8), rng.getrandbits(64)

    def prepare(self, inp):
        value, seed = inp
        return Provers(self.params, seed, value)

    def run(self, provers, tracer):
        cfg = net.DeadlineConfig(self.deadline_ms, provers.endpoints["P"],
                                 provers.endpoints["Q"])
        if tracer is None:
            return net.serve_verifier(self.params, cfg, provers.seed)
        return tracer.call("net.serve_verifier", net.serve_verifier,
                           self.params, cfg, provers.seed)

    def check(self, inp, provers, result):
        status = provers.join() if isinstance(provers, Provers) else {}
        if isinstance(result, Failure):
            return repr(result)
        value, seed = inp
        if result.aborted:
            return f"session aborted with reason 0x{result.abort_reason:02x}"
        if status != {"P": 0, "Q": 0}:
            return f"provers ended with {status}"
        self.sessions += 1
        if result.transcript.outcome != value:
            self.rejected += 1
        if not oracles.check_honest(self.spec.n, self.m, value, seed,
                                    result.transcript.outcome):
            return "honest session with nonzero challenges did not open its value"
        expected = engine.run_honest_session(self.params, value, seed).to_text()
        if result.transcript.to_text() != expected:
            return "loopback transcript differs from the in-process engine's"
        return None

    def aggregate(self):
        p = oracles.honest_reject_probability(self.spec.n, self.m)
        if not oracles.binomial_consistent(self.rejected, self.sessions, p):
            return [f"{self.rejected} rejections in {self.sessions} networked "
                    f"sessions is outside the binomial tail bound of p={p:.6f}"]
        return []


WORKLOADS = {
    "honest-short": lambda seed, tmp: Honest(seed, tmp, "honest-short", 4, 500, False),
    "honest-long": lambda seed, tmp: Honest(seed, tmp, "honest-long", 512, 4, True),
    "tightness-attack": TightnessAttack,
    "exact-analysis": ExactAnalysis,
    "net-loopback": NetLoopback,
}


class LatencyLog:
    """Operation latencies in ns, at most `capacity` of them in memory.

    Past capacity it keeps a uniform reservoir sample, so the benchmark's
    own memory does not grow with the program's throughput.
    """

    def __init__(self, seed: str, capacity: int):
        self.buf = array("q")
        self.capacity = capacity
        self.n = 0
        self._rng = random.Random(seed)

    def add(self, ns: int):
        if self.n < self.capacity:
            self.buf.append(ns)
        else:
            j = self._rng.randrange(self.n + 1)
            if j < self.capacity:
                self.buf[j] = ns
        self.n += 1

    def sorted(self) -> list:
        return sorted(self.buf)


class Stats:
    def __init__(self, seed: int, capacity: int = 1 << 14):
        self.seed = seed
        self.capacity = capacity
        self.by_kind = {}  # kind -> (LatencyLog, rounds of one operation)
        self.timed = 0
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []
        self.pass_ns: List[int] = []

    def add(self, kind, ns: int, rounds: int):
        if kind not in self.by_kind:
            self.by_kind[kind] = (LatencyLog(f"{self.seed}/{kind}", self.capacity), rounds)
        self.by_kind[kind][0].add(ns)
        self.timed += 1

    def latencies(self) -> list:
        """Every kept latency, in ns, sorted."""
        return sorted(ns for log, _rounds in self.by_kind.values() for ns in log.buf)

    def fail(self, reason: str):
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def run_pass(wl: Workload, k: int, stats: Stats, tracer: Optional[Tracer] = None):
    """Run pass k of the workload, timing and checking every operation."""
    inputs = wl.inputs(k)
    pass_ns = 0
    try:
        with (wl.traced(tracer) if tracer is not None else nullcontext()):
            for idx, inp in enumerate(inputs):
                stats.attempted += 1
                try:
                    ctx = wl.prepare(inp)
                except Exception as e:
                    stats.fail(f"{wl.name}: {Failure(e)!r}")
                    continue
                if tracer is not None:
                    tracer.begin_op()
                    span = tracer.start(f"op.{wl.name}", idx)
                t0 = perf_counter_ns()
                try:
                    result = wl.run(ctx, tracer)
                except Exception as e:
                    result = Failure(e)
                ns = perf_counter_ns() - t0
                if tracer is not None:
                    tracer.stop(span)
                reason = wl.check(inp, ctx, result)
                if reason is not None:
                    stats.fail(f"{wl.name}: {reason}")
                    continue
                stats.add(wl.kind(inp), ns, wl.rounds(inp))
                pass_ns += ns
    finally:
        wl.end_pass()
        if tracer is not None:
            tracer.flush()
    stats.pass_ns.append(pass_ns)


def run_for(wl: Workload, seconds: float, stats: Stats, min_samples: int = 100,
            tracer_every: Optional[Tracer] = None, traced_stats: Optional[Stats] = None,
            between_passes: Optional[Callable[[float], None]] = None) -> int:
    """Run passes until `seconds` have passed and `min_samples` untraced
    operations are timed; returns the next pass index.

    With tracer_every, odd passes run traced into traced_stats, so traced
    and untraced passes interleave over the same stretch of time.
    between_passes gets the seconds elapsed after each pass.
    """
    start = perf_counter_ns()
    deadline = start + int(seconds * 1e9)
    k = 0
    while True:
        if tracer_every is not None and k % 2:
            run_pass(wl, k, traced_stats, tracer_every)
        else:
            run_pass(wl, k, stats)
        k += 1
        now = perf_counter_ns()
        if between_passes is not None:
            between_passes((now - start) / 1e9)
        if now >= deadline and (stats.timed >= min_samples or stats.failed):
            return k
