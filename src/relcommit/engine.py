"""In-process session engine: commit/sustain/open as round-indexed messages.

One session is driven by a 64-bit master seed.  Labeled values are derived
with the SplitMix64 sequence (Steele/Lea/Flood's mix, as in SplittableRandom):
value(seed, stream, index) is the SplitMix64 finalizer of
seed + ((stream << 32) | index) * GAMMA mod 2^64 (see ``stream_u64``).
The verifier's challenge stream is labeled 'V'; prover-side randomness hangs
off a separate root split so strategies can never reconstruct upcoming
challenges.  2^64 is a multiple of 2^n, so reducing a stream value mod 2^n
is exactly uniform.

``Verifier`` is the verifier with no I/O; ``run_attack_session`` drives it
with in-process strategies and ``net.serve_verifier`` over sockets.  What an
honest prover sends is ``honest_reply``.

The no-communication constraint is structural: the engine calls a strategy
with the active party's ``PartyView`` only, and the view accessors raise
ProtocolViolation for anything outside it.  A prover sees its own rounds
plus, with a lag of two rounds, everything the other prover and the
verifier exchanged (the one-way prover-to-prover forwarding).  A view reads
the verifier's per-round challenge and reply lists by index and checks the
rule on each read, so the per-round cost of a session is flat in m.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple

from .field import FieldSpec
from .scheme import (BOT, OpenOutcome, SchemeParams, active_prover, chsh_response,
                     multiround_verify)

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# Stream labels (single ASCII bytes).
STREAM_CHALLENGE = 0x56   # 'V': verifier challenge per round
STREAM_PROVER_ROOT = 0x58  # 'X': root of all prover-side randomness
STREAM_SHARED = 0x53      # 'S': honest shared pad y_i per round
STREAM_GAME_A = 0x41      # 'A': game-wrapper draw r_a per attempt round
STREAM_GAME_B = 0x42      # 'B': game-wrapper draw r_s per attempt round
STREAM_RANDOM_OPEN = 0x52  # 'R': random-opening announcement
STREAM_TARGET = 0x54      # 'T': per-trial target draws
STREAM_TRIAL = 0x4C       # 'L': per-trial seed derivation
STREAM_PMF_P = 0x70       # 'p': first random pmf of the coupling check
STREAM_PMF_Q = 0x71       # 'q': second random pmf of the coupling check


def stream_u64(seed: int, stream: int, index: int) -> int:
    """index-th value of the labeled stream derived from seed."""
    z = (seed + (((stream << 32) | index) * _GAMMA)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, stream: int, index: int, n: int) -> int:
    """Uniform n-bit value from a labeled stream."""
    return stream_u64(seed, stream, index) & ((1 << n) - 1)


def prover_root_seed(master_seed: int) -> int:
    """Seed handed to prover strategies; a one-way split of the master."""
    return stream_u64(master_seed, STREAM_PROVER_ROOT, 0)


def shared_pads(prover_seed: int, n: int) -> Callable[[int], int]:
    """The honest provers' shared pads (their joint randomness) under
    prover_seed: the returned pad(i) is y_i.  It keeps the last (i, y_i):
    an honest reply at round i reads y_{i-1}, then y_i."""
    mask = (1 << n) - 1
    last = (-1, 0)

    def pad(i: int) -> int:
        nonlocal last
        j, y = last
        if j != i:
            y = stream_u64(prover_seed, STREAM_SHARED, i) & mask
            last = (i, y)
        return y
    return pad


def honest_reply(spec: FieldSpec, m: int, round_index: int, a: Optional[int],
                 pad: Callable[[int], int], value: int = 0) -> int:
    """What an honest prover sends at round_index, with pads y_i = pad(i).

    Rounds 0..m answer the challenge a with x_i = y_i + a*y_{i-1}, where
    y_{-1} = value is the committed value; the opening (round m+1)
    announces y_m and takes no challenge (a is None).
    """
    if round_index > m:
        return pad(m)
    prev = pad(round_index - 1) if round_index else value
    return chsh_response(spec, prev, pad(round_index), a)


def check_committed_value(params: SchemeParams, value: int) -> None:
    """Raise ValueError unless value is a field element inside the scheme's
    domain_bits domain."""
    k = params.domain_bits
    if k is not None and value >> k:
        raise ValueError("committed value outside the scheme domain")
    params.field.check(value)


class ProtocolViolation(Exception):
    """A strategy asked for a message outside its visible set."""


@dataclass(slots=True)
class RoundMessage:
    """One protocol message; the payload is a raw field element."""

    round: int
    sender: str
    receiver: str
    payload: int


@dataclass
class Transcript:
    params: SchemeParams
    seed: int
    messages: List[RoundMessage] = field(default_factory=list)
    outcome: OpenOutcome = BOT

    def challenges(self) -> List[int]:
        return [m.payload for m in self.messages if m.sender == "V"]

    def responses(self) -> List[int]:
        return [m.payload for m in self.messages
                if m.receiver == "V" and m.round <= self.params.m]

    def final_opening(self) -> int:
        if not self.messages or self.messages[-1].round != self.params.m + 1:
            raise ValueError("transcript has no final opening message")
        return self.messages[-1].payload

    def to_text(self) -> str:
        spec = self.params.field
        fmt = f"0{(spec.n + 3) // 4}x"
        order = spec.order
        lines = [_header(self.params, self.seed)]
        for msg in self.messages:
            v = msg.payload
            if not 0 <= v < order:
                spec.check(v)
            lines.append(f"round={msg.round} from={msg.sender} "
                         f"to={msg.receiver} payload={v:{fmt}}")
        out = "BOT" if self.outcome is BOT else spec.to_hex(self.outcome)
        lines.append(f"outcome={out}")
        return "\n".join(lines) + "\n"


def _header(params: SchemeParams, seed: int) -> str:
    return (f"#relcommit v1 n={params.field.n} poly=0x{params.field.poly:x} "
            f"m={params.m} seed={seed}")


def message_slot(params: SchemeParams, k: int) -> Tuple[int, str, str]:
    """(round, sender, receiver) of a session's k-th message: rounds 0..m
    are a challenge to the prover that ``active_prover`` names and its
    reply, round m+1 is that prover's opening alone."""
    if k > 2 * params.m + 2:
        raise ValueError(f"message {k} follows the opening")
    i = k // 2
    prover = active_prover(params, i)
    if k % 2 == 0 and i <= params.m:
        return i, "V", prover
    return i, prover, "V"


def _hex_field(spec: FieldSpec, width: int, text: str, what: str) -> int:
    """The v with ``spec.to_hex(v) == text``, width being ceil(n/4)."""
    if len(text) != width or text.strip("0123456789abcdef"):
        raise ValueError(f"{what} {text!r} is not {width} lowercase hex digits")
    return spec.check(int(text, 16))


class TranscriptParseError(Exception):
    def __init__(self, lineno: int, why: str):
        super().__init__(f"line {lineno}: {why}")
        self.lineno = lineno


def parse_transcript(text: str) -> Transcript:
    """Read back only what ``Transcript.to_text`` writes (README, "File
    formats"); anything else raises TranscriptParseError at its line."""
    lines = text.split("\n")
    if not lines[0].startswith("#relcommit v1 "):
        raise TranscriptParseError(1, "missing '#relcommit v1' header")
    try:
        hdr = dict(kv.split("=", 1) for kv in lines[0].split()[2:])
        spec = FieldSpec(int(hdr["n"]), int(hdr["poly"], 16))
        params = SchemeParams(spec, int(hdr["m"]))
        seed = int(hdr["seed"])
    except (KeyError, ValueError) as e:
        raise TranscriptParseError(1, f"bad header: {e}") from None
    if _header(params, seed) != lines[0]:
        raise TranscriptParseError(1, f"header must read {_header(params, seed)!r}")
    last = len(lines) - 1
    while last and not lines[last].strip():
        last -= 1
    has_outcome = lines[last].startswith("outcome=")
    width = (spec.n + 3) // 4
    t = Transcript(params, seed)
    messages = t.messages
    for idx in range(1, last if has_outcome else last + 1):
        line = lines[idx]
        if not line.strip():
            continue
        k = len(messages)
        try:
            if k == 0 and line.startswith("round=0 from=V to=Q "):
                # The header does not name the first committer; the round-0
                # challenge goes to it.
                params = t.params = replace(params, first_committer="Q")
            i, sender, receiver = message_slot(params, k)
            head = f"round={i} from={sender} to={receiver} payload="
            if not line.startswith(head):
                raise ValueError(f"message {k} must be round={i} from={sender} "
                                 f"to={receiver}")
            messages.append(RoundMessage(
                i, sender, receiver, _hex_field(spec, width, line[len(head):], "payload")))
        except ValueError as e:
            why = ("outcome line before the last line" if line.startswith("outcome=")
                   else f"bad message line: {e}")
            raise TranscriptParseError(idx + 1, why) from None
    if not has_outcome:
        raise TranscriptParseError(last + 2, "missing outcome line")
    val = lines[last][len("outcome="):]
    try:
        t.outcome = BOT if val == "BOT" else _hex_field(spec, width, val, "outcome")
    except ValueError as e:
        raise TranscriptParseError(last + 1, f"bad outcome line: {e}") from None
    return t


class PartyView:
    """What one party may consult at a given round.

    The view holds references to the verifier's per-round challenge and
    reply lists and reads them by index, so a read costs O(1) whatever m
    is.  Round i is visible when it was already issued or answered as the
    view was made, i <= round, and the party is the verifier, or i is at
    least ``lag`` rounds old (forwarded), or the party answered round i
    itself.  The first two cases make every round below one bound visible,
    round + 1 for the verifier and round - lag + 1 for a prover, so the
    view fixes that bound when it is made and asks ``active_prover`` only
    about the rounds inside the lag window.  Any other read, negative
    rounds included, raises ProtocolViolation.
    """

    __slots__ = ("party", "round", "_params", "_challenges", "_replies",
                 "_issued", "_answered", "_open")

    def __init__(self, party: str, round_index: int, params: SchemeParams,
                 challenges: Sequence[int], replies: Sequence[int], lag: int = 2):
        self.party = party
        self.round = round_index
        self._params = params
        self._challenges = challenges
        self._replies = replies
        # The lists may grow after the view is made; later entries stay unseen.
        end = round_index + 1
        count = len(challenges)
        self._issued = count if count < end else end
        count = len(replies)
        self._answered = count if count < end else end
        self._open = end if party == "V" else end - lag

    def _violation(self, i: int, kind: str) -> ProtocolViolation:
        return ProtocolViolation(
            f"{self.party} at round {self.round} may not read the round-{i} {kind}")

    def challenge(self, i: int) -> int:
        if 0 <= i < self._issued and (
                i < self._open or active_prover(self._params, i) == self.party):
            return self._challenges[i]
        raise self._violation(i, "challenge")

    def response(self, i: int) -> int:
        if 0 <= i < self._answered and (
                i < self._open or active_prover(self._params, i) == self.party):
            return self._replies[i]
        raise self._violation(i, "response")


# -- strategies --------------------------------------------------------------


class ProverStrategy:
    """Base of the seeded prover strategies: begin_session binds one
    session's parameters and prover root seed, and _pad(i) is then y_i."""

    def begin_session(self, params: SchemeParams, prover_seed: int):
        self.params = params
        self.seed = prover_seed
        self._pad = shared_pads(prover_seed, params.field.n)


class HonestCommit(ProverStrategy):
    """Round-0 behaviour of an honest committer: x_0 = y_0 + a_0 * s."""

    def __init__(self, value: int):
        self.value = value

    def begin_session(self, params: SchemeParams, prover_seed: int):
        super().begin_session(params, prover_seed)
        check_committed_value(params, self.value)

    def __call__(self, party: str, round_index: int, view: PartyView) -> int:
        return honest_reply(self.params.field, self.params.m, 0,
                            view.challenge(0), self._pad, self.value)


class HonestOpen(ProverStrategy):
    """Sustain and opening behaviour of honest provers.

    Round i >= 1 commits to the previous pad: x_i = y_i + a_i * y_{i-1};
    the final message announces y_m.
    """

    def __call__(self, party: str, round_index: int, view: PartyView) -> int:
        m = self.params.m
        a = view.challenge(round_index) if round_index <= m else None
        return honest_reply(self.params.field, m, round_index, a, self._pad)


class Verifier:
    """The verifier of one session, as a state machine with no I/O.

    Callers alternate request() -> (round, prover, challenge) and
    receive(reply) until done.  Rounds 0..m challenge with fixed_challenges
    or the seeded STREAM_CHALLENGE stream; round m+1 asks for the opening
    (challenge None), whose receipt sets the outcome via multiround_verify.
    Messages enter ``transcript`` as they are issued or received, so an
    aborted session keeps what was exchanged; ``challenges`` and
    ``responses`` hold a_i and x_i (i <= m) at index i, the lists that
    ``PartyView`` reads.
    """

    def __init__(self, params: SchemeParams, seed: int,
                 fixed_challenges: Optional[Sequence[int]] = None):
        self.params = params
        self.transcript = Transcript(params, seed)
        self.round = 0
        self.done = False
        self._fixed = fixed_challenges
        self._prover: Optional[str] = None
        self.challenges: List[int] = []
        self.responses: List[int] = []

    def request(self) -> Tuple[int, str, Optional[int]]:
        params = self.params
        i = self.round
        prover = self._prover = active_prover(params, i)
        if i > params.m:
            return i, prover, None
        spec = params.field
        if self._fixed is None:
            a = stream_value(self.transcript.seed, STREAM_CHALLENGE, i, spec.n)
        else:
            a = spec.check(self._fixed[i])
        self.transcript.messages.append(RoundMessage(i, "V", prover, a))
        self.challenges.append(a)
        return i, prover, a

    def receive(self, value: int) -> None:
        params = self.params
        i = self.round
        x = params.field.check(value)
        self.transcript.messages.append(RoundMessage(i, self._prover, "V", x))
        self.round = i + 1
        if i <= params.m:
            self.responses.append(x)
        else:
            self.transcript.outcome = multiround_verify(
                params, self.challenges, self.responses, x)
            self.done = True


def run_attack_session(params: SchemeParams, commit_strategy, open_strategy,
                       seed: int, fixed_challenges: Optional[Sequence[int]] = None,
                       forwarding_lag: int = 2) -> Transcript:
    """Run a session where the provers follow the given strategies.

    commit_strategy answers round 0; open_strategy answers rounds 1..m and
    the final opening message.  Each is called with (party, round, view)
    and must return a field value; the view reads exactly the messages that
    party may see.  Strategy objects are bound to one session at a time
    (begin_session re-binds them), so parallel sessions need fresh objects.
    fixed_challenges overrides the seeded verifier and forwarding_lag the
    two-round prover-to-prover delay (test knobs).
    """
    pseed = prover_root_seed(seed)
    for strat in (commit_strategy, open_strategy):
        begin = getattr(strat, "begin_session", None)
        if begin is not None:
            begin(params, pseed)

    verifier = Verifier(params, seed, fixed_challenges)
    while not verifier.done:
        i, prover, _ = verifier.request()
        strat = commit_strategy if i == 0 else open_strategy
        verifier.receive(strat(prover, i, PartyView(
            prover, i, params, verifier.challenges, verifier.responses,
            forwarding_lag)))
    return verifier.transcript


def run_honest_session(params: SchemeParams, value: int, seed: int) -> Transcript:
    """Honest execution committing to value; outcome from multiround_verify."""
    return run_attack_session(params, HonestCommit(value), HonestOpen(), seed)
