"""In-process session engine: commit/sustain/open as round-indexed messages.

One session is driven by a 64-bit master seed.  Labeled values are derived
with the SplitMix64 sequence (Steele/Lea/Flood's mix, as in SplittableRandom):
value(seed, stream, index) is the SplitMix64 finalizer of
seed + ((stream << 32) | index) * GAMMA mod 2^64 (see ``stream_u64``).
The verifier's challenge stream is labeled 'V'; prover-side randomness hangs
off a separate root split so strategies can never reconstruct upcoming
challenges.  2^64 is a multiple of 2^n, so reducing a stream value mod 2^n
is exactly uniform.  A session draws its values in columns: the seeded
verifier its m+1 challenges when it is made, every ``ProverStrategy`` its
m+1 pads when a session begins (``stream_values``).  A column holds
exactly the values that ``stream_value`` gives one index at a time, so the
bytes of a transcript do not depend on which way a value was drawn.

What depends only on a session's shape is built once per shape, in bounded
caches of immutable values that every session of that shape shares: the
seed-free lane constants of a column (``_lanes``, per count and n), and the
rounds, senders, receivers and line heads of all 2m+3 messages
(``_layout``, per m and first committer), which both ``Transcript.to_text``
and ``parse_transcript`` read.

A ``Transcript`` holds the session's payloads as one list in message
order: a_i at index 2i, x_i at 2i+1 and the opening y_m at 2m+2.  The
round and roles of every message are its slot in ``_layout``, the one home
of the slot rule, so no message object is built when a session runs, is
written or is parsed.  Every list of at most 2m+3 payloads is the start of
a session; ``to_text`` refuses a longer one.  ``Transcript.messages`` is a
view that builds ``RoundMessage`` objects when it is read, and refuses an
assigned message that is out of its slot.

``Verifier`` is the verifier with no I/O; ``run_attack_session`` drives it
with in-process strategies and ``net.serve_verifier`` over sockets.  What an
honest prover sends is ``honest_reply``, which ``HonestProver`` sends every
round.

The no-communication constraint is structural: the engine calls a strategy
with the active party's ``PartyView`` only, and the view accessors raise
ProtocolViolation for anything outside it.  A prover sees its own rounds
plus, with a lag of two rounds, everything the other prover and the
verifier exchanged (the one-way prover-to-prover forwarding).  A view reads
the transcript's payloads by index and checks the rule on each read, so
the per-round cost of a session is flat in m.
"""

from __future__ import annotations

import operator
import struct
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from .field import FieldError, FieldSpec
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


def stream_values(seed: int, stream: int, count: int, n: int) -> List[int]:
    """[stream_value(seed, stream, i, n) for i in range(count)], with each
    SplitMix64 step run once over all count values (count <= 2^32, n <= 64).

    Value i sits in bits 128i.. of one int, its lane.  Every lane holds a
    value below 2^64 before each multiply by a 64-bit constant, so the
    product fits the lane; the mask after each shift and multiply cuts each
    lane back to its low 64 bits, so no lane reads or carries into another.
    The lanes are written and read little-endian, whatever sys.byteorder is.
    Only the steps that read seed run here; the rest is ``_lanes``.
    """
    ones, low, index_gamma, out, unpack = _lanes(count, n)
    base = (seed + (stream << 32) * _GAMMA) & _MASK64
    z = (base * ones + index_gamma) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    return list(unpack(((z ^ (z >> 31)) & out).to_bytes(16 * count, "little")))


@lru_cache(maxsize=4)
def _lanes(count: int, n: int) -> Tuple[int, int, int, int, Callable[[bytes], tuple]]:
    """The seed-free constants of ``stream_values`` for count values of n
    bits: 1 in every lane, the lane mask 2^64 - 1 in every lane, i * GAMMA
    mod 2^64 in lane i, the output mask 2^n - 1 in every lane, and the
    unpack of the low half of each lane.  Pure functions of (count, n); the
    memo is bounded."""
    ones = int.from_bytes((1).to_bytes(16, "little") * count, "little")
    low = ones * _MASK64
    # i in lane i: with R = 2^128, index = sum(i * R^i for i < count) and
    # (R - 1) * index = (count - 1) * R^count - (ones - 1), so it divides exactly.
    # i * GAMMA < 2^96 fits its lane before the mask.
    index = (((count - 1) << (128 * count)) - ones + 1) // ((1 << 128) - 1)
    return (ones, low, index * _GAMMA & low, ones * ((1 << n) - 1),
            struct.Struct("<" + "Q8x" * count).unpack)


def prover_root_seed(master_seed: int) -> int:
    """Seed handed to prover strategies; a one-way split of the master."""
    return stream_u64(master_seed, STREAM_PROVER_ROOT, 0)


def shared_pad_column(prover_seed: int, params: SchemeParams) -> List[int]:
    """The honest provers' shared pads (their joint randomness) under
    prover_seed, y_i = stream_value(prover_seed, STREAM_SHARED, i, n) for
    i = 0..m, drawn as one column."""
    return stream_values(prover_seed, STREAM_SHARED, params.m + 1, params.field.n)


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
    """One protocol message; the payload is a raw field element.  A
    transcript holds payloads only; ``Transcript.messages`` builds these
    when it is read."""

    round: int
    sender: str
    receiver: str
    payload: int


@dataclass
class Transcript:
    """A session's payloads in message order: the challenge a_i at index
    2i and the response x_i at 2i+1 for i <= m, the opening y_m at 2m+2.
    Each message's round and roles are its slot in the session's
    ``_layout``, so they are not stored.  Any list of at most 2m+3
    payloads is the start of a session."""

    params: SchemeParams
    seed: int
    payloads: List[int] = field(default_factory=list)
    outcome: OpenOutcome = BOT

    @classmethod
    def from_columns(cls, params: SchemeParams, seed: int, challenges: Sequence[int],
                     responses: Sequence[int], opening: Optional[int] = None) -> "Transcript":
        """The transcript of challenges a_0.., responses x_0.. and, unless
        None, the opening y_m.  Raises ValueError unless they are the first
        messages of a session of m rounds: at most m+1 challenges, each
        answered but the last, and an opening only after m+1 responses."""
        m = params.m
        c, r = len(challenges), len(responses)
        opened = opening is not None
        if not (0 <= c - r <= 1 and c <= m + 1 and (r == m + 1 or not opened)):
            raise ValueError(
                f"{c} challenges, {r} responses and {'an' if opened else 'no'} opening "
                f"are not the start of a session of m={m} rounds")
        payloads = [0] * (c + r)
        payloads[::2] = challenges
        payloads[1::2] = responses
        if opened:
            payloads.append(opening)
        return cls(params, seed, payloads)

    def challenges(self) -> List[int]:
        """a_0.., the payloads at even indices before the opening's."""
        return self.payloads[:2 * self.params.m + 2:2]

    def responses(self) -> List[int]:
        """x_0.., the payloads at odd indices."""
        return self.payloads[1:2 * self.params.m + 2:2]

    def final_opening(self) -> int:
        last = 2 * self.params.m + 2
        if len(self.payloads) <= last:
            raise ValueError("transcript has no final opening message")
        return self.payloads[last]

    @property
    def messages(self) -> MessageView:
        return MessageView(self)

    def _count(self) -> int:
        """len(payloads); raises ValueError past a session's 2m+3 messages."""
        count = len(self.payloads)
        if count > 2 * self.params.m + 3:
            raise ValueError(f"message {2 * self.params.m + 3} follows the opening")
        return count

    def to_text(self) -> str:
        """The transcript file (README, "File formats"): each message line is
        its slot's head in ``_layout`` and its payload.  Raises ValueError
        for more payloads than a session has, and FieldError for a payload
        outside the field."""
        params = self.params
        spec = params.field
        lines = map(operator.add, _prefix_layout(params, self._count())[3],
                    spec.to_hex_all(self.payloads))
        out = "BOT" if self.outcome is BOT else spec.to_hex(self.outcome)
        return "\n".join([_header(params, self.seed), *lines, f"outcome={out}\n"])


class MessageView:
    """``Transcript.messages``: the messages as a sequence, each a new
    ``RoundMessage`` of its slot's round and roles and its payload, built
    when read.  messages[k] = msg writes msg.payload at k if msg has slot
    k's round, sender and receiver, and raises ValueError otherwise, so a
    transcript holds no message out of its slot."""

    __slots__ = ("_t",)

    def __init__(self, transcript: Transcript):
        self._t = transcript

    def __len__(self) -> int:
        return self._t._count()

    def __iter__(self):
        t = self._t
        return map(RoundMessage, *_prefix_layout(t.params, t._count())[:3], t.payloads)

    def __getitem__(self, k):
        return list(self)[k]

    def __setitem__(self, k: int, msg: RoundMessage) -> None:
        t = self._t
        count = t._count()
        if k < 0:
            k += count
        if k > 2 * t.params.m + 2:
            raise ValueError(f"message {k} follows the opening")
        if not 0 <= k < count:
            raise IndexError("message index out of range")
        rounds, senders, receivers, heads = _prefix_layout(t.params, count)
        if (msg.round, msg.sender, msg.receiver) != (rounds[k], senders[k], receivers[k]):
            raise ValueError(f"message {k} must be {_slot_name(heads[k])}")
        t.payloads[k] = msg.payload


def _header(params: SchemeParams, seed: int) -> str:
    return (f"#relcommit v1 n={params.field.n} poly=0x{params.field.poly:x} "
            f"m={params.m} seed={seed}")


Layout = Tuple[Tuple[int, ...], Tuple[str, ...], Tuple[str, ...], Tuple[str, ...]]


@lru_cache(maxsize=4)
def _layout(m: int, first_committer: str) -> Layout:
    """The rounds, senders, receivers and line heads of all 2m+3 messages of
    a session: rounds 0..m are a challenge to the round's prover and its
    reply, round m+1 is the opening alone, from the prover that did not
    answer round m.  The provers alternate from first_committer, as
    ``active_prover`` says.  Each head is the message's line up to its
    payload.  A pure function of (m, first_committer); the memo is
    bounded."""
    other = "Q" if first_committer == "P" else "P"
    provers = [first_committer, other] * ((m + 3) // 2)  # round i's is provers[i]
    rounds = [0, 0] * (m + 1)
    rounds[::2] = rounds[1::2] = list(range(m + 1))  # one int object per round
    senders = ["V", "V"] * (m + 1)
    senders[1::2] = provers[:m + 1]
    receivers = ["V", "V"] * (m + 1)
    receivers[::2] = provers[:m + 1]
    rounds.append(m + 1)
    senders.append(provers[m + 1])
    receivers.append("V")
    heads = [f"round={i} from={s} to={r} payload=" for i, s, r in zip(rounds, senders, receivers)]
    return tuple(rounds), tuple(senders), tuple(receivers), tuple(heads)


def _prefix_layout(params: SchemeParams, count: int) -> Layout:
    """The layout to check the first count messages of a session against:
    the session's own ``_layout`` when count // 2 >= m, else that of
    count // 2 rounds.  A session of fewer rounds has the same slots up to
    its opening, slot 2 * (count // 2) + 2 > count, so the first count slots
    are the session's, and the layout's size follows count, not the m a
    transcript's header names."""
    return _layout(min(params.m, count // 2), params.first_committer)


def _slot_name(head: str) -> str:
    """A line head without its payload key: round=i from=s to=r."""
    return head[:head.rindex(" ")]


class TranscriptParseError(Exception):
    def __init__(self, lineno: int, why: str):
        super().__init__(f"line {lineno}: {why}")
        self.lineno = lineno


def parse_transcript(text: str) -> Transcript:
    """Read back only what ``Transcript.to_text`` writes (README, "File
    formats"); anything else raises TranscriptParseError at its line.

    The message lines are read at once: every payload by one
    ``from_hex_all``, and the lines are accepted when they are the heads of
    the session's ``_layout`` followed by those payloads.  Only a
    transcript that fails is walked line by line, to name the first bad
    line."""
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
    end = last if has_outcome else last + 1
    body = list(filter(str.strip, lines[1:end]))
    # The header does not name the first committer; the round-0 challenge
    # goes to it.  A first line that names Q up to its payload key gives Q.
    # Round 0's head is the same for every m.
    if body and body[0].startswith(_slot_name(_layout(0, "Q")[3][0]) + " "):
        params = replace(params, first_committer="Q")
    heads = _prefix_layout(params, len(body))[3]
    width = (spec.n + 3) // 4
    texts = [line[-width:] for line in body]
    try:
        values = spec.from_hex_all(texts, "payload")
    except FieldError:
        values = None
    if values is None or list(map(operator.add, heads, texts)) != body:
        _raise_at_first_bad_line(lines, end, heads, spec)
    t = Transcript(params, seed, values)
    if not has_outcome:
        raise TranscriptParseError(last + 2, "missing outcome line")
    val = lines[last][len("outcome="):]
    try:
        t.outcome = BOT if val == "BOT" else spec.from_hex(val, "outcome")
    except FieldError as e:
        raise TranscriptParseError(last + 1, f"bad outcome line: {e}") from None
    return t


def _raise_at_first_bad_line(lines: List[str], end: int, heads: Sequence[str],
                             spec: FieldSpec) -> None:
    """Raise TranscriptParseError for the first of lines[1:end] that is not
    the next message's line under the heads given."""
    k = 0
    for idx in range(1, end):
        line = lines[idx]
        if not line.strip():
            continue
        try:
            if k == len(heads):
                raise ValueError(f"message {k} follows the opening")
            head = heads[k]
            if not line.startswith(head):
                raise ValueError(f"message {k} must be {_slot_name(head)}")
            spec.from_hex(line[len(head):], "payload")
        except ValueError as e:
            why = ("outcome line before the last line" if line.startswith("outcome=")
                   else f"bad message line: {e}")
            raise TranscriptParseError(idx + 1, why) from None
        k += 1
    raise AssertionError("every message line reads back")


class PartyView:
    """What one party may consult at a given round.

    The view holds a reference to the transcript's payload list and reads
    round i's challenge at index 2i and its reply at 2i+1, so a read costs
    O(1) whatever m is.  The engine makes a view before the round's reply,
    so the list holds no opening then.  Round i's challenge or reply is
    visible when it was already in the list as the view was made, i <=
    round, and the party is the verifier, or i is at least ``lag`` rounds
    old (forwarded), or the party answered round i itself.  The first two
    cases make every round below one bound visible, round + 1 for the
    verifier and round - lag + 1 for a prover, so the view fixes that bound
    when it is made and asks ``active_prover`` only about the rounds inside
    the lag window.  Any other read, negative rounds included, raises
    ProtocolViolation.
    """

    __slots__ = ("party", "round", "_params", "_payloads", "_issued", "_answered", "_open")

    def __init__(self, party: str, round_index: int, params: SchemeParams,
                 payloads: Sequence[int], lag: int = 2):
        self.party = party
        self.round = round_index
        self._params = params
        self._payloads = payloads
        # The list may grow after the view is made; later entries stay unseen.
        end = round_index + 1
        count = len(payloads)
        issued, answered = (count + 1) >> 1, count >> 1
        self._issued = issued if issued < end else end
        self._answered = answered if answered < end else end
        self._open = end if party == "V" else end - lag

    def _violation(self, i: int, kind: str) -> ProtocolViolation:
        return ProtocolViolation(
            f"{self.party} at round {self.round} may not read the round-{i} {kind}")

    def challenge(self, i: int) -> int:
        if 0 <= i < self._issued and (
                i < self._open or active_prover(self._params, i) == self.party):
            return self._payloads[2 * i]
        raise self._violation(i, "challenge")

    def response(self, i: int) -> int:
        if 0 <= i < self._answered and (
                i < self._open or active_prover(self._params, i) == self.party):
            return self._payloads[2 * i + 1]
        raise self._violation(i, "response")


# -- strategies --------------------------------------------------------------


class ProverStrategy:
    """Base of the seeded prover strategies: begin_session binds one
    session's parameters and prover root seed and draws the pads y_0..y_m
    as one column (``shared_pad_column``); _pad(i) is then y_i."""

    def begin_session(self, params: SchemeParams, prover_seed: int):
        self.params = params
        self.seed = prover_seed
        self._pad = shared_pad_column(prover_seed, params).__getitem__


class HonestProver(ProverStrategy):
    """An honest prover committed to value, every round: x_i = y_i + a_i *
    y_{i-1} with y_{-1} = value for rounds 0..m, then the opening y_m, each
    by ``honest_reply`` over the one pad column.  begin_session checks the
    value, so one object serves as both strategies of a session."""

    def __init__(self, value: int = 0):
        self.value = value

    def begin_session(self, params: SchemeParams, prover_seed: int):
        check_committed_value(params, self.value)
        super().begin_session(params, prover_seed)

    def __call__(self, party: str, round_index: int, view: PartyView) -> int:
        m = self.params.m
        a = view.challenge(round_index) if round_index <= m else None
        return honest_reply(self.params.field, m, round_index, a, self._pad, self.value)


# The committer's and the opener's names from before they were one class;
# the benchmark's workloads still import them.
HonestCommit = HonestOpen = HonestProver


class Verifier:
    """The verifier of one session, as a state machine with no I/O.

    Callers alternate request() -> (round, prover, challenge) and
    receive(reply) until done.  Rounds 0..m challenge with fixed_challenges
    or the seeded STREAM_CHALLENGE stream; round m+1 asks for the opening
    (challenge None), whose receipt sets the outcome via multiround_verify.
    Each payload is appended to ``transcript.payloads``, the list that
    ``PartyView`` reads, as it is issued or received, so an aborted session
    keeps what was exchanged.  The challenges are drawn as one column when
    the verifier is made, or are fixed_challenges (m+1 field values,
    checked here), but a challenge enters the transcript only when
    request() issues it.
    """

    def __init__(self, params: SchemeParams, seed: int,
                 fixed_challenges: Optional[Sequence[int]] = None):
        self.params = params
        self.transcript = Transcript(params, seed)
        self.round = 0
        self.done = False
        count = params.m + 1
        if fixed_challenges is None:
            self._column = stream_values(seed, STREAM_CHALLENGE, count, params.field.n)
        elif len(fixed_challenges) != count:
            raise ValueError(f"fixed_challenges must hold m+1 = {count} values")
        else:
            self._column = [params.field.check(a) for a in fixed_challenges]

    def request(self) -> Tuple[int, str, Optional[int]]:
        params = self.params
        i = self.round
        prover = active_prover(params, i)
        if i > params.m:
            return i, prover, None
        a = self._column[i]
        self.transcript.payloads.append(a)
        return i, prover, a

    def receive(self, value: int) -> None:
        params = self.params
        i = self.round
        x = params.field.check(value)
        if self.done:
            raise ValueError("the session already has its opening")
        t = self.transcript
        t.payloads.append(x)
        if i > params.m:
            t.outcome = multiround_verify(params, t.challenges(), t.responses(), x)
            self.done = True
        self.round = i + 1


def run_attack_session(params: SchemeParams, commit_strategy, open_strategy,
                       seed: int, fixed_challenges: Optional[Sequence[int]] = None,
                       forwarding_lag: int = 2) -> Transcript:
    """Run a session where the provers follow the given strategies.

    commit_strategy answers round 0; open_strategy answers rounds 1..m and
    the final opening message.  Each is called with (party, round, view)
    and must return a field value; the view reads exactly the payloads that
    party may see.  Strategy objects are bound to one session at a time
    (begin_session re-binds them), so parallel sessions need fresh objects;
    one object passed as both (a ``HonestProver`` in
    ``run_honest_session``, adversary.tightness_strategy) is bound once.
    fixed_challenges overrides the seeded verifier and forwarding_lag the
    two-round prover-to-prover delay (test knobs).
    """
    pseed = prover_root_seed(seed)
    both = (commit_strategy,) if open_strategy is commit_strategy else (
        commit_strategy, open_strategy)
    for strat in both:
        begin = getattr(strat, "begin_session", None)
        if begin is not None:
            begin(params, pseed)

    verifier = Verifier(params, seed, fixed_challenges)
    payloads = verifier.transcript.payloads
    while not verifier.done:
        i, prover, _ = verifier.request()
        strat = commit_strategy if i == 0 else open_strategy
        verifier.receive(strat(prover, i, PartyView(prover, i, params, payloads,
                                                    forwarding_lag)))
    return verifier.transcript


def run_honest_session(params: SchemeParams, value: int, seed: int) -> Transcript:
    """Honest execution committing to value, one ``HonestProver`` as both
    strategies; outcome from multiround_verify."""
    honest = HonestProver(value)
    return run_attack_session(params, honest, honest, seed)
