"""Session engine: determinism, visibility enforcement, transcripts."""

import hashlib
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relcommit import adversary, engine
from relcommit.engine import (
    STREAM_CHALLENGE,
    HonestProver,
    PartyView,
    ProtocolViolation,
    RoundMessage,
    Transcript,
    TranscriptParseError,
    Verifier,
    parse_transcript,
    run_attack_session,
    run_honest_session,
    stream_u64,
    stream_value,
    stream_values,
)
from relcommit.field import FieldError, FieldSpec
from relcommit.scheme import BOT, SchemeParams, active_prover, multiround_verify


def make_params(n=3, m=3, **kw):
    return SchemeParams(FieldSpec.default(n), m, **kw)


def view_of(t, party, r, lag=2):
    """The party's view at round r of a finished transcript, made on its
    challenges and replies as the engine makes a view before the opening."""
    return PartyView(party, r, t.params, t.payloads[:2 * t.params.m + 2], lag)


def cut_after(t, k):
    """t as a session aborted after its first k messages leaves it."""
    return Transcript(t.params, t.seed, t.payloads[:k])


def test_identical_seed_identical_transcript():
    params = make_params(8, 4)
    a = run_honest_session(params, 0x17, 1234).to_text()
    b = run_honest_session(params, 0x17, 1234).to_text()
    assert a == b
    c = run_honest_session(params, 0x17, 1235).to_text()
    assert a != c


def test_honest_outcome_with_nonzero_challenges():
    params = make_params(8, 4)
    for seed in range(50):
        t = run_honest_session(params, 0x2A, seed)
        if all(a != 0 for a in t.challenges()):
            assert t.outcome == 0x2A


def test_forced_zero_commit_challenge_erases_value():
    params = make_params(3, 1)
    t = run_attack_session(params, HonestProver(5), HonestProver(), 99, fixed_challenges=[0, 3])
    assert t.outcome in (0, BOT)
    assert t.outcome == 0  # honest x_0 equals y_0, so the canonical rule fires


def test_transcript_structure():
    params = make_params(3, 2)
    t = run_honest_session(params, 1, 7)
    rounds = [m.round for m in t.messages]
    assert rounds == [0, 0, 1, 1, 2, 2, 3]
    assert [m.sender for m in t.messages] == ["V", "P", "V", "Q", "V", "P", "Q"]
    assert len(t.challenges()) == 3 and len(t.responses()) == 3


def test_first_committer_q_swaps_roles():
    params = make_params(3, 1, first_committer="Q")
    t = run_honest_session(params, 1, 7)
    assert [m.sender for m in t.messages] == ["V", "Q", "V", "P", "Q"]


def test_transcript_text_round_trip():
    params = make_params(3, 2)
    t = run_honest_session(params, 1, 7)
    back = parse_transcript(t.to_text())
    assert back.to_text() == t.to_text()
    assert back.outcome == t.outcome
    assert back.challenges() == t.challenges()
    for bad in (8, -1):  # the writer refuses a payload outside GF(8)
        t.messages[1] = replace(t.messages[1], payload=bad)
        with pytest.raises(FieldError):
            t.to_text()


def test_transcript_parse_errors_carry_line_numbers():
    params = make_params(3, 1)
    text = run_honest_session(params, 1, 7).to_text()
    with pytest.raises(TranscriptParseError):
        parse_transcript("garbage\n" + text)
    lines = text.splitlines()
    broken = "\n".join(lines[:2] + ["round=1 from=V payload=9"] + lines[3:])
    with pytest.raises(TranscriptParseError) as e:
        parse_transcript(broken)
    assert e.value.lineno == 3
    with pytest.raises(TranscriptParseError):
        parse_transcript("\n".join(lines[:-1]) + "\n")  # outcome line dropped
    control = "\n".join(lines[:2] + [lines[2].rsplit("=", 1)[0] + "=ACCEPT"] + lines[3:])
    with pytest.raises(TranscriptParseError) as e:
        parse_transcript(control)  # payloads are field elements only
    assert e.value.lineno == 3


def test_messages_out_of_their_slot_are_rejected():
    # Views and verification read messages by position, so each one must be
    # where the role rule puts it.
    t = run_honest_session(make_params(3, 2), 5, 3)
    lines = t.to_text().splitlines()
    wrong_prover = lines[:4] + [lines[4].replace("from=Q", "from=P")] + lines[5:]
    reply_first = lines[:5] + [lines[6], lines[5]] + lines[7:]
    two_openings = lines[:-1] + lines[-2:]
    for broken, lineno in ((wrong_prover, 5), (reply_first, 6), (two_openings, 9)):
        with pytest.raises(TranscriptParseError) as e:
            parse_transcript("\n".join(broken) + "\n")
        assert e.value.lineno == lineno
    aborted = parse_transcript("\n".join(lines[:4] + lines[-1:]) + "\n")
    assert len(aborted.messages) == 3
    q_first = run_honest_session(make_params(3, 2, first_committer="Q"), 5, 3)
    back = parse_transcript(q_first.to_text())
    assert back.params.first_committer == "Q"
    assert back.to_text() == q_first.to_text()


STRICT_BASE = run_honest_session(make_params(8, 2), 0xA5, 11).to_text().splitlines()


def _payload_at_line_3(text):
    return STRICT_BASE[:2] + [f"round=0 from=P to=V payload={text}"] + STRICT_BASE[3:]


@pytest.mark.parametrize("lines, lineno", [
    (_payload_at_line_3("A5"), 3),
    (_payload_at_line_3("5"), 3),
    (_payload_at_line_3("0a5"), 3),
    (_payload_at_line_3("+a5"), 3),
    (_payload_at_line_3("0xa5"), 3),
    (_payload_at_line_3("a5 note=1"), 3),
    (STRICT_BASE[:2] + ["from=P round=0 to=V payload=a5"] + STRICT_BASE[3:], 3),
    (STRICT_BASE[:2] + ["round=0 from=P to=V via=Q payload=a5"] + STRICT_BASE[3:], 3),
    (STRICT_BASE + ["outcome=BOT"], len(STRICT_BASE)),
    (STRICT_BASE[:3] + STRICT_BASE[-1:] + STRICT_BASE[3:-1], 4),
    (STRICT_BASE[:-1] + ["outcome=A5"], len(STRICT_BASE)),
    (STRICT_BASE[:-1] + ["outcome=5"], len(STRICT_BASE)),
    ([STRICT_BASE[0].replace("n=8 poly=0x11b", "poly=0x11b n=8")] + STRICT_BASE[1:], 1),
    ([STRICT_BASE[0].replace("poly=0x", "poly=0X")] + STRICT_BASE[1:], 1),
    ([STRICT_BASE[0] + " note=1"] + STRICT_BASE[1:], 1),
], ids=["upper-hex", "short-hex", "long-hex", "plus", "0x", "extra-key-after",
        "reordered-keys", "extra-key-inside", "second-outcome", "outcome-inside",
        "upper-outcome", "short-outcome", "header-order", "header-0X", "header-extra"])
def test_only_what_to_text_writes_parses(lines, lineno):
    parse_transcript("\n".join(_payload_at_line_3("a5")) + "\n")  # the canonical form
    with pytest.raises(TranscriptParseError) as e:
        parse_transcript("\n".join(lines) + "\n")
    assert e.value.lineno == lineno, e.value


WIDE_BASE = run_honest_session(make_params(12, 2), 0xABC, 11).to_text().splitlines()


@pytest.mark.parametrize("lines, lineno", [
    (STRICT_BASE[:2] + ["", " \t"] + _payload_at_line_3("A5")[2:3] + STRICT_BASE[3:], 5),
    (STRICT_BASE[:4] + ["", "round=1 from=V to=Q payload=zz"] + STRICT_BASE[5:], 6),
    (STRICT_BASE[:2] + ["a"] + STRICT_BASE[3:], 3),
    (STRICT_BASE[:2] + ["a5"] + STRICT_BASE[3:], 3),
    (STRICT_BASE[:5] + ["", "", "5"] + STRICT_BASE[5:], 8),
    (STRICT_BASE[:-1] + ["", STRICT_BASE[-2]] + STRICT_BASE[-1:], len(STRICT_BASE) + 1),
    (WIDE_BASE[:2] + [""] + [WIDE_BASE[2][:-1] + "G"] + WIDE_BASE[3:], 4),
    (WIDE_BASE[:3] + ["", "", "ab"] + WIDE_BASE[3:], 6),
    (WIDE_BASE[:3] + [WIDE_BASE[3][:-3] + "1000"] + WIDE_BASE[4:], 4),
], ids=["blank-before-bad-payload", "blank-before-bad-wide-payload", "shorter-than-payload",
        "payload-only", "blank-before-short-line", "blank-before-extra-opening",
        "wide-blank-before-bad-payload", "wide-short-line", "wide-long-payload"])
def test_bad_lines_are_named_by_their_line_number(lines, lineno):
    # Blank lines are skipped but counted, and a line shorter than a payload
    # is refused where it stands.
    with pytest.raises(TranscriptParseError) as e:
        parse_transcript("\n".join(lines) + "\n")
    assert e.value.lineno == lineno, e.value


REASON_BASE = run_honest_session(make_params(7, 1), 0x55, 11).to_text().splitlines()


@pytest.mark.parametrize("lines, why", [
    (REASON_BASE[:1] + ["round=0 from=V to=QQ payload=05"] + REASON_BASE[2:],
     "line 2: bad message line: message 0 must be round=0 from=V to=P"),
    (REASON_BASE[:1] + ["round=0 from=V to=Q  payload=05"] + REASON_BASE[2:],
     "line 2: bad message line: message 0 must be round=0 from=V to=Q"),
    (REASON_BASE[:2] + [REASON_BASE[2][:-2] + "ff"] + REASON_BASE[3:],
     "line 3: bad message line: value 255 outside GF(2^7)"),
    (REASON_BASE[:2] + [REASON_BASE[2][:-2] + "0x"] + REASON_BASE[3:],
     "line 3: bad message line: payload '0x' is not 2 lowercase hex digits"),
    (REASON_BASE[:-1] + REASON_BASE[-2:], "line 7: bad message line: message 5 follows the opening"),
    (REASON_BASE[:3] + REASON_BASE[-1:] + REASON_BASE[3:-1], "line 4: outcome line before the last line"),
    (REASON_BASE[:-1], "line 7: missing outcome line"),
    (REASON_BASE[:-1] + ["outcome=ff"], "line 7: bad outcome line: value 255 outside GF(2^7)"),
], ids=["receiver-QQ", "double-space", "outside-field", "not-hex", "after-opening",
        "outcome-inside", "no-outcome", "outcome-outside-field"])
def test_parse_errors_give_their_reason(lines, why):
    with pytest.raises(TranscriptParseError) as e:
        parse_transcript("\n".join(lines) + "\n")
    assert str(e.value) == why


def _bulk_layout(m, first_committer):
    """The rounds, senders, receivers and line heads of all 2m+3 messages
    of a session, built by list slicing from the alternation alone: rounds
    0..m are a challenge to the round's prover and its reply, round m+1 is
    the opening alone, from the prover that did not answer round m.  An
    oracle for engine._slot and the heads built from it."""
    other = "Q" if first_committer == "P" else "P"
    provers = [first_committer, other] * ((m + 3) // 2)  # round i's is provers[i]
    rounds = [0, 0] * (m + 1)
    rounds[::2] = rounds[1::2] = list(range(m + 1))
    senders = ["V", "V"] * (m + 1)
    senders[1::2] = provers[:m + 1]
    receivers = ["V", "V"] * (m + 1)
    receivers[::2] = provers[:m + 1]
    rounds.append(m + 1)
    senders.append(provers[m + 1])
    receivers.append("V")
    heads = [f"round={i} from={s} to={r} payload=" for i, s, r in zip(rounds, senders, receivers)]
    return tuple(rounds), tuple(senders), tuple(receivers), tuple(heads)


def test_message_slots_are_the_first_count_slots():
    # _slot and the cached heads are the bulk builder's slots, and the slots
    # of a shorter session agree with a session's up to the shorter one's
    # opening, which is what lets a short or cut transcript read the heads
    # of its own length.
    for fc in ("P", "Q"):
        for m in range(6):
            params = make_params(m=m, first_committer=fc)
            rounds, senders, receivers, heads = _bulk_layout(m, fc)
            every = list(zip(rounds, senders, receivers))
            assert [engine._slot(params, k) for k in range(2 * m + 3)] == every
            assert engine._heads(params) == heads
            assert every == [(msg.round, msg.sender, msg.receiver)
                             for msg in run_honest_session(params, 1, 7).messages]
            assert [s for _, s, _ in every[1::2]] == [active_prover(params, i)
                                                       for i in range(m + 1)]
            assert every[-1] == (m + 1, active_prover(params, m + 1), "V")
            for shorter in range(m):
                short = _bulk_layout(shorter, fc)
                assert list(zip(*short[:3]))[:-1] == every[:2 * shorter + 2]
                assert engine._heads(replace(params, m=shorter)) == short[3]
            for count in range(2 * m + 4):
                prefix = engine._prefix_heads(params, count)
                assert prefix == _bulk_layout(min(m, count // 2), fc)[3]
                assert prefix[:count] == heads[:count]


def _heads_within(limit):
    """engine._heads, refusing any m above limit before it builds heads."""
    build = engine._heads

    def heads(params):
        assert params.m <= limit, f"the heads of {params.m} rounds were asked for"
        return build(params)
    return mock.patch.object(engine, "_heads", heads)


def test_parse_cost_follows_the_file_not_the_header_m():
    # A header may name any m; the codec builds no more of the layout than
    # the file's message lines need, so a short file with a huge m is cheap
    # and reads back (or is refused) as a cut transcript of that m.
    t = run_honest_session(make_params(8, 3), 0xA5, 5)
    huge = 10 ** 12
    for cut in range(len(t.messages) - 1):
        text = cut_after(t, cut).to_text()
        text = text.replace(" m=3 ", f" m={huge} ", 1)
        with _heads_within(cut // 2):
            back = parse_transcript(text)
            assert back.params.m == huge and back.to_text() == text
        lines = text.split("\n")
        if cut:
            lines[cut] = lines[cut].replace("from=", "from=Q", 1)
            with _heads_within(cut // 2), pytest.raises(TranscriptParseError) as e:
                parse_transcript("\n".join(lines))
            assert e.value.lineno == cut + 1
            assert "must be round=" in str(e.value)
    # A message in a slot a session of m rounds does not have is refused at
    # its line, and to_text refuses the payloads of a longer session too.
    opened = t.to_text().replace(" m=3 ", " m=2 ", 1)
    with pytest.raises(TranscriptParseError, match="line 8: bad message line: message 6 must be "
                       "round=3 from=Q to=V"):
        parse_transcript(opened)
    with pytest.raises(ValueError, match="^message 7 follows the opening$"):
        Transcript(make_params(8, 2), 5, t.payloads).to_text()


def test_blank_lines_between_messages_are_skipped():
    spaced = STRICT_BASE[:2] + ["", " "] + STRICT_BASE[2:4] + ["\t"] + STRICT_BASE[4:-1] + [""]
    back = parse_transcript("\n".join(spaced + STRICT_BASE[-1:] + ["", ""]))
    assert back.to_text() == "\n".join(STRICT_BASE) + "\n"


def _pinned_texts():
    """to_text of honest sessions at every width class, either prover first,
    whole and cut after 0, 1, 2, m + 2 and 2m + 2 messages."""
    for n in (*range(1, 9), 9, 16, 24):
        for m in (0, 1, 3, 64):
            for fc in "PQ":
                params = make_params(n, m, first_committer=fc)
                seed = 1000 * n + 10 * m + (fc == "Q")
                t = run_honest_session(params, seed & ((1 << n) - 1), seed)
                yield t.to_text()
                for cut in (0, 1, 2, m + 2, 2 * m + 2):
                    yield cut_after(t, cut).to_text()


PINNED_TEXTS_SHA256 = ("84373ae631a037663b41b8271957328b"
                       "acb803a7e2b1daf83699bf55772b83ea")


def test_to_text_bytes_are_pinned():
    digest = hashlib.sha256()
    for text in _pinned_texts():
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_TEXTS_SHA256


def test_long_transcripts_are_pinned():
    # Honest sessions long enough that every challenge and pad is drawn from
    # a column hundreds of values long; the bytes are those of one
    # stream_value call per value.
    digest = hashlib.sha256()
    for n in (1, 8, 24):
        for m in (512, 2048):
            for fc in "PQ":
                params = make_params(n, m, first_committer=fc)
                seed = 1000 * n + 10 * m + (fc == "Q")
                digest.update(run_honest_session(params, seed & ((1 << n) - 1),
                                                 seed).to_text().encode())
    assert digest.hexdigest() == ("f7ed7f3d60ab73b78738b9d15db7f845"
                                  "c7dc7c43616e9eb1536a58ec00410c12")


def test_mutating_parsed_messages_leaves_the_pins():
    # Every transcript of one shape shares that shape's cached layout.
    # Whatever a caller does to the messages it read from a parsed
    # transcript, or to its payloads, the next transcript of the same shape
    # still writes and parses to the pinned bytes, and each parsed message
    # holds what its line says.
    digest = hashlib.sha256()
    for text in _pinned_texts():
        back = parse_transcript(text)
        msgs = list(back.messages)
        for msg in msgs:
            msg.round += 1
            msg.sender, msg.receiver = msg.receiver, msg.sender
            msg.payload += 1
        msgs.append(RoundMessage(0, "V", "P", 0))
        msgs.reverse()
        assert back.to_text() == text  # the messages read are new objects
        back.payloads.reverse()
        back.payloads.append(0)
        again = parse_transcript(text)
        hexes = again.params.field.to_hex_all([msg.payload for msg in again.messages])
        assert [f"round={msg.round} from={msg.sender} to={msg.receiver} payload={x}"
                for msg, x in zip(again.messages, hexes)] == text.split("\n")[1:-2]
        digest.update(again.to_text().encode())
    assert digest.hexdigest() == PINNED_TEXTS_SHA256


@pytest.mark.parametrize("change, why", [
    (lambda msgs: msgs.__setitem__(1, replace(msgs[1], sender="Q")),
     "message 1 must be round=0 from=P to=V"),
    (lambda msgs: msgs.__setitem__(1, replace(msgs[1], sender="V", receiver="P")),
     "message 1 must be round=0 from=P to=V"),
    (lambda msgs: msgs.__setitem__(2, replace(msgs[2], round=2)),
     "message 2 must be round=1 from=V to=Q"),
    (lambda msgs: msgs.__setitem__(7, msgs[-1]), "message 7 follows the opening"),
], ids=["other-prover", "sender-receiver-swapped", "wrong-round", "after-opening"])
def test_to_text_refuses_a_message_out_of_its_slot(change, why):
    # to_text writes only what parse_transcript reads back.  A transcript
    # holds payloads only, so a message out of its slot is refused when it
    # is assigned, and the transcript writes what it wrote before.
    t = run_honest_session(make_params(3, 2), 5, 3)
    text = t.to_text()
    with pytest.raises(ValueError) as e:
        change(t.messages)
    assert str(e.value) == why
    assert t.to_text() == text


def _messages_by_the_round_rule(t):
    """The 2m+3 messages of a finished session, rebuilt from its challenges,
    responses and opening:
    round i <= m is the challenge to active_prover(i) and its reply, round
    m+1 the opening from active_prover(m+1)."""
    params = t.params
    msgs = []
    for i, (a, x) in enumerate(zip(t.challenges(), t.responses())):
        prover = active_prover(params, i)
        msgs += [RoundMessage(i, "V", prover, a), RoundMessage(i, prover, "V", x)]
    last = params.m + 1
    return msgs + [RoundMessage(last, active_prover(params, last), "V", t.final_opening())]


@pytest.mark.parametrize("fc", ["P", "Q"])
def test_messages_view_follows_the_round_rule(fc):
    for m in (0, 1, 2, 5):
        t = run_honest_session(make_params(3, m, first_committer=fc), 5, 40 + m)
        every = _messages_by_the_round_rule(t)
        assert list(t.messages) == every and len(t.messages) == 2 * m + 3
        for k in range(len(every)):
            assert list(cut_after(t, k).messages) == every[:k]
            assert t.messages[k] == every[k] and t.messages[k - len(every)] == every[k]
        for part in (slice(None), slice(1, 4), slice(-3, None), slice(None, None, -2)):
            assert t.messages[part] == every[part]
        with pytest.raises(IndexError):
            t.messages[len(every)]
        # A verifier stopped after its second request holds what it exchanged:
        # the round-1 challenge, or nothing more when that request is the
        # opening's (m = 0).
        verifier = Verifier(t.params, t.seed)
        verifier.request()
        verifier.receive(t.responses()[0])
        verifier.request()
        assert list(verifier.transcript.messages) == every[:3 if m else 2]


def test_an_in_slot_assignment_round_trips_through_to_text():
    t = run_honest_session(make_params(8, 3), 0xA5, 9)
    lines = t.to_text().split("\n")
    # Challenges a_0 and a_3, responses x_1 and x_3, and the opening.
    for k, read in ((0, lambda: t.challenges()[0]), (6, lambda: t.challenges()[3]),
                    (3, lambda: t.responses()[1]), (7, lambda: t.responses()[3]),
                    (-1, t.final_opening)):
        msg = t.messages[k]
        changed = replace(msg, payload=msg.payload ^ 0x5A)
        t.messages[k] = changed
        assert t.messages[k] == changed
        assert read() == changed.payload
        lines[k % 9 + 1] = lines[k % 9 + 1][:-2] + f"{changed.payload:02x}"
        text = t.to_text()
        assert text == "\n".join(lines)
        back = parse_transcript(text)
        assert back.messages[k] == changed and back.to_text() == text
    with pytest.raises(IndexError, match="^message index out of range$"):
        t.messages[-10] = t.messages[0]
    with pytest.raises(IndexError, match="^message index out of range$"):
        cut_after(t, 4).messages[5] = t.messages[5]


def test_one_message_is_read_through_its_own_slot(monkeypatch):
    t = run_honest_session(make_params(8, 512), 0xA5, 3)
    slots = []
    slot = engine._slot
    monkeypatch.setattr(engine, "_slot", lambda params, k: slots.append(k) or slot(params, k))
    last = t.messages[-1]
    assert slots == [2 * 512 + 2]
    assert last == RoundMessage(513, active_prover(t.params, 513), "V", t.final_opening())
    with pytest.raises(IndexError):
        t.messages[-len(t.payloads) - 1]


def from_columns(params, seed, challenges, responses, opening=None):
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
    return Transcript(params, seed, payloads)


@pytest.mark.parametrize("columns", [
    ([1, 2, 3, 4], [1, 2, 3], None),
    ([1, 2, 3], [1], None),
    ([1], [1, 2], None),
    ([1, 2], [1, 2], 3),
    ([], [], 3),
], ids=["challenge-past-m", "two-unanswered", "reply-before-challenge",
        "opening-before-the-last-round", "opening-only"])
def test_to_text_refuses_columns_no_session_has(columns):
    # A transcript built from its columns holds only a session prefix, so
    # to_text never meets these shapes: from_columns refuses them, and it
    # builds every prefix of a real session as the payload list does.
    c, r, y = columns
    why = (f"{len(c)} challenges, {len(r)} responses and {'no' if y is None else 'an'} "
           "opening are not the start of a session of m=2 rounds")
    with pytest.raises(ValueError) as e:
        from_columns(make_params(3, 2), 1, *columns)
    assert str(e.value) == why
    t = run_honest_session(make_params(3, 2), 1, 7)
    for k in range(len(t.payloads) + 1):
        part = cut_after(t, k)
        opening = t.final_opening() if k == len(t.payloads) else None
        built = from_columns(t.params, t.seed, part.challenges(), part.responses(), opening)
        assert built.payloads == part.payloads and built.to_text() == part.to_text()


def test_every_session_prefix_round_trips_and_a_longer_list_is_refused():
    # Every list of at most 2m+3 payloads is the start of a session, so it
    # is written and read back; one more payload is refused wherever the
    # messages are counted.
    for fc in ("P", "Q"):
        params = make_params(3, 3, first_committer=fc)
        t = run_honest_session(params, 5, 3)
        for k in range(len(t.payloads) + 1):
            text = cut_after(t, k).to_text()
            back = parse_transcript(text)
            assert back.payloads == t.payloads[:k] and back.to_text() == text
        longer = Transcript(params, t.seed, t.payloads + [0])
        for read in (longer.to_text, longer.messages.__len__, lambda: list(longer.messages)):
            with pytest.raises(ValueError, match="^message 9 follows the opening$"):
                read()


def test_no_message_object_on_the_session_and_codec_path(monkeypatch):
    # A session, its file and its re-verification run on payload columns;
    # only a read of Transcript.messages builds RoundMessage objects.
    def refuse(*args):
        raise AssertionError("a RoundMessage was built")
    monkeypatch.setattr(engine, "RoundMessage", refuse)
    t = run_honest_session(make_params(8, 512), 0xA5, 3)
    back = parse_transcript(t.to_text())
    assert back.to_text() == t.to_text()
    assert multiround_verify(back.params, back.challenges(), back.responses(),
                             back.final_opening()) == t.outcome
    with pytest.raises(AssertionError, match="a RoundMessage was built"):
        back.messages[0]


STREAMS = sorted(v for k, v in vars(engine).items() if k.startswith("STREAM_"))


LANES_HELD = engine._lanes.cache_info().maxsize


@settings(deadline=None)
@given(st.integers(0, (1 << 64) - 1), st.sampled_from(STREAMS),
       st.lists(st.tuples(st.integers(0, 600), st.integers(1, 24)),
                min_size=LANES_HELD + 1, max_size=LANES_HELD + 4, unique=True))
@example((1 << 64) - 1, engine.STREAM_CHALLENGE, [(1, 8), (0, 1), (2, 24), (600, 8), (513, 8)])
def test_stream_values_are_the_single_draws(seed, stream, shapes):
    # The shapes are drawn in order and then in reverse, each under both
    # byte orders, so the lane constants of the last LANES_HELD shapes are
    # reused and those of the others were evicted and are built again.
    engine._lanes.cache_clear()
    for count, n in shapes + shapes[::-1]:
        want = [stream_value(seed, stream, i, n) for i in range(count)]
        for order in ("little", "big"):
            with mock.patch.object(sys, "byteorder", order):
                assert stream_values(seed, stream, count, n) == want
    info = engine._lanes.cache_info()
    assert (info.hits, info.misses) == (2 * len(shapes) + LANES_HELD,
                                        2 * len(shapes) - LANES_HELD)


def test_aborted_session_holds_only_the_issued_challenges():
    # The seeded verifier draws a_0..a_m when it is made; a session cut
    # after the round-r challenge still holds, and lets a view read, only
    # a_0..a_r.
    params = make_params(8, 6)
    every = [stream_value(77, STREAM_CHALLENGE, i, 8) for i in range(7)]
    for r in range(7):
        verifier = Verifier(params, 77)
        for i in range(r):
            verifier.request()
            verifier.receive(i)
        assert verifier.request() == (r, active_prover(params, r), every[r])
        assert verifier.transcript.challenges() == every[:r + 1]
        assert len(verifier.transcript.messages) == 2 * r + 1
        view = PartyView("V", params.m, params, verifier.transcript.payloads)
        assert [view.challenge(i) for i in range(r + 1)] == every[:r + 1]
        with pytest.raises(ProtocolViolation):
            view.challenge(r + 1)


def test_fixed_challenges_are_checked_when_the_verifier_is_made():
    params = make_params(3, 2)
    with pytest.raises(ValueError, match="fixed_challenges must hold m\\+1 = 3 values"):
        Verifier(params, 1, [1, 2])
    with pytest.raises(FieldError):
        Verifier(params, 1, [1, 8, 2])
    verifier = Verifier(params, 1, [5, 0, 7])
    assert verifier.transcript.payloads == []
    assert verifier.request() == (0, active_prover(params, 0), 5)
    assert verifier.transcript.payloads == [5]


def test_a_finished_verifier_takes_no_second_opening():
    params = make_params(3, 2)
    t = run_honest_session(params, 5, 3)
    verifier = Verifier(params, 3)
    for i in range(params.m + 2):
        verifier.request()
        verifier.receive(t.responses()[i] if i <= params.m else t.final_opening())
    assert verifier.done and verifier.transcript.to_text() == t.to_text()
    with pytest.raises(ValueError, match="the session already has its opening"):
        verifier.receive(t.final_opening() ^ 1)
    assert verifier.transcript.to_text() == t.to_text()


class CountingProver(HonestProver):
    """An honest prover that counts the sessions it is bound to."""

    bound = 0

    def begin_session(self, params, prover_seed):
        self.bound += 1
        super().begin_session(params, prover_seed)


def test_each_strategy_object_is_bound_once_per_session():
    params = make_params(3, 4)
    both = CountingProver()  # commits to 0
    t = run_attack_session(params, both, both, 5)
    assert both.bound == 1
    assert t.to_text() == run_honest_session(params, 0, 5).to_text()
    commit, opener = CountingProver(), CountingProver()
    run_attack_session(params, commit, opener, 5)
    assert (commit.bound, opener.bound) == (1, 1)


def test_an_honest_session_draws_columns_and_binds_one_prover(monkeypatch):
    # Every challenge and pad of an honest session is drawn as a column, and
    # its one prover is bound once, so no value is drawn alone and the
    # pinned bytes still come out.
    def refuse(*args):
        raise AssertionError("a value was drawn alone")
    sessions, bound = [], []
    run, begin = engine.run_attack_session, HonestProver.begin_session

    def counting_run(*args, **kw):
        sessions.append(args)
        return run(*args, **kw)

    def counting_begin(self, params, prover_seed):
        bound.append(self)
        begin(self, params, prover_seed)
    monkeypatch.setattr(engine, "stream_value", refuse)
    monkeypatch.setattr(engine, "run_attack_session", counting_run)
    monkeypatch.setattr(HonestProver, "begin_session", counting_begin)
    digest = hashlib.sha256()
    for text in _pinned_texts():
        digest.update(text.encode())
    assert digest.hexdigest() == PINNED_TEXTS_SHA256
    assert len(bound) == len(sessions) > 0


@lru_cache(maxsize=None)
def _tables(n):
    spec = FieldSpec.default(n)
    if n <= 3:
        return adversary.brute_force_chsh(spec)
    # Beyond the searched widths, x = y = 0, which wins exactly when a*s = 0.
    zeros = (0,) * spec.order
    return adversary.ChshTables(spec, zeros, zeros,
                                Fraction(2 * spec.order - 1, spec.order ** 2))


@st.composite
def transcripts(draw, widths=st.integers(1, 8)):
    """Honest and tightness-attack transcripts, n <= 8 unless widths says
    otherwise and m <= 6, either prover first, finished or cut off as an
    aborted session leaves them.  Above n = 8 only honest sessions are
    drawn, since the attack's tables hold 2^n entries."""
    n = draw(widths)
    params = make_params(n, draw(st.integers(0, 6)),
                         first_committer=draw(st.sampled_from("PQ")))
    value = draw(st.integers(0, (1 << n) - 1))
    seed = draw(st.integers(0, (1 << 64) - 1))
    if n > 8 or draw(st.booleans()):
        t = run_honest_session(params, value, seed)
    else:
        t = run_attack_session(params, *adversary.tightness_strategy(
            value, _tables(n), params), seed)
    cut = draw(st.integers(0, len(t.messages)))
    if cut < len(t.messages):
        t = cut_after(t, cut)
    return t


WIDE = st.sampled_from([9, 12, 16, 24])


@settings(max_examples=150, deadline=None)
@given(transcripts())
def test_transcript_text_round_trips(t):
    text = t.to_text()
    assert parse_transcript(text).to_text() == text


@settings(max_examples=60, deadline=None)
@given(transcripts(WIDE))
def test_wide_transcript_text_round_trips(t):
    # Above field.TABLE_MAX_N payloads are coded without the hex tables.
    text = t.to_text()
    assert parse_transcript(text).to_text() == text


@settings(max_examples=150, deadline=None)
@given(transcripts())
def test_challenges_and_responses_are_the_slot_columns(t):
    assert t.challenges() == [msg.payload for msg in t.messages if msg.sender == "V"]
    assert t.responses() == [msg.payload for msg in t.messages
                             if msg.receiver == "V" and msg.round <= t.params.m]


@settings(max_examples=300, deadline=None)
@given(transcripts(), st.data())
def test_one_substituted_character_is_refused_or_round_trips(t, data):
    text = t.to_text()
    at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c != "\n"]))
    ch = data.draw(st.characters(exclude_characters="\n").filter(
        lambda c: c != text[at]))
    mutated = text[:at] + ch + text[at + 1:]
    try:
        back = parse_transcript(mutated)
    except TranscriptParseError:
        return
    assert back.to_text() == mutated


@settings(max_examples=150, deadline=None)
@given(transcripts(WIDE), st.data())
def test_wide_one_substituted_character_is_refused_or_round_trips(t, data):
    # The test above, over payloads coded without the hex tables.
    test_one_substituted_character_is_refused_or_round_trips.hypothesis.inner_test(t, data)


def test_visibility_examples():
    params = make_params(3, 3)
    t = run_honest_session(params, 1, 7)
    with pytest.raises(ProtocolViolation):
        view_of(t, "Q", 1).challenge(0)
    v3 = view_of(t, "Q", 3)
    assert v3.challenge(0) == t.challenges()[0]
    assert v3.challenge(1) == t.challenges()[1]
    with pytest.raises(ProtocolViolation):
        v3.challenge(2)  # P's round-2 challenge is one round too fresh
    assert v3.response(1) == t.responses()[1]
    vv = view_of(t, "V", 3)
    assert [vv.challenge(i) for i in range(4)] == t.challenges()
    assert [vv.response(i) for i in range(4)] == t.responses()


def _oracle_visible(messages, party, round_index, lag):
    """The visibility rule as a filter over whole messages: what a party may
    read, found by scanning every message of the session."""
    if party == "V":
        return [m for m in messages if m.round <= round_index]
    return [m for m in messages
            if (m.round <= round_index and party in (m.sender, m.receiver))
            or m.round <= round_index - lag]


def _assert_view_follows_oracle(view, visible, m):
    for i in range(-1, m + 2):
        for is_challenge, read in ((True, view.challenge), (False, view.response)):
            found = [msg.payload for msg in visible
                     if msg.round == i and (msg.sender == "V") == is_challenge]
            if found:
                assert read(i) == found[0]
            else:
                with pytest.raises(ProtocolViolation):
                    read(i)


class CapturingStrategy:
    """Delegates to an honest strategy and keeps every view it is handed."""

    def __init__(self, inner, views):
        self.inner = inner
        self.views = views

    def begin_session(self, params, prover_seed):
        self.inner.begin_session(params, prover_seed)

    def __call__(self, party, round_index, view):
        self.views.append(view)
        return self.inner(party, round_index, view)


@pytest.mark.parametrize("first", ["P", "Q"])
def test_views_read_exactly_what_the_message_filter_allows(first):
    for m in range(6):
        params = make_params(3, m, first_committer=first)
        for lag in range(1, 5):
            views = []
            t = run_attack_session(params, CapturingStrategy(HonestProver(5), views),
                                   CapturingStrategy(HonestProver(), views), 11 + m,
                                   forwarding_lag=lag)
            assert len(views) == m + 2
            for view in views:
                # Checked after the session: the lists kept growing after the
                # view was made, yet it still shows only what existed then.
                existed = [msg for msg in t.messages if msg.round < view.round
                           or (msg.round == view.round and msg.sender == "V")]
                _assert_view_follows_oracle(
                    view, _oracle_visible(existed, view.party, view.round, lag), m)
            # The opening is no round's challenge or reply, so no view reads it.
            for party in ("P", "Q", "V"):
                for r in range(m + 2):
                    _assert_view_follows_oracle(
                        view_of(t, party, r, lag),
                        _oracle_visible(t.messages[:-1], party, r, lag), m)


def test_per_round_cost_is_flat_in_m():
    # Views read the verifier's lists by index, so a round of a long session
    # costs what a round of a short one does.  A view that rescans earlier
    # messages puts the ratio at 10-30; 3x leaves room for a noisy host.
    spec = FieldSpec.default(8)

    def us_per_round(m):
        params = SchemeParams(spec, m)
        best = math.inf
        for seed in range(3):
            t0 = time.perf_counter()
            run_honest_session(params, 0x17, seed)
            best = min(best, time.perf_counter() - t0)
        return best / (m + 2) * 1e6

    short, long = us_per_round(8), us_per_round(1024)
    assert long <= 3 * short, (short, long)


def test_honest_reply_rounds():
    spec = FieldSpec.default(3)
    pads = [0b011, 0b101, 0b110]
    m = len(pads) - 1
    assert engine.honest_reply(spec, m, 0, 0b010, pads.__getitem__, 0b111) == \
        0b011 ^ spec.mul_i(0b010, 0b111)
    assert engine.honest_reply(spec, m, 2, 0b100, pads.__getitem__, 0b111) == \
        0b110 ^ spec.mul_i(0b100, 0b101)
    assert engine.honest_reply(spec, m, m + 1, None, pads.__getitem__) == 0b110


def test_attack_path_with_honest_strategies_matches_honest_session():
    params = make_params(4, 2)
    for seed in (1, 2, 3):
        a = run_honest_session(params, 9, seed)
        b = run_attack_session(params, HonestProver(9), HonestProver(), seed)
        assert a.to_text() == b.to_text()


def test_replay_reproduces_transcript():
    # Re-running strategies against the recorded challenges reproduces the session.
    params = make_params(3, 3)
    t = run_honest_session(params, 5, 321)
    again = run_attack_session(t.params, HonestProver(5), HonestProver(), t.seed,
                               fixed_challenges=t.challenges())
    assert again.to_text() == t.to_text()


class PeekingStrategy(HonestProver):
    """Tries to read the challenge the other prover just received."""

    def __call__(self, party, round_index, view):
        if round_index == 1:
            view.challenge(0)
        return super().__call__(party, round_index, view)


def test_peeking_strategy_rejected():
    params = make_params(3, 2)
    with pytest.raises(ProtocolViolation):
        run_attack_session(params, HonestProver(1), PeekingStrategy(), 7)


def test_forwarding_lag_is_the_communication_model():
    params = make_params(3, 2)
    # A looser model (lag 1) legalizes reading the previous round.
    t = run_attack_session(params, HonestProver(1), PeekingStrategy(), 7,
                           forwarding_lag=1)
    assert t.outcome == 1
    # A stricter model starves the multi-round attack of the chain values
    # it needs.  Lag 3 changes nothing (same-parity rounds are a prover's
    # own); lag 4 hides the other prover's rounds the guesser depends on.
    from relcommit.adversary import brute_force_chsh, tightness_strategy
    spec = FieldSpec.default(2)
    tables = brute_force_chsh(spec)
    strict = SchemeParams(spec, 3)
    commit, open_ = tightness_strategy(2, tables, strict)
    run_attack_session(strict, commit, open_, 7, forwarding_lag=3)
    with pytest.raises(ProtocolViolation):
        run_attack_session(strict, commit, open_, 7, forwarding_lag=4)


def test_strategies_cannot_predict_challenges():
    # The prover root seed never reproduces the verifier's stream.
    seed = 77
    pseed = engine.prover_root_seed(seed)
    n = 8
    challenges = [stream_value(seed, STREAM_CHALLENGE, i, n) for i in range(16)]
    from_prover = [stream_value(pseed, STREAM_CHALLENGE, i, n) for i in range(16)]
    assert challenges != from_prover


def test_domain_restricted_session():
    params = make_params(3, 1, domain_bits=1)
    found = {run_honest_session(params, 1, s).outcome for s in range(40)}
    assert 1 in found
    assert found <= {0, 1, BOT}


def test_committed_value_must_fit_domain():
    params = make_params(3, 1, domain_bits=1)
    with pytest.raises(ValueError):
        run_honest_session(params, 2, 7)


def test_completeness_rate_small_sample():
    params = make_params(8, 4)
    trials = 20000
    fails = 0
    for t in range(trials):
        tseed = stream_u64(42, engine.STREAM_TRIAL, t)
        if run_honest_session(params, 1, tseed).outcome != 1:
            fails += 1
    expected = 1 - (1 - 2.0**-8) ** 5
    sigma = math.sqrt(expected * (1 - expected) / trials)
    assert abs(fails / trials - expected) <= 3 * sigma


def test_composed_completeness_errors_add_up():
    # The failure rate of the m-round scheme compounds the single-round
    # rate: measure both and compare 1 - (1 - f0)^(m+1) against f_m.
    spec = FieldSpec.default(4)
    trials = 20000

    def failure_rate(m, value=1):
        params = SchemeParams(spec, m)
        fails = sum(
            run_honest_session(params, value,
                               stream_u64(31337 + m, engine.STREAM_TRIAL, t)).outcome != value
            for t in range(trials))
        return fails / trials

    f0 = failure_rate(0)
    f2 = failure_rate(2)
    predicted = 1 - (1 - f0) ** 3
    sigma = math.sqrt(predicted * (1 - predicted) / trials)
    assert abs(f2 - predicted) <= 3 * sigma


def test_challenge_stream_uniformity_chi_square():
    n = 4
    counts = [0] * 16
    trials = 100000
    for i in range(trials):
        counts[stream_value(424242, STREAM_CHALLENGE, i, n)] += 1
    expected = trials / 16
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 37.7  # chi-square df=15, p=0.001


def test_message_slot_never_names_one_party_as_sender_and_receiver():
    # Every message the verifier issues or takes, and every line that
    # parse_transcript accepts, has the slot that _slot names.
    for fc in ("P", "Q"):
        for m in (0, 1, 4):
            params = make_params(m=m, first_committer=fc)
            for k in range(2 * m + 3):
                _, sender, receiver = engine._slot(params, k)
                assert sender != receiver
                assert "V" in (sender, receiver)
