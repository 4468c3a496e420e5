"""Game search, randomization wrapper, and attack strategies."""

import hashlib
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcommit import adversary, engine
from relcommit.adversary import (
    ChshTables,
    RandomizedChsh,
    RandomOpen,
    brute_force_chsh,
    parse_tables,
    serialize_tables,
    tightness_strategy,
    tightness_success_probability,
    tightness_vs_composition_bounds,
)
from relcommit.engine import run_attack_session, stream_u64, stream_value
from relcommit.field import FieldSpec
from relcommit.scheme import BOT, SchemeParams

GF2 = FieldSpec.default(1)
GF4 = FieldSpec.default(2)

# Exact game values recorded from the exhaustive search (n=1 is the classical
# CHSH value; n=2 was cross-checked against the full double-table search; the
# n=3 figure is the certified lower bound from the affine-family search).
Q1 = Fraction(3, 4)
Q2 = Fraction(9, 16)
Q3_LOWER = Fraction(15, 64)

# An x table over GF(8) (poly 0xB) whose exact best response wins 24 of 64,
# so q_3 >= 3/8, beyond the affine search's 15/64.
Q3_WITNESS_X = (0, 0, 0, 0, 1, 2, 5, 3)


def full_double_search(spec):
    """Independent oracle: try every (x table, y table) pair."""
    mul = [[spec.mul_i(a, s) for s in range(spec.order)] for a in range(spec.order)]
    best = 0
    for xt in product(range(spec.order), repeat=spec.order):
        for yt in product(range(spec.order), repeat=spec.order):
            wins = sum(1 for a in range(spec.order) for s in range(spec.order)
                       if xt[a] ^ yt[s] == mul[a][s])
            best = max(best, wins)
    return Fraction(best, spec.order ** 2)


def test_q1_is_three_quarters_exactly():
    tables = brute_force_chsh(GF2)
    assert tables.q == Q1
    assert isinstance(tables.q, Fraction)
    assert tables.q == full_double_search(GF2)


def test_all_zero_tables_win_three_of_four_at_n1():
    zero = ChshTables(GF2, (0, 0), (0, 0), Fraction(3, 4))
    assert zero.wins() == 3


def test_q2_matches_full_double_search():
    tables = brute_force_chsh(GF4)
    assert tables.q == Q2
    assert tables.q == full_double_search(GF4)
    assert tables.q >= Fraction(7, 16)  # the all-zero tables' value


def test_q3_affine_search_lower_bound():
    tables = brute_force_chsh(FieldSpec.default(3))
    assert tables.q == Q3_LOWER
    assert tables.wins() == 15


def test_q3_is_at_least_three_eighths_by_witness():
    def clmul_mod(a, s, poly=0xB):
        prod = 0
        for i in range(3):
            if (a >> i) & 1:
                prod ^= s << i
        for i in (4, 3):
            if (prod >> i) & 1:
                prod ^= poly << (i - 3)
        return prod

    xt = Q3_WITNESS_X
    # Per s, the best y is the most frequent x(a) + a*s over a.
    yt = tuple(max(range(8), key=lambda y: sum(xt[a] ^ clmul_mod(a, s) == y
                                             for a in range(8)))
               for s in range(8))
    wins = sum(xt[a] ^ yt[s] == clmul_mod(a, s) for a in range(8) for s in range(8))
    assert Fraction(wins, 64) == Fraction(3, 8)
    spec = FieldSpec(3, 0xB)
    assert ChshTables(spec, xt, yt, Fraction(3, 8)).wins() == 24


def loop_best_response(spec, x_table):
    """Best reply per s, counting each candidate y's wins with a sum over
    the targets: O(8^n) per table.  Ties go to the smaller y."""
    order = spec.order
    total = 0
    ys = []
    for s in range(order):
        targets = [x_table[a] ^ spec.mul_i(a, s) for a in range(order)]
        best_y, best_c = 0, -1
        for y in range(order):
            c = sum(1 for t in targets if t == y)
            if c > best_c:
                best_y, best_c = y, c
        ys.append(best_y)
        total += best_c
    return total, tuple(ys)


def affine_x_tables(spec):
    return [tuple(spec.mul_i(u, a) ^ v for a in range(spec.order))
            for u in range(spec.order) for v in range(spec.order)]


def test_best_response_matches_loop_reference():
    for spec in (GF2, GF4):
        for xt in product(range(spec.order), repeat=spec.order):
            assert adversary._best_response(spec, xt) == loop_best_response(spec, xt)
    for spec in (FieldSpec.default(3), FieldSpec(3, 0xD)):
        for xt in affine_x_tables(spec):
            assert adversary._best_response(spec, xt) == loop_best_response(spec, xt)
    assert adversary._best_response(FieldSpec(3, 0xB), Q3_WITNESS_X)[0] == 24


def test_search_tables_match_loop_best_response(monkeypatch):
    for n in (1, 2, 3):
        spec = FieldSpec.default(n)
        counted = serialize_tables(brute_force_chsh(spec))
        with monkeypatch.context() as mp:
            mp.setattr(adversary, "_best_response", loop_best_response)
            assert serialize_tables(brute_force_chsh(spec)) == counted


def test_brute_force_refuses_large_fields():
    with pytest.raises(ValueError):
        brute_force_chsh(FieldSpec.default(4))


def test_search_is_deterministic():
    a = brute_force_chsh(GF4)
    b = brute_force_chsh(GF4)
    assert (a.x_table, a.y_table, a.q) == (b.x_table, b.y_table, b.q)


def test_wrapper_success_is_input_independent():
    for spec in (GF2, GF4):
        tables = brute_force_chsh(spec)
        wrapped = RandomizedChsh(tables)
        want = tables.wins()
        for a in range(spec.order):
            for s in range(spec.order):
                assert wrapped.win_count(a, s) == want


def test_wrapper_preserves_value_of_suboptimal_tables():
    zero = ChshTables(GF4, (0,) * 4, (0,) * 4, Fraction(7, 16))
    wrapped = RandomizedChsh(zero)
    for a in range(4):
        for s in range(4):
            assert wrapped.win_count(a, s) == 7


def test_wrapper_output_marginal():
    # The fake response is uniform except for one boosted point: the image
    # of the zero blinded challenge.  Hand count: for fixed a, each draw
    # pair with a + r_a != 0 spreads uniformly, the 2^n draws with
    # r_a = a all land on x_table[0].
    for spec in (GF2, GF4):
        tables = brute_force_chsh(spec)
        wrapped = RandomizedChsh(tables)
        for a in range(spec.order):
            counts = [0] * spec.order
            for r_a in range(spec.order):
                for r_s in range(spec.order):
                    counts[wrapped.x_play(a, r_a, r_s)] += 1
            for x in range(spec.order):
                want = (spec.order - 1) + (spec.order if x == tables.x_table[0] else 0)
                assert counts[x] == want


def test_tables_serialization_round_trip():
    tables = brute_force_chsh(GF4)
    text = serialize_tables(tables)
    assert text.startswith("#chsh-tables v1 n=2 poly=0x7 q=9/16")
    back = parse_tables(text)
    assert back == tables


def test_tables_parse_rejects_tampered_q():
    text = serialize_tables(brute_force_chsh(GF4))
    with pytest.raises(ValueError):
        parse_tables(text.replace("q=9/16", "q=10/16"))
    with pytest.raises(ValueError):
        parse_tables("no header\n")


def test_tables_parse_reads_only_what_serialize_writes():
    # Each hex field must be written as FieldSpec.to_hex writes it, so a
    # row such as 0x0:0 or 3: 3 is refused, not read as 0:0 or 3:3.
    text = serialize_tables(brute_force_chsh(GF4))
    assert parse_tables(text) == brute_force_chsh(GF4)
    for row, bad in (("0:0", "0x0:0"), ("3:1", "3: 1"), ("3:1", " 3:1"), ("3:1", "+3:1"),
                     ("3:1", "03:1"), ("2:0", "2:"), ("1:0", "1:4")):
        with pytest.raises(ValueError):
            parse_tables(text.replace(f"\n{row}\n", f"\n{bad}\n", 1))


def test_tables_parse_names_the_bad_line():
    # Blank lines count: the x row 3:1, line 5 of the file, is line 7 after
    # two blank lines are put after the header.
    lines = serialize_tables(brute_force_chsh(GF4)).splitlines()
    lines[1:1] = ["", "  "]
    for bad, why in (("3", "row '3' is not key:value"),
                     ("3:1:2", "row '3:1:2' is not key:value"),
                     ("3:9", "value 9 outside GF(2^2)"),
                     ("2:1", "key 2 repeats line 6")):
        text = "\n".join(lines[:6] + [bad] + lines[7:])
        with pytest.raises(ValueError) as err:
            parse_tables(text)
        assert str(err.value) == f"line 7: {why}"


def test_tightness_success_probability_formula():
    q = Q2
    assert tightness_success_probability(q, 0) == q
    assert tightness_success_probability(q, 1) == q
    assert tightness_success_probability(q, 3) == 1 - (1 - q) ** 2
    assert tightness_success_probability(q, 5) == 1 - (1 - q) ** 3
    assert tightness_success_probability(q, 2) == 1 - (1 - q) ** 2


def run_tightness(m, trials, seed, target_fixed=None):
    params = SchemeParams(GF4, m)
    tables = brute_force_chsh(GF4)
    hits = kept = 0
    for t in range(trials):
        tseed = stream_u64(seed, engine.STREAM_TRIAL, t)
        target = (target_fixed if target_fixed is not None
                  else stream_value(tseed, engine.STREAM_TARGET, 0, 2))
        commit, open_ = tightness_strategy(target, tables, params)
        tr = run_attack_session(params, commit, open_, tseed)
        if 0 in tr.challenges():
            continue
        kept += 1
        hits += tr.outcome == target
    return hits, kept


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_tightness_attack_tracks_closed_form(m):
    hits, kept = run_tightness(m, 8000, seed=7 + m)
    p = float(tightness_success_probability(Q2, m))
    sigma = math.sqrt(p * (1 - p) / kept)
    assert abs(hits / kept - p) <= 3 * sigma


def test_tightness_attack_never_violates_visibility():
    # PartyView raises on any out-of-window read, so a completed session is
    # the proof of legality; cover both final-sender parities.
    tables = brute_force_chsh(GF4)
    for m in (0, 1, 2, 3, 4, 5):
        params = SchemeParams(GF4, m)
        for seed in range(5):
            commit, open_ = tightness_strategy(2, tables, params)
            run_attack_session(params, commit, open_, seed)


def test_tightness_transcripts_are_pinned():
    # sha256 over the transcripts of a seeded grid: both widths with exact
    # tables, m = 0..8, both first committers, 150 sessions each.  The
    # challenges are seeded, so zero challenges occur too.
    digest = hashlib.sha256()
    for spec in (GF2, GF4):
        tables = brute_force_chsh(spec)
        for m in range(9):
            for first in ("P", "Q"):
                params = SchemeParams(spec, m, first_committer=first)
                for t in range(150):
                    tseed = stream_u64(77 + m, engine.STREAM_TRIAL, t)
                    commit, open_ = tightness_strategy(t % spec.order, tables, params)
                    digest.update(run_attack_session(
                        params, commit, open_, tseed).to_text().encode())
    assert digest.hexdigest() == (
        "270d2466ec705e5b8a07346c06f67397d2bfbe27099a8713c1592552cb4b2ef8")


def test_tightness_plays_honestly_from_two_rounds_after_its_first_win():
    # The first won attempt j is re-derived from each transcript, the tables
    # and the game draws: the attempt at even round j is won when Y's guess
    # from the chain value w_{j-1} equals w_j, with w_{-1} = target and
    # w_i = x_i + a_i * w_{i-1}.  Every reply from round j + 2 on, and the
    # opening after an odd m, is then the honest reply over the shared
    # pads.  The challenges are seeded, so zero challenges occur too.
    tables = brute_force_chsh(GF4)
    mul = GF4.mul_i
    checked = won_early = 0
    for m in range(6):
        for first in ("P", "Q"):
            params = SchemeParams(GF4, m, first_committer=first)
            for t in range(60):
                seed = stream_u64(31 + m, engine.STREAM_TRIAL, t)
                target = t % GF4.order
                commit, open_ = tightness_strategy(target, tables, params)
                tr = run_attack_session(params, commit, open_, seed)
                pseed = engine.prover_root_seed(seed)
                honest_from = m + 1 if m % 2 else m + 2
                w = target
                for j, (a, x) in enumerate(zip(tr.challenges(), tr.responses())):
                    w_next = x ^ mul(a, w)
                    if j % 2 == 0:
                        r_a = stream_value(pseed, engine.STREAM_GAME_A, j, GF4.n)
                        r_s = stream_value(pseed, engine.STREAM_GAME_B, j, GF4.n)
                        if tables.y_table[w ^ r_s] ^ mul(r_a, w) == w_next:
                            honest_from = min(honest_from, j + 2)
                            break
                    w = w_next
                won_early += honest_from <= m
                pads = engine.stream_values(pseed, engine.STREAM_SHARED, m + 1, GF4.n)
                challenges = tr.challenges() + [None]
                replies = tr.responses() + [tr.final_opening()]
                for i in range(honest_from, m + 2):
                    assert replies[i] == engine.honest_reply(
                        GF4, m, i, challenges[i], pads.__getitem__), (m, first, t, i)
                    checked += 1
    assert won_early > 0 and checked > won_early


def test_tightness_target_validated():
    tables = brute_force_chsh(GF4)
    with pytest.raises(ValueError):
        tightness_strategy(4, tables, SchemeParams(GF4, 1))


def test_random_open_uniform_when_challenge_nonzero():
    spec = FieldSpec.default(3)
    params = SchemeParams(spec, m=0)
    counts = [0] * 8
    kept = 0
    for t in range(20000):
        tseed = stream_u64(99, engine.STREAM_TRIAL, t)
        strategy = RandomOpen(3)
        tr = run_attack_session(params, strategy, strategy, tseed)
        if tr.challenges()[0] == 0:
            continue
        kept += 1
        assert tr.outcome is not BOT
        counts[tr.outcome] += 1
    expected = kept / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    assert chi2 < 37.7  # chi-square df=7 would be 24.3; keep slack


def test_bound_consistency_even_n():
    for n in range(2, 66, 2):
        q = Q2 if n == 2 else None
        m = 1
        limit = 1 << (n // 2)
        while m <= limit:
            lower, upper = tightness_vs_composition_bounds(n, m, q)
            assert lower <= upper
            m *= 2
    with pytest.raises(ValueError):
        tightness_vs_composition_bounds(3, 1)


def int_texts(lo, hi):
    """Integers as a header might spell them: decimal or hex, signed, with
    or without 0x, plus a few that no base reads."""
    return st.one_of(
        st.builds(format, st.integers(lo, hi), st.sampled_from(["d", "x", "#x", "+d", "+#x"])),
        st.sampled_from(["", "x", "0x", "--1", "1_0", "9" * 40]))


TRUE_TABLES = {n: serialize_tables(brute_force_chsh(FieldSpec.default(n))) for n in (1, 2)}


@st.composite
def table_texts(draw):
    """Table files: the true n <= 2 tables with one header field (say, the
    same value signed) or one row replaced, or a header and rows drawn at
    small n."""
    how = draw(st.sampled_from(["header", "row", "drawn"]))
    if how != "drawn":
        lines = TRUE_TABLES[draw(st.integers(1, 2))].splitlines()
        if how == "header":
            fields = lines[0].split()
            k = draw(st.integers(2, len(fields) - 1))
            key, _, old = fields[k].partition("=")
            fields[k] = f"{key}={draw(st.one_of(st.just('-' + old), int_texts(-40, 40)))}"
            lines[0] = " ".join(fields)
        else:
            lines[draw(st.integers(1, len(lines) - 1))] = draw(
                st.sampled_from(["", "0:0", "3:", ":", "0:1:2", "-1:0", "ff:0"]))
        return "\n".join(lines)
    head = (f"#chsh-tables v1 n={draw(int_texts(-2, 4))} poly={draw(int_texts(-40, 40))} "
            f"q={draw(int_texts(-2, 300))}/{draw(int_texts(-2, 300))}")
    rows = draw(st.lists(st.builds("{}:{}".format, int_texts(-2, 20), int_texts(-2, 20)),
                         max_size=34))
    return "\n".join([head] + rows)


@settings(max_examples=200, deadline=None)
@given(st.one_of(table_texts(), st.text(max_size=60)))
def test_parse_tables_returns_tables_or_raises_value_error(text):
    try:
        tables = parse_tables(text)
    except ValueError:
        return
    assert isinstance(tables, ChshTables)
    assert parse_tables(serialize_tables(tables)) == tables
