"""Exact distribution tools and binding/hiding measurements."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcommit import analysis, cli, engine
from relcommit.adversary import RandomOpen, brute_force_chsh
from relcommit.analysis import (
    COINFLIP,
    Dist,
    FiniteScheme,
    JointDist,
    chsh_scheme,
    cond_indep_given_neq,
    couple_max_diagonal,
    extractor_violation,
    fair_binding_epsilon,
    fairly_binding_extractor,
    fairly_weak_hat_distribution,
    fixed_challenge_strategy,
    hiding_distance,
    k_of_extr,
    max_extractor_violation,
    max_hiding_distance,
    max_p0_plus_p1,
    open_game_trial,
    report_line,
    seeded_trials,
    sim_open_epsilon,
    stat_distance,
    view_distribution,
)
from relcommit.field import FieldError, FieldSpec
from relcommit.scheme import BOT, SchemeParams, extr_bit_i, extr_i

F = Fraction
GF2 = FieldSpec.default(1)
GF4 = FieldSpec.default(2)
GF8 = FieldSpec.default(3)


def point(x):
    return Dist({x: 1})


def uniform(xs):
    return Dist({x: F(1, len(xs)) for x in xs})


def prob_equal(j):
    """P(x = y) under the joint pmf j."""
    return sum((w for (x, y), w in j.items() if x == y), F(0))


def pmf_pairs(max_support=5):
    """Hypothesis strategy for pairs of pmfs over a shared small support."""
    weights = st.lists(st.integers(0, 20), min_size=2, max_size=max_support)

    def to_dist(ws):
        if not any(ws):
            ws = list(ws)
            ws[0] = 1
        total = sum(ws)
        return Dist({i: F(w, total) for i, w in enumerate(ws) if w})

    return st.tuples(weights, weights).map(
        lambda pair: (to_dist(pair[0]), to_dist(pair[1])))


# -- distributions -----------------------------------------------------------


def test_dist_validation():
    with pytest.raises(ValueError):
        Dist({0: F(1, 2)})
    with pytest.raises(ValueError):
        Dist({0: F(-1, 2), 1: F(3, 2)})
    d = Dist({0: F(1, 2), 1: F(1, 2), 2: 0})
    assert d.support == {0, 1}
    assert point("x").mass("x") == 1
    assert uniform(range(4)).mass(3) == F(1, 4)


def test_stat_distance_examples():
    p = uniform([0, 1])
    assert stat_distance(p, p) == 0
    assert stat_distance(point(0), point(1)) == 1
    assert stat_distance(p, point(0)) == F(1, 2)


def test_coupling_forced_example():
    j = couple_max_diagonal(uniform([0, 1]), point(0))
    assert j.mass(0, 0) == F(1, 2)
    assert j.mass(1, 0) == F(1, 2)
    assert prob_equal(j) == F(1, 2)


def test_coupling_identical_inputs():
    p = Dist({0: F(1, 3), 1: F(2, 3)})
    j = couple_max_diagonal(p, p)
    assert prob_equal(j) == 1
    assert j.marginal(0) == p and j.marginal(1) == p


def test_coupling_three_point_example():
    p = uniform([0, 1, 2])
    q = Dist({0: F(1, 2), 1: F(1, 2)})
    j = couple_max_diagonal(p, q)
    assert j.mass(0, 0) == F(1, 3) and j.mass(1, 1) == F(1, 3)
    assert j.mass(2, 2) == 0
    assert j.mass(2, 0) == F(1, 6) and j.mass(2, 1) == F(1, 6)
    assert cond_indep_given_neq(j)
    assert j.marginal(0) == p and j.marginal(1) == q


@settings(max_examples=120)
@given(pmf_pairs())
def test_coupling_properties(pq):
    p, q = pq
    j = couple_max_diagonal(p, q)
    assert j.marginal(0) == p
    assert j.marginal(1) == q
    for k in p.support | q.support:
        assert j.mass(k, k) == min(p.mass(k), q.mass(k))
    assert cond_indep_given_neq(j)
    assert prob_equal(j) == 1 - stat_distance(p, q)
    assert analysis.maximal_coupling_holds(p, q) and three_clause_coupling_holds(p, q)


def diagonal_is_min(j, p, q):
    return all(j.mass(k, k) == min(p.mass(k), q.mass(k)) for k in p.support | q.support)


def test_maximal_coupling_holds_rejects_broken_joints(monkeypatch):
    p, q = uniform([0, 1, 2]), Dist({0: F(1, 2), 1: F(1, 2)})
    # (2, 1)'s mass moved to (2, 0): column 0 is 2/3, not 1/2.
    wrong_marginal = JointDist({(0, 0): F(1, 3), (1, 1): F(1, 3), (2, 0): F(1, 3)})
    assert wrong_marginal.marginal(1) != q
    assert diagonal_is_min(wrong_marginal, p, q) and cond_indep_given_neq(wrong_marginal)
    # The same joint transposed is wrong in its row marginal.
    wrong_row = JointDist({(y, x): F(1, 3) for x, y in ((0, 0), (1, 1), (2, 0))})
    assert wrong_row.marginal(0) != q and wrong_row.marginal(1) == p
    assert diagonal_is_min(wrong_row, q, p) and cond_indep_given_neq(wrong_row)
    # Row 0 sends all its mass to column 2 and row 1 to column 3.
    p2, q2 = uniform([0, 1]), uniform([2, 3])
    dependent = JointDist({(0, 2): F(1, 2), (1, 3): F(1, 2)})
    assert dependent.marginal(0) == p2 and dependent.marginal(1) == q2
    assert diagonal_is_min(dependent, p2, q2) and not cond_indep_given_neq(dependent)
    # The independent coupling of two equal pmfs: right marginals, 1/4 on
    # each diagonal cell instead of 1/2.  Right marginals and independence
    # given disagreement force the diagonal to min(p_k, q_k), so a joint with
    # a wrong diagonal and right marginals is also dependent.
    independent = JointDist({(x, y): F(1, 4) for x in (0, 1) for y in (0, 1)})
    u = uniform([0, 1])
    assert independent.marginal(0) == u and independent.marginal(1) == u
    assert not diagonal_is_min(independent, u, u) and not cond_indep_given_neq(independent)
    for (pp, qq), joint in [((p, q), wrong_marginal), ((q, p), wrong_row),
                            ((p2, q2), dependent), ((u, u), independent)]:
        assert analysis.maximal_coupling_holds(pp, qq)
        assert three_clause_coupling_holds(pp, qq)
        monkeypatch.setattr(analysis, "couple_max_diagonal", lambda _p, _q, j=joint: j)
        assert not analysis.maximal_coupling_holds(pp, qq)
        assert not three_clause_coupling_holds(pp, qq)
        monkeypatch.undo()


# -- a Fraction-only reference for the integer-weight pmfs ---------------------
#
# Masses are plain dicts of Fractions, written from the definitions and
# sharing no code with analysis, so they check its integer arithmetic.


def ref_stat_distance(p, q):
    keys = p.keys() | q.keys()
    return sum((abs(p.get(k, F(0)) - q.get(k, F(0))) for k in keys), F(0)) / 2


def ref_coupling(p, q):
    """min(p, q) on the diagonal; the residual conditionals' product, times
    the residue, off it."""
    keys = p.keys() | q.keys()
    diag = {k: min(p.get(k, F(0)), q.get(k, F(0))) for k in keys}
    residue = 1 - sum(diag.values(), F(0))
    joint = {(k, k): w for k, w in diag.items() if w}
    for u in keys:
        for v in keys:
            w = (p.get(u, F(0)) - diag[u]) * (q.get(v, F(0)) - diag[v])
            if w:
                joint[(u, v)] = joint.get((u, v), F(0)) + w / residue
    return joint


def ref_marginal(joint, axis):
    out = {}
    for k, w in joint.items():
        out[k[axis]] = out.get(k[axis], F(0)) + w
    return {k: w for k, w in out.items() if w}


def ref_cond_indep(joint):
    """P(x, y | x != y) == P(x | x != y) * P(y | x != y) on the support."""
    off = {k: w for k, w in joint.items() if k[0] != k[1] and w}
    d = sum(off.values(), F(0))
    if not d:
        return True
    cond = {k: w / d for k, w in off.items()}
    rows, cols = ref_marginal(cond, 0), ref_marginal(cond, 1)
    return all(w == rows[x] * cols[y] for (x, y), w in cond.items())


# Integer keys, and tuple keys shaped like the hiding views (a_0, x_0, ...).
KEY_SHAPES = (lambda i: i, lambda i: (i % 2, i, 3 * i % 5, 1))


def some_weight(weights):
    return weights if any(weights) else [1] + weights[1:]


def masses(weights, shape):
    """A pmf as Fractions, zero weights kept, each entry reduced on its own
    so that denominators differ within and across pmfs."""
    total = sum(weights)
    return {KEY_SHAPES[shape](i): F(w, total) for i, w in enumerate(weights)}


@settings(max_examples=200)
@given(st.lists(st.integers(0, 30), min_size=1, max_size=6),
       st.lists(st.integers(0, 30), min_size=1, max_size=6),
       st.integers(0, len(KEY_SHAPES) - 1), st.booleans())
def test_integer_pmfs_agree_with_fraction_reference(pw, qw, shape, same):
    pw, qw = some_weight(pw), some_weight(qw)
    pm = masses(pw, shape)
    qm = pm if same else masses(qw, shape)  # same: the residue R is 0
    p, q = Dist(pm), Dist(qm)
    assert p == Dist.from_counts(dict(zip(pm, pw)))
    assert stat_distance(p, q) == ref_stat_distance(pm, qm)
    j = couple_max_diagonal(p, q)
    ref = ref_coupling(pm, qm)
    assert dict(j.items()) == ref
    assert dict(j.marginal(0).items()) == ref_marginal(ref, 0)
    assert dict(j.marginal(1).items()) == ref_marginal(ref, 1)
    assert cond_indep_given_neq(j) and ref_cond_indep(ref)
    assert analysis.maximal_coupling_holds(p, q)


@settings(max_examples=150)
@given(st.lists(st.integers(0, 9), min_size=9, max_size=9),
       st.integers(0, len(KEY_SHAPES) - 1))
def test_joint_pmfs_agree_with_fraction_reference(weights, shape):
    key = KEY_SHAPES[shape]
    cells = [(key(x), key(y)) for x in range(3) for y in range(3)]
    jm = dict(zip(cells, masses(some_weight(weights), 0).values()))
    j = JointDist(jm)
    assert dict(j.items()) == {k: w for k, w in jm.items() if w}
    assert dict(j.marginal(0).items()) == ref_marginal(jm, 0)
    assert dict(j.marginal(1).items()) == ref_marginal(jm, 1)
    assert cond_indep_given_neq(j) == ref_cond_indep(jm)


def three_clause_coupling_holds(p, q):
    """The coupling check with its diagonal clause, in Fractions: whatever
    analysis.couple_max_diagonal returns must have marginals p and q,
    min(p_k, q_k) on its diagonal, and independence given disagreement."""
    joint = dict(analysis.couple_max_diagonal(p, q).items())
    return (ref_marginal(joint, 0) == dict(p.items())
            and ref_marginal(joint, 1) == dict(q.items())
            and all(joint.get((k, k), 0) == min(p.mass(k), q.mass(k))
                    for k in p.support | q.support)
            and ref_cond_indep(joint))


def test_independence_given_disagreement_forces_minimum_diagonal():
    # Every joint on 3 keys with cell weights 0-2: those independent given
    # disagreement have min(row sum, column sum) on each diagonal cell, so
    # the coupling check needs no diagonal clause.
    cells = list(product(range(3), repeat=2))
    independent = 0
    for weights in product(range(3), repeat=9):
        if not any(weights):
            continue
        j = JointDist.from_counts(dict(zip(cells, weights)))
        if cond_indep_given_neq(j):
            independent += 1
            rows = [sum(weights[3 * k:3 * k + 3]) for k in range(3)]
            cols = [sum(weights[k::3]) for k in range(3)]
            assert all(weights[4 * k] == min(rows[k], cols[k]) for k in range(3))
    assert independent == 998


def test_coupling_check_matches_three_clauses_on_cli_pairs():
    # The first 2,000 pairs that `analyze coupling --seed 1` draws.
    for t in range(2000):
        tseed = engine.stream_u64(1, engine.STREAM_TRIAL, t)
        p = cli._random_pmf(tseed, engine.STREAM_PMF_P)
        q = cli._random_pmf(tseed, engine.STREAM_PMF_Q)
        assert analysis.maximal_coupling_holds(p, q) and three_clause_coupling_holds(p, q)


def test_pmfs_with_non_dividing_denominators():
    p = Dist({0: F(1, 3), 1: F(2, 3)})
    q = Dist({0: F(1, 4), 1: F(1, 6), 2: F(7, 12)})
    assert stat_distance(p, q) == ref_stat_distance(
        {0: F(1, 3), 1: F(2, 3)}, {0: F(1, 4), 1: F(1, 6), 2: F(7, 12)}) == F(7, 12)
    assert q.mass(1) == F(1, 6) and q.mass(5) == 0
    assert repr(q) == "Dist({0: 1/4, 1: 1/6, 2: 7/12})"


def test_equal_pmfs_compare_equal_however_built():
    assert Dist({0: F(1, 2), 1: F(1, 2)}) == Dist.from_counts({0: 2, 1: 2})
    assert Dist.from_counts({0: 3, 1: 0, 2: 6}) == Dist({0: F(1, 3), 2: F(2, 3)})
    assert Dist({0: F(1, 2), 1: F(1, 2)}) != Dist.from_counts({0: 1, 1: 2})
    with pytest.raises(ValueError):
        Dist.from_counts({0: 2, 1: -1})


def test_cond_indep_counterexample():
    j = JointDist({(0, 1): F(1, 2), (1, 2): F(1, 4), (1, 0): F(1, 4)})
    assert not cond_indep_given_neq(j)
    assert cond_indep_given_neq(JointDist({(0, 0): F(1)}))


def test_joint_dist_interface():
    j = JointDist({(0, 1): F(1, 2), (1, 1): F(1, 2)})
    assert j.marginal(0) == uniform([0, 1])
    assert j.marginal(1) == point(1)
    with pytest.raises(ValueError):
        JointDist({(0, 1, 2): F(1)})


# -- p0 + p1 and simultaneous opening -----------------------------------------


def test_max_p0_plus_p1_exact_values():
    assert max_p0_plus_p1(chsh_scheme(GF2, bit=True)) == F(3, 2)
    assert max_p0_plus_p1(chsh_scheme(GF4, bit=True)) == F(5, 4)


def test_max_p0_plus_p1_closed_form():
    for spec in (GF2, GF4, GF8):
        assert max_p0_plus_p1(chsh_scheme(spec, bit=True)) == 1 + F(1, spec.order)


def test_max_p0_plus_p1_refuses_large_fields():
    with pytest.raises(ValueError):
        max_p0_plus_p1(chsh_scheme(FieldSpec.default(4), bit=True))


def test_honest_commit_reaches_one():
    # Committing honestly to 0 with pad y and opening with the same y wins
    # always, so the bidding starts at 1.
    spec = GF4
    y = 2
    table = tuple(y ^ spec.mul_i(a, 0) for a in range(4))
    p0 = sum(1 for a in range(4) if extr_bit_i(spec, y, a, table[a]) == 0)
    assert p0 == 4


def test_weak_binding_normalization_at_n1():
    # (p0 + p1 - 1) / 2 is the weak-binding epsilon; at n=1 it lands on
    # 2^(-n-1), matching the equivalence with the p0+p1 form.
    assert (max_p0_plus_p1(chsh_scheme(GF2, bit=True)) - 1) / 2 == F(1, 4)


def test_sim_open_exact_values():
    assert sim_open_epsilon(chsh_scheme(GF2)) == F(1, 2)
    assert sim_open_epsilon(chsh_scheme(GF4)) == F(1, 4)
    assert sim_open_epsilon(chsh_scheme(GF8)) == F(1, 8)


def whole_table_sim_open_epsilon(spec):
    """max over whole commit tables, opening pairs (y_0, y_1) and distinct
    targets t != t' of p(s = t and s' = t')."""
    order = spec.order
    best = 0
    for table in product(range(order), repeat=order):
        opened = [[extr_i(spec, y, a, table[a]) for a in range(order)]
                  for y in range(order)]
        for col0, col1 in product(opened, repeat=2):
            for t, t2 in product(range(order), repeat=2):
                if t != t2:
                    best = max(best, sum(1 for s0, s1 in zip(col0, col1)
                                         if s0 == t and s1 == t2))
    return F(best, order)


def test_sim_open_matches_whole_table_maximum():
    # The pointwise choice of f(a) reaches the maximum over whole tables.
    for spec in (GF2, GF4):
        assert sim_open_epsilon(chsh_scheme(spec)) == whole_table_sim_open_epsilon(spec)


# Every field of n <= 3, with a second irreducible polynomial at n = 3.
SMALL_FIELDS = [GF2, GF4, GF8, FieldSpec(3, 0xD)]


def opening_by_opening_max_p0_plus_p1(spec):
    """max p(b_0=0) + p(b_1=1), evaluating the bit opening afresh for every
    (y_0, y_1, a, x)."""
    order = spec.order
    best = 0
    for y0 in range(order):
        for y1 in range(order):
            total = sum(
                max((extr_bit_i(spec, y0, a, x) == 0) + (extr_bit_i(spec, y1, a, x) == 1)
                    for x in range(order))
                for a in range(order))
            best = max(best, total)
    return F(best, order)


def opening_by_opening_sim_open_epsilon(spec):
    """max p(s = t and s' = t'), evaluating both openings afresh for every
    (y_0, y_1, a, x)."""
    order = spec.order
    best = 0
    for y0 in range(order):
        for y1 in range(order):
            hits = Counter()
            for a in range(order):
                hits.update({(extr_i(spec, y0, a, x), extr_i(spec, y1, a, x))
                             for x in range(order)})
            for (t, t2), c in hits.items():
                if t is not BOT and t2 is not BOT and t != t2:
                    best = max(best, c)
    return F(best, order)


def test_binding_maxima_match_opening_by_opening_loops():
    for spec in SMALL_FIELDS:
        assert max_p0_plus_p1(chsh_scheme(spec, bit=True)) == \
            opening_by_opening_max_p0_plus_p1(spec)
        assert sim_open_epsilon(chsh_scheme(spec)) == opening_by_opening_sim_open_epsilon(spec)


# -- extractor -----------------------------------------------------------------


def test_extractor_constant_opening_class():
    spec = GF4
    s_star, y = 3, 1
    table = tuple(y ^ spec.mul_i(a, s_star) for a in range(4))
    shat = fairly_binding_extractor(chsh_scheme(spec), table, [y], F(1, 2))
    # Opening y yields s_star on every nonzero challenge (mass 3/4), so
    # those commitments form one class; a = 0 falls back to the canonical 0.
    assert all(shat[(a, table[a])] == s_star for a in range(1, 4))
    assert shat[(0, table[0])] == 0


def test_extractor_alpha_above_one_keeps_residual():
    spec = GF4
    table = (0, 1, 2, 3)
    shat = fairly_binding_extractor(chsh_scheme(spec), table, list(range(4)), F(3, 2))
    assert set(shat.values()) == {0}


def test_extractor_alpha_must_be_positive():
    with pytest.raises(ValueError):
        fairly_binding_extractor(chsh_scheme(GF4), (0, 0, 0, 0), [0], F(0))


def test_extractor_honest_table_bound():
    spec = GF4
    scheme = chsh_scheme(spec)
    alpha = F(1, 2)  # sqrt of the simultaneous-opening epsilon 1/4
    table = tuple(2 ^ spec.mul_i(a, 1) for a in range(4))
    shat = fairly_binding_extractor(scheme, table, list(range(4)), alpha)
    assert extractor_violation(scheme, table, list(range(4)), shat) < 2 * alpha


def test_extractor_worst_case_over_all_tables():
    worst, alpha = max_extractor_violation(chsh_scheme(GF4))
    assert alpha == F(1, 2)
    assert worst < 2 * alpha
    assert worst == F(1, 2)  # recorded worst case at n=2


def target_by_target_extractor_violation(spec, commit_table, opening_family, shat):
    """max over openings and targets of p(opened = target != predicted),
    evaluating the opening afresh for every (y, target, a)."""
    order = spec.order
    worst = 0
    for y in opening_family:
        for target in range(order):
            hits = sum(
                1 for a in range(order)
                if extr_i(spec, y, a, commit_table[a]) == target
                and shat[(a, commit_table[a])] != target)
            worst = max(worst, hits)
    return F(worst, order)


def assert_violation_matches_reference(spec, scheme, table, alpha):
    openings = list(range(spec.order))
    shat = fairly_binding_extractor(scheme, table, openings, alpha)
    for family in [openings] + [[y] for y in openings]:
        assert extractor_violation(scheme, table, family, shat) == \
            target_by_target_extractor_violation(spec, table, family, shat)


def test_extractor_violation_matches_reference_on_every_n2_table():
    scheme = chsh_scheme(GF4)
    for table in product(range(4), repeat=4):
        assert_violation_matches_reference(GF4, scheme, table, F(1, 2))


def test_extractor_violation_matches_reference_in_small_fields():
    rng = random.Random(17)
    for spec in SMALL_FIELDS:
        scheme = chsh_scheme(spec)
        order = spec.order
        honest = [tuple(y ^ spec.mul_i(a, s) for a in range(order))
                  for s in range(order) for y in range(order)]
        drawn = [tuple(rng.randrange(order) for _ in range(order)) for _ in range(64)]
        for table in honest + drawn:
            for alpha in (F(1, order), F(1, 2 ** ((spec.n + 1) // 2)), F(1, 2)):
                assert_violation_matches_reference(spec, scheme, table, alpha)


def residual_scan_extractor(spec, commit_table, opening_family, alpha):
    """The greedy extractor evaluating each opening on the residual: per
    opening, group the residual by opened value and carve, value ascending,
    each slice of probability >= alpha; the rest maps to 0."""
    order = spec.order
    need_num, need_den = alpha.numerator * order, alpha.denominator
    residual = {(a, commit_table[a]) for a in range(order)}
    shat = {}
    for y in opening_family:
        slices = {}
        for c in residual:
            slices.setdefault(extr_i(spec, y, c[0], c[1]), []).append(c)
        for s in range(order):
            block = slices.get(s, ())
            if len(block) * need_den >= need_num:
                for c in block:
                    shat[c] = s
                residual.difference_update(block)
    for c in residual:
        shat[c] = 0
    return shat


def test_extractor_matches_residual_scan_on_every_n2_table():
    openings = list(range(4))
    scheme = chsh_scheme(GF4)
    for table in product(range(4), repeat=4):
        for alpha in (F(1, 4), F(1, 2), F(1), F(3, 2)):
            for family in [openings] + [[y] for y in openings]:
                assert fairly_binding_extractor(scheme, table, family, alpha) == \
                    residual_scan_extractor(GF4, table, family, alpha)


def test_per_table_extractor_reads_equal_the_table_reading():
    # The two per-table functions evaluate only the family's openings of the
    # table's commitments; they give what the scheme's opened table gives,
    # and leave that table unbuilt.
    scheme = chsh_scheme(GF4)
    opened = chsh_scheme(GF4).opened
    openings = list(range(4))
    for table in product(range(4), repeat=4):
        for family in [openings] + [[y] for y in openings]:
            columns = analysis._columns((opened[y] for y in family), table)
            for alpha in (F(1, 4), F(1, 2), F(1)):
                predicted = analysis._carve(columns, 4, alpha)
                shat = fairly_binding_extractor(scheme, table, family, alpha)
                assert shat == {(a, x): s for a, (x, s) in enumerate(zip(table, predicted))}
                assert extractor_violation(scheme, table, family, shat) == \
                    F(analysis._missed(columns, predicted), 4)
    assert "opened" not in scheme.__dict__
    wide = chsh_scheme(FieldSpec.default(6))
    rng = random.Random(6)
    table = [rng.randrange(64) for _ in range(64)]
    shat = fairly_binding_extractor(wide, table, list(range(64)), F(1, 8))
    extractor_violation(wide, table, list(range(64)), shat)
    assert "opened" not in wide.__dict__


def test_k_of_extr_reads_openings_without_the_table():
    for n in (1, 2, 3, 4):  # the c06 fields
        scheme = chsh_scheme(FieldSpec.default(n))
        assert k_of_extr(scheme) == 1
        assert "opened" not in scheme.__dict__
    sloppy = FiniteScheme(4, 4, 4, lambda y, a, x: extr_i(GF4, y & ~1, a, x))
    assert k_of_extr(sloppy) == 2 and "opened" not in sloppy.__dict__


def test_worst_extractor_violation_matches_references():
    openings = list(range(4))
    worst = max(
        target_by_target_extractor_violation(
            GF4, table, openings, residual_scan_extractor(GF4, table, openings, F(1, 2)))
        for table in product(range(4), repeat=4))
    assert max_extractor_violation(chsh_scheme(GF4)) == (worst, F(1, 2))


@settings(max_examples=80)
@given(st.tuples(*(st.integers(0, 3),) * 4),
       st.fractions(min_value=F(1, 16), max_value=F(2)))
def test_extractor_covers_space_and_bounds_classes(table, alpha):
    spec = GF4
    openings = list(range(4))
    shat = fairly_binding_extractor(chsh_scheme(spec), table, openings, alpha)
    assert set(shat) == {(a, table[a]) for a in range(4)}
    # Distinct nonzero predictions only arise from carved classes, each of
    # mass >= alpha, so their count is at most 1/alpha.
    assert len({s for s in shat.values() if s != 0}) <= math.ceil(1 / alpha)


# -- fairly binding -------------------------------------------------------------


def every_prediction_fair_binding_epsilon(spec):
    """max over commit tables of the min over every prediction map a -> value
    of the max over openings and targets of p(opened = target != prediction),
    evaluating the opening afresh for every (table, prediction, y, t, a)."""
    order = spec.order
    worst = 0
    for table in product(range(order), repeat=order):
        worst = max(worst, min(
            max(sum(1 for a in range(order)
                    if extr_i(spec, y, a, table[a]) == t != shat[a])
                for y in range(order) for t in range(order))
            for shat in product(range(order), repeat=order)))
    return F(worst, order)


def one_table_scheme(spec, table):
    """CHSH^n with the commit table fixed: the one reply at a is table[a]."""
    return FiniteScheme(spec.order, spec.order, 1,
                        lambda y, a, x: extr_i(spec, y, a, table[a]))


def test_fair_binding_matches_every_prediction_at_n1():
    assert fair_binding_epsilon(chsh_scheme(GF2)) == every_prediction_fair_binding_epsilon(GF2)


def test_fair_binding_below_greedy_extractor_and_equal_to_sim_open():
    # The greedy extractor's prediction is one of those fair binding
    # minimizes over, on every commit table; the worst table's value is the
    # simultaneous-opening maximum at n = 1 and n = 2 (1/2 and 1/4).
    for spec, eps in ((GF2, F(1, 2)), (GF4, F(1, 4))):
        scheme = chsh_scheme(spec)
        openings = list(range(spec.order))
        per_table = []
        for table in product(range(spec.order), repeat=spec.order):
            per_table.append(fair_binding_epsilon(one_table_scheme(spec, table)))
            for alpha in (F(1, spec.order), F(1, 2)):
                shat = fairly_binding_extractor(scheme, table, openings, alpha)
                assert per_table[-1] <= extractor_violation(scheme, table, openings, shat)
        assert fair_binding_epsilon(scheme) == max(per_table) == sim_open_epsilon(scheme) == eps


def test_binding_values_are_over_the_challenge_count():
    # A coin flip on a four-sided die with three openings, which open only on
    # face 3, each to its own value: every value counts that one challenge
    # over four, not over the three openings or the one reply.
    die = FiniteScheme(3, 4, 1, lambda y, g, x: y if g == 3 else BOT)
    assert max_p0_plus_p1(die) == F(1, 2)
    assert sim_open_epsilon(die) == fair_binding_epsilon(die) == F(1, 4)
    assert max_extractor_violation(die) == (F(1, 4), F(1, 2))
    assert k_of_extr(die) == 1


def never_opened(y, a, x):
    raise AssertionError("an over-cap scheme was opened")


# (analyzer, counts over its cap, counts at its cap) as (openings,
# challenges, replies); None where the table at the cap is too large to build.
CAPPED_ANALYZERS = [
    (max_p0_plus_p1, (8, 8, 9), (8, 8, 8)),
    (sim_open_epsilon, (8, 8, 9), (8, 8, 8)),
    (max_extractor_violation, (4, 9, 2), (4, 4, 4)),
    (fair_binding_epsilon, (5, 4, 4), (4, 4, 4)),
    (k_of_extr, (256, 256, 257), None),
    (lambda s: fairly_binding_extractor(s, (0,), [0], F(1)), (256, 256, 257), None),
    (lambda s: extractor_violation(s, (0,), [0], {(0, 0): 0}), (256, 256, 257), None),
]


@pytest.mark.parametrize("analyzer, over, at", CAPPED_ANALYZERS)
def test_analyzers_refuse_over_cap_schemes_before_opening(analyzer, over, at):
    with pytest.raises(ValueError, match=r"enumerates .*, over \d+ at "):
        analyzer(FiniteScheme(*over, never_opened))
    if at is not None:
        analyzer(FiniteScheme(*at, lambda y, a, x: BOT))


# -- hat distribution ----------------------------------------------------------


def test_hat_distribution_point_mass_example():
    out = fairly_weak_hat_distribution([F(1), F(0)], F(1, 2))
    assert out == [F(1), F(0)]


def test_hat_distribution_uniform_example():
    out = fairly_weak_hat_distribution([F(1, 4)] * 4, F(1, 8))
    assert out == [F(1, 4)] * 4


def test_hat_distribution_caps_prefix_at_n():
    # epsilon = 1/2 gives N = 2, so only two entries are kept; their
    # shortfall below total mass 1 is spread back evenly (negative shave).
    out = fairly_weak_hat_distribution([F(2, 5)] * 3, F(1, 2))
    assert out == [F(1, 2), F(1, 2), F(0)]


def test_hat_distribution_positive_shave():
    # Prefix mass 11/10 exceeds 1 but stays within the admissible excess.
    out = fairly_weak_hat_distribution([F(3, 5), F(1, 2)], F(1, 2))
    assert out == [F(11, 20), F(9, 20)]
    assert sum(out) == 1


def test_hat_distribution_rejects_overweight_prefix():
    # Sum of the kept prefix beyond 1 + N'(N-1)*epsilon/2 cannot arise from
    # an epsilon-bounded scheme and would drive masses negative.
    with pytest.raises(ValueError):
        fairly_weak_hat_distribution([F(1), F(9, 40), F(1, 10)], F(1, 50))


def test_hat_distribution_input_validation():
    with pytest.raises(ValueError):
        fairly_weak_hat_distribution([F(1, 4), F(1, 2)], F(1, 2))
    with pytest.raises(ValueError):
        fairly_weak_hat_distribution([F(3, 2)], F(1, 2))
    with pytest.raises(ValueError):
        fairly_weak_hat_distribution([F(1)], F(0))
    with pytest.raises(ValueError):
        fairly_weak_hat_distribution([], F(1))


def test_hat_distribution_degenerate_prefix():
    # Every entry below the floor: fall back to a point mass on the head.
    out = fairly_weak_hat_distribution([F(1, 100), F(1, 200)], F(1, 2))
    assert out == [F(1), F(0)]


def test_hat_distribution_large_epsilon_clamps_n():
    # epsilon >= 2 still uses N = 2, keeping the construction total.
    out = fairly_weak_hat_distribution([F(1), F(1)], F(4))
    assert sum(out) == 1 and all(x >= 0 for x in out)


def inflated_maxima(weights, epsilon, inflation_num):
    """A list shaped like per-value opening maxima: a pmf plus a uniform
    inflation of at most (N-1)*epsilon/2 per entry, capped at 1."""
    from relcommit.analysis import _ceil_sqrt
    total = sum(weights) or 1
    n_big = max(2, _ceil_sqrt(F(2) / epsilon))
    bump = F(inflation_num, 16) * F(n_big - 1) * epsilon / 2
    ps = sorted((min(F(1), F(w, total) + bump) for w in weights), reverse=True)
    return ps


@settings(max_examples=150)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=8),
       st.fractions(min_value=F(1, 50), max_value=F(3)),
       st.integers(0, 16))
def test_hat_distribution_always_a_pmf(weights, epsilon, inflation_num):
    ps = inflated_maxima(weights, epsilon, inflation_num)
    out = fairly_weak_hat_distribution(ps, epsilon)
    assert sum(out) == 1
    assert all(x >= 0 for x in out)
    assert len(out) == len(ps)


# -- hiding --------------------------------------------------------------------


def test_hiding_zero_through_sustain_rounds():
    for n, m in ((1, 0), (2, 1), (3, 1), (2, 2)):
        spec = FieldSpec.default(n)
        params = SchemeParams(spec, m)
        for fixed in product(range(spec.order), repeat=m + 1):
            strat = fixed_challenge_strategy(fixed)
            for s1 in range(1, spec.order):
                assert hiding_distance(params, strat, 0, s1, horizon=m) == 0


def test_final_round_reveals_value():
    params = SchemeParams(GF4, 1)
    strat = fixed_challenge_strategy((1, 2))
    assert hiding_distance(params, strat, 0, 3, horizon=2) == 1


def test_zero_challenge_hides_even_after_opening():
    params = SchemeParams(GF4, 0)
    strat = fixed_challenge_strategy((0,))
    assert hiding_distance(params, strat, 0, 3, horizon=1) == 0


def test_view_distribution_is_uniform_over_responses():
    params = SchemeParams(GF4, 1)
    d = view_distribution(params, fixed_challenge_strategy((2, 3)), 1, horizon=1)
    assert all(w == F(1, 16) for _, w in d.items())
    assert len(d.support) == 16


def test_hiding_horizon_validation_and_size_cap():
    params = SchemeParams(GF4, 1)
    with pytest.raises(ValueError):
        hiding_distance(params, fixed_challenge_strategy((1, 2)), 0, 1, horizon=3)
    with pytest.raises(ValueError, match="too large to enumerate"):
        view_distribution(SchemeParams(FieldSpec.default(8), 4),
                          fixed_challenge_strategy((1,) * 5), 0, horizon=4)


def test_view_distribution_refuses_negative_horizon():
    params = SchemeParams(GF4, 1)
    with pytest.raises(ValueError, match="horizon -1"):
        hiding_distance(params, fixed_challenge_strategy((1, 2)), 0, 1, horizon=-1)


def test_view_distribution_refuses_value_outside_field():
    with pytest.raises(FieldError):
        view_distribution(SchemeParams(GF8, 1), fixed_challenge_strategy((1, 2)), 9,
                          horizon=1)


def product_over_pads_view_distribution(params, verifier_strategy, value, horizon):
    """The view distribution built one whole session per tuple of shared
    pads (y_0, ..., y_m), every round asking the strategy afresh."""
    spec, m = params.field, params.m
    views = []
    for pads in product(range(spec.order), repeat=m + 1):
        view, responses = (), ()
        for i in range(min(horizon, m) + 1):
            a = spec.check(verifier_strategy(i, responses))
            x = engine.honest_reply(spec, m, i, a, pads.__getitem__, value)
            view += (a, x)
            responses += (x,)
        if horizon == m + 1:
            view += (engine.honest_reply(spec, m, m + 1, None, pads.__getitem__),)
        views.append(view)
    return Dist.from_counts(Counter(views))


def test_view_distribution_matches_product_over_pads():
    for n in range(1, 7):
        spec = FieldSpec.default(n)
        for m in range(6 // n):
            params = SchemeParams(spec, m)
            challenges = sorted({0, 1, spec.order - 1})
            strategies = [fixed_challenge_strategy(fixed)
                          for fixed in product(challenges, repeat=m + 1)]
            strategies.append(lambda i, responses, order=spec.order:
                              (sum(responses) + i) % order)
            for strat in strategies:
                for value in range(spec.order):
                    for horizon in range(m + 2):
                        assert view_distribution(params, strat, value, horizon) == \
                            product_over_pads_view_distribution(params, strat, value, horizon)


# Computed before max_hiding_distance compared view counts; unchanged by it.
HIDING_GRID_SHA256 = "1f121090b0e0f0c9bfb8d66e4921a71fab2d3a4d1cd77f56391e4886fec3070e"


def hiding_grid_digest():
    """sha256 over the reprs of every view distribution for (n, m) in
    {(1, 0-3), (2, 0-2), (3, 0-1)}, every fixed challenge tuple plus one
    adaptive strategy, every value and horizon, then each hiding_distance
    against value 0, and max_hiding_distance for each (n, m)."""
    h = hashlib.sha256()
    for n, ms in ((1, range(4)), (2, range(3)), (3, range(2))):
        spec = FieldSpec.default(n)
        for m in ms:
            params = SchemeParams(spec, m)
            strategies = [fixed_challenge_strategy(fixed)
                          for fixed in product(range(spec.order), repeat=m + 1)]
            strategies.append(lambda i, responses, order=spec.order:
                              (sum(responses) + i) % order)
            for strat in strategies:
                for value in range(spec.order):
                    for horizon in range(m + 2):
                        d = view_distribution(params, strat, value, horizon)
                        h.update(repr(d).encode())
                for s1 in range(1, spec.order):
                    for horizon in range(m + 2):
                        h.update(repr(hiding_distance(params, strat, 0, s1, horizon)).encode())
            h.update(repr(max_hiding_distance(params)).encode())
    return h.hexdigest()


def test_hiding_values_are_pinned():
    assert hiding_grid_digest() == HIDING_GRID_SHA256


def test_max_hiding_distance_measures_counts_that_differ(monkeypatch):
    # Stand-in counts, four views per value: value s puts s of them on "b",
    # at distance s/4 from value 0's.
    monkeypatch.setattr(analysis, "_view_distribution",
                        lambda params, strat, value, horizon, rows:
                        Counter("a" * (4 - value) + "b" * value))
    assert max_hiding_distance(SchemeParams(GF4, 0)) == F(3, 4)


def test_view_distribution_asks_strategy_once_per_prefix():
    calls = []

    def counting(i, responses):
        calls.append((i, responses))
        return 1

    view_distribution(SchemeParams(GF4, 1), counting, 2, horizon=1)
    assert sorted(calls) == [(0, ())] + [(1, (x,)) for x in range(4)]


def deterministic_verifiers(spec, m):
    """Every deterministic verifier: a_i is any function of x_0..x_{i-1}."""
    order = spec.order
    tables = [[dict(zip(product(range(order), repeat=i), table))
               for table in product(range(order), repeat=order ** i)]
              for i in range(m + 1)]
    for choice in product(*tables):
        yield lambda i, responses, choice=choice: choice[i][responses]


def test_hiding_zero_for_every_deterministic_adaptive_verifier():
    for n, m, count in ((1, 1, 8), (1, 2, 128), (2, 1, 1024)):
        spec = FieldSpec.default(n)
        params = SchemeParams(spec, m)
        verifiers = list(deterministic_verifiers(spec, m))
        assert len(verifiers) == count
        for verifier in verifiers:
            for s1 in range(1, spec.order):
                assert hiding_distance(params, verifier, 0, s1, horizon=m) == 0


# -- open game -----------------------------------------------------------------


def test_open_game_honest_ignoring_target():
    params = SchemeParams(GF4, 0)

    def family(target):
        honest = engine.HonestProver(1)
        return honest, honest

    res = seeded_trials(partial(open_game_trial, params, family), trials=6000, seed=3)
    sigma = res.sigma(0.25)
    assert abs(float(res.rate) - 0.25) <= 3 * sigma


def test_open_game_random_open_exact_and_mc():
    spec = GF4
    params = SchemeParams(spec, 0)
    # Exact enumeration over challenge, announced string, target.
    hits = 0
    for a in range(4):
        for y in range(4):
            for target in range(4):
                x = 1 ^ spec.mul_i(a, 3)  # honest commitment to 3, pad 1
                if extr_i(spec, y, a, x) == target:
                    hits += 1
    exact = F(hits, 64)
    assert exact == F(13, 64)

    def family(target):
        strategy = RandomOpen(3)
        return strategy, strategy

    res = seeded_trials(partial(open_game_trial, params, family), trials=8000, seed=11)
    sigma = res.sigma(float(exact))
    assert abs(float(res.rate) - float(exact)) <= 3 * sigma
    cond = seeded_trials(partial(open_game_trial, params, family, condition_nonzero=True),
                         trials=8000, seed=11)
    sigma = cond.sigma(0.25)
    assert abs(float(cond.rate) - 0.25) <= 3 * sigma


def test_open_game_tightness_tracks_accounting():
    from relcommit.adversary import tightness_strategy, tightness_success_probability
    params = SchemeParams(GF4, 3)
    tables = brute_force_chsh(GF4)

    def family(target):
        return tightness_strategy(target, tables, params)

    res = seeded_trials(partial(open_game_trial, params, family, condition_nonzero=True),
                        trials=8000, seed=13)
    p = float(tightness_success_probability(tables.q, 3))
    assert abs(float(res.rate) - p) <= 3 * res.sigma(p)


# -- separation fixture ----------------------------------------------------------


# The coin-flip scheme written out by hand: the verifier flips a public coin
# g, then accepts any announced bit when g = 1 and rejects everything when
# g = 0.  Opening strategies are maps g -> announced bit.


def coinflip_max_p0_plus_p1():
    """max p(b_0=0) + p(b_1=1) over pairs of opening strategies."""
    strategies = list(product((0, 1), repeat=2))
    best = F(0)
    for o0 in strategies:
        p0 = F(sum(1 for g in (0, 1) if g == 1 and o0[g] == 0), 2)
        for o1 in strategies:
            p1 = F(sum(1 for g in (0, 1) if g == 1 and o1[g] == 1), 2)
            best = max(best, p0 + p1)
    return best


def coinflip_best_binding_epsilon():
    """min over predicted-bit maps of the worst opening deviation: for
    every map shat: g -> bit an opening announces the other bit whenever
    the coin accepts, so every candidate loses with probability 1/2."""
    strategies = list(product((0, 1), repeat=2))
    worst_of_best = F(1)
    for shat in strategies:
        worst = max(
            F(sum(1 for g in (0, 1) if g == 1 and o[g] != shat[g]), 2)
            for o in strategies)
        worst_of_best = min(worst_of_best, worst)
    return worst_of_best


def test_coinflip_fixture_separates_definitions():
    assert max_p0_plus_p1(COINFLIP) == coinflip_max_p0_plus_p1() == 1
    assert fair_binding_epsilon(COINFLIP) == coinflip_best_binding_epsilon() == F(1, 2)


def test_report_line_format():
    line = report_line("sim-open", 2, F(1, 4), F(1, 4), True)
    assert line == "metric=sim-open n=2 value=1/4 bound=1/4 pass=true"
    line = report_line("hiding", 2, F(0), F(0), True)
    assert "value=0/1" in line
