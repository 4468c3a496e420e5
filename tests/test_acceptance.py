"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is stated inline; nothing is deferred to later
calibration.
"""

import math
import random
import time
from fractions import Fraction
from functools import partial
from itertools import product

import loopback
from relcommit import adversary, analysis, engine, net
from relcommit.field import FieldSpec
from relcommit.scheme import SchemeParams
from relcommit.analysis import Dist, chsh_scheme

F = Fraction


def report(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:2d} ({name}): {status} [{detail}; {elapsed:.2f}s "
          f"of {budget}s budget]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)"


def test_c01_field_invariants():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3, 4):
        spec = FieldSpec.default(n)
        for a, b, c in product(range(spec.order), repeat=3):
            ok &= spec.mul_i(a ^ b, c) == spec.mul_i(a, c) ^ spec.mul_i(b, c)
        for a in range(1, spec.order):
            ok &= spec.mul_i(a, spec.inv_i(a)) == 1
        for a in range(spec.order):
            ok &= spec.pow_i(a, spec.order) == a
    report(1, "field correctness", ok,
           "distributivity, inverses, Frobenius exhaustive n<=4",
           time.time() - t0, 1)


def test_c02_completeness():
    t0 = time.time()
    params = SchemeParams(FieldSpec.default(8), m=4)
    trials = 100_000

    def trial(tseed):
        return engine.run_honest_session(params, 1, tseed).outcome != 1, 1

    res = analysis.seeded_trials(trial, trials, 20240)
    expected = 1 - (1 - 2.0**-8) ** 5
    sigma = res.sigma(expected)
    rate = float(res.rate)
    ok = abs(rate - expected) <= 3 * sigma
    report(2, "completeness", ok,
           f"failure rate {rate:.5f} vs {expected:.5f} (3sigma={3*sigma:.5f})",
           time.time() - t0, 30)


def test_c03_perfect_hiding():
    t0 = time.time()
    worst = F(0)
    for n in (1, 2, 3):
        spec = FieldSpec.default(n)
        for m in (0, 1):
            params = SchemeParams(spec, m)
            for fixed in product(range(spec.order), repeat=m + 1):
                strat = analysis.fixed_challenge_strategy(fixed)
                for s1 in range(1, spec.order):
                    worst = max(worst, analysis.hiding_distance(
                        params, strat, 0, s1, horizon=m))
    ok = worst == 0
    report(3, "perfect hiding", ok,
           f"max view distance up to before the final round = {worst}",
           time.time() - t0, 10)


def test_c04_p0_plus_p1():
    t0 = time.time()
    v1 = analysis.max_p0_plus_p1(chsh_scheme(FieldSpec.default(1), bit=True))
    v2 = analysis.max_p0_plus_p1(chsh_scheme(FieldSpec.default(2), bit=True))
    ok = v1 == F(3, 2) and v2 == F(5, 4)
    report(4, "p0+p1", ok, f"n=1: {v1} (want 3/2); n=2: {v2} (want 5/4)",
           time.time() - t0, 60)


def test_c05_simultaneous_opening():
    t0 = time.time()
    v1 = analysis.sim_open_epsilon(chsh_scheme(FieldSpec.default(1)))
    v2 = analysis.sim_open_epsilon(chsh_scheme(FieldSpec.default(2)))
    ok = v1 == F(1, 2) and v2 == F(1, 4)
    report(5, "simultaneous opening", ok,
           f"n=1: {v1} (want 1/2); n=2: {v2} (want 1/4)",
           time.time() - t0, 60)


def test_c06_extraction_multiplicity():
    t0 = time.time()
    ks = {n: analysis.k_of_extr(chsh_scheme(FieldSpec.default(n))) for n in (1, 2, 3, 4)}
    ok = all(k == 1 for k in ks.values())
    report(6, "k(extr) = 1", ok, f"exhaustive counts {ks}",
           time.time() - t0, 10)


def test_c07_chsh_game_value_and_wrapper():
    t0 = time.time()
    t1 = adversary.brute_force_chsh(FieldSpec.default(1))
    ok = t1.q == F(3, 4) and isinstance(t1.q, Fraction)
    for n in (1, 2):
        tables = adversary.brute_force_chsh(FieldSpec.default(n))
        wrapped = adversary.RandomizedChsh(tables)
        want = tables.wins()
        for a in range(tables.field.order):
            for s in range(tables.field.order):
                ok &= wrapped.win_count(a, s) == want
    report(7, "game value + wrapper", ok,
           f"q_1 = {t1.q} exactly; wrapper input-independent for n<=2",
           time.time() - t0, 300)


def test_c08_tightness_attack():
    t0 = time.time()
    spec = FieldSpec.default(2)
    tables = adversary.brute_force_chsh(spec)
    trials = 100_000
    details = []
    ok = True
    for m in (1, 3, 5):
        params = SchemeParams(spec, m)
        # Uniform targets from each trial's seed; zero-challenge sessions
        # are not kept.
        res = analysis.seeded_trials(partial(
            analysis.open_game_trial, params,
            partial(adversary.tightness_strategy, tables=tables, params=params),
            condition_nonzero=True), trials, 555 + m)
        kept = res.conditioned
        p = float(adversary.tightness_success_probability(tables.q, m))
        sigma = math.sqrt(p * (1 - p) / kept)
        emp = res.hits / kept
        ok &= abs(emp - p) <= 3 * sigma
        details.append(f"m={m}: {emp:.4f} vs {p:.4f} (3sigma={3*sigma:.4f})")
    report(8, "tightness attack", ok, "; ".join(details), time.time() - t0, 120)


def test_c09_extractor():
    t0 = time.time()
    # alpha = 1/2, the square root of the simultaneous-opening bound 1/4
    worst, alpha = analysis.max_extractor_violation(chsh_scheme(FieldSpec.default(2)))
    bound = 2 * alpha
    ok = worst < bound
    report(9, "greedy extractor", ok,
           f"worst deviation {worst} < {bound} over all 256 commit tables",
           time.time() - t0, 300)


def test_c10_bound_consistency():
    t0 = time.time()
    ok = True
    checked = 0
    for n in range(2, 66, 2):
        q = F(9, 16) if n == 2 else None
        m = 1
        while m <= (1 << (n // 2)):
            lower, upper = adversary.tightness_vs_composition_bounds(n, m, q)
            ok &= lower <= upper
            checked += 1
            m *= 2
    report(10, "bound consistency", ok,
           f"{checked} (n, m) pairs, attack lower bound <= composed upper bound",
           time.time() - t0, 1)


def test_c11_coupling_and_hat_distribution():
    t0 = time.time()
    rng = random.Random(2024)
    ok = True
    for _ in range(1000):
        size = rng.randint(2, 6)
        def pmf():
            w = [rng.randint(0, 12) for _ in range(size)]
            if not any(w):
                w[0] = 1
            tot = sum(w)
            return Dist({i: F(x, tot) for i, x in enumerate(w) if x})
        ok &= analysis.maximal_coupling_holds(pmf(), pmf())
    for _ in range(1000):
        eps = F(rng.randint(1, 60), 20)
        n_big = max(2, analysis._ceil_sqrt(F(2) / eps))
        bump = F(rng.randint(0, 16), 16) * F(n_big - 1) * eps / 2
        size = rng.randint(1, 8)
        w = [rng.randint(0, 12) for _ in range(size)]
        tot = sum(w) or 1
        ps = sorted((min(F(1), F(x, tot) + bump) for x in w), reverse=True)
        out = analysis.fairly_weak_hat_distribution(ps, eps)
        ok &= sum(out) == 1 and all(x >= 0 for x in out)
    ok &= analysis.fairly_weak_hat_distribution([F(1), F(0)], F(1, 2)) == [F(1), F(0)]
    ok &= analysis.fairly_weak_hat_distribution([F(1, 4)] * 4, F(1, 8)) == [F(1, 4)] * 4
    report(11, "coupling + hat construction", ok,
           "1000 coupling pairs, 1000 hat inputs, 2 worked examples",
           time.time() - t0, 30)


def test_c12_separation_fixture():
    t0 = time.time()
    p01 = analysis.max_p0_plus_p1(analysis.COINFLIP)
    eps = analysis.fair_binding_epsilon(analysis.COINFLIP)
    ok = p01 == 1 and eps == F(1, 2)
    report(12, "separation fixture", ok,
           f"coin-flip scheme: max p0+p1 = {p01}, every prediction loses {eps}",
           time.time() - t0, 1)


def test_c13_networked_mode(monkeypatch):
    t0 = time.time()
    params = SchemeParams(FieldSpec.default(8), m=4)
    seed = 42

    clean, _, _ = loopback.run(params, seed, 2000, *loopback.honest(params, seed, 0x17))
    engine_text = engine.run_honest_session(params, 0x17, seed).to_text()
    ok = not clean.aborted and clean.transcript.to_text() == engine_text
    loopback.late_reply(monkeypatch, 1, 400)  # round 1 is Q's
    delayed, _, _ = loopback.run(params, seed, 100, *loopback.honest(params, seed, 0x17))
    ok &= delayed.aborted and delayed.abort_reason == net.ABORT_DEADLINE
    report(13, "networked mode", ok,
           "loopback transcript byte-identical; late response aborts 0x01",
           time.time() - t0, 10)
