"""Scheme operations: worked traces, opening rules, multi-round verification."""

import random
from itertools import product

import pytest

from relcommit.analysis import COINFLIP, FiniteScheme, chsh_scheme, k_of_extr
from relcommit.field import FieldSpec
from relcommit.scheme import (
    BOT,
    SchemeParams,
    chsh_response,
    extr_bit_i,
    extr_i,
    multiround_verify,
    restrict_domain,
)

GF8 = FieldSpec(3, 0b1011)


def test_chsh_response_worked_example():
    assert chsh_response(GF8, 0b001, 0b101, 0b010) == 0b111


def test_chsh_response_degenerate_inputs():
    for s in range(8):
        assert chsh_response(GF8, s, 0b110, 0) == 0b110
    for a in range(8):
        assert chsh_response(GF8, 0, 0b110, a) == 0b110


def test_extr_worked_example():
    # The commitment (a, x) = (010, 111) opened with y = 101.
    assert extr_i(GF8, 0b101, 0b010, 0b111) == 0b001


def test_extr_zero_challenge_rules():
    assert extr_i(GF8, 0b011, 0, 0b011) == 0
    assert extr_i(GF8, 0b100, 0, 0b011) is BOT


def test_extr_inverts_honest_response():
    for n in (1, 2, 3):
        spec = FieldSpec.default(n)
        for s, r, a in product(range(spec.order), repeat=3):
            if a == 0:
                continue
            x = r ^ spec.mul_i(a, s)
            assert extr_i(spec, r, a, x) == s


def test_extr_bit_cases():
    a, x = 0b011, 0b110
    assert extr_bit_i(GF8, 0b110, a, x) == 0
    assert extr_bit_i(GF8, 0b101, a, x) == 1
    assert extr_bit_i(GF8, 0b001, a, x) is BOT


def test_extr_bit_agrees_with_restricted_extr():
    for n in (1, 2, 3):
        spec = FieldSpec.default(n)
        for a, x, y in product(range(spec.order), repeat=3):
            bit = extr_bit_i(spec, y, a, x)
            restricted = restrict_domain(extr_i(spec, y, a, x), 1, spec.n)
            assert bit == restricted


def test_restrict_domain():
    assert restrict_domain(0b001, 1, 3) == 1
    assert restrict_domain(0b101, 1, 3) is BOT
    assert restrict_domain(BOT, 1, 3) is BOT
    assert restrict_domain(0b011, 2, 3) == 0b011
    with pytest.raises(ValueError):
        restrict_domain(1, 0, 3)


def test_extr_is_bijection_in_y_for_nonzero_challenge():
    for n in (1, 2, 3, 4):
        spec = FieldSpec.default(n)
        for a in range(1, spec.order):
            for x in range(spec.order):
                seen = {extr_i(spec, y, a, x) for y in range(spec.order)}
                assert seen == set(range(spec.order))


def test_k_of_extr_is_one_for_chsh():
    for n in (1, 2, 3):
        assert k_of_extr(chsh_scheme(FieldSpec.default(n))) == 1


def test_k_of_extr_toy_fixture():
    spec = FieldSpec.default(2)
    # Collapses the low bit of y, so two strings open to each value.
    sloppy = FiniteScheme(4, 4, 4, lambda y, a, x: extr_i(spec, y & ~1, a, x))
    assert k_of_extr(sloppy) == 2


def test_k_of_extr_counts_values_not_rejections():
    # One opening per commitment, and every column free of repeats: k is 1
    # where some commitment opens and 0 where every one rejects; the coin
    # flip's two openings of g = 1 open to different bits.
    assert k_of_extr(FiniteScheme(1, 2, 2, lambda y, a, x: x)) == 1
    assert k_of_extr(FiniteScheme(1, 2, 2, lambda y, a, x: BOT)) == 0
    assert k_of_extr(FiniteScheme(2, 2, 1, lambda y, a, x: BOT)) == 0
    assert k_of_extr(COINFLIP) == 1


def test_k_of_extr_refuses_large_fields():
    with pytest.raises(ValueError):
        k_of_extr(chsh_scheme(FieldSpec.default(9)))


def test_multiround_verify_worked_trace():
    params = SchemeParams(GF8, m=1)
    assert multiround_verify(params, [0b010, 0b011], [0b111, 0b000], 0b100) == 0b001


def test_multiround_verify_tampered_opening():
    params = SchemeParams(GF8, m=1)
    assert multiround_verify(params, [0b010, 0b011], [0b111, 0b000], 0b000) == 0b110


def test_multiround_verify_m0_is_extr():
    params = SchemeParams(GF8, m=0)
    for a, x, y in product(range(8), repeat=3):
        assert multiround_verify(params, [a], [x], y) == extr_i(GF8, y, a, x)


def test_multiround_verify_zero_challenge_propagation():
    params = SchemeParams(GF8, m=1)
    # a_1 = 0 with x_1 = y_1: canonical 0 continues downward.
    assert multiround_verify(params, [0b010, 0], [0b111, 0b100], 0b100) == \
        extr_i(GF8, 0, 0b010, 0b111)
    # a_1 = 0 with x_1 != y_1: rejection.
    assert multiround_verify(params, [0b010, 0], [0b111, 0b100], 0b101) is BOT


def test_multiround_verify_length_mismatch():
    params = SchemeParams(GF8, m=1)
    with pytest.raises(ValueError):
        multiround_verify(params, [1], [1, 2], 0)


def test_honest_roundtrip_exhaustive_small():
    rng = random.Random(7)
    for n, m in ((1, 1), (2, 2), (3, 1)):
        spec = FieldSpec.default(n)
        params = SchemeParams(spec, m=m)
        nonzero = range(1, spec.order)
        for challenges in product(nonzero, repeat=m + 1):
            for s in range(spec.order):
                pads = [rng.randrange(spec.order) for _ in range(m + 1)]
                responses = []
                for i, a in enumerate(challenges):
                    prev = s if i == 0 else pads[i - 1]
                    responses.append(pads[i] ^ spec.mul_i(a, prev))
                assert multiround_verify(params, challenges, responses, pads[m]) == s


def test_honest_roundtrip_exhaustive_n3_m2_sampled_pads():
    spec = FieldSpec.default(3)
    params = SchemeParams(spec, m=2)
    rng = random.Random(11)
    for challenges in product(range(1, 8), repeat=3):
        s = rng.randrange(8)
        pads = [rng.randrange(8) for _ in range(3)]
        responses = [pads[0] ^ spec.mul_i(challenges[0], s)]
        for i in (1, 2):
            responses.append(pads[i] ^ spec.mul_i(challenges[i], pads[i - 1]))
        assert multiround_verify(params, challenges, responses, pads[2]) == s


def test_params_validation():
    with pytest.raises(ValueError):
        SchemeParams(GF8, m=-1)
    with pytest.raises(ValueError):
        SchemeParams(GF8, domain_bits=4)
    with pytest.raises(ValueError):
        SchemeParams(GF8, first_committer="R")
