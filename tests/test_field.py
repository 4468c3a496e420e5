"""Field arithmetic against independent polynomial oracles."""

import pickle
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcommit.field import (
    DEFAULT_POLYS,
    MAX_N,
    FieldError,
    FieldSpec,
    is_irreducible,
    xmod,
)

GF8 = FieldSpec(3, 0b1011)

# Every width up to 8 with its default polynomial, plus GF(2^8) modulo 0x11D,
# where x generates the multiplicative group (modulo 0x11B it has order 51).
SMALL_SPECS = [FieldSpec.default(n) for n in range(1, 9)] + [FieldSpec(8, 0x11D)]


def oracle_mul(a, b, poly):
    """Schoolbook polynomial product, then long-division remainder."""
    prod = 0
    for i in range(a.bit_length()):
        if (a >> i) & 1:
            prod ^= b << i
    deg = poly.bit_length() - 1
    while prod.bit_length() > deg:
        prod ^= poly << (prod.bit_length() - poly.bit_length())
    return prod


def oracle_inv(a, spec):
    """Exhaustive search for the element with a*u = 1."""
    for u in range(1, spec.order):
        if oracle_mul(a, u, spec.poly) == 1:
            return u
    raise AssertionError(f"no inverse for {a}")


def oracle_irreducible(poly):
    deg = poly.bit_length() - 1
    return deg >= 1 and all(
        xmod(poly, q) != 0 for q in range(2, 1 << (deg // 2 + 1)))


def test_mul_worked_examples():
    assert GF8.mul_i(0b110, 0b011) == 0b001
    assert GF8.mul_i(0b011, 0b101) == 0b100


def test_mul_matches_oracle_exhaustively():
    for spec in SMALL_SPECS:
        for a in range(spec.order):
            for b in range(spec.order):
                assert spec.mul_i(a, b) == oracle_mul(a, b, spec.poly)


def test_mul_identity():
    for spec in (GF8, FieldSpec.default(8)):
        for a in range(spec.order):
            assert spec.mul_i(a, 1) == a


def test_inv_worked_examples():
    assert GF8.inv_i(1) == 1
    assert GF8.inv_i(0b010) == 0b101
    assert GF8.inv_i(0b011) == 0b110


def test_inv_matches_exhaustive_search():
    for spec in SMALL_SPECS:
        for a in range(1, spec.order):
            assert spec.inv_i(a) == oracle_inv(a, spec)


def test_inv_of_zero_rejected():
    with pytest.raises(FieldError):
        GF8.inv_i(0)


def test_div_matches_mul_by_inverse_on_every_small_pair():
    for spec in SMALL_SPECS:
        for a in range(1, spec.order):
            inv = spec.inv_i(a)
            for b in range(spec.order):
                assert spec.div_i(b, a) == spec.mul_i(b, inv)


def test_div_matches_mul_by_inverse_on_random_pairs():
    # Above TABLE_MAX_N = 8 division multiplies by the Euclid inverse.
    for n in (9, 16, 24):
        spec = FieldSpec.default(n)
        rng = random.Random(100 + n)
        for _ in range(500):
            a = rng.randrange(1, spec.order)
            b = rng.randrange(spec.order)
            assert spec.div_i(b, a) == spec.mul_i(b, spec.inv_i(a))
        assert spec.div_i(0, 5) == 0 and spec.div_i(5, 5) == 1


def test_div_by_zero_rejected():
    for spec in (GF8, FieldSpec.default(8), FieldSpec.default(16)):
        for b in (0, 1, spec.order - 1):
            with pytest.raises(FieldError):
                spec.div_i(b, 0)


def test_irreducibility_examples():
    assert is_irreducible(0b1011)          # x^3+x+1
    assert not is_irreducible(0b101)       # x^2+1 = (x+1)^2
    assert is_irreducible(0x11B)           # x^8+x^4+x^3+x+1


def test_distributivity_exhaustive():
    for n in (1, 2, 3, 4):
        spec = FieldSpec.default(n)
        for a, b, c in product(range(spec.order), repeat=3):
            assert spec.mul_i(a ^ b, c) == spec.mul_i(a, c) ^ spec.mul_i(b, c)


def test_nonzero_elements_form_group_exhaustive():
    for n in (1, 2, 3, 4):
        spec = FieldSpec.default(n)
        for a in range(1, spec.order):
            assert spec.mul_i(a, spec.inv_i(a)) == 1


def test_frobenius_exhaustive():
    for n in (1, 2, 3, 4):
        spec = FieldSpec.default(n)
        for a in range(spec.order):
            assert spec.pow_i(a, spec.order) == a


@settings(max_examples=60)
@given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_distributivity_randomized_large_field(a, b, c):
    spec = FieldSpec.default(16)
    assert spec.mul_i(a ^ b, c) == spec.mul_i(a, c) ^ spec.mul_i(b, c)


@settings(max_examples=60)
@given(st.integers(1, 2**16 - 1))
def test_inverse_randomized_large_field(a):
    spec = FieldSpec.default(16)
    assert spec.mul_i(a, spec.inv_i(a)) == 1


def test_mul_and_inv_match_oracle_on_random_pairs():
    # Above TABLE_MAX_N = 8: shift-and-add and Euclid, not tables.
    for n in range(9, MAX_N + 1):
        spec = FieldSpec.default(n)
        rng = random.Random(n)
        for _ in range(200):
            a = rng.randrange(spec.order)
            b = rng.randrange(1, spec.order)
            assert spec.mul_i(a, b) == oracle_mul(a, b, spec.poly)
            u = spec.inv_i(b)
            assert 0 < u < spec.order and oracle_mul(b, u, spec.poly) == 1


def test_spec_pickles_as_n_and_poly():
    for spec in (FieldSpec.default(16), FieldSpec.default(24), FieldSpec(8, 0x11D)):
        blob = pickle.dumps(spec)
        assert len(blob) < 200
        back = pickle.loads(blob)
        assert back == spec and hash(back) == hash(spec) and repr(back) == repr(spec)
        assert back.mul_i(3, spec.inv_i(3)) == 1


def test_default_polys_are_smallest_irreducible():
    for n in range(1, 11):
        poly = DEFAULT_POLYS[n]
        assert oracle_irreducible(poly)
        for smaller in range(1 << n, poly):
            assert not oracle_irreducible(smaller)


def test_default_polys_cover_all_supported_widths():
    for n in range(1, 25):
        spec = FieldSpec.default(n)
        assert spec.poly == DEFAULT_POLYS[n]


def test_spec_rejects_reducible_poly():
    with pytest.raises(FieldError):
        FieldSpec(2, 0b101)


def test_spec_rejects_wrong_degree_and_large_n():
    with pytest.raises(FieldError):
        FieldSpec(3, 0b10011)
    with pytest.raises(FieldError):
        FieldSpec(25, 1 << 25 | 0b11011)


def test_element_range_checked():
    assert GF8.check(0) == 0 and GF8.check(7) == 7
    with pytest.raises(FieldError):
        GF8.check(8)
    with pytest.raises(FieldError):
        GF8.check(-1)


def test_hex_serialization():
    assert GF8.to_hex(0b101) == "5"
    assert FieldSpec.default(8).to_hex(0x2A) == "2a"
    assert FieldSpec.default(12).to_hex(0xABC) == "abc"
    spec = FieldSpec.default(9)
    assert spec.to_hex(1) == "001"
    assert spec.from_hex("1ff") == 0x1FF
    with pytest.raises(FieldError):
        spec.from_hex("200")
    for bad in (0x200, -1):
        with pytest.raises(FieldError):
            spec.to_hex(bad)


@pytest.mark.parametrize("n", [1, 3, 4, 8, 9, 12, 16, 24])
def test_from_hex_reads_only_what_to_hex_writes(n):
    spec = FieldSpec.default(n)
    top = spec.order - 1
    for v in {0, 1, top // 3, top}:
        assert spec.from_hex(spec.to_hex(v)) == v
    text = spec.to_hex(top)
    for bad in ("0x" + text, " " + text, text + " ", "+" + text, "0" + text, text[1:],
                "F" * len(text), "1_" + text, "", "g"):
        with pytest.raises(FieldError, match="lowercase hex digits"):
            spec.from_hex(bad)
    if n % 4:  # the right number of digits, but a value outside the field
        with pytest.raises(FieldError, match="outside"):
            spec.from_hex(format(spec.order, "x"))


@pytest.mark.parametrize("n", [2, 8, 9, 16])
def test_hex_columns_code_each_value_as_to_hex_and_from_hex_do(n):
    spec = FieldSpec.default(n)
    values = [0, 1, spec.order - 1, spec.order // 3, 1]
    texts = spec.to_hex_all(values)
    assert texts == [spec.to_hex(v) for v in values]
    assert spec.from_hex_all(texts) == values
    assert spec.to_hex_all([]) == [] and spec.from_hex_all([]) == []
    for bad in (-1, spec.order):  # -1 would read the last table entry
        with pytest.raises(FieldError):
            spec.to_hex_all(values + [bad])
    for bad in ("0x1", "A" * len(texts[0]), texts[0] + "0"):
        with pytest.raises(FieldError):
            spec.from_hex_all(texts + [bad])
