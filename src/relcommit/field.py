"""Arithmetic in GF(2^n) for configurable n.

Elements are unsigned ints below 2**n; addition is XOR and multiplication is
the carry-less polynomial product reduced modulo an explicit irreducible
polynomial.  A ``FieldSpec`` carries (n, poly) and works on raw ints
(``mul_i`` / ``pow_i`` / ``inv_i`` / ``div_i``, with ``check`` for range
validation).

For n <= TABLE_MAX_N, ``mul_i``, ``inv_i`` and ``div_i`` are lookups in
log/antilog tables over a generator of the multiplicative group.  The tables
are built once per (n, poly) and shared by every spec with that (n, poly), so
a spec made again for a known field (as ``parse_transcript`` does) starts
warm.  Above TABLE_MAX_N, ``mul_i`` is shift-and-add, ``inv_i`` is the
extended Euclidean algorithm over GF(2)[x], and ``div_i`` multiplies by that
inverse.  Both paths give the same results, and a spec holds no mutable
state.

``to_hex`` writes an element as exactly ceil(n/4) lowercase hex digits, and
``from_hex`` reads back only that text.  For n <= TABLE_MAX_N both are
lookups in the 2^n canonical strings and their reverse dict, built once per
n and shared; ``to_hex_all`` and ``from_hex_all`` code whole columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple


class FieldError(ValueError):
    """Illegal field operation (value out of range, inverse of zero, bad spec)."""


# Lexicographically smallest irreducible polynomial of each degree 1..24,
# encoded as the usual (n+1)-bit integer with the top bit set.
DEFAULT_POLYS = {
    1: 0x2, 2: 0x7, 3: 0xB, 4: 0x13, 5: 0x25, 6: 0x43, 7: 0x83, 8: 0x11B,
    9: 0x203, 10: 0x409, 11: 0x805, 12: 0x1009, 13: 0x201B, 14: 0x4021,
    15: 0x8003, 16: 0x1002B, 17: 0x20009, 18: 0x40009, 19: 0x80027,
    20: 0x100009, 21: 0x200005, 22: 0x400003, 23: 0x800021, 24: 0x100001B,
}

MAX_N = 24

# Widest field with log/antilog tables, which an n = 8 field builds in
# ~0.4 ms.  Wider tables pay off only over many operations: at n = 16 the
# build takes ~90 ms and holds ~5.5 MB, which made a one-shot `verify` of an
# m = 64 transcript ~1.6x slower than without them (2 vCPU, CPython 3.11.7).
TABLE_MAX_N = 8


def xmod(a: int, b: int) -> int:
    """Remainder of carry-less division of a by b."""
    if b == 0:
        raise ZeroDivisionError("polynomial modulus is zero")
    bl = b.bit_length()
    while a.bit_length() >= bl:
        a ^= b << (a.bit_length() - bl)
    return a


def is_irreducible(poly: int) -> bool:
    """Trial-division irreducibility test for a GF(2) polynomial.

    True iff poly has degree >= 1 and no divisor of degree between 1 and
    deg(poly)//2.  Exhaustive, so intended for degrees up to MAX_N.
    """
    deg = poly.bit_length() - 1
    if deg < 1:
        return False
    for q in range(2, 1 << (deg // 2 + 1)):
        if xmod(poly, q) == 0:
            return False
    return True


def _mul_bits(a: int, b: int, n: int, poly: int) -> int:
    """Shift-and-add product; the loop stops after the top set bit of a."""
    p = 0
    top = 1 << n
    for _ in range(n):
        if a & 1:
            p ^= b
        a >>= 1
        if not a:
            break
        b <<= 1
        if b & top:
            b ^= poly
    return p


def _inv_euclid(a: int, poly: int) -> int:
    """Inverse of nonzero a modulo irreducible poly by extended Euclid.

    Keeps g1*a = u and g2*a = v (mod poly) while cancelling the leading
    term of the longer of u, v; gcd(a, poly) = 1, so u reaches 1.
    """
    u, v, g1, g2 = a, poly, 1, 0
    while u != 1:
        j = u.bit_length() - v.bit_length()
        if j < 0:
            u, v, g1, g2 = v, u, g2, g1
            j = -j
        u ^= v << j
        g1 ^= g2 << j
    return g1


@lru_cache(maxsize=8)
def _checked_tables(n: int, poly: int) -> Tuple[Optional[tuple], Optional[tuple]]:
    """Validate (n, poly); return its (exp, log) tables, or (None, None)
    above TABLE_MAX_N.

    exp[k] = g^k for the smallest generator g, stored twice over so that
    log a + log b needs no reduction; log[g^k] = k, log[0] unused.  x is not
    always a generator (it has order 51 modulo 0x11B), so g is searched for.
    Both results are pure functions of (n, poly); the memo is bounded.
    """
    if not 1 <= n <= MAX_N:
        raise FieldError(f"n must be in 1..{MAX_N}, got {n}")
    if poly >> n != 1:  # degree n; a negative poly has no degree
        raise FieldError(f"poly {poly:#x} does not have degree {n}")
    if not is_irreducible(poly):
        raise FieldError(f"poly 0x{poly:x} is reducible")
    if n > TABLE_MAX_N:
        return None, None
    order = (1 << n) - 1
    for g in range(1, order + 1):
        exp = [1]
        x = _mul_bits(g, 1, n, poly)
        while x != 1:
            exp.append(x)
            x = _mul_bits(g, x, n, poly)
        if len(exp) == order:
            break
    log = [0] * (order + 1)
    for k, x in enumerate(exp):
        log[x] = k
    return tuple(exp) * 2, tuple(log)


@lru_cache(maxsize=TABLE_MAX_N)
def _hex_tables(n: int) -> Tuple[Tuple[str, ...], Dict[str, int]]:
    """The canonical hex strings of 0..2^n - 1, each ceil(n/4) lowercase
    digits, and the dict from each string back to its value."""
    strings = tuple(format(v, f"0{(n + 3) // 4}x") for v in range(1 << n))
    return strings, {s: v for v, s in enumerate(strings)}


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(2^n): bit width plus reduction polynomial.

    The polynomial is validated for irreducibility at construction, which
    caps n at MAX_N (exhaustive trial division).  A spec pickles as
    (n, poly) and finds its tables again on load.
    """

    n: int
    poly: int

    def __post_init__(self):
        exp, log = _checked_tables(self.n, self.poly)
        object.__setattr__(self, "_exp", exp)
        object.__setattr__(self, "_log", log)
        object.__setattr__(self, "_hex", f"0{(self.n + 3) // 4}x")
        hexes, values = _hex_tables(self.n) if exp is not None else (None, None)
        object.__setattr__(self, "_hexes", hexes)
        object.__setattr__(self, "_hex_values", values)

    def __reduce__(self):
        return FieldSpec, (self.n, self.poly)

    @classmethod
    def default(cls, n: int) -> "FieldSpec":
        if n not in DEFAULT_POLYS:
            raise FieldError(f"no default polynomial for n={n} (1..{MAX_N})")
        return cls(n, DEFAULT_POLYS[n])

    @property
    def order(self) -> int:
        return 1 << self.n

    def check(self, v: int) -> int:
        if not 0 <= v < (1 << self.n):
            raise FieldError(f"value {v} outside GF(2^{self.n})")
        return v

    # -- raw int arithmetic ------------------------------------------------

    def mul_i(self, a: int, b: int) -> int:
        log = self._log
        if log is None:
            return _mul_bits(a, b, self.n, self.poly)
        if a and b:
            return self._exp[log[a] + log[b]]
        return 0

    def pow_i(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self.mul_i(r, a)
            a = self.mul_i(a, a)
            e >>= 1
        return r

    def inv_i(self, a: int) -> int:
        if a == 0:
            raise FieldError("zero has no multiplicative inverse")
        log = self._log
        if log is None:
            return _inv_euclid(a, self.poly)
        # exp has period 2^n - 1, so exp[-k] = g^-k.
        return self._exp[-log[a]]

    def div_i(self, b: int, a: int) -> int:
        """b / a = b * a^-1 in one call: at n <= TABLE_MAX_N one lookup,
        exp[log b - log a], which a negative index reads as g^(log b - log a)
        since exp holds two whole periods."""
        if a == 0:
            raise FieldError("division by zero")
        log = self._log
        if log is None:
            return _mul_bits(b, _inv_euclid(a, self.poly), self.n, self.poly)
        if b:
            return self._exp[log[b] - log[a]]
        return 0

    # -- serialization -----------------------------------------------------

    def to_hex(self, v: int) -> str:
        """Big-endian lowercase hex, ceil(n/4) digits."""
        self.check(v)
        hexes = self._hexes
        return format(v, self._hex) if hexes is None else hexes[v]

    def from_hex(self, s: str, what: str = "hex field") -> int:
        """The v with ``to_hex(v) == s``; any other text raises FieldError,
        whose message calls it what."""
        values = self._hex_values
        if values is not None:
            v = values.get(s)
            if v is not None:
                return v
        else:
            try:
                v = int(s, 16)
            except ValueError:
                v = -1
            if 0 <= v < (1 << self.n) and format(v, self._hex) == s:
                return v
        width = (self.n + 3) // 4
        if len(s) != width or s.strip("0123456789abcdef"):
            raise FieldError(f"{what} {s!r} is not {width} lowercase hex digits")
        return self.check(int(s, 16))  # the right digits, outside the field

    def to_hex_all(self, values: Sequence[int]) -> List[str]:
        """``to_hex`` of each value: one lookup each for n <= TABLE_MAX_N,
        else one ``format`` each."""
        if values and not (min(values) >= 0 and max(values) < 1 << self.n):
            for v in values:
                self.check(v)  # raises for the first value outside the field
        hexes = self._hexes
        if hexes is None:
            return list(map(format, values, repeat(self._hex, len(values))))
        return list(map(hexes.__getitem__, values))

    def from_hex_all(self, texts: List[str], what: str = "hex field") -> List[int]:
        """``from_hex`` of each text: one dict lookup each for n <= TABLE_MAX_N,
        else ``int`` and the check that ``to_hex_all`` gives the texts back.
        Raises FieldError for the first text that is not what to_hex writes."""
        values = self._hex_values
        try:
            if values is not None:
                return list(map(values.__getitem__, texts))
            out = list(map(int, texts, repeat(16, len(texts))))
            if self.to_hex_all(out) == texts:
                return out
        except (KeyError, ValueError):
            pass  # from_hex names the first bad text
        return [self.from_hex(s, what) for s in texts]
