"""Arithmetic in GF(2^n) for configurable n.

Elements are unsigned ints below 2**n; addition is XOR and multiplication is
the carry-less polynomial product reduced modulo an explicit irreducible
polynomial.  A ``FieldSpec`` carries (n, poly) and works on raw ints
(``mul_i`` / ``pow_i`` / ``inv_i``, with ``check`` for range validation).
"""

from __future__ import annotations

from dataclasses import dataclass, field


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


@dataclass(frozen=True)
class FieldSpec:
    """A concrete GF(2^n): bit width plus reduction polynomial.

    The polynomial is validated for irreducibility at construction, which
    caps n at MAX_N (exhaustive trial division).
    """

    n: int
    poly: int
    _inv_cache: dict = field(default_factory=dict, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if not 1 <= self.n <= MAX_N:
            raise FieldError(f"n must be in 1..{MAX_N}, got {self.n}")
        if self.poly.bit_length() != self.n + 1:
            raise FieldError(
                f"poly 0x{self.poly:x} does not have degree {self.n}")
        if not is_irreducible(self.poly):
            raise FieldError(f"poly 0x{self.poly:x} is reducible")

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
        p = 0
        top = 1 << self.n
        poly = self.poly
        for _ in range(self.n):
            if a & 1:
                p ^= b
            a >>= 1
            if not a:
                break
            b <<= 1
            if b & top:
                b ^= poly
        return p

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
        v = self._inv_cache.get(a)
        if v is None:
            v = self.pow_i(a, (1 << self.n) - 2)
            self._inv_cache[a] = v
        return v

    # -- serialization -----------------------------------------------------

    def to_hex(self, v: int) -> str:
        """Big-endian lowercase hex, ceil(n/4) digits."""
        return format(self.check(v), f"0{(self.n + 3) // 4}x")

    def from_hex(self, s: str) -> int:
        return self.check(int(s, 16))
