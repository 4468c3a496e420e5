"""Optimal classical attacks on the CHSH^n scheme.

The finite-field CHSH game: produce x from a and y from s (with shared
randomness) so that x + y = a * s.  ``brute_force_chsh`` finds tables
maximizing the winning probability q_n exactly for n <= 2; ``RandomizedChsh``
wraps any tables so the success probability equals q_n for every fixed
input pair; ``tightness_strategy`` builds the multi-round attack that wins
a fresh game instance per commit-side round and goes honest on the first
win, opening to an arbitrary target with conditional probability
1 - (1 - q_n)^(floor(m/2) + 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional, Tuple

from .engine import (
    STREAM_GAME_A,
    STREAM_GAME_B,
    STREAM_RANDOM_OPEN,
    HonestProver,
    PartyView,
    SchemeParams,
    honest_reply,
    stream_value,
    stream_values,
)
from .field import FieldSpec
from .scheme import chsh_response


@dataclass(frozen=True)
class ChshTables:
    """Deterministic game tables a -> x and s -> y, with their exact value.

    q is always the win count of these tables over 2^(2n); for n <= 2 the
    search is exhaustive up to the game shift, so q is the true game value,
    for n = 3 it is a certified lower bound (see brute_force_chsh).
    """

    field: FieldSpec
    x_table: Tuple[int, ...]
    y_table: Tuple[int, ...]
    q: Fraction

    def wins(self) -> int:
        mul = self.field.mul_i
        return sum(
            1
            for a in range(self.field.order)
            for s in range(self.field.order)
            if self.x_table[a] ^ self.y_table[s] == mul(a, s)
        )


def _best_response(spec: FieldSpec, x_table: Tuple[int, ...]) -> Tuple[int, Tuple[int, ...]]:
    """Exact best reply to x_table: per s, the y maximizing wins over a.

    The win count splits as a sum over s, so optimizing y per s yields the
    global maximum over all y tables.  Reply y wins at (a, s) exactly when
    y = x_table[a] + a*s, so one pass over a counts every y's wins; ties
    break toward the smaller y.  O(4^n) per table.
    """
    order = spec.order
    mul = spec.mul_i
    total = 0
    ys = []
    for s in range(order):
        counts = [0] * order
        for a, x in enumerate(x_table):
            counts[x ^ mul(a, s)] += 1
        best = max(counts)
        ys.append(counts.index(best))
        total += best
    return total, tuple(ys)


def brute_force_chsh(spec: FieldSpec) -> ChshTables:
    """Tables achieving the maximum classical winning probability.

    The game shift x'(a) = x(a) + c*a + d, y'(s) = y(s + c) + d keeps the
    win count (it moves the win at (a, s + c) to (a, s)), and the shift
    c = x(0) + x(1), d = x(0) gives x'(0) = x'(1) = 0.  So only x tables
    with x(0) = x(1) = 0 are tried, in lexicographic order, each against its
    exact best response.  Some maximal x table has x(0) = x(1) = 0, so the
    first maximal one in lexicographic order has too: the search returns the
    tables that trying every x table in that order returns.

    n <= 2: every x table with x(0) = x(1) = 0 (the y side is closed under
    exact best response, so this is the full double search up to the
    shift).  n = 3: the affine family u*a + v is the shift orbit of the zero
    table, so only that table is tried; its best response wins 15 of 64, a
    certified lower bound on q_3 rather than a proven maximum.  Larger n is
    refused; cache results on disk instead of re-running (see the CLI's
    chsh-search).
    """
    order = spec.order
    if spec.n <= 2:
        candidates = ((0, 0) + rest for rest in product(range(order), repeat=order - 2))
    elif spec.n == 3:
        candidates = [(0,) * order]
    else:
        raise ValueError(
            f"brute_force_chsh handles n <= 3 (n={spec.n}); the table space "
            f"has 2^(n*2^n) entries per side, precompute and cache instead")
    best = None
    for xt in candidates:
        wins, yt = _best_response(spec, xt)
        if best is None or wins > best[0]:
            best = (wins, xt, yt)
    wins, xt, yt = best
    return ChshTables(spec, xt, yt, Fraction(wins, order ** 2))


@dataclass(frozen=True)
class RandomizedChsh:
    """Input-blinded game strategy built from fixed tables.

    With fresh uniform draws (r_a, r_s), play
        x = X(a + r_a) + a*r_s + r_a*r_s,   y = Y(s + r_s) + r_a*s.
    Then x + y = a*s exactly when the base tables win on the blinded pair
    (a + r_a, s + r_s), which is uniform; so for every fixed (a, s) the
    success probability over the draws equals the tables' q.
    """

    base: ChshTables

    def x_play(self, a: int, r_a: int, r_s: int) -> int:
        spec = self.base.field
        return (self.base.x_table[a ^ r_a]
                ^ spec.mul_i(a, r_s) ^ spec.mul_i(r_a, r_s))

    def y_play(self, s: int, r_a: int, r_s: int) -> int:
        spec = self.base.field
        return self.base.y_table[s ^ r_s] ^ spec.mul_i(r_a, s)

    def win_count(self, a: int, s: int) -> int:
        """Winning (r_a, r_s) draws for fixed inputs; q times 2^(2n)."""
        spec = self.base.field
        want = spec.mul_i(a, s)
        return sum(
            1
            for r_a in range(spec.order)
            for r_s in range(spec.order)
            if self.x_play(a, r_a, r_s) ^ self.y_play(s, r_a, r_s) == want
        )


def tightness_success_probability(q: Fraction, m: int) -> Fraction:
    """Closed-form conditional success of the multi-round attack.

    One game attempt per round in {0, 2, 4, ...} up to m (the last attempt
    resolves through the final message), hence floor(m/2)+1 independent
    attempts, each won with probability q.
    """
    return 1 - (1 - q) ** (m // 2 + 1)


class TightnessStrategy(HonestProver):
    """Both provers' play in the multi-round attack, every round.

    The target chain w_i is the opening string that round i would have to
    carry for the session to open to the target: w_{-1} = target and
    w_i = x_i + a_i * w_{i-1}.  The faker plays the blinded game X on even
    rounds; the partner guesses the chain value with Y one round later and
    commits to the guess honestly.  A correct guess puts the session in an
    honestly-committed state, and everyone plays honestly from there, over
    the pads the attack binds at value 0.
    """

    def __init__(self, target: int, rand: RandomizedChsh):
        super().__init__()
        self.target = target
        self.rand = rand

    def begin_session(self, params: SchemeParams, prover_seed: int):
        super().begin_session(params, prover_seed)
        # The game draws (r_a, r_s) of every round, as two columns.
        n = params.field.n
        self._r_a = stream_values(prover_seed, STREAM_GAME_A, params.m + 1, n)
        self._r_s = stream_values(prover_seed, STREAM_GAME_B, params.m + 1, n)
        # party -> (next round to scan, chain value, or None once won)
        self._chains = {}

    def _scan(self, view: PartyView, upto: int) -> Optional[int]:
        """The chain value w_upto from rounds <= upto, or None once this
        party's attempt has succeeded.

        The chain is carried forward from the last round this party
        reached, each new round read through its view, so a session costs
        O(m) in all.  Each party keeps its own chain: one party's reads
        must not stand in for rounds the other's view cannot see.  Calls
        come in increasing round order within a session, as the engine
        makes them.  Once this party's chain records a win the scan stops
        and returns at once, with no reads.  That is exact: within a
        session a party's win is never undone, and after it every branch
        of __call__ answers honestly without reading w.
        """
        start, w = self._chains.get(view.party, (0, self.target))
        if w is None:
            return None
        mul = self.params.field.mul_i
        for j in range(start, upto + 1):
            a, x = view.challenge(j), view.response(j)
            w_next = x ^ mul(a, w)
            if j % 2 == 0 and self.rand.y_play(w, self._r_a[j], self._r_s[j]) == w_next:
                self._chains[view.party] = (j + 1, None)
                return None
            w = w_next
        self._chains[view.party] = (max(start, upto + 1), w)
        return w

    def __call__(self, party: str, round_index: int, view: PartyView) -> int:
        m = self.params.m
        if round_index > m:
            a = None
            # After an odd m the last attempt resolved at round m itself.
            w = None if m % 2 else self._scan(view, m - 1)
            if w is not None:
                return self.rand.y_play(w, self._r_a[m], self._r_s[m])
        else:
            a = view.challenge(round_index)
            w = self._scan(view, round_index - 2)
            if w is not None:
                if round_index % 2 == 0:
                    return self.rand.x_play(a, self._r_a[round_index], self._r_s[round_index])
                # Commit honestly to the guessed chain value in place of y_{i-1}.
                j = round_index - 1
                guess = self.rand.y_play(w, self._r_a[j], self._r_s[j])
                return chsh_response(self.params.field, guess, self.pad(round_index), a)
        return honest_reply(self.params.field, m, round_index, a, self.pad)


def tightness_strategy(target: int, tables: ChshTables,
                       params: SchemeParams) -> Tuple[TightnessStrategy, TightnessStrategy]:
    """Commit/open strategy pair opening to target with the tight probability:
    one TightnessStrategy, which plays round 0 as every other even round.

    Conditioned on all verifier challenges being nonzero, the opened value
    equals target with probability tightness_success_probability(q, m),
    exactly; unconditioned runs lose the rounds where a challenge is zero.
    """
    params.field.check(target)
    attack = TightnessStrategy(target, RandomizedChsh(tables))
    return attack, attack


class RandomOpen(HonestProver):
    """Commit to value and sustain honestly, then announce a uniformly
    random opening string.

    Extraction is a bijection in the announced string whenever the
    challenge is nonzero, so the opened value is uniform over the field.
    """

    def __call__(self, party: str, round_index: int, view: PartyView) -> int:
        if round_index > self.params.m:
            return stream_value(self.seed, STREAM_RANDOM_OPEN, 0, self.params.field.n)
        return super().__call__(party, round_index, view)


def tightness_vs_composition_bounds(n: int, m: int, q_n: Fraction = None) -> Tuple[Fraction, Fraction]:
    """(attack lower bound, composition upper bound) on the binding error.

    The lower bound is (m+1)q/2 - (m^2-1)q^2/8 - (m+1)2^-n evaluated at
    q = q_n when given, else at the rational majorant 2^(1-n/2) of the
    game value for even n (the value is below sqrt(2)*2^(-n/2) + 2^-n).
    The upper bound is the composed-scheme bound (m+1) * 2^(-n/2+2).
    Both exact rationals; n must be even.
    """
    if n % 2:
        raise ValueError("the closed-form bounds compare at even n")
    if q_n is None:
        q_n = Fraction(2, 1 << (n // 2))
    lower = (Fraction(m + 1) * q_n / 2
             - Fraction(m * m - 1) * q_n * q_n / 8
             - Fraction(m + 1, 1 << n))
    upper = Fraction(m + 1) * Fraction(4, 1 << (n // 2))
    return lower, upper


def serialize_tables(tables: ChshTables) -> str:
    spec = tables.field
    lines = [f"#chsh-tables v1 n={spec.n} poly=0x{spec.poly:x} "
             f"q={tables.q.numerator}/{tables.q.denominator}"]
    for a in range(spec.order):
        lines.append(f"{spec.to_hex(a)}:{spec.to_hex(tables.x_table[a])}")
    for s in range(spec.order):
        lines.append(f"{spec.to_hex(s)}:{spec.to_hex(tables.y_table[s])}")
    return "\n".join(lines) + "\n"


def parse_tables(text: str) -> ChshTables:
    """Read back what ``serialize_tables`` writes.  Anything else raises
    ValueError; a bad table row is named by its line number."""
    numbered = [(k, ln) for k, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    lines = [ln for _, ln in numbered]
    if not lines or not lines[0].startswith("#chsh-tables v1 "):
        raise ValueError("missing '#chsh-tables v1' header")
    hdr = dict(kv.split("=", 1) for kv in lines[0].split()[2:])
    missing = [k for k in ("n", "poly", "q") if k not in hdr]
    if missing:
        raise ValueError(f"table header lacks {', '.join(missing)}")
    def header_int(text: str, base: int, where: str) -> int:
        try:
            return int(text, base)
        except ValueError:
            kind = "a hex integer" if base == 16 else "an integer"
            raise ValueError(f"table header {where} is not {kind}") from None
    spec = FieldSpec(header_int(hdr["n"], 10, f"field n={hdr['n']}"),
                     header_int(hdr["poly"], 16, f"field poly={hdr['poly']}"))
    num, slash, den = hdr["q"].partition("/")
    if not slash:
        raise ValueError(f"table header field q={hdr['q']} is not a fraction p/q")
    num = header_int(num, 10, f"numerator of q={hdr['q']}")
    den = header_int(den, 10, f"denominator of q={hdr['q']}")
    if den == 0:
        raise ValueError(f"table header has a zero denominator in q={hdr['q']}")
    q = Fraction(num, den)
    body = numbered[1:]
    if len(body) != 2 * spec.order:
        raise ValueError(f"expected {2 * spec.order} table lines, got {len(body)}")
    def column(rows):
        # 2^n rows with no key repeated cover the field.
        out = [None] * spec.order
        seen = [0] * spec.order
        for lineno, row in rows:
            try:
                if row.count(":") != 1:
                    raise ValueError(f"row {row!r} is not key:value")
                k, v = map(spec.from_hex, row.split(":"))
                if seen[k]:
                    raise ValueError(f"key {row.split(':')[0]} repeats line {seen[k]}")
            except ValueError as e:
                raise ValueError(f"line {lineno}: {e}") from None
            out[k], seen[k] = v, lineno
        return tuple(out)
    tables = ChshTables(spec, column(body[:spec.order]), column(body[spec.order:]), q)
    if Fraction(tables.wins(), spec.order ** 2) != q:
        raise ValueError("recorded q does not match the tables")
    return tables
