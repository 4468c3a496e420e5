"""Independent oracles for the benchmark's workloads.

Nothing in this module imports relcommit.  Each check recomputes what it
needs from the protocol's definition -- the SplitMix64 challenge stream,
GF(2^n) multiplication, the honest rejection law, the exact analyzer values
the paper proves -- so a defect in the code under test cannot hide in the
code that checks it.
"""

from __future__ import annotations

from fractions import Fraction
from math import exp, lgamma, log
from typing import Dict, Optional, Sequence

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
STREAM_CHALLENGE = 0x56  # 'V'

# Two-sided false-alarm probability of every statistical check.
FALSE_ALARM = 1e-6

# Exact classical value of the CHSH_4 game (n = 2).
Q2 = Fraction(9, 16)


def splitmix64(x: int) -> int:
    x &= MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & MASK64
    return x ^ (x >> 31)


def verifier_challenges(seed: int, n: int, m: int) -> list:
    """a_0..a_m of a seeded session: the 'V' labeled stream reduced to n bits."""
    mask = (1 << n) - 1
    return [splitmix64(seed + ((STREAM_CHALLENGE << 32) | i) * GAMMA) & mask
            for i in range(m + 1)]


def gf_mul(a: int, b: int, n: int, poly: int) -> int:
    """Product in GF(2^n) = GF(2)[x] / poly, by shift-and-add."""
    r = 0
    for i in range(n):
        if (b >> i) & 1:
            r ^= a << i
    for i in range(2 * n - 2, n - 1, -1):
        if (r >> i) & 1:
            r ^= poly << (i - n)
    return r


def chsh_wins(x_table: Sequence[int], y_table: Sequence[int], n: int, poly: int) -> int:
    """Input pairs (a, s) on which the tables win x(a) + y(s) = a*s."""
    order = 1 << n
    return sum(1 for a in range(order) for s in range(order)
               if x_table[a] ^ y_table[s] == gf_mul(a, s, n, poly))


def honest_reject_probability(n: int, m: int) -> float:
    """Chance that some challenge of an honest session is zero."""
    return 1.0 - (1.0 - 2.0 ** -n) ** (m + 1)


def tightness_miss_probability(m: int) -> float:
    """Chance that the n = 2 tightness attack misses its target, all
    challenges nonzero: it loses each of floor(m/2) + 1 game attempts."""
    return float((1 - Q2) ** (m // 2 + 1))


def check_honest(n: int, m: int, value: int, seed: int, outcome) -> bool:
    """An honest session whose challenges are all nonzero opens its value."""
    if 0 in verifier_challenges(seed, n, m):
        return True
    return outcome == value


def _log_pmf(k: int, trials: int, p: float) -> float:
    return (lgamma(trials + 1) - lgamma(k + 1) - lgamma(trials - k + 1)
            + k * log(p) + (trials - k) * log(1.0 - p))


def _tail(k: int, trials: int, p: float, step: int) -> float:
    """P(X <= k) for step = -1, P(X >= k) for step = +1, X ~ Bin(trials, p)."""
    mode = int((trials + 1) * p)
    total = 0.0
    j = k
    while 0 <= j <= trials:
        term = exp(_log_pmf(j, trials, p))
        total += term
        if (j - mode) * step > 0 and term < total * 1e-17:
            break
        j += step
    return total


def binomial_consistent(k: int, trials: int, p: float,
                        alpha: float = FALSE_ALARM) -> bool:
    """False when k lies in a tail of Bin(trials, p) of mass below alpha/2."""
    if trials == 0:
        return k == 0
    if not 0.0 < p < 1.0:
        return k == round(p * trials)
    return (_tail(k, trials, p, -1) >= alpha / 2
            and _tail(k, trials, p, +1) >= alpha / 2)


def parse_report(text: str) -> Dict[str, str]:
    """key=value fields of the last non-empty line of a command's output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        return {}
    return dict(kv.split("=", 1) for kv in lines[-1].split() if "=" in kv)


def _fraction(text: Optional[str]) -> Optional[Fraction]:
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def expected_analyzer_value(command: str, metric: str, n: int):
    """Predicate on the exact value an analyzer call must report."""
    if command == "chsh-search":
        return lambda v: v == Q2
    if metric == "p0p1":
        return lambda v: v == 1 + Fraction(1, 2 ** n)
    if metric == "sim-open":
        return lambda v: v == Fraction(1, 2 ** n)
    if metric in ("hiding", "coupling"):
        return lambda v: v == 0
    if metric == "k":
        return lambda v: v == 1
    if metric == "extractor":
        # 2^(1 - n/2), for the even n the analyzer accepts.
        bound = Fraction(2, 2 ** (n // 2))
        return lambda v: 0 <= v < bound
    raise ValueError(f"no oracle for {command} {metric}")


def check_analyzer(command: str, metric: str, n: int, returncode: int,
                   output: str) -> Optional[str]:
    """None when an analyzer call reported its exact value, else the reason."""
    if returncode != 0:
        return f"exit code {returncode}"
    fields = parse_report(output)
    key = "q" if command == "chsh-search" else "value"
    value = _fraction(fields.get(key))
    if value is None:
        return f"no {key}= in output {output!r}"
    if command != "chsh-search" and fields.get("metric") != metric:
        return f"reported metric {fields.get('metric')!r}, asked for {metric!r}"
    if metric != "coupling" and fields.get("n") != str(n):
        return f"reported n={fields.get('n')}, asked for n={n}"
    if not expected_analyzer_value(command, metric, n)(value):
        return f"{command} {metric} n={n}: wrong value {value}"
    return None
