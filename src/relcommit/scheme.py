"""The CHSH^n string/bit commitment scheme and its multi-round composition.

A commitment is the commit-phase communication (a, x), two raw field ints;
the honest committer sends x = r + a*s (``chsh_response``).  The verifier's
opening map is ``extr_i``: with challenge a != 0 the opened string is
s = (x + y) * a^-1 for the announced y; the bit scheme (``extr_bit_i``) uses
the smaller satisfying bit.  Multi-round schemes chain commitments: round i
commits to the previous round's opening string, and the verifier
back-substitutes y_{i-1} = (x_i + y_i) * a_i^-1 down to the committed value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .field import FieldSpec


class _Bot:
    """Rejection outcome; distinct from every field element."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOT"

    def __bool__(self):
        return False


BOT = _Bot()

# A verifier outcome: an opened value (int, possibly domain-restricted) or BOT.
OpenOutcome = Union[int, _Bot]


@dataclass(frozen=True)
class SchemeParams:
    """Parameters of a (possibly multi-round) CHSH^n scheme instance.

    m counts sustain rounds: the protocol has challenge/response rounds
    0..m followed by one opening message.  domain_bits restricts the
    committed value to k bits (padded with zeros up to n).
    """

    field: FieldSpec
    m: int = 0
    domain_bits: Optional[int] = None
    first_committer: str = "P"

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("sustain-round count must be >= 0")
        k = self.domain_bits
        if k is not None and not 1 <= k <= self.field.n:
            raise ValueError("domain_bits must be in 1..n")
        if self.first_committer not in ("P", "Q"):
            raise ValueError("first_committer must be 'P' or 'Q'")


def active_prover(params: SchemeParams, round_index: int) -> str:
    """The prover that answers round_index; the roles alternate, starting
    with first_committer, and the final opening (round m+1) comes from the
    prover that did not answer round m."""
    first = params.first_committer
    if round_index % 2 == 0:
        return first
    return "Q" if first == "P" else "P"


def chsh_response(spec: FieldSpec, s: int, r: int, a: int) -> int:
    """Honest committer's reply to challenge a: r + a*s, with r the shared pad."""
    return r ^ spec.mul_i(a, s)


def extr_i(spec: FieldSpec, y: int, a: int, x: int) -> OpenOutcome:
    """Raw-int opening map for one commitment level.

    a != 0: the unique s with x + y = a*s.  a == 0: the canonical value 0
    when x == y (mirroring the bit scheme's smaller-bit rule), else BOT.
    """
    if a:
        return spec.div_i(x ^ y, a)
    return 0 if x == y else BOT


def extr_bit_i(spec: FieldSpec, y: int, a: int, x: int) -> OpenOutcome:
    """Raw-int bit-scheme opening: the smaller bit b with x + y = a*b."""
    if y == x:
        return 0
    if a and (x ^ y) == a:
        return 1
    return BOT


def restrict_domain(outcome: OpenOutcome, k: int, n: int) -> OpenOutcome:
    """Project an opened n-bit value onto a k-bit domain.

    The committed k-bit value is padded with n-k zero bits, so any opened
    value with nonzero padding rejects.
    """
    if not 1 <= k <= n:
        raise ValueError("domain_bits must be in 1..n")
    if outcome is BOT:
        return BOT
    if outcome >> k:
        return BOT
    return outcome


def multiround_verify(
    params: SchemeParams,
    challenges: Sequence[int],
    responses: Sequence[int],
    y_final: int,
) -> OpenOutcome:
    """Back-substitute through the sustain rounds and open the commitment.

    challenges/responses are a_0..a_m and x_0..x_m; y_final is the opening
    message.  Levels with a_i = 0 follow the extr degenerate rule (continue
    with the canonical 0 when x_i equals the reconstructed y_i, reject
    otherwise).  The result is domain-restricted per params.
    """
    if len(challenges) != len(responses) or len(challenges) != params.m + 1:
        raise ValueError("need exactly m+1 challenges and responses")
    spec = params.field
    y = spec.check(y_final)
    for i in range(params.m, 0, -1):
        y = extr_i(spec, y, challenges[i], responses[i])
        if y is BOT:
            return BOT
    s = extr_i(spec, y, challenges[0], responses[0])
    if params.domain_bits is not None:
        s = restrict_domain(s, params.domain_bits, spec.n)
    return s

