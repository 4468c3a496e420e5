"""Exact and Monte-Carlo measurement of binding and hiding properties.

Definitional measurements (max p0+p1, simultaneous opening, extractor
quality, hiding distance) run exactly over exhaustive deterministic strategy
spaces: commit tables a -> x and constant opening strings, which suffice
because randomized provers are convex mixtures of deterministic ones.  The
arithmetic is on integers, pmfs being integer weights over one total; a
Fraction is built only for a reported value.  The binding maxima choose the
table's entry for each challenge separately (pointwise), which reaches the
same maximum as enumerating whole tables.  Every Monte-Carlo estimate runs
through seeded_trials: one seed per trial, counts summed into a GameResult.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt, lcm, sqrt
from multiprocessing import Pool
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from . import engine
from .engine import STREAM_TARGET, STREAM_TRIAL, SchemeParams, honest_reply, stream_value
from .field import FieldSpec
from .scheme import BOT, extr_bit_i, extr_i

ZERO = Fraction(0)
ONE = Fraction(1)


class Dist:
    """Exact finite pmf: integer weights over one positive total, reduced
    by their gcd so that equal pmfs store equal weights."""

    __slots__ = ("_w", "_total")

    def __init__(self, mass: Mapping):
        fracs = {k: Fraction(v) for k, v in mass.items()}
        for k, f in fracs.items():
            if f < 0:
                raise ValueError(f"negative mass at {k!r}")
        # The lcm of the denominators is the least total: no gcd is left.
        den = lcm(*(f.denominator for f in fracs.values()))
        self._w = {k: f.numerator * (den // f.denominator) for k, f in fracs.items() if f}
        self._total = den
        if sum(self._w.values()) != den:
            raise ValueError(f"masses sum to {sum(fracs.values())}, not 1")

    @classmethod
    def from_counts(cls, counts: Mapping) -> "Dist":
        """The pmf proportional to nonnegative integer counts."""
        total = sum(counts.values())
        low = min(counts.values())
        if total <= 0 or low < 0:
            raise ValueError("counts must be nonnegative with a positive sum")
        # The gcd of the counts divides their sum.
        g = gcd(*counts.values())
        d = cls.__new__(cls)
        if g == 1 and low:
            d._w = dict(counts)
        else:
            d._w = {k: v // g for k, v in counts.items() if v}
        d._total = total // g
        return d

    def mass(self, x) -> Fraction:
        return Fraction(self._w.get(x, 0), self._total)

    @property
    def support(self) -> frozenset:
        return frozenset(self._w)

    def items(self):
        t = self._total
        return [(k, Fraction(w, t)) for k, w in sorted(
            self._w.items(), key=lambda kw: (type(kw[0]).__name__, repr(kw[0])))]

    def __eq__(self, other):
        return (isinstance(other, Dist) and self._total == other._total
                and self._w == other._w)

    def __repr__(self):
        inner = ", ".join(f"{k!r}: {v}" for k, v in self.items())
        return f"{type(self).__name__}({{{inner}}})"


class JointDist(Dist):
    """Exact pmf over pairs, with marginal extraction."""

    __slots__ = ()

    def __init__(self, mass: Mapping):
        if any(len(k) != 2 for k in mass):
            raise ValueError("joint outcomes must be pairs")
        super().__init__(mass)

    def mass(self, x, y) -> Fraction:
        return Fraction(self._w.get((x, y), 0), self._total)

    def _cell_sums(self) -> Tuple[Dict, Dict, Dict, Dict, int]:
        """One pass over the cells: the row and column sums, the row and
        column sums of the off-diagonal cells, and their total D, all over
        this joint's total, unreduced."""
        rows: Dict = {}
        cols: Dict = {}
        off_rows: Dict = {}
        off_cols: Dict = {}
        d = 0
        for (x, y), w in self._w.items():
            rows[x] = rows.get(x, 0) + w
            cols[y] = cols.get(y, 0) + w
            if x != y:
                d += w
                off_rows[x] = off_rows.get(x, 0) + w
                off_cols[y] = off_cols.get(y, 0) + w
        return rows, cols, off_rows, off_cols, d

    def marginal(self, axis: int) -> Dist:
        return Dist.from_counts(self._cell_sums()[axis])


def stat_distance(p: Dist, q: Dist) -> Fraction:
    """Half the L1 distance, exact, from both pmfs' weights over
    T = t_p t_q.  Equal pmfs store equal weights, so they are at distance 0
    without a common total."""
    if p == q:
        return ZERO
    pw, qw, tp, tq = p._w, q._w, p._total, q._total
    return Fraction(sum(abs(pw.get(k, 0) * tq - qw.get(k, 0) * tp)
                        for k in pw.keys() | qw.keys()), 2 * tp * tq)


def couple_max_diagonal(p: Dist, q: Dist) -> JointDist:
    """The maximal coupling of p and q.

    Diagonal mass is the pointwise minimum of the two pmfs; the leftover
    mass is spread as the product of the two residual conditionals, which
    makes the pair independent conditioned on disagreeing.  Over T = t_p t_q
    the diagonal is d_k = min(p_k t_q, q_k t_p) and the residue R = T - sum d
    is the rows' total excess; the weights are d_k R on the diagonal and
    (p_u - d_u)(q_v - d_v) off it.
    """
    pw, qw, tp, tq = p._w, q._w, p._total, q._total
    diagonal = []
    rows = []
    cols = []
    # One pass over the keys splits them into rows (p_u > q_u) and columns
    # (q_v > p_v), two disjoint sets; a zero diagonal weight is left out.
    for k in pw.keys() | qw.keys():
        pk = pw.get(k, 0) * tq
        qk = qw.get(k, 0) * tp
        if pk > qk:
            rows.append((k, pk - qk))
        elif qk > pk:
            cols.append((k, qk - pk))
        d = min(pk, qk)
        if d:
            diagonal.append((k, d))
    # R is 0 only when p = q: nothing is off the diagonal, and any R > 0
    # will do.
    residue = sum(du for _, du in rows) or 1
    joint = {(k, k): d * residue for k, d in diagonal}
    joint.update(((u, v), du * dv) for u, du in rows for v, dv in cols)
    return JointDist.from_counts(joint)


def _indep_given_neq(j: JointDist, off_rows: Mapping, off_cols: Mapping, d: int) -> bool:
    """w D = r_x c_y on every off-diagonal cell (x, y) of weight w, from
    j's off-diagonal row sums r, column sums c and their total D."""
    return all(w * d == off_rows[x] * off_cols[y]
               for (x, y), w in j._w.items() if x != y)


def cond_indep_given_neq(j: JointDist) -> bool:
    """Whether the law conditioned on disagreement factorizes, exactly.

    A zero-probability disagreement event counts as independent.  The test
    is homogeneous, so integer weights serve.
    """
    _, _, off_rows, off_cols, d = j._cell_sums()
    return _indep_given_neq(j, off_rows, off_cols, d)


def _weights_match(counts: Mapping, total: int, p: Dist) -> bool:
    """Whether positive integer counts summing to total form the pmf p:
    reduced pmfs are equal exactly when their weights are proportional."""
    t, w = p._total, p._w
    return counts.keys() == w.keys() and all(c * t == w[k] * total
                                             for k, c in counts.items())


def maximal_coupling_holds(p: Dist, q: Dist) -> bool:
    """Whether couple_max_diagonal(p, q) has marginals p and q and is
    independent given disagreement.

    Its diagonal then is min(p_k, q_k), so that is not checked apart.
    Independence given disagreement makes every off-diagonal cell of the
    support r_x c_y / D, with r and c the off-diagonal row and column sums
    and D their total.  Those cells sum to D, and the products r_x c_y over
    all pairs (x, y) sum to D^2, so every other pair, each (k, k)
    included, has r_x c_y = 0: each k has no off-diagonal mass in its row
    or none in its column.  With the right marginals
    j_kk = p_k - r_k = q_k - c_k, which is then the smaller of p_k and q_k.
    """
    j = couple_max_diagonal(p, q)
    rows, cols, off_rows, off_cols, d = j._cell_sums()
    return (_weights_match(rows, j._total, p) and _weights_match(cols, j._total, q)
            and _indep_given_neq(j, off_rows, off_cols, d))


# -- exhaustive binding measurements for the commit phase --------------------


def _opening_table(spec: FieldSpec, extr_fn) -> List[List[List]]:
    """opened[y][a][x] = extr_fn(spec, y, a, x): each opening evaluated once."""
    elems = range(spec.order)
    return [[[extr_fn(spec, y, a, x) for x in elems] for a in elems] for y in elems]


def max_p0_plus_p1(spec: FieldSpec) -> Fraction:
    """Exact max of p(b_0=0) + p(b_1=1) for the bit scheme.

    Maximizes over all deterministic commit tables f: a -> x and all pairs
    of constant opening strings (y_0, y_1), under a uniform challenge.
    f(a) is chosen separately for each challenge a, so the table is
    optimized pointwise: max_f sum_a g(a, f(a)) = sum_a max_x g(a, x).
    The 2^(3n) bit openings (y, a, x) are evaluated once, into one table,
    whose rows a of y_0 and y_1 are combined x by x: 2^(4n) pairs in all,
    hence the n <= 3 cap.
    """
    if spec.n > 3:
        raise ValueError(f"max_p0_plus_p1 combines 2^(4n) pairs from a table of 2^(3n) "
                         f"openings; n={spec.n} exceeds the n<=3 cap")
    opened = _opening_table(spec, extr_bit_i)
    best = max(
        sum(max((b0 == 0) + (b1 == 1) for b0, b1 in zip(row0, row1))
            for row0, row1 in zip(rows0, rows1))
        for rows0 in opened for rows1 in opened)
    return Fraction(best, spec.order)


def sim_open_epsilon(spec: FieldSpec) -> Fraction:
    """Exact max of p(s = t and s' = t') over simultaneous openings.

    Maximizes over deterministic commit tables, two constant opening
    strings and distinct targets t != t'.  As in max_p0_plus_p1 the commit
    table is optimized pointwise: challenge a counts as a hit for (t, t')
    when some x opens to t under y_0 and to t' under y_1.  So for each
    (y_0, y_1) every challenge adds one to each distinct target pair it can
    reach, and the best pair's count is the maximum.  The 2^(3n) openings
    (y, a, x) are evaluated once, into one table, and each (y_0, y_1, a)
    zips two of its rows into the target pairs that a reaches: 2^(4n) pairs
    in all, hence the n <= 3 cap.
    """
    if spec.n > 3:
        raise ValueError(f"sim_open_epsilon combines 2^(4n) pairs from a table of 2^(3n) "
                         f"openings; n={spec.n} exceeds the n<=3 cap")
    opened = _opening_table(spec, extr_i)
    best = 0
    for rows0 in opened:
        for rows1 in opened:
            hits = Counter()
            for row0, row1 in zip(rows0, rows1):
                hits.update(set(zip(row0, row1)))
            for (t, t2), c in hits.items():
                if t is not BOT and t2 is not BOT and t != t2:
                    best = max(best, c)
    return Fraction(best, spec.order)


def max_extractor_violation(spec: FieldSpec) -> Tuple[Fraction, Fraction]:
    """(worst, alpha): the greedy extractor's worst deviation, exactly.

    alpha = 2^(-n/2) is the square root of the simultaneous-opening bound
    2^-n, so n must be even.  worst is the max of extractor_violation over
    all 2^(n*2^n) commit tables, each against every constant opening
    string; the fairly-binding bound asks for worst < 2*alpha.  The
    2^(3n) openings (y, a, x) are evaluated once, into one table, which
    every commit table reads.  The enumeration is capped at n <= 2.
    """
    if spec.n % 2:
        raise ValueError("extractor analysis uses even n (alpha = sqrt(eps))")
    if spec.n > 2:
        raise ValueError(f"max_extractor_violation enumerates 2^(n*2^n) commit tables; "
                         f"n={spec.n} exceeds the n<=2 cap")
    alpha = Fraction(1, 2 ** (spec.n // 2))
    opened = _opening_table(spec, extr_i)
    worst = 0
    for table in product(range(spec.order), repeat=spec.order):
        columns = [[by_a[a][x] for a, x in enumerate(table)] for by_a in opened]
        worst = max(worst, _missed(columns, _carve(columns, spec.order, alpha)))
    return Fraction(worst, spec.order), alpha


# -- the greedy partition extractor ------------------------------------------


def _opened_columns(spec: FieldSpec, commit_table: Sequence[int],
                    opening_family: Sequence[int]) -> List[List]:
    """columns[i][a]: the value that opening_family[i] opens (a, f(a)) to."""
    return [[extr_i(spec, y, a, x) for a, x in enumerate(commit_table)]
            for y in opening_family]


def _carve(columns: Sequence[Sequence], order: int, alpha: Fraction) -> List[int]:
    """The greedy rule of fairly_binding_extractor over opened columns:
    the predicted value of each of the order challenges a."""
    # A slice of k commitments is carved when k / order >= alpha.
    need_num, need_den = alpha.numerator * order, alpha.denominator
    predicted = [0] * order
    residual = set(range(order))
    for column in columns:
        slices: Dict = {}
        for a in residual:
            slices.setdefault(column[a], []).append(a)
        # The slices of one opening are disjoint: the carve order among
        # them does not matter.  BOT is not a value and is never carved.
        for s, block in slices.items():
            if s is not BOT and len(block) * need_den >= need_num:
                for a in block:
                    predicted[a] = s
                residual.difference_update(block)
    return predicted


def _missed(columns: Sequence[Sequence], predicted: Sequence[int]) -> int:
    """max over openings and targets of the number of challenges whose
    opening is the target but not the prediction."""
    worst = 0
    for column in columns:
        missed: Dict[int, int] = {}
        for s, p in zip(column, predicted):
            if s is not BOT and s != p:
                missed[s] = missed.get(s, 0) + 1
        if missed:
            worst = max(worst, max(missed.values()))
    return worst


def fairly_binding_extractor(spec: FieldSpec, commit_table: Sequence[int],
                             opening_family: Sequence[int],
                             alpha: Fraction) -> Dict[Tuple[int, int], int]:
    """Greedy partition of the commitment space into per-value classes.

    The commitments are c = (a, f(a)) with a uniform.  Repeatedly carve out of
    the residual set the commitments that opening i maps to value s, as
    long as that slice has probability at least alpha (scanning i
    ascending, then s ascending); everything left maps to 0.  At most
    1/alpha classes are carved, and on the carved classes the returned map
    predicts the opened value.

    One pass over (i, s) in that order carves the same classes: slices
    only shrink as the residual does, so a slice passed over stays below
    alpha.  The slices of one opening are disjoint, so they are grouped
    from the residual once per opening.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    predicted = _carve(_opened_columns(spec, commit_table, opening_family),
                       spec.order, alpha)
    return {(a, x): s for a, (x, s) in enumerate(zip(commit_table, predicted))}


def extractor_violation(spec: FieldSpec, commit_table: Sequence[int],
                        opening_family: Sequence[int],
                        shat: Mapping[Tuple[int, int], int]) -> Fraction:
    """max over openings and targets of p(opened = target != predicted).

    Each opening is evaluated once per challenge, and the challenges where
    it opens to a value other than the prediction are counted by that value.
    """
    predicted = [shat[a, x] for a, x in enumerate(commit_table)]
    columns = _opened_columns(spec, commit_table, opening_family)
    return Fraction(_missed(columns, predicted), spec.order)


# -- the descending-probability hat distribution ------------------------------


def _ceil_sqrt(x: Fraction) -> int:
    k = isqrt(x.numerator // x.denominator)
    while k * k < x:
        k += 1
    return k


def fairly_weak_hat_distribution(p_list: Sequence[Fraction],
                                 epsilon: Fraction) -> List[Fraction]:
    """Build a pmf close to a descending list of per-value maxima.

    With N = max(2, ceil(sqrt(2/epsilon))), keep the longest prefix whose
    entries all reach (N-1)*epsilon/2, shave its excess over total mass 1
    evenly, and drop the rest.  Returns the masses for the kept prefix
    (padded with zeros to the input length); they are nonnegative and sum
    to exactly 1.  An empty prefix degenerates to a point mass on the
    first entry.

    Lists of per-value opening maxima of a scheme whose simultaneous
    openings are epsilon-bounded always satisfy
    sum(prefix) <= 1 + N'(N-1)*epsilon/2; inputs that do not are rejected,
    as the shaved masses would go negative.
    """
    ps = [Fraction(x) for x in p_list]
    if any(not 0 <= x <= 1 for x in ps):
        raise ValueError("entries must lie in [0, 1]")
    if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
        raise ValueError("entries must be sorted in descending order")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not ps:
        raise ValueError("empty probability list")
    n_big = max(2, _ceil_sqrt(Fraction(2) / epsilon))
    floor = Fraction(n_big - 1) * epsilon / 2
    n_keep = 0
    while n_keep < min(n_big, len(ps)) and ps[n_keep] >= floor:
        n_keep += 1
    if n_keep == 0:
        out = [ZERO] * len(ps)
        out[0] = ONE
        return out
    excess = sum(ps[:n_keep], ZERO) - 1
    shave = excess / n_keep
    if shave > floor:
        raise ValueError(
            "prefix mass exceeds 1 + N'(N-1)*epsilon/2; the list cannot "
            "come from an epsilon-bounded scheme")
    out = [ps[i] - shave for i in range(n_keep)]
    out.extend([ZERO] * (len(ps) - n_keep))
    return out


# -- hiding --------------------------------------------------------------------


def fixed_challenge_strategy(challenges: Sequence[int]) -> Callable[[int, tuple], int]:
    def strategy(round_index: int, responses: tuple) -> int:
        return challenges[round_index]
    return strategy


def view_distribution(params: SchemeParams, verifier_strategy, value: int,
                      horizon: int) -> Dist:
    """Exact verifier-view distribution up to the given round.

    The verifier strategy is a deterministic map (round, responses so far)
    -> challenge.  Views are tuples (a_0, x_0, ..., a_h, x_h), with the
    opening string appended when horizon = m + 1.  Exhausts the provers'
    shared pads up to the horizon: 2^(n*(min(h, m)+1)) branches.
    """
    return Dist.from_counts(
        _view_distribution(params, verifier_strategy, value, horizon, {}))


def _view_distribution(
    params: SchemeParams, verifier_strategy, value: int, horizon: int,
    rows: Dict[Tuple[int, int], List[Tuple[Tuple[int, int], int]]],
) -> Counter:
    """view_distribution's view counts, enumerated round by round.

    Level i holds the pairs (view prefix, y_{i-1}), from ((), value).  The
    strategy is asked once per prefix, which each pad y_i then extends.
    Every round 0..m replies x_i = y_i + a_i*y_{i-1}, so the replies to
    (a_i, y_{i-1}) form one row over the pads: round 0's honest reply with
    y_{-1} = y_{i-1}.  rows maps (a, y_{i-1}) to that row as the pairs
    ((a, x_i), y_i), so that each extension is one tuple concatenation.  It
    is filled as needed, and callers may share it between calls.  Pads past
    the horizon would scale every view's count alike, so they are not
    enumerated.  Every call for one (params, strategy, horizon) enumerates
    the same number of pads, so its counts are equal exactly when its pmfs
    are.
    """
    spec = params.field
    m = params.m
    if not 0 <= horizon <= m + 1:
        raise ValueError(f"horizon {horizon} outside rounds 0..{m + 1}")
    if spec.n * (m + 1) > 18:
        raise ValueError("view space too large to enumerate exactly")
    spec.check(value)
    pads = range(spec.order)
    level = [((), value)]
    for i in range(min(horizon, m) + 1):
        grown = []
        for view, prev in level:
            a = spec.check(verifier_strategy(i, view[1::2]))
            row = rows.get((a, prev))
            if row is None:
                row = rows[a, prev] = [
                    ((a, honest_reply(spec, m, 0, a, (y,).__getitem__, prev)), y)
                    for y in pads]
            grown.extend([(view + ax, y) for ax, y in row])
        level = grown
    if horizon > m:
        return Counter([view + (honest_reply(spec, m, m + 1, None, {m: y}.__getitem__),)
                        for view, y in level])
    return Counter([view for view, _ in level])


def hiding_distance(params: SchemeParams, verifier_strategy, s0: int, s1: int,
                    horizon: int) -> Fraction:
    """Exact statistical distance between views under commitments s0 vs s1."""
    return stat_distance(
        view_distribution(params, verifier_strategy, s0, horizon),
        view_distribution(params, verifier_strategy, s1, horizon))


def max_hiding_distance(params: SchemeParams) -> Fraction:
    """Worst hiding distance before the final round over fixed challenge
    tuples, each value s1 != 0 against value 0 (built once per tuple).  The
    enumerations share one table of honest reply rows.

    Views are compared by their counts, which one tuple's enumerations
    take over the same number of pads: equal counts are at distance 0, and
    pmfs are built only for counts that differ.  The counts are compared as
    plain dicts, since Counter's own == is a Python-level loop.
    """
    spec = params.field
    size = spec.n * (2 * params.m + 3)
    if size > 20:
        raise ValueError(f"analyze hiding builds ~2^(n*(2m+3)) views; "
                         f"n*(2m+3)={size} exceeds the n*(2m+3)<=20 cap")
    worst = ZERO
    rows: Dict = {}
    for fixed in product(range(spec.order), repeat=params.m + 1):
        strat = fixed_challenge_strategy(fixed)
        base = _view_distribution(params, strat, 0, params.m, rows)
        for s1 in range(1, spec.order):
            counts = _view_distribution(params, strat, s1, params.m, rows)
            if not dict.__eq__(base, counts):
                worst = max(worst, stat_distance(Dist.from_counts(base),
                                                 Dist.from_counts(counts)))
    return worst


# -- seeded Monte-Carlo trials ------------------------------------------------


@dataclass(frozen=True)
class GameResult:
    hits: int
    trials: int
    conditioned: int

    @property
    def rate(self) -> Fraction:
        return Fraction(self.hits, self.conditioned) if self.conditioned else ZERO

    def sigma(self, p: float) -> float:
        if not self.conditioned:
            return 0.0
        return sqrt(p * (1 - p) / self.conditioned)

    def three_sigma(self, p: float) -> Tuple[float, float, bool]:
        """(rate, sigma, pass): the rate as a float, the binomial sigma at
        p, and whether the rate lies within 3 sigma of p."""
        sigma = self.sigma(p)
        rate = float(self.rate)
        return rate, sigma, abs(rate - p) <= 3 * sigma


def _trial_chunk(job) -> Tuple[int, int]:
    trial, seed, start, stop = job
    hits = kept = 0
    for t in range(start, stop):
        hit, keep = trial(engine.stream_u64(seed, STREAM_TRIAL, t))
        hits += hit
        kept += keep
    return hits, kept


def seeded_trials(trial: Callable[[int], Tuple[int, int]], trials: int, seed: int,
                  workers: int = 1) -> GameResult:
    """Sum trial(tseed) -> (hit, kept) over trials t, tseed = stream_u64(seed,
    STREAM_TRIAL, t).  One chunk in process, or eight per worker on a pool
    of at most min(workers, chunks) processes; trial must then pickle."""
    pieces = workers * 8 if workers > 1 else 1
    step = max(1, (trials + pieces - 1) // pieces)
    jobs = [(trial, seed, lo, min(lo + step, trials)) for lo in range(0, trials, step)]
    if workers > 1 and len(jobs) > 1:
        with Pool(min(workers, len(jobs))) as pool:
            parts = pool.map(_trial_chunk, jobs)
    else:
        parts = [_trial_chunk(j) for j in jobs]
    return GameResult(sum(h for h, _ in parts), trials, sum(k for _, k in parts))


def open_game_trial(params: SchemeParams, strategy_family, tseed: int,
                    target=None, condition_nonzero: bool = False) -> Tuple[bool, int]:
    """One session of the open-to-target game: (hit, kept).

    strategy_family(target) returns the (commit, open) strategy pair aimed
    at target; without one, the target is uniform from STREAM_TARGET.  With
    condition_nonzero, a session with a zero challenge is not kept.
    """
    if target is None:
        target = stream_value(tseed, STREAM_TARGET, 0, params.field.n)
    commit, open_ = strategy_family(target)
    transcript = engine.run_attack_session(params, commit, open_, tseed)
    if condition_nonzero and 0 in transcript.challenges():
        return False, 0
    return transcript.outcome == target, 1


# -- the accept-everything-or-nothing toy scheme -------------------------------


def coinflip_max_p0_plus_p1() -> Fraction:
    """max p(b_0=0) + p(b_1=1) for the coin-flip toy scheme.

    The verifier commits by flipping a public coin g and later accepts any
    announced bit when g = 1 and rejects everything when g = 0.  Opening
    strategies are maps g -> announced bit.
    """
    strategies = list(product((0, 1), repeat=2))
    best = ZERO
    for o0 in strategies:
        p0 = Fraction(sum(1 for g in (0, 1) if g == 1 and o0[g] == 0), 2)
        for o1 in strategies:
            p1 = Fraction(sum(1 for g in (0, 1) if g == 1 and o1[g] == 1), 2)
            best = max(best, p0 + p1)
    return best


def coinflip_best_binding_epsilon() -> Fraction:
    """min over predicted-bit maps of the worst opening deviation.

    For every map shat: g -> bit there is an opening strategy announcing
    the other bit whenever the coin accepts, so every candidate loses with
    probability 1/2.
    """
    strategies = list(product((0, 1), repeat=2))
    worst_of_best = ONE
    for shat in strategies:
        worst = max(
            Fraction(sum(1 for g in (0, 1) if g == 1 and o[g] != shat[g]), 2)
            for o in strategies)
        worst_of_best = min(worst_of_best, worst)
    return worst_of_best


def frac_text(f: Fraction) -> str:
    """p/q with the denominator always written, as in report lines."""
    return f"{f.numerator}/{f.denominator}"


def report_line(metric: str, n: int, value: Fraction, bound: Fraction,
                passed: bool) -> str:
    return (f"metric={metric} n={n} value={frac_text(value)} "
            f"bound={frac_text(bound)} pass={'true' if passed else 'false'}")
