"""Expansion profiles of macro sets and checks of their predicted growth bounds.

The expansion value f(s) is the largest radius r such that every word of
primitive length <= r can be written with at most s generators-plus-macros.
Exact values come from lattice reachability (abelian) or a forward DP over
the match states of the macro set's trie (finite free macro sets).
When every abelian macro lies on one axis, as in the place, Waring and
double-log families, one 1-D lattice per axis and a (min, +) convolution
over token counts replace the n-D lattice.
One budget bounds either search by the work it builds: the points of each
lattice, (r_max + 1)^n for the n-D lattice and r_max + 1 for each axis of a
separable set, or the (match state, letter) transitions of the free DP.
The lazy probabilistic family has unboundedly many match states and no
profile; its regime is checked by sampling instead (halving checks and a
greedy recursive parse).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from typing import NamedTuple

from .families import FamilySpec, LazyFreeMacroSet, prefix_periods, seeded_words
from .monoid import (
    DEFAULT_BUDGET,
    AbelianLattice,
    MacroSet,
    Word,
    _abelian_generators,
    _split_axes,
    ball_size,
    segment_free,
)

# Smallest number of k-th powers that always suffices, for the exponents
# where that count is settled.
POWER_SUM_COUNTS = {2: 4, 3: 9, 4: 19, 5: 37, 6: 73}

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class ExpansionValue(NamedTuple):
    """Exact value when `exact`, otherwise a certified lower bound (scan exhausted r_max)."""

    value: int
    exact: bool


class ExpansionProfile(NamedTuple):
    """f(s) for each budget s in ``entries``."""

    spec: FamilySpec
    entries: dict[int, ExpansionValue]


class SphereBudgetError(Exception):
    """The profile search outgrew its budget before resolving every s."""

    def __init__(self, largest_completed: int, budget: int):
        super().__init__(
            f"search exceeded budget {budget}; largest completed radius {largest_completed}"
        )
        self.largest_completed = largest_completed
        self.budget = budget


def _largest_box_radius(n: int, budget: int) -> int:
    """Largest r whose box (r + 1)**n fits in `budget` lattice points (0 if none)."""
    side = int(max(budget, 1) ** (1 / n))
    while side > 1 and side**n > budget:
        side -= 1
    while (side + 1) ** n <= budget:
        side += 1
    return max(side - 1, 0)


def _abelian_entries(
    M: MacroSet, s_values: list[int], r_max: int, budget: int
) -> dict[int, ExpansionValue]:
    """f(s) = R - 1 for the first radius R with a point that needs more than
    s tokens, or a lower bound r_max when every |p| <= r_max is reached.

    g'(p) depends only on points dominated by p, so the simplex |p| <= r_max
    is all either branch looks at.  When every generator lies on one axis,
    g'(p) is the sum of 1-D coin-change lengths h_i(p_i)
    (`_separable_firsts`), on one lattice of r_max + 1 points per axis;
    otherwise one n-D lattice of (r_max + 1)^n points counts the reached
    points of each radius (`_simplex_firsts`).  The lattice to be built is
    charged against `budget` first: past it, SphereBudgetError names the
    largest radius whose lattice of the same dimension fits."""
    n = M.monoid.n
    gens = [(v, name) for v, name in _abelian_generators(M, (r_max,) * n, None)
            if sum(v) <= r_max]
    axes = _split_axes(gens, n)
    dim = n if axes is None else 1
    if (r_max + 1) ** dim > budget:
        raise SphereBudgetError(_largest_box_radius(dim, budget), budget)
    wanted = sorted(set(s_values))
    if axes is None:
        firsts = _simplex_firsts(M, [v for v, _ in gens], wanted, r_max, budget)
    else:
        firsts = _separable_firsts(axes, wanted, r_max, budget)
    return {s: ExpansionValue(r_max, exact=False) if first > r_max
            else ExpansionValue(first - 1, exact=True)
            for s, first in firsts.items()}


def _separable_firsts(axes, wanted: list[int], r_max: int, budget: int) -> dict[int, int]:
    """First unreached radius for each s (r_max + 1 past the simplex), when
    every generator lies on one axis.

    Let a_i(t) be the first x <= r_max with h_i(x) >= t (r_max + 1 if none):
    the lowest bit a 1-D lattice on axis i has not reached after t - 1
    layers.  A point p needs more than s tokens iff the h_i(p_i) sum past s,
    so the first such radius is the (min, +) convolution of the a_i over
    token counts, min of a_1(t_1) + ... + a_n(t_n) over t_1 + ... + t_n = s + 1
    (each a_i is nondecreasing, so the sum may be exactly s + 1).  A capped
    a_i only ever gives a sum past r_max, where the answer is a bound anyway.

    Axis i stops growing at the first layer T_i whose frontier is empty, and
    a_i(t) = a_i(T_i) from then on.  So the convolution keeps its value from
    T_1 + ... + T_n on (the extra tokens go to an axis past its T_i), and it
    is computed only that far, or to s + 1 for the largest s if that is less.
    """
    top = wanted[-1] + 1
    seqs = []
    for gens in axes:
        layers = AbelianLattice((r_max,), [v for v, _ in gens], budget).layers()
        a = [0, 1]  # a_i(0), and a_i(1): no layer yet, only the origin is reached
        while len(a) <= top:
            frontier, reached, _ = next(layers)
            if not frontier:
                break
            a.append(((reached + 1) & ~reached).bit_length() - 1)
        seqs.append(a)
    size = min(sum(len(a) - 1 for a in seqs), top)
    conv = None
    for a in seqs:
        a += [a[-1]] * (size + 1 - len(a))
        conv = a if conv is None else [min(conv[u] + a[t - u] for u in range(t + 1))
                                       for t in range(size + 1)]
    return {s: min(conv[min(s + 1, size)], r_max + 1) for s in wanted}


def _simplex_firsts(M: MacroSet, vecs, wanted: list[int], r_max: int,
                    budget: int) -> dict[int, int]:
    """First unreached radius for each s (r_max + 1 past the simplex), by
    counting the reached points of radius at most R, the low bits of a
    radius-major n-D layout, against the ball size.  Once a layer reaches no
    new point no later one does, so that layer's answer holds for every
    larger s."""
    lattice = AbelianLattice((r_max,) * M.monoid.n, vecs, budget, cap=r_max)

    def covered(reached: int, radius: int) -> bool:  # is every |p| <= radius reached?
        low = reached & ((1 << (radius + 1) * lattice.width) - 1)
        return low.bit_count() == ball_size(M.monoid, radius)

    asked = set(wanted)
    firsts: dict[int, int] = {}
    first = 1  # the first radius with an unreached point never decreases
    for s, (frontier, reached, _) in zip(range(1, wanted[-1] + 1), lattice.layers()):
        if s not in asked and frontier:
            continue
        hi, step = first, 1  # gallop from the last answer, then bisect [first, hi]
        while hi <= r_max and covered(reached, hi):
            first, hi, step = hi + 1, hi + step, step * 2
        hi = min(hi, r_max + 1)  # r_max + 1: the whole simplex is reached
        while first < hi:
            mid = (first + hi) // 2
            first, hi = (mid + 1, hi) if covered(reached, mid) else (first, mid)
        if not frontier:  # the fixpoint: every later layer is this one
            firsts.update((t, first) for t in wanted if t >= s)
            break
        firsts[s] = first
    return firsts


def _free_entries(worsts, s_values: list[int], r_max: int) -> dict[int, ExpansionValue]:
    """f(s) = r - 1 for the first radius r whose worst g' exceeds s; `worsts`
    yields the worst g' over the words of length r = 1, 2, ..."""
    pending = sorted(set(s_values))
    entries: dict[int, ExpansionValue] = {}
    for r, worst in zip(range(1, r_max + 1), worsts):
        while pending and worst > pending[0]:
            entries[pending.pop(0)] = ExpansionValue(r - 1, exact=True)
        if not pending:
            break
    for s in pending:
        entries[s] = ExpansionValue(r_max, exact=False)
    return entries


def _match_state_worsts(M: MacroSet, budget: int):
    """Worst g' at each length for a finite free macro set, by a forward DP
    over match states.

    Reading a word letter by letter, the segmentation DP (`segment_free`)
    needs, besides dp at the current position i, dp[k] for every start k
    whose letters[k:i] is a proper prefix of some macro.  A match state lists
    those as (automaton state, dp[k] - dp[i]) pairs; the state fixes i - k,
    and the offsets are bounded by the longest macro, so a finite macro set
    has finitely many match states.  The future of dp relative to dp[i]
    depends only on the match state, so keeping the largest dp[i] per match
    state over all words of length i is exact, and the largest over a layer
    is the worst g' at that length.  Raises SphereBudgetError once the
    (match state, letter) transitions would exceed `budget`.

    Only trie edges extend a match, so the macro set's trie is all this
    reads; it never pays for completing the automaton's failure links.  At
    radius r it reads trie states of depth at most r, and the rows of those
    states, one layer deeper; so it grows the trie to depth r + 1 first and
    never builds a layer more than one past the radius it stops at.
    """
    n = M.monoid.n
    continues: dict[int, bool] = {}  # state -> is it a proper prefix of a longer macro?
    layer = {(): 0}  # match state -> largest dp reaching it
    spent = 0
    for r in itertools.count(1):
        spent += len(layer) * n
        if spent > budget:
            raise SphereBudgetError(r - 1, budget)
        goto, depth, name, _ = M.trie(r + 1)
        nxt: dict[tuple, int] = {}
        for state, here in layer.items():
            for a in range(n):
                best = 0  # spelling the letter: dp[i + 1] <= dp[i] + 1
                grown = []
                for s, off in ((0, 0), *state):
                    t = goto[s * n + a]
                    if depth[t] <= depth[s]:  # not a trie edge, the match ends
                        continue
                    if name[t] is not None and off < best:
                        best = off
                    more = continues.get(t)
                    if more is None:  # does some letter lead one deeper?
                        row = goto[t * n:t * n + n]
                        more = continues[t] = max(depth[u] for u in row) > depth[t]
                    if more:
                        grown.append((t, off))
                delta = best + 1  # dp[i + 1] - dp[i]
                key = tuple((t, off - delta) for t, off in grown)
                if nxt.get(key, -1) < here + delta:
                    nxt[key] = here + delta
        layer = nxt
        yield max(layer.values())


def gprime_length_free_lazy(letters: tuple[int, ...], M: LazyFreeMacroSet) -> int:
    """Shortest segmentation of letters over primitives plus lazy macro
    membership: the matches of one KMP pass per start, listed by end."""
    heads = [0] * len(letters)
    length, nxt = [0], [0]  # match 0 ends every list
    for j in range(len(letters)):
        for size, period in enumerate(prefix_periods(letters, j), 1):
            if M.contains_letters(letters[j : j + size], period):
                length.append(size)
                nxt.append(heads[j + size - 1])
                heads[j + size - 1] = len(length) - 1
    return segment_free(heads, length, [None] * len(length), nxt)[0]


def expansion_profile(
    M: MacroSet | LazyFreeMacroSet,
    s_values: list[int] | range,
    r_max: int,
    spec: FamilySpec | None = None,
    budget: int = DEFAULT_BUDGET,
) -> ExpansionProfile:
    """Exact expansion values f(s) for each requested s, scanning radii up to r_max.

    `budget` bounds the lattice points of each abelian lattice, or the
    (match state, letter) transitions of a free profile; past it the search
    raises SphereBudgetError."""
    s_values = [int(s) for s in s_values]
    if not s_values or min(s_values) < 1:
        raise ValueError("expansion profiles need s >= 1")
    if isinstance(M, LazyFreeMacroSet):
        raise ValueError("the lazy probabilistic family has unboundedly many match states; "
                         "sample it with sampled_rates instead")
    if M.monoid.is_abelian:
        entries = _abelian_entries(M, s_values, r_max, budget)
    else:
        entries = _free_entries(_match_state_worsts(M, budget), s_values, r_max)
    if spec is None:
        monoid = M.monoid
        spec = FamilySpec("finite", monoid, r_max, words=())
    return ExpansionProfile(spec, entries)


def expansion_function(
    M: MacroSet | LazyFreeMacroSet,
    s: int,
    r_max: int,
    budget: int = DEFAULT_BUDGET,
) -> ExpansionValue:
    """f(s): the largest r with every length-<=r word writable in at most s tokens."""
    profile = expansion_profile(M, [s], r_max, budget=budget)
    return profile.entries[s]


class BoundRow(NamedTuple):
    s: int
    lower: float | None
    measured: ExpansionValue
    upper: float | None
    passed: bool
    note: str = ""


class BoundReport(NamedTuple):
    regime: str
    params: str
    rows: list[BoundRow]
    constants: dict[str, float]

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _check_row(s: int, v: ExpansionValue, lower: float | None, upper: float | None,
               note: str = "") -> BoundRow:
    if v.exact:
        ok = (lower is None or lower <= v.value) and (upper is None or v.value <= upper)
    else:
        # f >= v.value is certified; the lower bound is confirmed when the scan
        # reached it, the upper bound fails only when already contradicted.
        ok = (lower is None or v.value >= lower) and (upper is None or v.value <= upper)
        note = (note + "; " if note else "") + "lower bound certificate only"
    return BoundRow(s, lower, v, upper, ok, note)


def _or_inf(bound: Callable[[], float]) -> float:
    """The bound, or inf where it lies past the float range."""
    try:
        return bound()
    except OverflowError:
        return math.inf


def smallest_linear_slope(n: int, c: float, p: float) -> int:
    """Smallest integer d >= 3 with n**d > 4e(n + c) d**(p+1)."""
    d = 3
    while n**d <= 4 * math.e * (n + c) * d ** (p + 1):
        d += 1
    return d


def verify_bounds(profile: ExpansionProfile, spec: FamilySpec | None = None) -> BoundReport:
    """Check measured expansion values against the regime's predicted growth bounds."""
    spec = spec if spec is not None else profile.spec
    n = spec.monoid.n
    report = BoundReport(spec.regime, _params_str(spec), [], {})

    if spec.regime == "place":
        b = spec.b
        denom = n * (b - 1)
        for s, v in sorted(profile.entries.items()):
            lower = _or_inf(lambda: b ** (s / denom - 1))
            upper = _or_inf(lambda: n * b * b ** (s / denom))
            report.rows.append(_check_row(s, v, lower, upper))
        return report

    if spec.regime == "waring":
        k = spec.k
        need = POWER_SUM_COUNTS.get(k)
        threshold = None if need is None else n * need
        for s, v in sorted(profile.entries.items()):
            if threshold is not None and s >= threshold:
                if v.exact:
                    report.rows.append(BoundRow(
                        s, None, v, None, False,
                        f"expected unbounded at s >= {threshold}, but spheres escape"))
                else:
                    report.rows.append(BoundRow(
                        s, float(v.value), v, None, True,
                        f"unbounded claim holds through radius {v.value}"))
            else:
                report.rows.append(_check_row(s, v, float(s), None))
        if threshold is not None:
            report.constants["unbounded_from_s"] = float(threshold)
        return report

    if spec.regime == "double_log":
        b = spec.b
        e_low = b / (b - 1)
        e_high = (2 * b - 1) / (b - 1)
        exact = [(s, v.value) for s, v in sorted(profile.entries.items()) if v.exact]
        if exact:
            c1 = min(val / s**e_low for s, val in exact)
            c2 = max(val / s**e_high for s, val in exact)
        else:
            c1 = c2 = float("nan")
        report.constants["c1"] = c1
        report.constants["c2"] = c2
        report.constants["exponent_low"] = e_low
        report.constants["exponent_high"] = e_high
        for s, v in sorted(profile.entries.items()):
            if v.exact:
                report.rows.append(_check_row(s, v, c1 * s**e_low, c2 * s**e_high))
            else:
                report.rows.append(_check_row(s, v, c1 * s**e_low, None))
        return report

    if spec.regime == "finite":
        top = max((w.g_length() for w in spec.words), default=1)
        for s, v in sorted(profile.entries.items()):
            report.rows.append(_check_row(s, v, float(s), float(s * top)))
        report.constants["max_macro_length"] = float(top)
        return report

    if spec.regime == "poly_free":
        d = smallest_linear_slope(n, spec.c, spec.p)
        report.constants["d"] = float(d)
        for s, v in sorted(profile.entries.items()):
            if v.exact:
                ok = float(s) <= v.value < d * s
                report.rows.append(BoundRow(s, float(s), v, d * s - 1, ok))
            else:
                ok = v.value < d * s
                report.rows.append(BoundRow(
                    s, float(s), v, d * s - 1, ok, "lower bound certificate only"))
        return report

    raise ValueError(
        f"no desk-scale bound check for regime {spec.regime!r}; "
        "use the sampling reports instead"
    )


def quasi_exponential_upper_report(
    profile: ExpansionProfile, q: float, n: int
) -> BoundReport:
    """For polylog macro densities c(log(e+r))^q: check f(s) <= exp(K s ln s).

    K is fitted over the measured values subject to the floor K > 2q/n the
    prediction requires; the report records the fitted constant.
    """
    floor = 2 * q / n
    exact = [(s, v.value) for s, v in sorted(profile.entries.items()) if v.exact and s >= 2]
    fitted = floor * (1 + 1e-9)
    for s, val in exact:
        if val >= 1:
            fitted = max(fitted, math.log(val) / (s * math.log(s)))
    report = BoundReport("quasi_exponential_upper", f"q={q} n={n}", [], {})
    report.constants["K"] = fitted
    report.constants["K_floor"] = floor
    for s, v in sorted(profile.entries.items()):
        if s < 2:
            continue
        upper = _or_inf(lambda: math.exp(fitted * s * math.log(s)))
        report.rows.append(_check_row(s, v, None, upper))
    return report


# --- probabilistic-regime sampling machinery ---


class HalvingFailure(Exception):
    """No qualifying macro in the window at some parse level."""

    def __init__(self, letters: tuple[int, ...]):
        super().__init__(f"no window macro covers half of a length-{len(letters)} word")
        self.letters = letters


def halving_window(C: float, r: int) -> int:
    """Prefix window k(r) = ceil(C ln(e + r)), capped at r: the starts a
    halving macro of a length-r word may take.  A length-r word has no more
    than r starts, and the cap keeps a huge C (whose product overflows to
    inf) from reaching `math.ceil`."""
    k = C * math.log(math.e + r)
    return math.ceil(k) if k < r else r


def find_halving_macro(letters: tuple[int, ...], M: LazyFreeMacroSet) -> tuple[int, int] | None:
    """First (start, length) with start <= k(r), length >= ceil(r/2), and the
    substring a macro; start is 1-based, and k(r) is the window of the
    family's C.  Scans starts ascending, lengths descending, so the result is
    deterministic.

    Membership needs each candidate's minimal period only to ask whether it
    is at most B ln(e + length), which is at most cap = B ln(e + r).  The
    minimal period of a prefix never exceeds that of a longer one, so a
    failure-function pass over the first 2 * cap letters of a start (the
    window) decides every longer candidate exactly when the window's period
    is past cap: none of them is log-periodic, and the window's period
    stands in for theirs.  Only when the window's period is within cap does
    the pass run over the whole suffix."""
    r = len(letters)
    if r == 0:
        return None
    k = halving_window(M.big_c, r)
    half = (r + 1) // 2
    cap = M.big_b * math.log(math.e + r)
    # the whole word when the window would not be shorter (B infinite or NaN too)
    window = max(math.ceil(2 * cap), 1) if 2 * cap < r else r
    for start in range(1, min(k, r) + 1):
        lengths = range(r - start + 1, max(half, 2) - 1, -1)
        if lengths:
            periods = prefix_periods(letters[start - 1 : start - 1 + window])
            if periods[-1] <= cap and len(periods) < r - start + 1:
                periods = prefix_periods(letters, start - 1)
        for length in lengths:
            sub = letters[start - 1 : start - 1 + length]
            if M.contains_letters(sub, periods[min(length, len(periods)) - 1]):
                return start, length
    return None


def word_str(letters: tuple[int, ...]) -> str:
    return "".join(_ALPHABET[a] for a in letters)


def letters_of_str(s: str) -> tuple[int, ...]:
    for ch in s:
        if ch not in _ALPHABET:
            raise ValueError(f"unknown letter {ch!r}: free-monoid words are spelled with a-z")
    return tuple(_ALPHABET.index(ch) for ch in s)


def recursive_parse_free(w: Word | tuple[int, ...], M: LazyFreeMacroSet) -> tuple[list[str], int]:
    """Greedy parse: repeatedly spell up to the first window macro covering at
    least half the remainder, then recurse on the suffix.

    Returns (tokens, token count); tokens are letter strings whose
    concatenation is exactly the input word.  Raises HalvingFailure when some
    level has no qualifying macro and the remainder is too long to spell out.
    """
    if M.monoid.n > len(_ALPHABET):
        raise ValueError("letter tokens support up to 26 generators")
    pieces, _, stuck = _greedy_parse(w.data if isinstance(w, Word) else tuple(w), M)
    if stuck is not None:
        raise HalvingFailure(stuck)
    return [word_str(piece) for piece in pieces], len(pieces)


def _greedy_parse(letters: tuple[int, ...], M: LazyFreeMacroSet):
    """The parse of `recursive_parse_free` as (pieces, first, stuck): the
    tokens as letter tuples, `find_halving_macro` of the whole word, and the
    remainder the parse failed on (None if it did not fail)."""
    pieces: list[tuple[int, ...]] = []
    first = None
    rest = letters
    while rest:
        r = len(rest)
        k = halving_window(M.big_c, r)
        if r == 1:
            pieces.append(rest)
            break
        # With k >= 1 the window search tries the whole word first, as (1, r).
        if k < 1 and M.contains_letters(rest):
            pieces.append(rest)
            break
        hit = find_halving_macro(rest, M)
        if r == len(letters):
            first = hit
        if hit is None:
            if r <= k:
                pieces.extend((a,) for a in rest)
                break
            return pieces, first, rest
        start, length = hit
        pieces.extend((a,) for a in rest[: start - 1])
        pieces.append(rest[start - 1 : start - 1 + length])
        rest = rest[start - 1 + length :]
    return pieces, first, None


def sample_words(n: int, length: int, count: int, seed: int) -> list[tuple[int, ...]]:
    """The first `count` words of `families.seeded_words(n, length, seed,
    b"sample_words")`: uniform random words, one blake2b stream per (seed,
    length)."""
    return list(itertools.islice(seeded_words(n, length, seed, b"sample_words"), count))


class SampledRates(NamedTuple):
    r: int
    trials: int
    halving_successes: int
    parse_counts: list[int]
    parse_failures: int

    @property
    def halving_rate(self) -> float:
        return self.halving_successes / self.trials


def sampled_rates(M: LazyFreeMacroSet, r: int, trials: int, seed: int) -> SampledRates:
    """Halving success rate and greedy parse token counts over random words."""
    if r < 2 or trials < 1:  # the parse constant divides by (ln r)^2, the rate by trials
        raise ValueError(f"sampled rates need r >= 2 and trials >= 1, got r={r}, trials={trials}")
    words = sample_words(M.monoid.n, r, trials, seed)
    successes = 0
    counts: list[int] = []
    failures = 0
    for letters in words:
        # The parse's first level is the halving check of the whole word.
        pieces, first, stuck = _greedy_parse(letters, M)
        successes += first is not None
        if stuck is None:
            counts.append(len(pieces))
        else:
            failures += 1
    return SampledRates(r, trials, successes, counts, failures)


def fit_parse_constant(rates: list[SampledRates]) -> float:
    """Smallest K with every observed token count <= K (ln r)^2."""
    best = 0.0
    for sr in rates:
        scale = math.log(sr.r) ** 2
        for count in sr.parse_counts:
            best = max(best, count / scale)
    return best


def _params_str(spec: FamilySpec) -> str:
    parts = [f"n={spec.monoid.n}", f"monoid={spec.monoid.kind.value}", f"r_max={spec.r_max}"]
    for key in ("b", "k", "c", "p", "big_b", "big_c", "seed"):
        val = getattr(spec, key)
        if val is not None:
            parts.append(f"{key}={val}")
    if spec.regime == "finite" and spec.words is not None:
        parts.append(f"words={len(spec.words)}")
    return " ".join(parts)
