"""Words, macro sets, and exact minimal-representation lengths.

Two ambient monoids are supported: the free abelian monoid on n generators
(words are multiplicity vectors) and the free monoid on n generators (words
are letter sequences).  A macro set adjoins named shorthands for longer
words; the central quantity is the minimal number of generators-plus-macros
needed to write a word.

Neither monoid loads numpy: abelian point sets are Python-int bitsets.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import cached_property
from typing import NamedTuple

# Lattice points of one abelian lattice, or (match state, letter) transitions
# of a free profile.
DEFAULT_BUDGET = 10**7


class Kind(Enum):
    FREE_ABELIAN = "abelian"
    FREE = "free"


class _MonoidKind(NamedTuple):
    kind: Kind
    n: int


class MonoidKind(_MonoidKind):
    __slots__ = ()

    def __new__(cls, kind: Kind, n: int) -> MonoidKind:
        if n < 1:
            raise ValueError(f"need at least one generator, got n={n}")
        return tuple.__new__(cls, (kind, n))

    @property
    def is_abelian(self) -> bool:
        return self.kind is Kind.FREE_ABELIAN


def abelian(n: int) -> MonoidKind:
    return MonoidKind(Kind.FREE_ABELIAN, n)


def free(n: int) -> MonoidKind:
    return MonoidKind(Kind.FREE, n)


class _Word(NamedTuple):
    monoid: MonoidKind
    data: tuple[int, ...]


class Word(_Word):
    """A monoid element: multiplicities if abelian, letters if free."""

    __slots__ = ()

    def __new__(cls, monoid: MonoidKind, data: tuple[int, ...]) -> Word:
        if monoid.is_abelian:
            if len(data) != monoid.n:
                raise ValueError(f"expected {monoid.n} multiplicities, got {len(data)}")
            if min(data) < 0:
                raise ValueError("multiplicities must be non-negative")
        elif data and (min(data) < 0 or max(data) >= monoid.n):
            raise ValueError(f"letters must lie in [0, {monoid.n})")
        return tuple.__new__(cls, (monoid, data))

    @staticmethod
    def from_multiplicities(mults: tuple[int, ...] | list[int], n: int | None = None) -> Word:
        mults = tuple(mults)
        return Word(abelian(n if n is not None else len(mults)), mults)

    def g_length(self) -> int:
        if self.monoid.is_abelian:
            return sum(self.data)
        return len(self.data)

    def is_identity(self) -> bool:
        return self.g_length() == 0


def ball_size(monoid: MonoidKind, r: int) -> int:
    """Exact number of words of length at most r."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    n = monoid.n
    if monoid.is_abelian:
        return math.comb(r + n, n)
    if n == 1:
        return r + 1
    return (n ** (r + 1) - 1) // (n - 1)


class _Macro(NamedTuple):
    name: str
    definition: Word


class Macro(_Macro):
    """A named shorthand for a word of primitive length at least 2."""

    __slots__ = ()

    def __new__(cls, name: str, definition: Word) -> Macro:
        if definition.g_length() < 2:
            raise ValueError(
                f"macro {name!r} has length {definition.g_length()}; "
                "a length-1 macro duplicates a primitive"
            )
        return tuple.__new__(cls, (name, definition))


def _reject(monoid: MonoidKind, macros: tuple[Macro, ...]) -> None:
    """Raise for the first macro that lives in another monoid or repeats a
    name or a definition, as `MacroSet` reads them in order."""
    seen_names: set[str] = set()
    seen_defs: set[tuple[int, ...]] = set()
    for m in macros:
        if m.definition.monoid != monoid:
            raise ValueError(f"macro {m.name!r} lives in a different monoid")
        if m.name in seen_names:
            raise ValueError(f"duplicate macro name {m.name!r}")
        if m.definition.data in seen_defs:
            raise ValueError(f"duplicate macro definition for {m.name!r}")
        seen_names.add(m.name)
        seen_defs.add(m.definition.data)


_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")


def _word_name(w, n: int) -> str:
    """The name of a generated free word: "w" and its letters' digits,
    joined by "_" past 10 letters, where "w010" could be (0, 10) or (0, 1, 0)."""
    if isinstance(w, bytes) and n <= 10:
        return "w" + w.translate(_DIGITS).decode()
    return "w" + ("_" if n > 10 else "").join(map(str, w))


def _generated(words: list, n: int) -> bool:
    """Whether each word has at least two letters, all in [0, n), and comes
    after the one before it in (length, letters) order."""
    inside = bytes(range(min(n, 256)))  # deleted from a bytes word, its letters in [0, n)
    last = (0, None)
    for w in words:
        if len(w) < 2 or (w.translate(None, inside) if isinstance(w, bytes)
                          else min(w) < 0 or max(w) >= n):
            return False
        key = len(w), w
        if key <= last:
            return False
        last = key
    return True


class MacroSet:
    """An ordered collection of macros over one ambient monoid.

    A set built from `Macro` objects builds its name and definition indexes
    first; only when one of them came out short, or some macro lives in
    another monoid, are the macros read again one by one to name the first
    offender.  A free set built from generated words (`from_words`) keeps
    only their letters, as bytes (tuples of ints past 256 letters), and
    builds its `Macro` objects and both indexes the first time `macros`,
    `find`, `macro_for_word` or iteration reads them; `len` and `trie` read
    the letters alone, and the trie names only the states that end a
    definition."""

    def __init__(self, monoid: MonoidKind, macros: list[Macro] | tuple[Macro, ...] = ()):
        self.macros = tuple(macros)  # fills in the cached property
        self._start(monoid, [m.definition.data for m in self.macros], False)
        if (len(self._by_name) < len(self.macros) or len(self._by_def) < len(self.macros)
                or any(m.definition.monoid is not monoid and m.definition.monoid != monoid
                       for m in self.macros)):
            _reject(monoid, self.macros)

    @classmethod
    def from_words(cls, monoid: MonoidKind, words: list) -> MacroSet:
        """The free set of macros named by `_word_name` for generated words,
        each bytes or a tuple of ints, checked in bulk.

        Generated words come in (length, letters) order, so they are
        distinct when that order is strict.  When it is, and every word has
        at least two letters, all in [0, n), no check of `Word`, `Macro` or
        the set can fail, and the words are kept as they are; otherwise the
        set is built from checked `Macro` objects, which raise their usual
        errors."""
        n = monoid.n
        if not _generated(words, n):
            return cls(monoid, [Macro(_word_name(w, n), Word(monoid, tuple(w))) for w in words])
        M = cls.__new__(cls)
        M._start(monoid, words, True)
        return M

    def _start(self, monoid: MonoidKind, defs: list, words: bool) -> None:
        self.monoid = monoid
        self._defs = defs  # the definitions' letters, in order
        self._words = words  # named by `_word_name`, or else by their macros
        self._automaton: Automaton | None = None
        self._front: tuple[list, list[int]] = ([], [])  # what `Automaton.grow` reads next
        self._depths: dict[str, int] = {}  # macro name -> depth, as far as filled in

    @cached_property
    def macros(self) -> tuple[Macro, ...]:
        new, n = tuple.__new__, self.monoid.n
        return tuple(new(Macro, (_word_name(w, n), new(Word, (self.monoid, tuple(w)))))
                     for w in self._defs)

    @cached_property
    def _by_name(self) -> dict[str, Macro]:
        return {m.name: m for m in self.macros}

    @cached_property
    def _by_def(self) -> dict[tuple[int, ...], Macro]:
        return {m.definition.data: m for m in self.macros}

    def __len__(self) -> int:
        return len(self._defs)

    def __iter__(self):
        return iter(self.macros)

    def find(self, name: str) -> Macro | None:
        return self._by_name.get(name)

    def macro_for_word(self, w: Word) -> Macro | None:
        return self._by_def.get(w.data)

    def _name(self, w) -> str:
        """The name of definition w."""
        return _word_name(w, self.monoid.n) if self._words else self._by_def[w].name

    def trie(self, depth: int | None = None) -> Automaton:
        """The trie of the free-monoid definitions, grown in layers until it
        holds every prefix of length <= `depth` (every prefix when None).

        Each call grows the same table further, one `Automaton.grow` per
        layer, so a reader that goes one letter deeper at a time pays only
        for the layers it reaches; `automaton` grows it to the end and then
        completes it in place.  A layer names only the states that end a
        definition, so a set built from words builds no `Macro` for it."""
        if self.monoid.is_abelian:
            raise ValueError("automata index free-monoid macro sets only")
        if self._automaton is None:
            self._automaton = Automaton([0] * self.monoid.n, [0], [None], [])
            self._front = self._defs, [0] * len(self._defs)
        a = self._automaton
        while self._front[0] and (depth is None or a.depth[-1] < depth):
            self._front = a.grow(*self._front, self._name)
        return a

    def automaton(self) -> Automaton:
        """Aho-Corasick automaton over the free-monoid definitions, completed once."""
        return self.trie().complete()


class Automaton(NamedTuple):
    """Aho-Corasick automaton of a free-monoid macro set (Aho & Corasick 1975).

    States are the prefixes of the macro definitions, numbered shortest
    first, and within one length in the order of the first macro that
    extends them; state 0 is the empty prefix.  All four tables are flat
    lists: goto[s * n + a] is the state after reading letter a in state s
    (the longest suffix of that word which is a prefix), so the failure
    links are folded in; depth[s] is the length of state s; name[s] is the
    macro state s spells, or None; out[s] is the longest proper suffix state
    of s that spells a macro, or 0 if none does.  As `segment_free` reads
    them, depth, name and out are the lengths, names and next links of the
    matches, and `heads` gives the first match ending at each position.

    It is built in two steps.  The trie comes first, one layer of states at
    a time (`grow`): each layer sets depth, name and the trie edges of goto
    into it (0 where there is none) and leaves out empty.  States never move
    once numbered, so a walk along definitions can read the trie while it is
    still growing, as far as it has grown.  `complete` then folds the
    failure links into goto and fills out, in place and only once, after
    the last layer; `MacroSet.automaton` does both.
    """

    goto: list[int]
    depth: list[int]
    name: list[str | None]
    out: list[int]

    def grow(self, words: list, states: list[int], name_of) -> tuple[list, list[int]]:
        """Add the next layer of trie states, at depth d one past the deepest.

        `words` are the definitions longer than d - 1, in macro set order,
        and states[i] is the state spelling the first d - 1 letters of
        words[i]; `name_of` gives a definition's name, and is asked only for
        the definitions this layer ends.  Returns the same pair for the
        definitions longer than d, for the next layer."""
        goto, depth, name, _ = self
        n = len(goto) // len(depth)
        d = depth[-1] + 1
        row = [0] * n
        longer, reached = [], []
        for w, s in zip(words, states):
            i = s * n + w[d - 1]
            t = goto[i]
            if not t:  # a new prefix; the root is no one's child
                t = goto[i] = len(depth)
                goto += row
                depth.append(d)
                name.append(None)
            if len(w) > d:
                longer.append(w)
                reached.append(t)
            else:
                name[t] = name_of(w)
        return longer, reached

    def complete(self) -> Automaton:
        """Fold the failure links into goto and fill out, unless done already."""
        goto, _, name, out = self
        if not out:
            n = len(goto) // len(name)
            fail = [0] * len(name)
            out += [0] * len(name)
            # Shortest first: the failure state of s is shorter, so its row is complete.
            for s in range(len(name)):
                f = fail[s]
                out[s] = f if name[f] is not None else out[f]
                for a in range(n):
                    t = goto[s * n + a]
                    if t:  # a trie edge; state 0 is no one's child
                        fail[t] = goto[f * n + a] if s else 0
                    else:
                        goto[s * n + a] = goto[f * n + a]
        return self

    def heads(self, letters: tuple[int, ...]):
        """For i = 1, 2, ..., len(letters): the longest macro spelling a suffix
        of letters[:i], as a state (0 if none); its output links list the rest."""
        goto, _, name, out = self
        n = len(goto) // len(name)
        s = 0
        for a in letters:
            s = goto[s * n + a]
            yield s if name[s] is not None else out[s]


class LatticeBudgetError(Exception):
    """The abelian lattice box would exceed its lattice-point budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(f"DP needs {required} lattice points, budget is {budget}")
        self.required = required
        self.budget = budget


def _abelian_generators(
    M: MacroSet, bound: tuple[int, ...], exclude: str | None
) -> list[tuple[tuple[int, ...], str | None]]:
    """Generator vectors dominated by `bound`, paired with macro names (None = primitive)."""
    n = len(bound)
    gens: list[tuple[tuple[int, ...], str | None]] = []
    for i in range(n):
        if bound[i] >= 1:
            unit = tuple(1 if j == i else 0 for j in range(n))
            gens.append((unit, None))
    for m in M:
        if m.name == exclude:
            continue
        v = m.definition.data
        if all(a <= b for a, b in zip(v, bound)):
            gens.append((v, m.name))
    return gens


def _split_axes(gens: list[tuple[tuple[int, ...], str | None]], n: int):
    """Per-axis 1-D generators ((a,), name) when every vector has exactly one
    nonzero coordinate a, or None when some vector spans two axes."""
    axes: list[list[tuple[tuple[int, ...], str | None]]] = [[] for _ in range(n)]
    for v, name in gens:
        nonzero = [i for i, a in enumerate(v) if a]
        if len(nonzero) != 1:
            return None
        axes[nonzero[0]].append(((v[nonzero[0]],), name))
    return axes


class AbelianLattice:
    """Layered reachability over the lattice points p <= bound, on Python ints.

    A point set is a Python int used as a bitset, one bit per point, so a
    layer is a shift-OR over whole machine words (the bit-parallel shift-or
    of Baeza-Yates & Gonnet 1992).  Point p sits at bit
    lead(p) * width + inner(p), where inner(p) is the row-major index of p on
    every axis but one of largest bound, `top`, and width is the number of
    inner indices.  Without a cap the lead is p_top, so the bits are exactly
    the box dominated by `bound`.  With a cap the lead is the radius |p| and
    the bits hold the points with |p| <= cap, radius-major: the low
    (R + 1) * width bits are exactly the points of radius at most R.  Either
    lead is linear, so a vector v is a fixed shift, bit(v); bits past the
    last lead are dropped, and a source point is masked only on the inner
    axes where a shift could carry past the bound.  Raises
    LatticeBudgetError, before allocating anything, if the box dominated by
    `bound` exceeds `budget` points.
    """

    def __init__(self, bound: tuple[int, ...], vecs: list[tuple[int, ...]], budget: int,
                 cap: int | None = None):
        size = math.prod(b + 1 for b in bound)
        if size > budget:
            raise LatticeBudgetError(size, budget)
        top = bound.index(max(bound))
        self.stride = [0] * len(bound)
        self.width = 1
        for i in reversed(range(len(bound))):
            if i != top:
                self.stride[i] = self.width
                self.width *= bound[i] + 1
        # The lead coordinate is |p| below a cap, or else p_top within the box.
        self.weight = [s + self.width * (cap is not None or i == top)
                       for i, s in enumerate(self.stride)]
        self.full = (1 << ((bound[top] if cap is None else cap) + 1) * self.width) - 1
        masks: dict[tuple[int, int], int] = {}
        self.shifts = []
        for v in vecs:
            mask = self.full
            for i, a in enumerate(v):
                # Under a cap, a source p with |p + v| <= cap has p_i <= cap - |v|.
                if i != top and a and (cap is None or cap - sum(v) + a > bound[i]):
                    if (i, a) not in masks:
                        masks[i, a] = self._axis_mask(i, bound[i] - a, bound[i] + 1)
                    mask &= masks[i, a]
            self.shifts.append((self.bit(v), None if mask == self.full else mask))

    def _axis_mask(self, i: int, limit: int, side: int) -> int:
        """The bits whose coordinate on inner axis i is at most `limit`."""
        mask = (1 << self.stride[i] * (limit + 1)) - 1
        period = self.stride[i] * side
        while period < self.full.bit_length():  # doubling the repeated pattern
            mask |= mask << period
            period *= 2
        return mask & self.full

    def bit(self, p: tuple[int, ...]) -> int:
        return sum(a * w for a, w in zip(p, self.weight))

    def _spread(self, x: int, shifts) -> int:
        out = 0
        for off, mask in shifts:
            out |= (x if mask is None else x & mask) << off
        return out & self.full

    def layers(self, depths: list[int] | None = None):
        """Yield (frontier, reached, scored) for s = 1, 2, ...: the points first
        reached with exactly s of the vectors, all points reached with at most s,
        and, when `depths` gives each vector a depth, a dict from each distinct
        depth d, smallest first, to the frontier points that some s vectors of
        largest depth <= d reach (empty without `depths`).

        Only points of layer s - 1 feed layer s of `scored`: this is the
        threshold form of the smallest largest depth among the shortest
        representations.  A layer costs one shift per vector, and per vector
        of each depth level, over the whole point set, so finding g'(w) costs
        g'(w) x |box| x |vecs| bit operations.  A single-pass box DP costs only
        |box| x |vecs| steps, but each is a Python step, far slower on every
        box the commands and kernels use; it is kept in the tests, as the
        oracle this engine is checked against.  When every vector lies on one
        axis, callers build one 1-D lattice per axis instead, so the cost is
        g'_i x (w_i + 1) x |vecs_i| summed over the axes, not a product over
        the whole box.
        """
        levels = {d: [sh for sh, e in zip(self.shifts, depths) if e <= d]
                  for d in sorted(set(depths or ()))}
        scored = dict.fromkeys(levels, 1)  # the origin, bit 0, has depth 0
        reached = frontier = 1
        while True:
            frontier = self._spread(frontier, self.shifts)
            frontier = (frontier | reached) ^ reached
            reached |= frontier
            scored = {d: self._spread(x, levels[d]) & frontier for d, x in scored.items()}
            yield frontier, reached, scored


def segment_free(
    heads, length: list[int], name: list, nxt: list[int],
    exclude: str | None = None, depth: dict[str, int] | None = None,
) -> tuple[int, int]:
    """Shortest segmentation of a free-monoid word into letters and macros.

    The macro matches come as one linked list per end position: `heads`
    yields, for i = 1, 2, ... up to the word's length, the first match t
    spelling some letters[j:i] (0 if none); match t has length[t] letters and
    macro name name[t], and nxt[t] is the next match ending at i (0 ends the
    list).  `Automaton` is such a table.  Matches of macro `exclude` are
    skipped.  Returns (tokens, score): the fewest tokens, and, when `depth`
    maps macro names to depths, the smallest largest depth among the
    segmentations with that few tokens (0 when no macro is used or `depth` is
    None).

    Each position takes the lexicographic minimum of (tokens, score) over
    spelling its letter and every match ending there, so the order of a list
    does not matter.  The pair is kept as the one integer tokens * width +
    score; width exceeds every score, since a depth table of k macros holds
    no depth above k.
    """
    width = 1 if depth is None else len(depth) + 1
    key = [0]  # tokens * width + score of the best segmentation of letters[:i]
    i = 0
    for t in heads:
        best = key[i] + width
        i += 1
        while t:
            c = key[i - length[t]] + width
            if c < best and (exclude is None or name[t] != exclude):
                if depth is not None:
                    c += max(depth[name[t]] - c % width, 0)
                if c < best:
                    best = c
            t = nxt[t]
        key.append(best)
    return divmod(key[i], width)


def _check_monoid(w: Word, M: MacroSet) -> None:
    if M.monoid != w.monoid:
        raise ValueError("word and macro set live in different monoids")


def _best(
    w: Word, M: MacroSet, exclude: str | None, depth: dict[str, int] | None, budget: int
) -> tuple[int, int]:
    """(tokens, score) of the shortest representations of w over primitives
    plus the macros of M other than `exclude`.

    tokens is g'(w); score, when `depth` maps macro names to depths, is the
    smallest largest macro depth among those representations (0 when none
    uses a macro or `depth` is None).  Free words are segmented on the macro
    set's automaton.  For abelian words the answer is the first reachability
    layer of the box dominated by w that contains w (unbounded
    multi-dimensional coin change); with a depth table the same layers carry
    one bitset per depth level, and the score is the first level holding w.

    When every usable generator lies on one axis, a representation of w is
    one representation of w_i per axis, and it is shortest exactly when each
    of them is: so tokens is the sum, and score the largest, of the answers
    of one 1-D lattice per axis, each with the same `exclude` and `depth`.
    Each lattice is checked against `budget` as it is built: the box
    dominated by w, or for a separable set the w_i + 1 points of each axis.
    Raises LatticeBudgetError for the first one past the budget.
    """
    if not w.monoid.is_abelian:
        a = M.automaton()
        return segment_free(a.heads(w.data), a.depth, a.name, a.out, exclude, depth)
    if w.is_identity():
        return 0, 0
    gens = _abelian_generators(M, w.data, exclude)
    axes = _split_axes(gens, len(w.data))
    if axes is None:
        return _reach(w.data, gens, depth, budget)
    parts = [_reach((a,), g, depth, budget) for a, g in zip(w.data, axes) if a]
    return sum(t for t, _ in parts), max(d for _, d in parts)


def _reach(bound: tuple[int, ...], gens, depth: dict[str, int] | None,
           budget: int) -> tuple[int, int]:
    """(tokens, score) of `bound` itself on the lattice of the box it dominates."""
    lattice = AbelianLattice(bound, [v for v, _ in gens], budget)
    target = 1 << lattice.bit(bound)
    depths = None if depth is None else [0 if name is None else depth[name] for _, name in gens]
    for s, (frontier, _, scored) in enumerate(lattice.layers(depths), 1):
        if frontier & target:
            return s, next((d for d, x in scored.items() if x & target), 0)


def gprime_length(
    w: Word,
    M: MacroSet,
    exclude: str | None = None,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Minimal generator count for w over primitives plus macros (either monoid).

    `exclude` drops one macro by name (used for wrapped lengths); `budget`
    bounds each lattice an abelian word needs, as `_best` builds them.
    """
    _check_monoid(w, M)
    return _best(w, M, exclude, None, budget)[0]


def wrapped_length(m: Macro, M: MacroSet, budget: int = DEFAULT_BUDGET) -> int:
    """Minimal length of m's definition over the other generators (m itself excluded)."""
    return gprime_length(m.definition, M, exclude=m.name, budget=budget)


def _macro_depths(M: MacroSet, budget: int, bound: tuple[int, ...] | None = None) -> dict[str, int]:
    """The depth table of M, filled in at least for every macro whose
    definition `bound` dominates, which are the macros an abelian word with
    multiplicities `bound` can use (for every macro when `bound` is None).
    A free set's table is filled whole, once (`_free_macro_depths`), since
    its depths need no budget.

    A macro's minimal representation (itself excluded) only ever uses macros
    dominated by its definition and of strictly smaller length: an
    equal-length one would have to equal the definition, and definitions are
    unique.  So filling in the missing dominated macros in increasing length
    makes each depth depend only on known ones, and each of their lattices is
    no larger than the word's own: a fill raises LatticeBudgetError only when
    the word's own lattice exceeds `budget`, whatever was filled in before.
    """
    if not M.monoid.is_abelian:
        if len(M._depths) < len(M):
            M._depths.update(_free_macro_depths(M))
        return M._depths
    todo = [m for m in M if m.name not in M._depths
            and (bound is None or all(a <= b for a, b in zip(m.definition.data, bound)))]
    for m in sorted(todo, key=lambda m: (m.definition.g_length(), m.name)):
        M._depths[m.name] = 1 + _best(m.definition, M, m.name, M._depths, budget)[1]
    return M._depths


def _free_macro_depths(M: MacroSet) -> dict[str, int]:
    """`_macro_depths` of a free set, segmenting each trie prefix once.

    The definitions are walked through the automaton in (length, name)
    order, and the segmentation key of `segment_free` is kept for each trie
    state the first time a walk reaches it.  That key depends only on the
    prefix: its matches are macros no longer than it, whose depths are known
    by then, and a macro's own match, the one its depth must exclude, ends
    only at its last letter.  So each walk segments its new prefixes and its
    last position alone, and the cost is the matches per trie state rather
    than per letter of every definition.  Keys carry the width len(M) + 1,
    past any depth of the finished table.
    """
    goto, length, name, nxt = M.automaton()
    n, width = M.monoid.n, len(M) + 1
    memo = [-1] * len(length)  # trie state -> key of its prefix, once known
    memo[0] = 0
    depths: dict[str, int] = {}
    for m in sorted(M, key=lambda m: (len(m.definition.data), m.name)):
        letters = m.definition.data
        key = [0]
        s = 0
        for i, a in enumerate(letters, 1):
            s = goto[s * n + a]  # the definition's prefixes are states
            best = memo[s]
            if best < 0:
                best = key[-1] + width
                # at the last letter s is m itself, which its own depth excludes
                t = nxt[s] if i == len(letters) or name[s] is None else s
                while t:
                    c = key[i - length[t]] + width
                    if c < best:
                        c += max(depths[name[t]] - c % width, 0)
                        if c < best:
                            best = c
                    t = nxt[t]
                if i < len(letters):
                    memo[s] = best
            key.append(best)
        depths[m.name] = 1 + key[-1] % width
    return depths


def monoid_depth(
    x: Word | Macro,
    M: MacroSet,
    budget: int = DEFAULT_BUDGET,
) -> int:
    """Nesting depth of x's optimal representation over primitives plus macros.

    Primitives sit at depth 0.  Otherwise the depth is 1 plus the largest
    macro depth appearing in a minimal-length representation, where ties
    between minimal representations are broken toward the smallest depth.
    A word equal to some macro's definition is that macro, so the macro
    itself is excluded from its own representations.
    """
    if isinstance(x, Macro):
        word, exclude = x.definition, x.name
        member = M.find(x.name)
        if member is None or member.definition != x.definition:
            raise ValueError(f"macro {x.name!r} is not part of the macro set")
    else:
        word = x
        owner = M.macro_for_word(word)
        exclude = owner.name if owner is not None else None
    _check_monoid(word, M)
    if word.g_length() <= 1:
        return 0
    return 1 + _best(word, M, exclude, _macro_depths(M, budget, word.data), budget)[1]
