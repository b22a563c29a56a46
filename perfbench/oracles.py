"""Reference answers the benchmark checks macrolab's outputs against.

These are written from the definitions, not from macrolab's code: plain
dynamic programs, brute force over small tables, and closed forms where the
family has one.  They run once per benchmark run, outside the timed passes.
"""

from __future__ import annotations

import itertools

# --- free monoid ---


def lex_family(c: float, p: float, n: int, r_max: int) -> list[tuple[int, ...]]:
    """The polynomial-density family: the floor(c * L**p) lexicographically
    smallest words of each length 2 <= L <= r_max (all of them if fewer)."""
    out = []
    for length in range(2, r_max + 1):
        count = min(int(c * length**p), n**length)
        for code in range(count):
            digits = []
            for _ in range(length):
                code, d = divmod(code, n)
                digits.append(d)
            out.append(tuple(reversed(digits)))
    return out


def poly_free_value(c: float, p: float, n: int, r_max: int, s: int) -> tuple[str, int]:
    """f(s) for the polynomial-density family, from one witness word.

    Every word of length <= s is spelled by its letters, so f(s) >= s.  The
    lexicographically smallest words never start with the last letter while
    c * L**p < (n - 1) * n**(L - 1), so s + 1 copies of that letter match no
    macro, need s + 1 parts, and f(s) = s.
    """
    if s + 1 > r_max:
        return ("at_least", r_max)
    witness = (n - 1,) * (s + 1)
    if free_wrapped_lengths([witness], lex_family(c, p, n, s + 1)) != [s + 1]:
        raise ValueError("the witness word has a macro; this family needs a sphere scan")
    return ("exact", s)


def _trie(macros: list[tuple[int, ...]]) -> dict:
    root: dict = {}
    for i, word in enumerate(macros):
        node = root
        for a in word:
            node = node.setdefault(a, {})
        node[None] = i
    return root


def _segment(word: tuple[int, ...], trie: dict, depth_of: list[int] | None,
             exclude: int | None = None) -> tuple[int, int]:
    """Fewest pieces (letters or macros) spelling `word`, and among those
    spellings the smallest largest macro depth (0 = letters only)."""
    L = len(word)
    INF = (L + 1, 0)
    best = [INF] * (L + 1)
    best[0] = (0, 0)
    for j in range(L):
        count, score = best[j]
        nxt = (count + 1, score)
        if nxt < best[j + 1]:
            best[j + 1] = nxt
        node = trie
        for end in range(j, L):
            node = node.get(word[end])
            if node is None:
                break
            idx = node.get(None)
            if idx is None or idx == exclude:
                continue
            d = depth_of[idx] if depth_of is not None else 0
            cand = (count + 1, max(score, d))
            if cand < best[end + 1]:
                best[end + 1] = cand
    return best[L]


def free_wrapped_lengths(words: list[tuple[int, ...]], macros: list[tuple[int, ...]]) -> list[int]:
    """g'(w) for each word: the shortest segmentation into letters and macros."""
    trie = _trie(macros)
    return [_segment(w, trie, None)[0] for w in words]


def free_depths(words: list[tuple[int, ...]], macros: list[tuple[int, ...]]) -> list[int]:
    """Nesting depth of each word's optimal representation.

    A macro's depth is 1 plus the smallest possible largest depth among the
    macros in a shortest spelling of its definition without itself; letters
    sit at depth 0.  Shorter macros are settled first, since a shortest
    spelling never uses a macro as long as the word it spells.
    """
    trie = _trie(macros)
    depth_of = [0] * len(macros)
    for idx in sorted(range(len(macros)), key=lambda i: len(macros[i])):
        depth_of[idx] = 1 + _segment(macros[idx], trie, depth_of, exclude=idx)[1]
    index = {m: i for i, m in enumerate(macros)}
    out = []
    for w in words:
        if len(w) <= 1:
            out.append(0)
            continue
        out.append(1 + _segment(w, trie, depth_of, exclude=index.get(w))[1])
    return out


# --- free abelian monoid, families whose macros each lie on one axis ---


def coin_table(coins: list[int], top: int) -> tuple[list[int], list[int]]:
    """For every x in 0..top: the fewest parts from {1} + coins summing to x,
    and among those sums the smallest largest coin depth (1 counts 0).

    A coin's depth is 1 plus that score for its own value without itself,
    so coins are settled in increasing order.
    """
    coins = sorted(set(c for c in coins if 2 <= c <= top))
    depth: dict[int, int] = {}

    def solve(limit: int, usable: list[int]) -> tuple[list[int], list[int]]:
        count = list(range(limit + 1))
        score = [0] * (limit + 1)
        for x in range(2, limit + 1):
            for c in usable:
                if c > x:
                    break
                cand = (count[x - c] + 1, max(score[x - c], depth[c]))
                if cand < (count[x], score[x]):
                    count[x], score[x] = cand
        return count, score

    for i, c in enumerate(coins):
        _, score = solve(c, coins[:i])
        depth[c] = 1 + score[c]
    return solve(top, coins)


def axis_profile(
    coins: list[int], n: int, r_max: int, s_values: list[int]
) -> dict[int, tuple[str, int]]:
    """Expansion values f(s) = (largest r with every |w| <= r spelled in <= s
    parts) for n axes sharing one coin system; ("at_least", r_max) when no
    vector within radius r_max needs more than s parts."""
    count, _ = coin_table(coins, r_max)
    # cheapest[v]: smallest x on one axis needing at least v parts
    cheapest: dict[int, int] = {0: 0}
    for x in range(r_max, 0, -1):
        for v in range(1, count[x] + 1):
            cheapest[v] = x
    INF = float("inf")
    out = {}
    for s in s_values:
        # smallest radius of a vector needing > s parts, axes chosen independently
        best = INF
        for parts in itertools.product(sorted(cheapest), repeat=n):
            if sum(parts) >= s + 1:
                best = min(best, sum(cheapest[v] for v in parts))
        out[s] = ("exact", best - 1) if best <= r_max else ("at_least", r_max)
    return out


def axis_wrapped_length(coins: list[int], vector: list[int]) -> int:
    count, _ = coin_table(coins, max(vector))
    return sum(count[x] for x in vector)


def axis_depth(coins: list[int], vector: list[int]) -> int:
    """Depth of a vector that is not itself a macro: 1 plus the largest
    per-axis score, since every axis can be spelled on its own."""
    _, score = coin_table(coins, max(vector))
    return 1 + max(score[x] for x in vector)


# --- dependency graphs ---


def unwrapped_lengths(refs: dict[str, dict[str, int]]) -> dict[str, int]:
    """Exact expanded length of every name in an acyclic reference map:
    1 for a name that references nothing, else the weighted sum over its
    references.  Names only referenced count as sinks."""
    value: dict[str, int] = {}
    for root in refs:
        stack = [root]
        while stack:
            name = stack[-1]
            if name in value:
                stack.pop()
                continue
            targets = refs.get(name, {})
            pending = [t for t in targets if t not in value]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            value[name] = sum(w * value[t] for t, w in targets.items()) if targets else 1
    return value
