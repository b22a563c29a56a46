"""Seeded benchmark inputs, generated without macrolab's own code.

Everything here is a pure function of the workload seed, so a change to
macrolab (its `synth` module in particular) cannot change what the benchmark
feeds it.  Each generator keys its own `random.Random` stream by a string, so
adding a stream never shifts another one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def binary_words(seed: int, count: int, length: int) -> list[str]:
    """`count` uniform random words over {0, 1}, as strings of digits."""
    rng = _rng(seed, "binary-words")
    return [format(rng.getrandbits(length), f"0{length}b") for _ in range(count)]


def box_vector(seed: int, stream: str, lo: int, hi: int, n: int) -> list[int]:
    """A seeded vector in [lo, hi]^n whose coordinates sum to n * (lo + hi) / 2.

    Fixing the sum keeps the lattice box prod(w_i + 1), which sets the cost of
    the abelian DP, within a few percent of one size on every seed.
    """
    mid2 = lo + hi  # twice the midpoint, so odd widths stay integral
    if (n * mid2) % 2:
        raise ValueError("n * (lo + hi) must be even")
    rng = _rng(seed, stream)
    while True:
        head = [rng.randint(lo, hi) for _ in range(n - 1)]
        last = n * mid2 // 2 - sum(head)
        if lo <= last <= hi:
            return head + [last]


def scalar(seed: int, stream: str, lo: int, hi: int) -> int:
    return _rng(seed, stream).randint(lo, hi)


# --- corpus export ---

_KINDS = ("definition", "definition", "theorem", "theorem", "structure", "inductive")
_BINARY_TAGS = ("app", "app", "app", "forallE", "lam")
_UNARY_TAGS = ("mdata", "proj")
# Reference weights (1..5) skew small, as in real libraries: most names occur once.
_WEIGHTS = (1, 1, 1, 2, 2, 3, 4, 5)
MAX_FANOUT = 6
MAX_FILLERS = 2  # (other) leaves per expression, beyond the references
WINDOW = 2000


@dataclass
class ExportElement:
    """One generated corpus element and the references its expressions carry."""

    name: str
    kind: str
    sig_refs: dict[str, int] = field(default_factory=dict)
    body_refs: dict[str, int] | None = None
    tokens_sig: int = 1
    tokens_body: int | None = None


def _expr(rng: random.Random, refs: dict[str, int], sorts: int, fillers: int) -> tuple[str, int]:
    """A random expression tree holding exactly the given references.

    Returns the S-expression text and its node count (the token count the
    export records).
    """
    leaves = [f"(const {name})" for name, w in refs.items() for _ in range(w)]
    leaves += ["(sort)"] * sorts + ["(other)"] * fillers
    if not leaves:
        leaves = ["(other)"]
    rng.shuffle(leaves)
    nodes = len(leaves)
    while len(leaves) > 1:
        if len(leaves) > 2 and rng.random() < 0.1:
            i = rng.randrange(len(leaves) - 2)
            leaves[i : i + 3] = ["(letE " + " ".join(leaves[i : i + 3]) + ")"]
        else:
            i = rng.randrange(len(leaves) - 1)
            leaves[i : i + 2] = [f"({rng.choice(_BINARY_TAGS)} {leaves[i]} {leaves[i + 1]})"]
        nodes += 1
        if rng.random() < 0.1:
            k = rng.randrange(len(leaves))
            leaves[k] = f"({rng.choice(_UNARY_TAGS)} {leaves[k]})"
            nodes += 1
    return leaves[0], nodes


def corpus_export(
    seed: int, n_elements: int, n_primitives: int
) -> tuple[list[ExportElement], list[str]]:
    """A seeded random DAG in corpus form, with its JSONL lines.

    Element i references 1..MAX_FANOUT higher-indexed elements (the last
    `n_primitives` reference nothing), so the graph is acyclic: half the time
    anywhere above i, half the time within the next WINDOW, which gives the
    long dependency chains that make unwrapped lengths big integers.  Each
    reference carries a weight, realised as that many `(const NAME)`
    occurrences on the signature or body side; `(sort)` leaves add references
    to the single name "Sort".  Returns the elements and the export's lines
    (header first).
    """
    rng = _rng(seed, "corpus")
    pad = len(str(n_elements - 1))
    names = [f"e{i:0{pad}d}" for i in range(n_elements)]
    first_prim = n_elements - n_primitives
    elements: list[ExportElement] = []
    lines = [json.dumps({"format": "macrolab-corpus", "version": 1},
                        sort_keys=True, separators=(",", ":"))]
    for i, name in enumerate(names):
        if i >= first_prim:
            el = ExportElement(name, "primitive")
            sig_text, body_text = "(other)", None
        else:
            kind = rng.choice(_KINDS)
            has_body = rng.random() < 0.8
            k = rng.randint(1, MAX_FANOUT)
            hi = n_elements if rng.random() < 0.5 else min(n_elements, i + 1 + WINDOW)
            targets = rng.sample(range(i + 1, hi), min(k, hi - i - 1))
            sig: dict[str, int] = {}
            body: dict[str, int] = {}
            for t in sorted(targets):
                side = body if has_body and rng.random() < 0.5 else sig
                side[names[t]] = rng.choice(_WEIGHTS)
            sig_sorts = 1 if rng.random() < 0.3 else 0
            sig_text, tok_sig = _expr(rng, sig, sig_sorts, rng.randint(0, MAX_FILLERS))
            if sig_sorts:
                sig["Sort"] = sig_sorts
            el = ExportElement(name, kind, sig, None, tok_sig)
            body_text = None
            if has_body:
                body_text, el.tokens_body = _expr(rng, body, 0, rng.randint(0, MAX_FILLERS))
                el.body_refs = body
        elements.append(el)
        lines.append(json.dumps({
            "name": name,
            "kind": el.kind,
            "signature": sig_text,
            "body": body_text,
            "token_count_signature": el.tokens_sig,
            "token_count_body": el.tokens_body,
        }, sort_keys=True, separators=(",", ":")))
    return elements, lines
