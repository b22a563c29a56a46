"""Value semantics of macrolab's checked records.

Each record is a NamedTuple whose subclass checks the fields in `__new__`;
the bulk builders skip those checks and build the tuples directly.
"""

import pytest

from macrolab.analytics import FilterPolicy
from macrolab.corpus import Element, GraphNode
from macrolab.exprs import ExprNode, parse_expr
from macrolab.families import FamilySpec
from macrolab.interest import RankParams
from macrolab.monoid import Kind, Macro, MacroSet, MonoidKind, Word, abelian, free


def _records():
    """Two separately built copies of each kind of checked record."""
    return [
        (MonoidKind(Kind.FREE, 2), free(2)),
        (Word(abelian(2), (3, 1)), Word.from_multiplicities([3, 1])),
        (Macro("m", Word(free(2), (0, 1))), Macro(name="m", definition=Word(free(2), (0, 1)))),
        (FamilySpec.place_notation(2, 1, 8), FamilySpec("place", abelian(1), 8, b=2)),
        (ExprNode("app", None, (ExprNode("const", "f"), ExprNode("sort"))),
         parse_expr("(app (const f) (sort))")),
        (Element("x", "lemma", ExprNode("const", "y")),
         Element(name="x", kind="theorem", signature=parse_expr("(const y)"))),
        (RankParams(), RankParams(0.85, 0.5, 1e-12, 10_000)),
        (FilterPolicy("kind", kinds=frozenset({"theorem"})),
         FilterPolicy("kind", None, frozenset({"theorem"}))),
    ]


BAD_FIELDS = [  # (a constructor call, its error message)
    (lambda: MonoidKind(Kind.FREE, 0), "need at least one generator, got n=0"),
    (lambda: Word(abelian(2), (1,)), "expected 2 multiplicities, got 1"),
    (lambda: Word(abelian(1), (-1,)), "multiplicities must be non-negative"),
    (lambda: Word(free(2), (0, 2)), r"letters must lie in \[0, 2\)"),
    (lambda: Macro("m", Word(free(2), (1,))),
     "macro 'm' has length 1; a length-1 macro duplicates a primitive"),
    (lambda: FamilySpec("nope", free(2), 3), "unknown regime 'nope'"),
    (lambda: FamilySpec("place", abelian(1), 0), "r_max must be at least 1"),
    (lambda: ExprNode("bogus"), "unknown expression tag 'bogus'"),
    (lambda: ExprNode("app", children=(ExprNode("sort"),)), "app takes 2 children, got 1"),
    (lambda: ExprNode("sort", "x"), "exactly const nodes carry a name"),
    (lambda: Element("x", "conjecture"), "unknown element kind 'conjecture'"),
    (lambda: Element("x", "primitive", body=ExprNode("sort")),
     "primitive element 'x' cannot have a body"),
    (lambda: RankParams(alpha=1.0), r"alpha must lie in \[0, 1\)"),
    (lambda: RankParams(max_iterations=0), "max_iterations must be at least 1"),
    (lambda: FilterPolicy("bogus"), "unknown filter mode 'bogus'"),
    (lambda: FilterPolicy("indegree_percentile", 120), r"percentile must lie in \[0, 100\]"),
]


def test_checked_records_keep_value_semantics():
    for a, b in _records():
        assert a == b and hash(a) == hash(b) and type(a) is type(b), a
    for call, message in BAD_FIELDS:
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
    # The bulk builders skip the checks but build the same records.
    bulk = list(MacroSet.from_words(free(3), [b"\x00\x01", b"\x02\x01\x00"]))
    checked = [Macro("w01", Word(free(3), (0, 1))), Macro("w210", Word(free(3), (2, 1, 0)))]
    assert bulk == checked and list(map(hash, bulk)) == list(map(hash, checked))
    assert [type(m.definition) for m in bulk] == [Word, Word] and {*map(type, bulk)} == {Macro}
    tree = parse_expr("(app (app (const f) (sort)) (const g))")
    f_sort = ExprNode("app", None, (ExprNode("const", "f"), ExprNode("sort")))
    assert tree == ExprNode("app", None, (f_sort, ExprNode("const", "g"))) and type(tree) is ExprNode
    assert type(tree.children[0]) is ExprNode
    # A reference map left out of a GraphNode is a fresh dict, never a shared one.
    left_out = [GraphNode("a", "primitive", False, None, None) for _ in range(2)]
    assert left_out[0].sig_refs == {} and left_out[0].sig_refs is not left_out[1].sig_refs
