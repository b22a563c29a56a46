"""Tests for expression parsing, printing, and reference counting."""

from collections import Counter
from dataclasses import dataclass
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from macrolab.exprs import ExprNode, ExprParseError, collect_elems, parse_expr, print_expr

SORT, OTHER = ExprNode("sort"), ExprNode("other")

SIMPLE_BODY = (
    "(lam (sort) (lam (sort) (lam (app (app (const And) (other)) (other)) "
    "(app (app (app (const And.right) (other)) (other)) (other)))))"
)


# --- character-by-character reference parser (the oracle) ---


@dataclass
class _Token:
    text: str
    line: int
    col: int


def _slow_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch.isspace():
            col += 1
            i += 1
        elif ch in "()":
            tokens.append(_Token(ch, line, col))
            col += 1
            i += 1
        else:
            start = i
            start_col = col
            while i < len(text) and not text[i].isspace() and text[i] not in "()":
                i += 1
                col += 1
            tokens.append(_Token(text[start:i], line, start_col))
    return tokens


def slow_parse_expr(text: str) -> ExprNode:
    """Token records with positions, one fresh node per form."""
    arity = {"const": 0, "app": 2, "lam": 2, "forallE": 2, "letE": 3,
             "mdata": 1, "proj": 1, "sort": 0, "other": 0}
    tokens = _slow_tokenize(text)
    if not tokens:
        raise ExprParseError("empty input", 1, 1)
    pos = 0
    stack: list[list] = []  # frames: [tag, tag_token, name, children]
    result: ExprNode | None = None
    while pos < len(tokens):
        tok = tokens[pos]
        if result is not None:
            raise ExprParseError(f"unexpected trailing {tok.text!r}", tok.line, tok.col)
        if tok.text == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos].text in "()":
                bad = tokens[pos] if pos < len(tokens) else tok
                raise ExprParseError("expected a tag after '('", bad.line, bad.col)
            tag_tok = tokens[pos]
            if tag_tok.text not in arity:
                raise ExprParseError(f"unknown tag {tag_tok.text!r}", tag_tok.line, tag_tok.col)
            pos += 1
            name = None
            if tag_tok.text == "const":
                if pos >= len(tokens) or tokens[pos].text in "()":
                    raise ExprParseError("const needs a name", tag_tok.line, tag_tok.col)
                name = tokens[pos].text
                pos += 1
            stack.append([tag_tok.text, tag_tok, name, []])
        elif tok.text == ")":
            if not stack:
                raise ExprParseError("unmatched ')'", tok.line, tok.col)
            tag, tag_tok, name, children = stack.pop()
            if len(children) != arity[tag]:
                raise ExprParseError(
                    f"{tag} takes {arity[tag]} children, got {len(children)}",
                    tag_tok.line, tag_tok.col,
                )
            node = ExprNode(tag, name=name, children=tuple(children))
            pos += 1
            if stack:
                stack[-1][3].append(node)
            else:
                result = node
        else:
            raise ExprParseError(f"unexpected atom {tok.text!r}", tok.line, tok.col)
    if result is None:
        last = tokens[-1]
        raise ExprParseError("unclosed '('", last.line, last.col)
    return result


def _outcome(parse, text: str):
    try:
        return parse(text)
    except ExprParseError as exc:
        return str(exc), exc.line, exc.col


# --- parsing ---


def test_parse_const():
    node = parse_expr("(const And)")
    assert node == ExprNode("const", "And")
    assert node.name == "And"


def test_parse_nested_body():
    node = parse_expr(SIMPLE_BODY)
    assert node.tag == "lam"
    inner = node.children[1].children[1]
    assert inner.tag == "lam"
    assert inner.children[0].tag == "app"
    spine = inner.children[1]
    assert spine.tag == "app"
    assert collect_elems(spine)["And.right"] == 1


def test_parse_accepts_arbitrary_whitespace():
    assert parse_expr("( app\n  (sort)\n  (other) )") == ExprNode("app", None, (SORT, OTHER))


def test_parse_reports_unclosed_position():
    with pytest.raises(ExprParseError) as err:
        parse_expr("(app (const f)")
    assert "unclosed" in str(err.value)
    assert err.value.line == 1
    assert err.value.col == 14


def test_parse_reports_unknown_tag_position():
    with pytest.raises(ExprParseError) as err:
        parse_expr("(app (sort)\n  (bogus))")
    assert err.value.line == 2
    assert err.value.col == 4


def test_parse_rejects_wrong_arity():
    with pytest.raises(ExprParseError) as err:
        parse_expr("(app (sort))")
    assert "takes 2" in str(err.value)


def test_parse_rejects_trailing_input():
    with pytest.raises(ExprParseError) as err:
        parse_expr("(sort) (sort)")
    assert "trailing" in str(err.value)


def test_parse_rejects_bare_atoms_and_empty_input():
    with pytest.raises(ExprParseError):
        parse_expr("And")
    with pytest.raises(ExprParseError):
        parse_expr("   ")
    with pytest.raises(ExprParseError):
        parse_expr("(const)")
    with pytest.raises(ExprParseError):
        parse_expr(")")


@pytest.mark.parametrize("text", [
    "(app (const f)", "(const)", "((", "(", ")", "(sort) x", "(sort))", "(sort", "(const",
    "(const x y)", "(const x (sort))", "(sort (other))", "(app (sort) (other) (sort))",
    "(bogus)", "x", "\t\r\n  (app\t(sort)\r\n\t(mdata))", "(lam (sort)\n\t(x))",
    "\u2028(app (sort)\u00a0\n\x1c(other)) \n(sort)", "(const a)\r\n\r\n)",
])
def test_parse_errors_match_the_oracle(text):
    expected = _outcome(slow_parse_expr, text)
    assert isinstance(expected, tuple)
    assert _outcome(parse_expr, text) == expected
    assert _outcome(lambda t: parse_expr(t, {}), text) == expected


def test_parse_survives_deep_nesting():
    depth = 40000
    text = "(mdata " * depth + "(other)" + ")" * depth
    node = parse_expr(text)
    chain = 0
    while node.tag == "mdata":
        (node,) = node.children
        chain += 1
    assert (chain, node) == (depth, OTHER)
    refs = {}
    assert parse_expr(text.replace("(other)", "(sort)"), refs) is None
    assert refs == {"Sort": 1}


def test_node_constructor_validation():
    with pytest.raises(ValueError):
        ExprNode("nonsense")
    with pytest.raises(ValueError):
        ExprNode("app", children=(SORT,))
    with pytest.raises(ValueError):
        ExprNode("sort", name="Sort")
    with pytest.raises(ValueError):
        ExprNode("const")


# --- printing ---


def test_print_matches_canonical_form():
    node = ExprNode("letE", None, (SORT, ExprNode("proj", None, (OTHER,)),
                                   ExprNode("mdata", None, (ExprNode("const", "x"),))))
    assert print_expr(node) == "(letE (sort) (proj (other)) (mdata (const x)))"


def test_print_parse_round_trip_on_the_worked_body():
    node = parse_expr(SIMPLE_BODY)
    assert parse_expr(print_expr(node)) == node


expr_nodes = st.deferred(
    lambda: st.one_of(
        st.just(SORT),
        st.just(OTHER),
        st.from_regex(r"[A-Za-z][A-Za-z0-9_.]{0,8}", fullmatch=True).map(
            partial(ExprNode, "const")),
        st.tuples(expr_nodes, expr_nodes).map(partial(ExprNode, "app", None)),
        st.tuples(expr_nodes, expr_nodes).map(partial(ExprNode, "lam", None)),
        st.tuples(expr_nodes, expr_nodes).map(partial(ExprNode, "forallE", None)),
        st.tuples(expr_nodes, expr_nodes, expr_nodes).map(partial(ExprNode, "letE", None)),
        st.tuples(expr_nodes).map(partial(ExprNode, "mdata", None)),
        st.tuples(expr_nodes).map(partial(ExprNode, "proj", None)),
    )
)


@settings(deadline=None, max_examples=80)
@given(expr_nodes)
def test_print_parse_round_trip(node):
    assert parse_expr(print_expr(node)) == node


_WHITESPACE = [" ", "\t", "\r\n", "\n", "\u00a0", "\x1c", "\u2028"]
_separators = st.lists(st.sampled_from(_WHITESPACE), max_size=3).map("".join)


def _tokens(node: ExprNode) -> list[str]:
    return print_expr(node).replace("(", " ( ").replace(")", " ) ").split()


@settings(deadline=None, max_examples=200)
@given(expr_nodes, st.data())
def test_parse_matches_the_oracle_on_mangled_text(node, data):
    tokens = _tokens(node)
    edits = data.draw(st.lists(st.tuples(st.sampled_from(["drop", "repeat"]),
                                         st.integers(0, len(tokens) - 1)), max_size=3))
    for op, i in edits:
        if i < len(tokens):
            tokens[i:i + 1] = [] if op == "drop" else [tokens[i], tokens[i]]
    text = data.draw(_separators)
    for prev, tok in zip([None, *tokens], tokens):
        sep = data.draw(_separators)
        if prev not in (None, "(", ")") and tok not in ("(", ")") and not sep:
            sep = " "  # two atoms need whitespace between them
        text += sep + tok
    text += data.draw(_separators)
    expected = _outcome(slow_parse_expr, text)
    assert _outcome(parse_expr, text) == expected
    # The counting form accepts and rejects the same texts, with the same
    # error, and on success counts what collect_elems counts of the tree.
    refs = {}
    counted = _outcome(lambda t: parse_expr(t, refs), text)
    if isinstance(expected, ExprNode):
        assert counted is None
        assert refs == collect_elems(expected)
    else:
        assert counted == expected


def test_repeated_leaves_are_one_object():
    node = parse_expr("(app (const a) (const a))")
    assert node.children[0] is node.children[1]
    assert collect_elems(node) == Counter({"a": 2})
    pair = parse_expr("(app (sort) (sort))")
    assert pair.children[0] is pair.children[1] is parse_expr("(sort)")
    assert collect_elems(pair) == Counter({"Sort": 2})


def test_nodes_have_no_instance_dict():
    assert not hasattr(parse_expr("(const a)"), "__dict__")
    assert not hasattr(ExprNode("app", None, (SORT, OTHER)), "__dict__")


# --- reference counting ---


def test_collect_counts_the_worked_signature():
    text = (
        "(forallE (sort) (forallE (sort) "
        "(forallE (app (app (const And) (other)) (other)) (other))))"
    )
    assert collect_elems(parse_expr(text)) == Counter({"Sort": 2, "And": 1})


def test_collect_counts_the_worked_body():
    assert collect_elems(parse_expr(SIMPLE_BODY)) == Counter(
        {"Sort": 2, "And": 1, "And.right": 1}
    )


def test_collect_single_const():
    assert collect_elems(ExprNode("const", "Nat")) == Counter({"Nat": 1})


def test_collect_ignores_reference_free_nodes():
    node = parse_expr("(lam (other) (mdata (proj (other))))")
    assert collect_elems(node) == Counter()


@settings(deadline=None, max_examples=80)
@given(expr_nodes)
def test_collect_total_equals_const_and_sort_nodes(node):
    text = print_expr(node)
    expected = text.count("(const ") + text.count("(sort)")
    assert sum(collect_elems(node).values()) == expected
