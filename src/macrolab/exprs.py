"""S-expression encoded expression trees and reference counting.

The grammar mirrors a proof-assistant kernel term language::

    E ::= (const NAME) | (app E E) | (lam E E) | (forallE E E)
        | (letE E E E) | (mdata E) | (proj E) | (sort) | (other)

`(sort)` stands for any type universe and counts as a reference to the single
name "Sort"; `(other)` covers constructs that reference nothing (bound
variables, literals, metavariables).  Parsing and printing are iterative so
deeply nested bodies cannot overflow the interpreter stack.

The parser splits the text into bare token strings with one `str.split`
(the tokens `_TOKEN` finds) and turns a whole leaf such as `(const NAME)`
into its node at once; an error's (line, column) is worked out from the text
only once parsing has failed.  Nodes are immutable, so leaves are shared:
`(sort)` and `(other)` are module-wide singletons, and repeated
`(const NAME)` leaves of one parse are one object.

The counting form, `parse_expr(text, refs)`, builds no tree.  It walks the
same tokens keeping only the number of children each open form still needs,
counts each referenced name into `refs` and returns None; corpus ingest gets
each element's reference counts this way.  Only when that walk fails does it
run the tree parse, which raises the located error.  `collect_elems` counts
the references of a tree already built.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import islice
from typing import NamedTuple

SORT_NAME = "Sort"

# tag -> number of expression children
_ARITY = {
    "const": 0,
    "app": 2,
    "lam": 2,
    "forallE": 2,
    "letE": 3,
    "mdata": 1,
    "proj": 1,
    "sort": 0,
    "other": 0,
}


class _ExprNode(NamedTuple):
    tag: str
    name: str | None = None
    children: tuple[ExprNode, ...] = ()


class ExprNode(_ExprNode):
    __slots__ = ()

    def __new__(cls, tag: str, name: str | None = None,
                children: tuple[ExprNode, ...] = ()) -> ExprNode:
        if tag not in _ARITY:
            raise ValueError(f"unknown expression tag {tag!r}")
        if len(children) != _ARITY[tag]:
            raise ValueError(f"{tag} takes {_ARITY[tag]} children, got {len(children)}")
        if (tag == "const") != (name is not None):
            raise ValueError("exactly const nodes carry a name")
        return tuple.__new__(cls, (tag, name, children))


_LEAVES = {"sort": ExprNode("sort"), "other": ExprNode("other")}
# _parse_tree has checked an interior node's tag and arity by the time it
# builds it, so it builds the node's tuple directly, without the checks.
_new = tuple.__new__
_PARENS = ("(", ")")
_TOKEN = re.compile(r"[()]|[^\s()]+")


class ExprParseError(ValueError):
    """Malformed expression text, with 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


def _error(text: str, index: int, message: str) -> ExprParseError:
    """Locate the index-th token; only a failed parse pays for positions.

    Columns count every character since the last newline, tabs and carriage
    returns included, as one each."""
    offset = next(islice(_TOKEN.finditer(text), index, None)).start()
    line = text.count("\n", 0, offset) + 1
    return ExprParseError(message, line, offset - text.rfind("\n", 0, offset))


def parse_expr(text: str, refs: dict[str, int] | None = None) -> ExprNode | None:
    """Parse one S-expression; trailing input or malformed forms are rejected.

    With `refs`, no tree is built: every referenced name is counted into it,
    as `collect_elems` of the tree would count it, and None is returned.  The
    checks and the error raised on malformed text are the tree form's.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()  # what _TOKEN finds
    if refs is not None and _count_refs(tokens, refs):
        return None
    return _parse_tree(text, tokens)  # raises the located error for a counting failure


def _count_refs(tokens: list[str], refs: dict[str, int]) -> bool:
    """Count the references of the tokens into `refs`, keeping only the number
    of children each open form still needs; False (with `refs` partly
    counted) when the tokens are not exactly one expression."""
    pending: list[int] = []
    pos = 0
    try:
        while True:
            if tokens[pos] != "(":
                return False
            tag = tokens[pos + 1]
            arity = _ARITY.get(tag)
            if arity is None:
                return False
            pos += 2
            if tag == "const":
                name = tokens[pos]
                if name in _PARENS:
                    return False
                refs[name] = refs.get(name, 0) + 1
                pos += 1
            elif tag == "sort":
                refs[SORT_NAME] = refs.get(SORT_NAME, 0) + 1
            if arity:
                pending.append(arity)
                continue
            # a leaf: its ")", then one ")" for each form it completes
            if tokens[pos] != ")":
                return False
            pos += 1
            while pending:
                pending[-1] -= 1
                if pending[-1]:
                    break
                pending.pop()
                if tokens[pos] != ")":
                    return False
                pos += 1
            else:
                return pos == len(tokens)
    except IndexError:  # the tokens ran out inside a form
        return False


def _parse_tree(text: str, tokens: list[str]) -> ExprNode:
    end = len(tokens)
    if not end:
        raise ExprParseError("empty input", 1, 1)
    consts: dict[str, ExprNode] = {}
    # frames: (tag, tag token index, children of the enclosing form)
    frames: list[tuple[str, int, list[ExprNode]]] = []
    root: list[ExprNode] = []
    children = root
    pos = 0
    while pos < end:
        tok = tokens[pos]
        if tok == "(":
            at = pos + 1
            tag = tokens[at] if at < end else "("  # a missing token reads as a paren
            if tag not in _ARITY:
                if tag in _PARENS:
                    raise _error(text, min(at, end - 1), "expected a tag after '('")
                raise _error(text, at, f"unknown tag {tag!r}")
            pos = at + 1
            if tag == "const":
                name = tokens[pos] if pos < end else "("
                if name in _PARENS:
                    raise _error(text, at, "const needs a name")
                pos += 1
                node = consts.get(name)
                if node is None:
                    node = consts[name] = ExprNode("const", name)
            elif tag in _LEAVES:
                node = _LEAVES[tag]
            if not _ARITY[tag] and pos < end and tokens[pos] == ")":  # a whole leaf
                children.append(node)
                pos += 1
                if not frames:
                    break
                continue
            frames.append((tag, at, children))
            children = []
        elif tok == ")":
            if not frames:
                raise _error(text, pos, "unmatched ')'")
            tag, at, parent = frames.pop()
            if len(children) != _ARITY[tag]:
                raise _error(text, at, f"{tag} takes {_ARITY[tag]} children, got {len(children)}")
            parent.append(_new(ExprNode, (tag, None, tuple(children))))
            children = parent
            pos += 1
            if not frames:
                break
        else:
            raise _error(text, pos, f"unexpected atom {tok!r}")
    else:
        raise _error(text, end - 1, "unclosed '('")
    if pos < end:
        raise _error(text, pos, f"unexpected trailing {tokens[pos]!r}")
    return root[0]


def print_expr(node: ExprNode) -> str:
    """Canonical single-space rendering; parse_expr(print_expr(e)) == e."""
    out: list[str] = []
    stack: list[ExprNode | str] = [node]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if item.tag == "const":
            out.append(f"(const {item.name})")
            continue
        if not item.children:
            out.append(f"({item.tag})")
            continue
        out.append(f"({item.tag}")
        stack.append(")")
        for child in reversed(item.children):
            stack.append(child)
    # join pieces: space before every piece except after an opening fragment
    text: list[str] = []
    for piece in out:
        if text and piece != ")":
            text.append(" ")
        text.append(piece)
    return "".join(text)


def collect_elems(node: ExprNode) -> Counter[str]:
    """Multiset of referenced names: const names plus "Sort" per sort node."""
    counts: Counter[str] = Counter()
    stack = [node]
    while stack:
        e = stack.pop()
        if e.tag == "const":
            counts[e.name] += 1
        elif e.tag == "sort":
            counts[SORT_NAME] += 1
        stack.extend(e.children)
    return counts

