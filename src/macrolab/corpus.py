"""Corpus elements, dependency-graph assembly, and on-disk formats.

A corpus is a set of named elements, each with a signature expression and an
optional body expression.  The dependency graph keeps the signature-origin
and body-origin reference counts separate (ranking needs the split); summed
they give the usual weighted edge multiset.  Names referenced but never
declared become synthetic sink nodes, one per name, so unknown references
stay distinguishable.

A `DepGraph` holds the graph as integer-indexed arrays: sorted names, kinds,
flags, token counts and one CSR row of references per element.  `load_graph`
fills them from a graph file whose records it decodes in bulk, one `json`
call per chunk of about a megabyte of lines, and checks column by column; a
file that fails any of those checks is read again record by record, which
names the first bad line.  `build_graph` fills them from parsed elements, and
`ingest_corpus` from a corpus file in one pass: each expression's references
are counted while it is parsed, and its tree is dropped before the next
element is read.  Every analytics pass and the ranking walk read the arrays
as plain lists; the name-keyed `GraphNode` view is built only when something
asks for it.

Both file formats are line-delimited JSON with a leading header record, one
canonical byte rendering per graph (sorted names, sorted keys, no float
fields), so save(load(path)) reproduces the file exactly; `save_graph` writes
that rendering directly, a line at a time.  An element obeys the same rules
whichever way it arrives: `_check_element` holds the rules on its fields,
which every `Element` and every record of either file format passes, and
`DepGraph` checks every row it is built from for primitive and synthetic
elements that reference something.
"""

from __future__ import annotations

import json
from functools import cached_property, partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii as _quote
from operator import add, itemgetter
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from .exprs import ExprNode

ELEMENT_KINDS = ("definition", "theorem", "structure", "inductive", "primitive", "synthetic")
_LEAF_KINDS = ("primitive", "synthetic")  # no body, no references
_KIND_ALIASES = {"lemma": "theorem"}

GRAPH_FORMAT = "macrolab-graph"
CORPUS_FORMAT = "macrolab-corpus"
FORMAT_VERSION = 1

_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class CorpusError(ValueError):
    """Malformed corpus or graph input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def normalize_kind(kind: str) -> str:
    if isinstance(kind, str):
        kind = _KIND_ALIASES.get(kind, kind)
    if kind not in ELEMENT_KINDS:
        raise CorpusError(f"unknown element kind {kind!r}")
    return kind


def _check_element(name: str, kind: str, generated: bool, token_count_signature: int | None,
                   token_count_body: int | None, has_body: bool = False) -> str:
    """The rules on an element's fields, wherever it comes from; returns its
    kind with aliases resolved."""
    if not isinstance(name, str) or not name:
        raise CorpusError("element names must be non-empty strings")
    kind = normalize_kind(kind)
    if not isinstance(generated, bool):
        raise CorpusError(f"element {name!r}: generated must be true or false")
    for label, count in (("signature", token_count_signature), ("body", token_count_body)):
        if count is not None and count < 1 and not generated:
            raise CorpusError(f"element {name!r}: {label} token count must be >= 1")
    if has_body and kind in _LEAF_KINDS:
        raise CorpusError(f"{kind} element {name!r} cannot have a body")
    return kind


class _Element(NamedTuple):
    name: str
    kind: str
    signature: ExprNode | None = None
    body: ExprNode | None = None
    token_count_signature: int | None = None
    token_count_body: int | None = None
    generated: bool = False


class Element(_Element):
    """One corpus entry, pre graph assembly; its kind is stored with aliases
    resolved."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> Element:
        el = super().__new__(cls, *args, **kwargs)
        kind = _check_element(el.name, el.kind, el.generated, el.token_count_signature,
                              el.token_count_body, el.body is not None)
        return el._replace(kind=kind)


class _GraphNode(NamedTuple):
    name: str
    kind: str
    generated: bool
    token_count_signature: int | None
    token_count_body: int | None
    sig_refs: dict[str, int]
    body_refs: dict[str, int]


class GraphNode(_GraphNode):
    """A dependency-graph node with signature/body reference splits; a
    reference map left out is a fresh empty dict."""

    __slots__ = ()

    def __new__(cls, name: str, kind: str, generated: bool, token_count_signature: int | None,
                token_count_body: int | None, sig_refs: dict[str, int] | None = None,
                body_refs: dict[str, int] | None = None) -> GraphNode:
        return tuple.__new__(cls, (name, kind, generated, token_count_signature,
                                   token_count_body, {} if sig_refs is None else sig_refs,
                                   {} if body_refs is None else body_refs))

    def merged_refs(self) -> dict[str, int]:
        merged = dict(self.sig_refs)
        for name, w in self.body_refs.items():
            merged[name] = merged.get(name, 0) + w
        return merged


class DepGraph:
    """Weighted dependency graph over named elements, held as index arrays.

    Element ``i`` is ``sorted_names[i]``, with ``kinds[i]``, ``generated[i]``
    and the token counts ``tokens_sig[i]`` and ``tokens_body[i]``.  Its
    references form one CSR row: the targets ``dst[off[i]:off[i + 1]]`` in
    ascending order, which is name order, each with its signature-origin
    weight ``sig_w[e]``, its body-origin weight ``body_w[e]`` (one of the two
    may be 0) and their sum ``ref_w[e]``.  The arrays are not changed once
    built.  The name -> index map that resolves references lives only while
    the graph is built.  ``nodes`` gives the same graph as name-keyed
    `GraphNode`s; it is built on first use, and no command uses it.
    """

    def __init__(self, nodes: list[GraphNode] = (), rows: list[tuple] | None = None):
        """From `GraphNode`s, or from rows (name, kind, generated,
        token_count_signature, token_count_body, sig_refs, body_refs) as
        `load_graph` and `build_graph` read them, refs name -> weight.  The
        rows list is consumed: it is left empty, and each reference dict it
        held is dropped as soon as its CSR row is written."""
        if rows is None:
            rows = [(nd.name, nd.kind, nd.generated, nd.token_count_signature,
                     nd.token_count_body, nd.sig_refs, nd.body_refs) for nd in nodes]
        rows.sort(key=itemgetter(0))
        names, self.kinds, self.generated, self.tokens_sig, self.tokens_body, sigs, bodies = (
            list(col) for col in (zip(*rows) if rows else [()] * 7))
        rows.clear()
        sigs.reverse()
        bodies.reverse()
        self.sorted_names = names
        index = {name: i for i, name in enumerate(names)}
        if len(index) < len(names):
            dup = next(a for a, b in zip(names, names[1:]) if a == b)
            raise CorpusError(f"duplicate element name {dup!r}")
        self.off, self.dst, self.sig_w, self.body_w = off, dst, sig_w, body_w = [0], [], [], []
        at, zeros = index.__getitem__, repeat(0)
        for name, kind in zip(names, self.kinds):
            sig, body = sigs.pop(), bodies.pop()
            if sig or body:
                if kind in _LEAF_KINDS:
                    raise CorpusError(f"{kind} element {name!r} must reference nothing")
                targets = sorted(sig.keys() | body.keys() if sig and body else sig or body)
                try:
                    dst += map(at, targets)
                except KeyError as exc:
                    raise CorpusError(
                        f"{name!r} references undeclared {exc.args[0]!r}; "
                        "build_graph adds synthetic sinks for these"
                    ) from None
                sig_w += map(sig.get, targets, zeros)
                body_w += map(body.get, targets, zeros)
            off.append(len(dst))
        self.ref_w = list(map(add, sig_w, body_w))

    def __len__(self) -> int:
        return len(self.sorted_names)

    def refs(self, i: int, weights: list[int]) -> dict[str, int]:
        """Target name -> weight over element i's row, for one weight array."""
        lo, hi = self.off[i], self.off[i + 1]
        names = self.sorted_names
        return {names[t]: w for t, w in zip(self.dst[lo:hi], weights[lo:hi]) if w}

    def has_body(self, i: int) -> bool:
        return self.tokens_body[i] is not None or any(self.body_w[self.off[i]:self.off[i + 1]])

    @cached_property
    def nodes(self) -> dict[str, GraphNode]:
        return {
            name: GraphNode(name, self.kinds[i], self.generated[i], self.tokens_sig[i],
                            self.tokens_body[i], self.refs(i, self.sig_w),
                            self.refs(i, self.body_w))
            for i, name in enumerate(self.sorted_names)
        }

    def total_edge_weight(self) -> int:
        return sum(self.ref_w)


def _with_sinks(rows: list[tuple]) -> DepGraph:
    """The graph of the given rows plus one synthetic sink per undeclared name."""
    referenced: set[str] = set()
    for row in rows:
        referenced.update(row[5], row[6])
    referenced.difference_update(row[0] for row in rows)
    rows += [(name, "synthetic", True, None, None, {}, {}) for name in referenced]
    return DepGraph(rows=rows)


def build_graph(elements: list[Element]) -> DepGraph:
    """Assemble the dependency graph, adding synthetic sinks for unknown names."""
    from .exprs import collect_elems

    return _with_sinks([
        (el.name, el.kind, el.generated, el.token_count_signature, el.token_count_body,
         *(dict(collect_elems(e)) if e is not None else {} for e in (el.signature, el.body)))
        for el in elements
    ])


def save_graph(graph: DepGraph, path: str) -> None:
    """Write the canonical file: each record is the text `json` gives it with
    sorted keys, no spaces and ASCII escapes, spelled out here directly."""
    quoted = list(map(_quote, graph.sorted_names))
    off, dst = graph.off, graph.dst

    def refs(i: int, weights: list[int]) -> str:
        lo, hi = off[i], off[i + 1]
        return ",".join([f"{quoted[t]}:{w}" for t, w in zip(dst[lo:hi], weights[lo:hi]) if w])

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_encode({"format": GRAPH_FORMAT, "version": FORMAT_VERSION}) + "\n")
        for i, (name, kind, generated, tokens_sig, tokens_body) in enumerate(zip(
                quoted, graph.kinds, graph.generated, graph.tokens_sig, graph.tokens_body)):
            fh.write(f'{{"body_refs":{{{refs(i, graph.body_w)}}},'
                     f'"generated":{"true" if generated else "false"},"kind":{_quote(kind)},'
                     f'"name":{name},"sig_refs":{{{refs(i, graph.sig_w)}}},'
                     f'"token_count_body":{"null" if tokens_body is None else tokens_body},'
                     f'"token_count_signature":'
                     f'{"null" if tokens_sig is None else tokens_sig}}}\n')


def _check_header(obj: dict, expected_format: str) -> None:
    if not isinstance(obj, dict) or obj.get("format") != expected_format:
        raise CorpusError(f"expected a {expected_format!r} header record", line=1)
    if obj.get("version") != FORMAT_VERSION:
        raise CorpusError(f"unsupported format version {obj.get('version')!r}", line=1)


def _read_jsonl(path: str, expected_format: str):
    with open(path, "r", encoding="utf-8") as fh:
        # Records end at "\n" alone: JSON strings may hold U+2028, U+2029 and
        # U+0085 raw, which str.splitlines would also break at.
        lines = fh.read().split("\n")
    if lines == [""]:
        raise CorpusError("empty file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise CorpusError(f"bad JSON: {exc.msg}", line=1) from exc
    _check_header(header, expected_format)
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            rec = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorpusError(f"bad JSON: {exc.msg}", line=lineno) from exc
        if not isinstance(rec, dict):
            raise CorpusError("expected an object per line", line=lineno)
        yield lineno, rec


def _opt_nat(rec: dict, key: str, lineno: int) -> int | None:
    val = rec.get(key)
    if val is None:
        return None
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise CorpusError(f"{key} must be an integer >= 1 or null", line=lineno)
    return val


def _fields(lineno: int, rec: dict, has_body: bool = False) -> tuple:
    """(name, kind, generated, token_count_signature, token_count_body) of one
    record of either file format, checked by `_check_element`."""
    name, generated = rec.get("name"), rec.get("generated", False)
    counts = [_opt_nat(rec, key, lineno) for key in ("token_count_signature", "token_count_body")]
    try:
        kind = _check_element(name, rec.get("kind", ""), generated, *counts, has_body)
    except CorpusError as exc:
        raise CorpusError(str(exc), line=lineno) from None
    return name, kind, generated, *counts


def _refs_field(rec: dict, key: str, lineno: int) -> dict[str, int]:
    val = rec.get(key, {})
    if not isinstance(val, dict):
        raise CorpusError(f"{key} must be an object", line=lineno)
    for name, w in val.items():
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise CorpusError(f"{key}[{name!r}] must be a positive integer", line=lineno)
    return val


# A graph record's seven keys in `DepGraph` row order.
_GRAPH_ROW = itemgetter("name", "kind", "generated", "token_count_signature", "token_count_body",
                        "sig_refs", "body_refs")
_CHUNK = 1 << 20  # characters of lines that `_bulk_rows` decodes in one `json` call


def _counts_ok(counts: tuple) -> bool:
    return (set(map(type, counts)) <= {int, type(None)} and 0 not in counts
            and min(filter(None, counts), default=1) > 0)


def _chunk_rows(lines: list[str]) -> list[tuple] | None:
    """The rows of consecutive graph-file lines decoded in one `json` call;
    None, or a ValueError from `json`, unless every non-blank line is one
    record that holds the seven keys and no other, and passes the checks of
    `_fields` and `_refs_field`.

    Each line is decoded inside its own pair of brackets: no JSON string holds
    a raw newline and no accepted record holds an array, so a line that is
    not exactly one record changes the number or the length of those wrappers.
    """
    wrapped = json.loads("".join(("[[", "],[".join(lines), "]]")))
    if (len(wrapped) != len(lines) or set(map(type, wrapped)) != {list}
            or max(map(len, wrapped)) > 1):
        return None
    records = list(chain.from_iterable(wrapped))  # blank lines hold none
    if not records:
        return []
    if set(map(type, records)) != {dict} or set(map(len, records)) != {7}:
        return None
    try:
        rows = list(map(_GRAPH_ROW, records))
    except KeyError:
        return None
    names, kinds, generated, tokens_sig, tokens_body, sigs, bodies = zip(*rows)
    refs = (*sigs, *bodies)
    if not (set(map(type, names)) == {str} and "" not in names
            and set(map(type, kinds)) == {str} and set(kinds) <= set(ELEMENT_KINDS)
            and set(map(type, generated)) == {bool}
            and _counts_ok(tokens_sig) and _counts_ok(tokens_body)
            and set(map(type, refs)) == {dict}):
        return None
    weights = list(chain.from_iterable(map(dict.values, refs)))
    if not (set(map(type, weights)) <= {int} and min(weights, default=1) > 0):
        return None
    return rows


def _bulk_rows(path: str) -> list[tuple] | None:
    """The rows of a graph file, decoded about `_CHUNK` characters of lines at
    a time, or None when the header or any chunk fails; the file is then read
    record by record, which reports the first bad line as it always has."""
    rows: list[tuple] = []
    try:
        with open(path, "r", encoding="utf-8", newline="\n") as fh:
            _check_header(json.loads(fh.readline()), GRAPH_FORMAT)
            for lines in iter(partial(fh.readlines, _CHUNK), []):
                chunk = _chunk_rows(lines)
                if chunk is None:
                    return None
                rows += chunk
    except ValueError:  # bad UTF-8 or JSON, or a CorpusError from the header
        return None
    return rows


def load_graph(path: str) -> DepGraph:
    rows = _bulk_rows(path)
    if rows is None:
        rows = [(*_fields(lineno, rec), _refs_field(rec, "sig_refs", lineno),
                 _refs_field(rec, "body_refs", lineno))
                for lineno, rec in _read_jsonl(path, GRAPH_FORMAT)]
    try:
        return DepGraph(rows=rows)
    except CorpusError as exc:
        raise CorpusError(f"inconsistent graph: {exc}") from exc


def _exprs(parse_expr, lineno: int, rec: dict, sig_refs: dict | None = None,
           body_refs: dict | None = None) -> tuple:
    """The signature and body of a corpus record (None where absent), parsed
    by `exprs.parse_expr`, which the caller imports once per file; given
    `sig_refs` and `body_refs`, it counts their references into them and
    builds no tree (both are None)."""
    out = []
    for key, refs in (("signature", sig_refs), ("body", body_refs)):
        text = rec.get(key)
        if text is not None and not isinstance(text, str):
            raise CorpusError(f"{key} must be a string or null", line=lineno)
        try:
            out.append(parse_expr(text, refs) if text is not None else None)
        except ValueError as exc:
            raise CorpusError(f"{rec['name']}: {exc}", line=lineno) from exc
    return tuple(out)


def load_corpus(path: str) -> list[Element]:
    """Read an expression corpus (JSONL with S-expression signature/body strings)."""
    from .exprs import parse_expr

    elements = []
    for lineno, rec in _read_jsonl(path, CORPUS_FORMAT):
        name, kind, generated, tokens_sig, tokens_body = _fields(
            lineno, rec, rec.get("body") is not None)
        elements.append(Element(name, kind, *_exprs(parse_expr, lineno, rec), tokens_sig,
                                tokens_body, generated))
    return elements


def ingest_corpus(path: str) -> DepGraph:
    """`build_graph(load_corpus(path))` in one pass over the file, with no
    `Element` per record and no expression tree: each expression's
    references are counted by the counting form of `parse_expr`."""
    from .exprs import parse_expr

    rows = []
    for lineno, rec in _read_jsonl(path, CORPUS_FORMAT):
        fields = _fields(lineno, rec, rec.get("body") is not None)
        refs: tuple[dict[str, int], dict[str, int]] = ({}, {})
        _exprs(parse_expr, lineno, rec, *refs)
        rows.append((*fields, *refs))
    return _with_sinks(rows)


def save_corpus(elements: list[Element], path: str) -> None:
    from .exprs import print_expr

    header = _encode({"format": CORPUS_FORMAT, "version": FORMAT_VERSION})
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for el in sorted(elements, key=lambda e: e.name):
            rec = {
                "name": el.name,
                "kind": el.kind,
                "generated": el.generated,
                "signature": print_expr(el.signature) if el.signature is not None else None,
                "body": print_expr(el.body) if el.body is not None else None,
                "token_count_signature": el.token_count_signature,
                "token_count_body": el.token_count_body,
            }
            fh.write(_encode(rec) + "\n")
