"""Tests for corpus elements, graph assembly, and the JSONL formats."""

import json
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolab.corpus import (
    CorpusError,
    DepGraph,
    Element,
    GraphNode,
    build_graph,
    ingest_corpus,
    load_corpus,
    load_graph,
    save_corpus,
    save_graph,
)
from macrolab.exprs import ExprNode, parse_expr, print_expr

WORKED_SIG = (
    "(forallE (sort) (forallE (sort) "
    "(forallE (app (app (const And) (other)) (other)) (other))))"
)
WORKED_BODY = (
    "(lam (sort) (lam (sort) (lam (app (app (const And) (other)) (other)) "
    "(app (app (app (const And.right) (other)) (other)) (other)))))"
)


def worked_element():
    return Element(
        name="simple_lemma",
        kind="theorem",
        signature=parse_expr(WORKED_SIG),
        body=parse_expr(WORKED_BODY),
        token_count_signature=18,
        token_count_body=24,
    )


# --- elements ---


def test_element_normalizes_lemma_to_theorem():
    el = Element(name="x", kind="lemma")
    assert el.kind == "theorem"


def test_element_rejects_unknown_kinds():
    with pytest.raises(CorpusError):
        Element(name="x", kind="conjecture")


def test_element_rejects_empty_names():
    with pytest.raises(CorpusError):
        Element(name="", kind="definition")


def test_element_rejects_non_positive_token_counts():
    with pytest.raises(CorpusError):
        Element(name="x", kind="definition", token_count_signature=0)


def test_primitive_elements_cannot_carry_bodies():
    with pytest.raises(CorpusError):
        Element(name="x", kind="primitive", body=parse_expr("(other)"))


# --- graph assembly ---


def test_build_graph_splits_signature_and_body_references():
    graph = build_graph([worked_element()])
    node = graph.nodes["simple_lemma"]
    assert node.sig_refs == {"And": 1, "Sort": 2}
    assert node.body_refs == {"And": 1, "And.right": 1, "Sort": 2}
    assert node.merged_refs() == {"And": 2, "And.right": 1, "Sort": 4}


def test_build_graph_adds_one_sink_per_unknown_name():
    graph = build_graph([worked_element()])
    assert graph.sorted_names == ["And", "And.right", "Sort", "simple_lemma"]
    for name in ("And", "And.right", "Sort"):
        sink = graph.nodes[name]
        assert sink.kind == "synthetic"
        assert sink.generated
        assert sink.sig_refs == {} and sink.body_refs == {}
    assert graph.total_edge_weight() == 7


def test_build_graph_keeps_declared_names_out_of_the_sinks():
    els = [
        worked_element(),
        Element(name="And", kind="inductive", signature=parse_expr("(sort)")),
    ]
    graph = build_graph(els)
    assert graph.nodes["And"].kind == "inductive"
    assert not graph.nodes["And"].generated
    assert len(graph) == 4  # simple_lemma, And, plus sinks And.right and Sort


def test_build_graph_retains_mutual_cycles():
    els = [
        Element(name="a", kind="definition", signature=parse_expr("(const b)")),
        Element(name="b", kind="definition", signature=parse_expr("(const a)")),
    ]
    graph = build_graph(els)
    assert graph.nodes["a"].sig_refs == {"b": 1}
    assert graph.nodes["b"].sig_refs == {"a": 1}


def test_build_graph_rejects_duplicate_names():
    els = [
        Element(name="a", kind="definition"),
        Element(name="a", kind="theorem"),
    ]
    with pytest.raises(CorpusError):
        build_graph(els)


def test_build_graph_rejects_referencing_primitives():
    els = [Element(name="p", kind="primitive", signature=parse_expr("(const q)"))]
    with pytest.raises(CorpusError):
        build_graph(els)


def test_bodiless_const_signature_yields_one_edge():
    graph = build_graph([Element(name="x", kind="definition", signature=parse_expr("(const X)"))])
    assert graph.sorted_names == ["X", "x"]  # X, the synthetic sink, sorts first
    assert (graph.off, graph.dst, graph.ref_w) == ([0, 0, 1], [0], [1])


def test_dep_graph_rejects_undeclared_references():
    node = GraphNode(
        name="a", kind="definition", generated=False,
        token_count_signature=None, token_count_body=None,
        sig_refs={"ghost": 1},
    )
    with pytest.raises(CorpusError):
        DepGraph([node])


def test_edges_are_sorted_and_summed():
    graph = build_graph([worked_element()])
    i = graph.sorted_names.index("simple_lemma")
    row = range(graph.off[i], graph.off[i + 1])
    assert [(graph.sorted_names[graph.dst[e]], graph.ref_w[e]) for e in row] == [
        ("And", 2),
        ("And.right", 1),
        ("Sort", 4),
    ]


# --- file formats ---


def test_graph_round_trip_is_byte_identical(tmp_path):
    graph = build_graph([worked_element()])
    first = tmp_path / "graph.jsonl"
    second = tmp_path / "again.jsonl"
    save_graph(graph, str(first))
    save_graph(load_graph(str(first)), str(second))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().startswith(b'{"format":"macrolab-graph","version":1}\n')


def test_corpus_round_trip_preserves_elements(tmp_path):
    els = [
        worked_element(),
        Element(name="And", kind="inductive", signature=parse_expr("(sort)")),
    ]
    path = tmp_path / "corpus.jsonl"
    save_corpus(els, str(path))
    loaded = load_corpus(str(path))
    assert [e.name for e in loaded] == ["And", "simple_lemma"]
    back = {e.name: e for e in loaded}
    assert back["simple_lemma"].signature == parse_expr(WORKED_SIG)
    assert back["simple_lemma"].body == parse_expr(WORKED_BODY)
    assert back["simple_lemma"].token_count_body == 24
    again = tmp_path / "again.jsonl"
    save_corpus(loaded, str(again))
    assert path.read_bytes() == again.read_bytes()


def test_load_graph_reports_bad_json_line(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(
        '{"format":"macrolab-graph","version":1}\n'
        '{"name":"a","kind":"definition"}\n'
        "{broken\n"
    )
    with pytest.raises(CorpusError) as err:
        load_graph(str(path))
    assert err.value.line == 3


@pytest.mark.parametrize("header, load, names", [
    ("macrolab-graph", load_graph, lambda graph: list(graph.nodes)),
    ("macrolab-corpus", load_corpus, lambda elements: [e.name for e in elements]),
], ids=["graph", "corpus"])
def test_records_end_at_newlines_alone(tmp_path, header, load, names):
    # JSON strings may hold U+2028, U+2029 and U+0085 raw; str.splitlines breaks at each.
    name = "a\u2028b\u2029c\x85d"
    path = tmp_path / "file.jsonl"
    path.write_text(json.dumps({"format": header, "version": 1}) + "\n"
                    + json.dumps({"name": name, "kind": "definition"}, ensure_ascii=False)
                    + "\n", encoding="utf-8")
    assert names(load(str(path))) == [name]


def test_load_graph_rejects_referencing_primitives(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(
        '{"format":"macrolab-graph","version":1}\n'
        '{"name":"a","kind":"primitive","body_refs":{"b":2}}\n'
        '{"name":"b","kind":"definition"}\n'
    )
    with pytest.raises(CorpusError, match="primitive element 'a' must reference nothing"):
        load_graph(str(path))


@pytest.mark.parametrize("fields, message", [
    ('"name":"","kind":"definition"', "element names must be non-empty strings"),
    ('"name":7,"kind":"definition"', "element names must be non-empty strings"),
    ('"name":"a","kind":"conjecture"', "unknown element kind 'conjecture'"),
    ('"name":"a","kind":["theorem"]', "unknown element kind"),
    ('"name":"a","kind":"definition","token_count_body":0', "token_count_body must be"),
    ('"name":"a","kind":"definition","generated":"no"', "generated must be true or false"),
    ('"name":"a","kind":"definition","generated":0', "generated must be true or false"),
])
def test_both_formats_apply_the_same_record_checks(tmp_path, fields, message):
    for fmt, load in (("graph", load_graph), ("corpus", load_corpus)):
        path = tmp_path / f"{fmt}.jsonl"
        path.write_text(f'{{"format":"macrolab-{fmt}","version":1}}\n{{{fields}}}\n')
        with pytest.raises(CorpusError, match=message) as err:
            load(str(path))
        assert err.value.line == 2


@pytest.mark.parametrize("record, message", [
    ('{"name":"p","kind":"primitive","body":"(sort)"}', "primitive element 'p' cannot have a body"),
    ('{"name":"d","kind":"definition","signature":5}', "signature must be a string or null"),
])
def test_corpus_record_errors_carry_their_line(tmp_path, record, message):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"format":"macrolab-corpus","version":1}\n' + record + "\n")
    for load in (load_corpus, ingest_corpus):
        with pytest.raises(CorpusError, match=message) as err:
            load(str(path))
        assert err.value.line == 2


def test_load_graph_rejects_wrong_header(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text('{"format":"something-else","version":1}\n')
    with pytest.raises(CorpusError) as err:
        load_graph(str(path))
    assert err.value.line == 1


def test_load_graph_rejects_wrong_version(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text('{"format":"macrolab-graph","version":99}\n')
    with pytest.raises(CorpusError):
        load_graph(str(path))


def test_load_graph_rejects_empty_files(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text("")
    with pytest.raises(CorpusError):
        load_graph(str(path))


def test_load_graph_rejects_bad_reference_weights(tmp_path):
    path = tmp_path / "graph.jsonl"
    path.write_text(
        '{"format":"macrolab-graph","version":1}\n'
        '{"name":"a","kind":"definition","sig_refs":{"b":0}}\n'
    )
    with pytest.raises(CorpusError) as err:
        load_graph(str(path))
    assert err.value.line == 2


def test_load_corpus_reports_parse_errors_with_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"format":"macrolab-corpus","version":1}\n'
        '{"name":"bad","kind":"definition","signature":"(app (sort)"}\n'
    )
    with pytest.raises(CorpusError) as err:
        load_corpus(str(path))
    assert err.value.line == 2
    assert "bad" in str(err.value)


# --- ingest in one pass against load and build ---

# A few names, so that consts repeat within an expression and across records.
EXPORT_NAMES = st.sampled_from(["a", "b", "c.d", "e_1"])
EXPORT_EXPRS = st.recursive(
    st.one_of(EXPORT_NAMES.map(partial(ExprNode, "const")),
              st.just(ExprNode("sort")), st.just(ExprNode("other"))),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(partial(ExprNode, "app", None)),
        st.tuples(sub, sub).map(partial(ExprNode, "lam", None)),
        st.tuples(sub, sub, sub).map(partial(ExprNode, "letE", None)),
        st.tuples(sub).map(partial(ExprNode, "mdata", None))),
    max_leaves=12)
# Whitespace the tokenizer splits at: tabs, CRLF, a no-break space, a line separator.
SPACING = st.sampled_from([" ", "  ", "\t", "\r\n", "\u00a0", "\u2028"])


@st.composite
def exports(draw) -> list[dict]:
    def text(node):
        gap, inner, edge = draw(SPACING), draw(SPACING | st.just("")), draw(SPACING | st.just(""))
        return edge + print_expr(node).replace(" ", gap).replace("(", "(" + inner) + edge

    records = []
    for name in draw(st.lists(EXPORT_NAMES, max_size=4, unique=True)):
        if draw(st.integers(0, 4)) == 0:
            records.append({"name": name, "kind": "primitive"})
            continue
        rec = {"name": name, "kind": draw(st.sampled_from(["definition", "lemma", "structure"])),
               "signature": text(draw(EXPORT_EXPRS)),
               "token_count_signature": draw(st.none() | st.integers(1, 9))}
        body = draw(st.none() | EXPORT_EXPRS | st.just("absent"))
        if body != "absent":
            rec["body"] = None if body is None else text(body)
        records.append(rec)
    return records


def graph_arrays(graph: DepGraph) -> tuple:
    return (graph.sorted_names, graph.kinds, graph.generated, graph.tokens_sig,
            graph.tokens_body, graph.off, graph.dst, graph.sig_w, graph.body_w, graph.ref_w)


@settings(deadline=None, max_examples=150)
@given(exports())
def test_ingest_matches_build_graph_of_load_corpus(tmp_path_factory, records):
    # ingest_corpus counts references without building trees; load_corpus
    # builds them and build_graph counts them with collect_elems.
    path = tmp_path_factory.mktemp("ingest") / "corpus.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in
                            [{"format": "macrolab-corpus", "version": 1}, *records]),
                    encoding="utf-8")
    assert graph_arrays(ingest_corpus(str(path))) == graph_arrays(
        build_graph(load_corpus(str(path))))
