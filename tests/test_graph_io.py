"""The graph file's bulk reader and direct writer against the code they replace.

The oracle reader is the record-at-a-time path: `_read_jsonl` decodes one line
at a time and `_fields` and `_refs_field` check each record, as every graph
file was read before the bulk path existed (and as a file the bulk path
refuses still is).  The oracle writer is `json` itself, fed the name-keyed
record dicts `save_graph` used to build.  Hypothesis draws small graphs with
cycles, self-loops, sinks, names on both the signature and the body side, and
names that need escaping; valid files must give identical arrays, and a file
with one bad record the same error and line.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macrolab.corpus import (
    GRAPH_FORMAT,
    CorpusError,
    DepGraph,
    GraphNode,
    _bulk_rows,
    _fields,
    _read_jsonl,
    _refs_field,
    load_graph,
    save_graph,
)


def oracle_load_graph(path: str) -> DepGraph:
    rows = [(*_fields(lineno, rec), _refs_field(rec, "sig_refs", lineno),
             _refs_field(rec, "body_refs", lineno))
            for lineno, rec in _read_jsonl(path, GRAPH_FORMAT)]
    try:
        return DepGraph(rows=rows)
    except CorpusError as exc:
        raise CorpusError(f"inconsistent graph: {exc}") from exc


def oracle_records(graph: DepGraph) -> list[dict]:
    return [{"name": name, "kind": graph.kinds[i], "generated": graph.generated[i],
             "token_count_signature": graph.tokens_sig[i],
             "token_count_body": graph.tokens_body[i],
             "sig_refs": graph.refs(i, graph.sig_w), "body_refs": graph.refs(i, graph.body_w)}
            for i, name in enumerate(graph.sorted_names)]


def arrays(graph: DepGraph) -> tuple:
    return (graph.sorted_names, graph.kinds, graph.generated, graph.tokens_sig,
            graph.tokens_body, graph.off, graph.dst, graph.sig_w, graph.body_w, graph.ref_w)


def outcome(load, path) -> tuple:
    try:
        return ("ok", arrays(load(str(path))))
    except CorpusError as exc:
        return ("error", str(exc), exc.line)


# --- random graphs ---

# Quotes, backslashes, commas, control characters, non-ASCII text, a lone
# surrogate, and the three characters str.splitlines breaks at beyond "\n".
NAMES = st.text(st.sampled_from('ab,"\\\n\t\x00\x1f é€  \x85\ud800'),
                min_size=1, max_size=4)
KINDS = ("definition", "theorem", "structure", "inductive")
TOKENS = st.none() | st.integers(1, 30) | st.integers(2**63 - 2, 2**70)


@st.composite
def graphs(draw) -> DepGraph:
    declared = draw(st.lists(NAMES, min_size=1, max_size=6, unique=True))
    pool = declared + draw(st.lists(NAMES, max_size=2))  # undeclared names become sinks
    refs = st.dictionaries(st.sampled_from(pool), st.integers(1, 4), max_size=4)
    nodes = []
    for name in declared:
        primitive = draw(st.integers(0, 4)) == 0
        sig, body = ({}, {}) if primitive else (draw(refs), draw(refs))
        nodes.append(GraphNode(name, "primitive" if primitive else draw(st.sampled_from(KINDS)),
                               draw(st.booleans()), draw(TOKENS), draw(TOKENS), sig, body))
    referenced = {t for nd in nodes for t in (*nd.sig_refs, *nd.body_refs)}
    nodes += [GraphNode(name, "synthetic", True, None, None)
              for name in sorted(referenced - set(declared))]
    return DepGraph(nodes)


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("graph_io") / "graph.jsonl"


def write_records(path, records: list[dict]) -> None:
    path.write_text(json.dumps({"format": GRAPH_FORMAT, "version": 1}) + "\n"
                    + "".join(json.dumps(rec) + "\n" for rec in records), encoding="utf-8")


# --- the reader ---


@settings(deadline=None, max_examples=150)
@given(graphs(), st.data())
def test_bulk_load_matches_the_per_record_oracle(graph_file, graph, data):
    save_graph(graph, str(graph_file))
    assert _bulk_rows(str(graph_file)) is not None  # a canonical file takes the bulk path
    assert arrays(load_graph(str(graph_file))) == arrays(graph)

    # The same graph spelled another way: shuffled records, keys in another
    # order, refs not sorted, optional keys left out, the `lemma` alias.
    records = oracle_records(graph)
    records = data.draw(st.permutations(records))
    dropped = lemma = False
    for i, rec in enumerate(records):
        if data.draw(st.booleans()):
            rec["sig_refs"] = dict(reversed(rec["sig_refs"].items()))
        if data.draw(st.booleans()):
            for key, absent in (("generated", False), ("token_count_signature", None),
                                ("token_count_body", None), ("sig_refs", {}),
                                ("body_refs", {})):
                if rec[key] == absent and type(rec[key]) is type(absent):
                    del rec[key]
                    dropped = True
        if rec["kind"] == "theorem" and data.draw(st.booleans()):
            rec["kind"] = "lemma"
            lemma = True
        records[i] = dict(data.draw(st.permutations(list(rec.items()))))
    write_records(graph_file, records)
    assert outcome(load_graph, graph_file) == outcome(oracle_load_graph, graph_file) \
        == ("ok", arrays(graph))
    assert (_bulk_rows(str(graph_file)) is None) == (dropped or lemma)


def _mutations(rec: dict, other: dict) -> dict:
    """Ways to break one record, given another record of the same file."""
    some_ref = {**rec["sig_refs"], **rec["body_refs"]} or {other["name"]: 1}
    target = next(iter(some_ref))
    return {
        "bool weight": {**rec, "sig_refs": {target: True}},
        "zero weight": {**rec, "body_refs": {target: 0}},
        "float weight": {**rec, "sig_refs": {target: 1.0}},
        "bool count": {**rec, "token_count_signature": True},
        "zero count": {**rec, "token_count_body": 0},
        "float count": {**rec, "token_count_signature": 2.0},
        "string generated": {**rec, "generated": "no"},
        "undeclared target": {**rec, "sig_refs": {"\x00undeclared": 1}},
        "leaf with refs": {**rec, "kind": "primitive", "sig_refs": some_ref},
        "duplicate name": {**rec, "name": other["name"]},
        "unknown kind": {**rec, "kind": "conjecture"},
        "empty name": {**rec, "name": ""},
        "refs not an object": {**rec, "body_refs": [target]},
        "bad JSON": None,
        "not an object": [rec["name"]],
    }


@settings(deadline=None, max_examples=150)
@given(graphs(), st.data())
def test_one_bad_record_reports_as_the_per_record_oracle(graph_file, graph, data):
    records = oracle_records(graph)
    i = data.draw(st.integers(0, len(records) - 1))
    mutations = _mutations(records[i], records[i - 1])
    name = data.draw(st.sampled_from(sorted(mutations)))
    bad = mutations[name]
    write_records(graph_file, records)
    lines = graph_file.read_text(encoding="utf-8").split("\n")
    lines[i + 1] = lines[i + 1][:-1] if bad is None else json.dumps(bad)
    graph_file.write_text("\n".join(lines), encoding="utf-8")
    expected = outcome(oracle_load_graph, graph_file)
    assert outcome(load_graph, graph_file) == expected
    if name != "duplicate name" or len(records) > 1:
        assert expected[0] == "error", name


@pytest.mark.parametrize("text", [
    "",
    '{"format":"macrolab-graph","version":2}\n',
    '{"format":"macrolab-graph","version":1}\n\n \n',
    '{"format":"macrolab-graph","version":1}\n{"name":"a","kind":"definition"',
    b'{"format":"macrolab-graph","version":1}\n{"name":"\xff"}\n',
], ids=["empty", "version", "blank lines", "cut off", "bad UTF-8"])
def test_edge_case_files_read_as_the_oracle_reads_them(tmp_path, text):
    path = tmp_path / "graph.jsonl"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text, encoding="utf-8")
    try:
        expected = ("ok", arrays(oracle_load_graph(str(path))))
    except (CorpusError, UnicodeDecodeError) as exc:
        expected = (type(exc), str(exc))
    try:
        got = ("ok", arrays(load_graph(str(path))))
    except (CorpusError, UnicodeDecodeError) as exc:
        got = (type(exc), str(exc))
    assert got == expected


def test_lines_that_split_and_merge_records_are_not_read_in_bulk(tmp_path):
    # Line 2 holds two records, and a record with an extra key runs over lines
    # 3 and 4; in brackets per line they decode to as many wrappers as there
    # are lines, so only the seven-key rule keeps the bulk path off them.
    rec = '{"body_refs":{},"generated":false,"kind":"definition","name":"%s",' \
          '"sig_refs":{},"token_count_body":null,"token_count_signature":null'
    path = tmp_path / "graph.jsonl"
    path.write_text('{"format":"macrolab-graph","version":1}\n'
                    + rec % "a" + "}],[" + rec % "b" + "}\n"
                    + rec % "c" + ',"x":[[1\n' + "2]]}\n", encoding="utf-8")
    assert _bulk_rows(str(path)) is None
    with pytest.raises(CorpusError, match="bad JSON") as err:
        load_graph(str(path))
    assert err.value.line == 2


# --- the writer ---


@settings(deadline=None, max_examples=150)
@given(graphs())
def test_save_graph_writes_what_json_writes(graph_file, graph):
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    save_graph(graph, str(graph_file))
    text = graph_file.read_bytes()
    expected = "".join(encode(rec) + "\n" for rec in
                       [{"format": GRAPH_FORMAT, "version": 1}, *oracle_records(graph)])
    assert text == expected.encode("ascii")
    save_graph(load_graph(str(graph_file)), str(graph_file))
    assert graph_file.read_bytes() == text
