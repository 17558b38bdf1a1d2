import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edimlab import (
    BadParamsError,
    DuplicateEdgeError,
    FormatError,
    Graph,
    SelfLoopError,
    VertexOutOfRangeError,
    build_graph,
    parse_edge_list,
    parse_graph6,
    parse_graph_text,
    write_edge_list,
    write_graph6,
)
from edimlab import formats

from conftest import complete, connected_graphs, cycle, path


def test_edge_list_roundtrip():
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    text = write_edge_list(g)
    assert text == "4 3\n0 1\n0 3\n1 2\n"
    assert parse_edge_list(text) == g


@pytest.mark.parametrize("lines", [1, 2, 3, 4])
def test_edge_list_chunks_join_to_the_edge_list(monkeypatch, lines):
    monkeypatch.setattr(formats, "_EDGE_LIST_CHUNK_LINES", lines)
    g = build_graph(4, [(0, 1), (1, 2), (0, 3)])
    chunks = list(formats.edge_list_chunks(g))
    assert "".join(chunks) == write_edge_list(g) == "4 3\n0 1\n0 3\n1 2\n"
    assert max(c.count("\n") for c in chunks) <= lines


def test_edge_list_ignores_comments_and_blanks():
    g = parse_edge_list("# a path\n\n3 2\n0 1\n\n# midway\n1 2\n")
    assert g == path(3)


def test_edge_list_errors_name_the_line():
    with pytest.raises(FormatError, match="line 1"):
        parse_edge_list("not a header\n")
    with pytest.raises(FormatError, match="line 3"):
        parse_edge_list("2 1\n\n0 x\n")
    with pytest.raises(FormatError, match="declares 2 edges"):
        parse_edge_list("3 2\n0 1\n")


def test_edge_list_propagates_graph_validation():
    with pytest.raises(DuplicateEdgeError):
        parse_edge_list("3 2\n0 1\n1 0\n")


def test_graph6_known_encodings():
    assert write_graph6(path(3)) == "Bg"
    assert write_graph6(complete(4)) == "C~"
    assert write_graph6(cycle(5)) == "Dhc"


def test_graph6_roundtrip_with_header():
    g = cycle(5)
    assert parse_graph6(">>graph6<<" + write_graph6(g)) == g


def test_graph6_single_vertex():
    g = build_graph(1, [])
    assert write_graph6(g) == "@"
    assert parse_graph6("@") == g


def test_graph6_large_size_field():
    g = build_graph(100, [(i, i + 1) for i in range(99)])
    assert parse_graph6(write_graph6(g)) == g


def test_graph6_vertex_cap_is_checked_before_the_body():
    # 4-byte size fields alone: n = 4097 is refused by the cap, while
    # n = 4096 passes it and fails only on the missing body
    with pytest.raises(FormatError, match="vertex count 4097 exceeds the cap of 4096"):
        parse_graph6("~@?@")
    with pytest.raises(FormatError, match="expected 1397760 data characters for n=4096"):
        parse_graph6("~@??")


def test_graph6_errors_name_the_character():
    with pytest.raises(FormatError, match="position 2"):
        parse_graph6("Bg extra")
    with pytest.raises(FormatError, match="expected 1 data characters"):
        parse_graph6("BgW")
    with pytest.raises(FormatError, match="padding"):
        # C_3 needs 3 pair bits; '~' sets the padding bits too
        parse_graph6("B~")


def test_graph6_matches_networkx_exhaustively():
    nx = pytest.importorskip("networkx")
    from edimlab.experiments import enumerate_connected_graphs

    for n in range(1, 6):
        for g in enumerate_connected_graphs(n):
            ng = nx.Graph()
            ng.add_nodes_from(range(n))
            ng.add_edges_from(g.edges)
            theirs = nx.to_graph6_bytes(ng, header=False).decode().strip()
            assert write_graph6(g) == theirs
            assert parse_graph6(theirs) == g


@given(connected_graphs(min_n=1, max_n=9))
@settings(max_examples=80, deadline=None)
def test_both_formats_roundtrip(g):
    assert parse_graph6(write_graph6(g)) == g
    assert parse_edge_list(write_edge_list(g)) == g


def test_parse_graph_text_sniffs_format():
    g = cycle(4)
    assert parse_graph_text(write_edge_list(g)) == g
    assert parse_graph_text(write_graph6(g)) == g
    with pytest.raises(FormatError):
        parse_graph_text("")


_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["--1", "+1", "1.5", "0x1", "²", "١", "x", "#", "", "Bw", "~@?", "é"]),
)
# edge-list shaped text: lines of zero to three tokens, often a header and edges
_LINES = st.lists(st.lists(_TOKENS, min_size=0, max_size=3).map(" ".join), max_size=6)
_MALFORMED = st.one_of(
    st.text(alphabet=st.characters(codec="utf-8", exclude_characters="\x00"), max_size=40),
    st.text(alphabet="0123456789 -#\n\t\r\x85?@ABCw~", max_size=40),
    _LINES.map("\n".join),
    st.text(alphabet=st.characters(min_codepoint=63, max_codepoint=126), max_size=12).map(
        lambda body: ">>graph6<<" + body  # graph6 shaped: header, size field, data
    ),
)
# what build_graph raises for a well-formed edge list naming an invalid graph
_GRAPH_VALIDATION = (BadParamsError, DuplicateEdgeError, SelfLoopError, VertexOutOfRangeError)


@given(_MALFORMED, st.sampled_from(["auto", "edgelist", "graph6"]))
@settings(max_examples=1000, deadline=None)
def test_malformed_text_raises_only_format_errors(text, fmt):
    try:
        g = parse_graph_text(text, fmt)
    except FormatError:
        return
    except _GRAPH_VALIDATION:
        assert fmt != "graph6"  # the graph6 reader builds only valid graphs
        return
    assert isinstance(g, Graph)


@pytest.mark.parametrize("text", ["--1 0\n", "2 1\n0 --1\n", "² 0\n", "2 1\n0 ¹\n"])
def test_edge_list_rejects_integers_int_cannot_read(text):
    with pytest.raises(FormatError):
        parse_graph_text(text, "edgelist")


def test_edge_list_integer_past_the_digit_limit_is_a_graph_error():
    # int() refuses more than 4300 digits on Pythons with the limit; either
    # way the reader must end in a GraphError (exit code 2), not a ValueError
    with pytest.raises((FormatError, BadParamsError)):
        parse_graph_text("9" * 5000 + " 0\n", "edgelist")
