import ast
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gpmop
from gpmop import (
    Disconnected,
    DuplicateEdge,
    EdgeListError,
    SelfLoop,
    UNREACHABLE,
    VertexOutOfRange,
    all_pairs_distances,
    build_graph,
    fan,
    format_edge_list,
    generalized_sunflower,
    interval,
    is_connected,
    lies_on_geodesic,
    parse_edge_list,
)
from gpmop.graph import _source_rows
from helpers import BIG, exhaustive_interval, floyd_warshall, random_connected_graph


def path_graph(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestBuildGraph:
    def test_triangle(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.order == 3
        assert g.edges == frozenset({(0, 1), (1, 2), (0, 2)})
        assert g.adjacency == ((1, 2), (0, 2), (0, 1))

    def test_path(self):
        g = path_graph(4)
        assert g.degree(0) == 1 and g.degree(1) == 2
        assert g.max_degree == 2

    def test_duplicate_edge_names_pair(self):
        with pytest.raises(DuplicateEdge, match=r"\(0,1\)"):
            build_graph(3, [(0, 1), (0, 1)])
        with pytest.raises(DuplicateEdge):
            build_graph(3, [(0, 1), (1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoop, match=r"\(2,2\)"):
            build_graph(3, [(0, 1), (2, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRange, match=r"\(1,3\)"):
            build_graph(3, [(0, 1), (1, 3)])

    def test_has_edge_symmetric(self):
        g = path_graph(3)
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert not g.has_edge(0, 2)

    def test_order_capped_at_the_sentinel(self):
        # A path on 0x10000 vertices has an end-to-end distance equal to
        # UNREACHABLE, so such an order cannot be represented.
        with pytest.raises(VertexOutOfRange, match="order must be in 1..65535, got 65536"):
            build_graph(UNREACHABLE + 1, [(i, i + 1) for i in range(UNREACHABLE)])

    def test_largest_order_path_is_connected(self):
        assert is_connected(path_graph(UNREACHABLE))


class TestNeighbourMasks:
    @given(st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_each_mask_holds_its_row(self, seed):
        # Orders from 1, with densities from edgeless to complete.
        rng = random.Random(seed)
        n = rng.randint(1, 40)
        p = rng.choice((0.0, 0.1, 0.5, 1.0))
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        assert g.neighbour_masks == tuple(sum(1 << w for w in g.adjacency[v]) for v in range(n))

    def test_order_one_and_edgeless(self):
        assert build_graph(1, []).neighbour_masks == (0,)
        assert build_graph(5, []).neighbour_masks == (0,) * 5


class TestDistances:
    def test_path_end_to_end(self):
        dist = all_pairs_distances(path_graph(4))
        assert dist[0][3] == 3

    def test_fan_diameter_two(self):
        inst = fan(5)
        dist = all_pairs_distances(inst.graph)
        assert dist[inst.role_map["p1"]][inst.role_map["p4"]] == 2

    def test_sunflower_petal_distance(self):
        inst = generalized_sunflower(7)
        dist = all_pairs_distances(inst.graph)
        assert dist[inst.role_map["v0"]][inst.role_map["v2"]] == 3

    def test_unreachable_marker(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        dist = all_pairs_distances(g)
        assert dist[0][2] == UNREACHABLE
        assert UNREACHABLE in dist[0]

    def test_matrix_is_read_only(self):
        dist = all_pairs_distances(path_graph(3))
        with pytest.raises(TypeError):
            dist[0][1] = 5

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_matrix_invariants(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9))
        dist = all_pairs_distances(g)
        assert dist == tuple(zip(*dist))
        assert all(dist[v][v] == 0 for v in range(g.order))
        for u in range(g.order):
            for v in range(u + 1, g.order):
                assert (dist[u][v] == 1) == g.has_edge(u, v)

    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_matches_floyd_warshall(self, seed, union):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(1, 9))
        if union:
            h = random_connected_graph(rng, rng.randint(1, 9))
            shifted = [(u + g.order, v + g.order) for u, v in h.edges]
            g = build_graph(g.order + h.order, sorted(g.edges) + shifted)
        expected = tuple(
            tuple(UNREACHABLE if d == BIG else d for d in row) for row in floyd_warshall(g)
        )
        dist = all_pairs_distances(g)
        assert dist == expected
        assert (UNREACHABLE not in dist[0]) == (not union)
        sources = set(rng.sample(range(g.order), rng.randint(0, g.order)))
        assert _source_rows(g, sources) == tuple(
            row if s in sources else () for s, row in enumerate(expected))


def test_import_does_not_load_numpy():
    # No runtime dependency: the package and its CLI load only standard-library
    # modules besides gpmop itself, and not multiprocessing, which only a
    # census pool of more than one worker imports.
    src = str(Path(gpmop.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules)\n"
        "import gpmop, gpmop.cli\n"
        "print('numpy' in sys.modules, 'multiprocessing' in sys.modules)\n"
        "new = [m for m in sys.modules if m not in before]\n"
        "tops = {m.partition('.')[0] for m in new}\n"
        "print(sorted(tops - set(sys.stdlib_module_names) - {'gpmop'}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=src, check=True
    )
    assert proc.stdout.splitlines() == ["False False", "[]"]


def test_every_import_is_used():
    # Each module but __init__.py, which imports only to re-export, loads
    # every name it imports; a __future__ import binds no name to load.
    unused = {}
    for path in sorted(Path(gpmop.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).partition(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if imported - loaded:
            unused[path.name] = sorted(imported - loaded)
    assert unused == {}


class TestInterval:
    def test_whole_path(self):
        g = path_graph(4)
        assert interval(g, all_pairs_distances(g), 0, 3) == frozenset({0, 1, 2, 3})

    def test_adjacent_in_complete_graph(self):
        g = build_graph(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
        assert interval(g, all_pairs_distances(g), 0, 1) == frozenset({0, 1})

    def test_unique_geodesic_on_cycle(self):
        g = cycle_graph(5)
        assert interval(g, all_pairs_distances(g), 0, 2) == frozenset({0, 1, 2})

    def test_disconnected_rejected(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        with pytest.raises(Disconnected):
            interval(g, all_pairs_distances(g), 0, 2)

    @given(st.integers(0, 10**9))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_path_enumeration(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 9))
        dist = all_pairs_distances(g)
        for _ in range(4):
            u, v = rng.randrange(g.order), rng.randrange(g.order)
            assert interval(g, dist, u, v) == exhaustive_interval(g, u, v)


class TestLiesOnGeodesic:
    def test_middle_of_path(self):
        dist = all_pairs_distances(path_graph(3))
        assert lies_on_geodesic(dist, 0, 1, 2)

    def test_triangle_never(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        dist = all_pairs_distances(g)
        assert not any(
            lies_on_geodesic(dist, a, b, c)
            for a in range(3)
            for b in range(3)
            for c in range(3)
            if len({a, b, c}) == 3
        )

    def test_four_cycle_antipodal(self):
        # Brute-check: on C4, 0 sits between 1 and 3.
        dist = all_pairs_distances(cycle_graph(4))
        assert lies_on_geodesic(dist, 1, 0, 3)

    def test_out_of_range(self):
        dist = all_pairs_distances(path_graph(3))
        with pytest.raises(VertexOutOfRange):
            lies_on_geodesic(dist, 0, 1, 7)

    def test_disconnected_triple(self):
        dist = all_pairs_distances(build_graph(4, [(0, 1), (2, 3)]))
        with pytest.raises(Disconnected):
            lies_on_geodesic(dist, 0, 1, 2)

    @given(st.integers(0, 10**9))
    @settings(max_examples=30, deadline=None)
    def test_consistent_with_interval(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(3, 8))
        dist = all_pairs_distances(g)
        for _ in range(6):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            if len({a, b, c}) < 3:
                continue
            assert lies_on_geodesic(dist, a, b, c) == (b in interval(g, dist, a, c))


class TestEdgeListFormat:
    def test_parse_with_comments_and_blanks(self):
        text = "# a fan\n\n4\n0 1\n# middle comment\n1 2\n2 3\n"
        g = parse_edge_list(text)
        assert g.order == 4 and len(g.edges) == 3

    def test_round_trip(self):
        g = fan(7).graph
        assert parse_edge_list(format_edge_list(g)) == g

    def test_header_lines_become_comments(self):
        # One comment per header with no line break, the empty one included.
        text = format_edge_list(path_graph(2), header=["hello", "", " "])
        assert text == "# hello\n# \n#  \n2\n0 1\n"

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x1c", "\x85", "\u2028"])
    def test_header_line_breaks_stay_comments(self, brk):
        g = fan(4).graph
        for header in ([f"label=x{brk}2"], [f"a{brk}", brk, ""], [f"{brk}{brk}0 1{brk}"]):
            assert parse_edge_list(format_edge_list(g, header)) == g

    def test_missing_count(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("# nothing else\n")

    def test_bad_count(self):
        with pytest.raises(EdgeListError, match="vertex count"):
            parse_edge_list("x\n0 1\n")
        with pytest.raises(EdgeListError, match="vertex count must be >= 1"):
            parse_edge_list("0\n")

    def test_bad_edge_line(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("3\n0 1 2\n")
        with pytest.raises(EdgeListError, match="line 2: endpoints must be integers"):
            parse_edge_list("3\n0 x\n")

    def test_duplicate_entry_is_hard_error(self):
        with pytest.raises(DuplicateEdge):
            parse_edge_list("3\n0 1\n1 0\n")

    def test_out_of_range_entry_is_hard_error(self):
        with pytest.raises(VertexOutOfRange):
            parse_edge_list("3\n0 5\n")

    def test_huge_declared_order_rejected(self):
        with pytest.raises(VertexOutOfRange, match="order must be in 1..65535"):
            parse_edge_list("999999999\n")


def plain_int(token):
    # A plain decimal id: ASCII digits with an optional leading '-'.
    if re.fullmatch("-?[0-9]+", token) is None:
        raise ValueError(token)
    return int(token)


def stripping_parse(text):
    # The parser that strips every line before it looks at it: the count line
    # is the first non-comment line, each later one must split into two
    # plain decimal ids.
    order = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if order is None:
            try:
                order = plain_int(line)
            except ValueError:
                raise EdgeListError(f"line {lineno}: expected vertex count, got {line!r}") from None
            if order < 1:
                raise EdgeListError(f"line {lineno}: vertex count must be >= 1, got {order}")
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = plain_int(parts[0]), plain_int(parts[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: endpoints must be integers, got {line!r}") from None
        edges.append((u, v))
    if order is None:
        raise EdgeListError("no vertex count line found")
    return build_graph(order, edges)


def outcome(parse, text):
    # The graph, or the error's type and message.
    try:
        return parse(text)
    except gpmop.GraphError as exc:
        return type(exc), str(exc)


# Blank, whitespace-only and comment lines, tabs, CRLF endings, trailing
# spaces, separators that str.strip removes but int() keeps, every error, and
# ids that int() reads but that are not plain decimal: '_' separators, a '+'
# sign and non-ASCII digits, alone and in otherwise ASCII text.
PARSE_CORPUS = [
    "",
    "\n\n",
    "# only a comment\n   \n",
    "# a fan\n\n4\n0 1\n# middle\n1 2\n2 3\n",
    "  # indented\n\t# tabbed\n3\r\n0 1\r\n1\t2\r\n\r\n  \t \r\n0 2  \r\n",
    "3 \n 0   1 \n\t1 2\t\n",
    "\x1f3\x1f\n0\x1f1\n",
    "3\x0b0 1\x0c1 2\x1c\n",
    "3\n0 1 # trailing comment\n",
    "3\n0 1#x\n",
    "3\n#0 1\n",
    "x\n0 1\n",
    "3 4\n0 1\n",
    "  0 \n",
    "-2\n",
    "1_0\n0 1\n",
    "3\n+0 1\n",
    "+3\n0 1\n",
    "3\n0_1 2\n",
    "3\n0 1_0\n",
    "\u0663\n0 1\n",
    "3\n0 \u0662\n",
    "3\n0 1\n# \u0663 in a comment\n1 2\n",
    "3\n0 1\n1\u00a02\n",
    "3\n--1 0\n",
    "3\n-\n",
    "3\n- 1\n",
    "3\n0\n",
    "3\n0 1 2\n",
    "3\n0 x\n",
    "3\n 0\tx  \r\n",
    "3\n0 1\n1 0\n",
    "3\n1 1\n",
    "3\n0 5\n",
    "3\n-1 0\n",
    "999999999\n",
    "# header\n\n\n2\n\n0 1\n\n",
]


class TestParserAgainstStripping:
    @pytest.mark.parametrize("text", PARSE_CORPUS)
    def test_corpus(self, text):
        assert outcome(parse_edge_list, text) == outcome(stripping_parse, text)

    @given(st.text(alphabet="0123#x \t\r\n\x0b\x1f-_+\u0663\u00a0", max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_random_text(self, text):
        assert outcome(parse_edge_list, text) == outcome(stripping_parse, text)
