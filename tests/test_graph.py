import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushcops.errors import (
    DisconnectedError,
    DuplicateEdgeError,
    NoVertexError,
    SelfLoopError,
    TwoCycleError,
    VertexOutOfRangeError,
)
from pushcops.graph import (
    OrientedGraph,
    UnderlyingGraph,
    is_dag,
    is_trapped,
    parse_arcs,
    push_parity,
    reachable_from,
    serialize_arcs,
    validate_graph,
)

from conftest import orientation_bits, random_oriented, same_orientation


def triangle() -> OrientedGraph:
    return validate_graph(3, [(0, 1), (1, 2), (2, 0)])


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(SelfLoopError):
            UnderlyingGraph.from_edges(2, [(0, 1), (1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            UnderlyingGraph.from_edges(2, [(0, 1), (1, 0)])

    def test_two_cycle_rejected(self):
        with pytest.raises(TwoCycleError):
            validate_graph(2, [(0, 1), (1, 0)])

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedError):
            UnderlyingGraph.from_edges(4, [(0, 1), (2, 3)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRangeError):
            UnderlyingGraph.from_edges(2, [(0, 2)])

    def test_edges_canonicalized(self):
        g = UnderlyingGraph.from_edges(3, [(2, 1), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (1, 2))
        assert g.degree(0) == 2 and g.max_degree() == 2


class TestOrientedGraphValue:
    """A frozen value: fields compare, hash and print; the cached tables do not."""

    def setup_method(self):
        self.g = UnderlyingGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])

    def test_fields_are_read_only(self):
        og = OrientedGraph(self.g, 5, 1)
        for name, value in (("parity", 0), ("ref_bits", 0), ("graph", self.g)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(og, name, value)
        assert (og.graph, og.ref_bits, og.parity) == (self.g, 5, 1)

    def test_eq_hash_repr_ignore_cached_tables(self):
        a, b = OrientedGraph(self.g, 5, 1), OrientedGraph(self.g, 5, 1)
        before = (hash(a), repr(a))
        a.out_neighbors(0)  # fills a's neighbour-table cache only
        assert a == b and hash(a) == hash(b) == before[0]
        assert repr(a) == repr(b) == before[1] == (
            f"OrientedGraph(graph={self.g!r}, ref_bits=5, parity=1)"
        )
        assert OrientedGraph(self.g, 5) == OrientedGraph(self.g, 5, 0)
        assert a != OrientedGraph(self.g, 5, 2) and a != OrientedGraph(self.g, 4, 1)

    def test_replace(self):
        og = OrientedGraph(self.g, 5, 1)
        og.out_neighbors(0)
        other = dataclasses.replace(og, parity=2)
        assert other == og.with_parity(2) and other.ref_bits == 5
        assert other.out_neighbors(0) == og.with_parity(2).out_neighbors(0)
        assert [f.name for f in dataclasses.fields(og)] == ["graph", "ref_bits", "parity"]


class TestUnderlyingGraphValue:
    def test_frozen_value_ignores_adj_and_edge_cache(self):
        g = UnderlyingGraph.from_edges(3, [(0, 1), (1, 2)])
        h = UnderlyingGraph(3, ((0, 1), (1, 2)), ((1,), (0, 2), (1,)))
        g.edge_index(1, 2)  # fills g's edge-index cache only
        assert g == h and hash(g) == hash(h) and repr(g) == repr(h)
        assert repr(g) == "UnderlyingGraph(n=3, edges=((0, 1), (1, 2)), adj=((1,), (0, 2), (1,)))"
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 4
        assert dataclasses.replace(g, adj=()) == g != UnderlyingGraph(3, ((0, 1),), ())
        assert [f.name for f in dataclasses.fields(g)] == ["n", "edges", "adj"]


class TestArcFormat:
    def test_round_trip(self):
        og = triangle()
        assert same_orientation(parse_arcs(serialize_arcs(og)), og)

    @given(st.integers(0, 10_000), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_serialize_matches_arcs(self, seed, n):
        og = random_oriented(random.Random(seed), n)
        lines = [f"{og.n} {og.m}", *(f"{u} {v}" for u, v in og.arcs())]
        assert serialize_arcs(og) == "\n".join(lines) + "\n"

    def test_comments_and_blanks(self):
        text = "# a triangle\n3 3\n0 1\n\n1 2  # forward\n2 0\n"
        assert list(parse_arcs(text).arcs()) == [(0, 1), (2, 0), (1, 2)]

    def test_bad_header(self):
        with pytest.raises(ValueError):
            parse_arcs("3\n0 1\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(ValueError):
            parse_arcs("3 3\n0 1\n1 2\n")

    @pytest.mark.parametrize("header", ["-1 0", "0 0"])
    def test_vertex_count_below_one(self, header):
        with pytest.raises(NoVertexError, match="at least one vertex"):
            parse_arcs(header + "\n")


class TestPushAlgebra:
    @given(st.integers(0, 10_000), st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_push_is_involution(self, seed, n):
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        v = rng.randrange(n)
        assert og.push(v).push(v).parity == og.parity

    @given(st.integers(0, 10_000), st.integers(3, 8))
    @settings(max_examples=60, deadline=None)
    def test_pushes_commute(self, seed, n):
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        u, v = rng.randrange(n), rng.randrange(n)
        assert og.push(u).push(v).parity == og.push(v).push(u).parity

    @given(st.integers(0, 10_000), st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_pushing_every_vertex_is_identity(self, seed, n):
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        assert og.push_many(range(n)).parity == og.parity

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=60, deadline=None)
    def test_parity_arcs_match_naive_flipping(self, seed, n):
        """Oracle: apply the pushes by literally reversing incident arcs."""
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        naive = set(og.arcs())
        current = og
        for _ in range(rng.randrange(1, 8)):
            v = rng.randrange(n)
            naive = {(b, a) if v in (a, b) else (a, b) for a, b in naive}
            current = current.push(v)
        assert set(current.arcs()) == naive

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_degrees_conserved(self, seed, n):
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        pushed = og.push(rng.randrange(n))
        for v in range(n):
            assert pushed.out_degree(v) + pushed.in_degree(v) == og.graph.degree(v)

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=25, deadline=None)
    def test_push_class_size_matches_bfs(self, seed, n):
        """Oracle: BFS over single pushes reaches exactly 2^(n-1) orientations."""
        rng = random.Random(seed)
        og = random_oriented(rng, n)
        seen = {orientation_bits(og)}
        frontier = [og]
        while frontier:
            nxt = []
            for cur in frontier:
                for v in range(n):
                    cand = cur.push(v)
                    bits = orientation_bits(cand)
                    if bits not in seen:
                        seen.add(bits)
                        nxt.append(cand)
            frontier = nxt
        assert len(seen) == 1 << (n - 1)
        assert {orientation_bits(og.with_parity(p)) for p in range(1 << (n - 1))} == seen

    def test_vertex_zero_push_complements(self):
        og = triangle()
        assert og.push(0).parity == push_parity(0, 0, 3) == 0b11


class TestDigraphQueries:
    def test_triangle_is_cyclic_with_valid_witness(self):
        ok, cyc = is_dag(triangle())
        assert not ok and len(cyc) == 3
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert triangle().has_arc(a, b)

    def test_cycle_witness_when_min_leftover_is_a_sink(self):
        # 0 is a sink fed by the 1->2->3->1 cycle; the walk must still find it
        og = validate_graph(4, [(1, 2), (2, 3), (3, 1), (1, 0)])
        ok, cyc = is_dag(og)
        assert not ok and sorted(cyc) == [1, 2, 3]
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            assert og.has_arc(a, b)

    def test_topological_order(self):
        og = validate_graph(3, [(0, 1), (0, 2), (1, 2)])
        ok, order = is_dag(og)
        assert ok
        pos = {v: i for i, v in enumerate(order)}
        assert all(pos[u] < pos[v] for u, v in og.arcs())

    def test_reachability_and_trapped(self):
        og = validate_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert reachable_from(og, 0) == {0, 1, 2}
        assert reachable_from(og, 2) == {2}
        assert is_trapped(og, 2) and not is_trapped(og, 0)

    @given(st.integers(0, 10_000), st.integers(2, 7))
    @settings(max_examples=40, deadline=None)
    def test_neighbour_tables_match_arcs(self, seed, n):
        """Oracle: every neighbour query agrees with arcs(), in ascending order."""
        rng = random.Random(seed)
        base = random_oriented(rng, n)
        for p in range(1 << (n - 1)):
            og = base.with_parity(p)
            arcs = set(og.arcs())
            for v in range(n):
                outs = tuple(w for w in range(n) if (v, w) in arcs)
                ins = tuple(w for w in range(n) if (w, v) in arcs)
                assert og.out_neighbors(v) == outs and og.in_neighbors(v) == ins
                assert og.out_degree(v) == len(outs) and og.in_degree(v) == len(ins)
                assert [og.has_arc(v, w) for w in range(n)] == [w in outs for w in range(n)]
            for bad in (-1, n):
                with pytest.raises(VertexOutOfRangeError):
                    og.out_neighbors(bad)
                with pytest.raises(VertexOutOfRangeError):
                    og.in_neighbors(bad)

    def test_shortest_path(self):
        g = UnderlyingGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert g.distance(0, 2) == 2
        assert g.shortest_path(1, 1) == [1]
        assert g.path_to_nearest(0, {2, 3}) == [0, 3]
