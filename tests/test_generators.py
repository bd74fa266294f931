import hashlib
import itertools

import pytest

from pushcops.errors import (
    BadFamilyParamsError,
    DisconnectedError,
    NoVertexError,
    TooLargeError,
)
from pushcops.generators import (
    circulant,
    complete,
    complete_multipartite,
    cycle,
    enumerate_connected_graphs,
    enumerate_orientations,
    grid,
    hypercube,
    is_k_degenerate,
    octahedron,
    path,
    random_orientation,
)
from pushcops.graph import UnderlyingGraph

from conftest import orientation_bits, same_orientation


class TestFamilies:
    def test_complete(self):
        g = complete(5)
        assert g.n == 5 and g.m == 10 and g.max_degree() == 4

    def test_circulant_c812_is_4_regular(self):
        g = circulant(8, (1, 2))
        assert g.n == 8 and g.m == 16
        assert all(g.degree(v) == 4 for v in range(8))

    def test_octahedron_is_4_regular(self):
        g = octahedron()
        assert g.n == 6 and g.m == 12
        assert all(g.degree(v) == 4 for v in range(6))
        assert g == complete_multipartite((2, 2, 2))

    def test_hypercube(self):
        g = hypercube(3)
        assert g.n == 8 and g.m == 12 and g.max_degree() == 3

    def test_grid(self):
        g = grid(3, 3)
        assert g.n == 9 and g.m == 12

    def test_path_and_cycle(self):
        assert path(4).m == 3
        assert cycle(5).m == 5

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: complete(0),
            lambda: path(1),
            lambda: cycle(2),
            lambda: circulant(5, (0,)),
            lambda: complete_multipartite((3,)),
            lambda: hypercube(0),
            lambda: grid(1, 1),
        ],
    )
    def test_bad_params(self, builder):
        with pytest.raises(BadFamilyParamsError):
            builder()


class TestEnumeration:
    def test_counts_small_n(self):
        assert sum(1 for _ in enumerate_connected_graphs(2)) == 1
        assert sum(1 for _ in enumerate_connected_graphs(3)) == 4

    def test_count_n5_against_independent_recount(self):
        """Oracle: recount connectivity by union-find over edge subsets."""
        slots = list(itertools.combinations(range(5), 2))
        count = 0
        for mask in range(1 << len(slots)):
            parent = list(range(5))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            for i, (u, v) in enumerate(slots):
                if (mask >> i) & 1:
                    parent[find(u)] = find(v)
            if len({find(v) for v in range(5)}) == 1:
                count += 1
        assert count == 728  # frozen: connected labeled graphs on 5 vertices
        assert sum(1 for _ in enumerate_connected_graphs(5)) == count

    def test_max_degree_filter(self):
        graphs = list(enumerate_connected_graphs(4, max_degree=2))
        assert all(g.max_degree() <= 2 for g in graphs)
        # paths (4!/2 labelings = 12) plus 4-cycles (3)
        assert len(graphs) == 15

    def test_enumeration_cap(self):
        with pytest.raises(TooLargeError):
            next(enumerate_connected_graphs(8))

    @pytest.mark.parametrize("max_degree", [None, 2, 3, 4])
    @pytest.mark.parametrize("n", range(6))
    def test_stream_matches_from_edges_over_every_mask(self, n, max_degree):
        """Oracle: the validating constructor over every edge mask, ascending.
        With no vertex there is no graph, and both refuse n."""
        if n == 0:
            with pytest.raises(NoVertexError):
                UnderlyingGraph.from_edges(n, [])
            with pytest.raises(NoVertexError):
                next(enumerate_connected_graphs(n, max_degree))
            return
        slots = list(itertools.combinations(range(n), 2))
        expected = []
        for mask in range(1 << len(slots)):
            try:
                g = UnderlyingGraph.from_edges(
                    n, [slots[i] for i in range(len(slots)) if mask >> i & 1]
                )
            except DisconnectedError:
                continue
            if max_degree is None or g.max_degree() <= max_degree:
                expected.append((g.n, g.edges, g.adj))
        got = [(g.n, g.edges, g.adj) for g in enumerate_connected_graphs(n, max_degree)]
        assert got == expected

    def test_n6_stream_is_pinned(self):
        """Graph order and every class representative's ref bits, frozen."""
        graph_hash, ref_hash = hashlib.sha256(), hashlib.sha256()
        graphs = reps = 0
        for g in enumerate_connected_graphs(6):
            graphs += 1
            graph_hash.update(repr(g.edges).encode())
            for rep in enumerate_orientations(g, per_class=True):
                reps += 1
                ref_hash.update(rep.ref_bits.to_bytes(2, "little"))
        assert (graphs, reps) == (26_704, 436_944)  # A001187; classes 2^(m-n+1) each
        assert graph_hash.hexdigest() == (
            "e71b4400048fbfa83af0d87b7c6b79fd0b3b0955d5ab3ef48d56dd6db16ecd41"
        )
        assert ref_hash.hexdigest() == (
            "7741ba90c5c8fc049fdcbdf8241e2e3a947d506bf8344b1e8d52b13af74c6bbd"
        )

    @pytest.mark.slow
    def test_n7_counts(self):
        assert sum(1 for _ in enumerate_connected_graphs(7)) == 1_866_256  # A001187
        assert sum(1 for _ in enumerate_connected_graphs(7, max_degree=4)) == 859_130


class TestOrientations:
    def test_triangle_has_8_orientations_2_classes(self):
        g = cycle(3)
        all_bits = {orientation_bits(og) for og in enumerate_orientations(g)}
        assert len(all_bits) == 8
        reps = list(enumerate_orientations(g, per_class=True))
        assert len(reps) == 2
        covered = set()
        for rep in reps:
            members = {orientation_bits(rep.with_parity(p)) for p in range(4)}
            assert len(members) == 4
            assert not members & covered  # classes are disjoint
            covered |= members
        assert covered == all_bits

    def test_k4_has_8_class_representatives(self):
        reps = list(enumerate_orientations(complete(4), per_class=True))
        assert len(reps) == 8
        covered = set()
        for rep in reps:
            covered |= {orientation_bits(rep.with_parity(p)) for p in range(8)}
        assert len(covered) == 64  # all 2^m orientations, partitioned

    def test_random_orientation_deterministic(self):
        g = complete(4)
        assert same_orientation(random_orientation(g, 42), random_orientation(g, 42))


class TestDegeneracy:
    def test_octahedron_not_3_degenerate(self):
        assert not is_k_degenerate(octahedron(), 3)

    def test_tree_is_1_degenerate(self):
        assert is_k_degenerate(path(6), 1)

    def test_grid_is_2_degenerate(self):
        g = grid(3, 3)
        assert is_k_degenerate(g, 2) and not is_k_degenerate(g, 1)

    def test_verdict_matches_subset_oracle(self):
        """g is k-degenerate iff every nonempty vertex subset induces a vertex
        of degree <= k: checked on every connected graph with n <= 5."""
        for n in range(1, 6):
            for g in enumerate_connected_graphs(n):
                # the degeneracy: the largest minimum degree of an induced subgraph
                degeneracy = max(
                    min(sum(mask >> w & 1 for w in g.adj[v]) for v in range(n) if mask >> v & 1)
                    for mask in range(1, 1 << n)
                )
                for k in range(1, 5):
                    assert is_k_degenerate(g, k) == (degeneracy <= k), (g, k)
