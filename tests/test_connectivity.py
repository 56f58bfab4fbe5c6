"""Flows, cuts, connectivity, and disjoint branchings."""

import inspect
import random

import pytest
from hypothesis import given, settings, strategies as st

from goodpairs import (
    Digraph,
    CutWitness,
    arc_connectivity,
    cut_degree,
    edmonds_branchings,
    enumerate_small,
    parse_digraph,
    verify_branching,
)
from goodpairs import connectivity
from goodpairs.connectivity import _cut_below, _max_flow, _short_paths, _two_arc_strong
from goodpairs.digraph import _in_rows, _reach, from_arcs

from oracles import (
    arc_connectivity_reference,
    edmonds_feasible,
    edmonds_witness_reference,
    in_cut,
    lambda_enum,
    out_cut,
    rand_digraph,
    subset_min_cut,
)

BI3 = Digraph(3, (0b110, 0b101, 0b011))
C3 = Digraph(3, (0b010, 0b100, 0b001))


@st.composite
def digraphs(draw, max_n=10):
    """Digraphs on 2..max_n vertices, sparse ones (often not strong) included."""
    n = draw(st.integers(2, max_n))
    full = (1 << n) - 1
    sparsity = draw(st.integers(1, 3))  # a row is the AND of this many random masks
    rows = []
    for u in range(n):
        row = full & ~(1 << u)
        for _ in range(sparsity):
            row &= draw(st.integers(0, full))
        rows.append(row)
    return Digraph(n, tuple(rows))


def _assert_flow(d, s, t, value, fwd, bwd):
    carried = [d.out_adj[u] & ~fwd[u] for u in range(d.n)]
    assert all(fwd[u] & ~d.out_adj[u] == 0 for u in range(d.n)), "residual arc not in d"
    for v in range(d.n):
        assert bwd[v] == sum(1 << u for u in range(d.n) if carried[u] >> v & 1)
        net = carried[v].bit_count() - bwd[v].bit_count()
        assert net == (value if v == s else -value if v == t else 0), (v, net)


class TestCutDegree:
    def test_directions(self):
        d = from_arcs(3, [(0, 1), (0, 2), (2, 1)])
        assert cut_degree(d, 0b001, "out") == 2
        assert cut_degree(d, 0b001, "in") == 0
        assert cut_degree(d, 0b010, "in") == 2
        assert cut_degree(d, 0b110, "out") == 0

    def test_rejects_trivial_sets(self):
        with pytest.raises(ValueError):
            cut_degree(C3, 0, "out")
        with pytest.raises(ValueError):
            cut_degree(C3, 0b111, "out")
        with pytest.raises(ValueError):
            cut_degree(C3, 0b001, "sideways")

    def test_rejects_vertices_beyond_n(self):
        with pytest.raises(ValueError, match="vertices >= n"):
            cut_degree(C3, 0b1001, "out")


class TestMaxFlow:
    def test_matches_subset_min_cut(self):
        """Capped at n, which no flow on n vertices reaches, the flow is a
        maximum one."""
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 8)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.8))
            s, t = rng.sample(range(n), 2)
            assert _max_flow(n, d.out_adj, s, t, n)[0] == subset_min_cut(d, s, t)

    def test_bi3(self):
        assert _max_flow(3, BI3.out_adj, 0, 2, 3)[0] == 2
        assert _max_flow(3, BI3.out_adj, 0, 2, 1)[0] == 1

    def test_no_path(self):
        d = from_arcs(2, [(1, 0)])
        value, fwd, bwd = _max_flow(2, d.out_adj, 0, 1, 2)
        assert value == 0 and fwd == list(d.out_adj) and bwd == [0, 0]
        assert _cut_below(2, d.out_adj, 0, 1, 1) == (0, 0b01)

    @pytest.mark.parametrize(
        "text, s, t, value",
        [
            ("&EY`cYkW", 1, 3, 2),
            ("&I?wD@_@c?O@o@kG@_?", 3, 4, 2),
            ("&JNkK@AdQ{LKP?CtP@B{IO?", 2, 5, 3),
        ],
    )
    def test_flow_with_a_circulation(self, text, s, t, value):
        # maximum flows here carry a cycle through a vertex on an s-t path
        d = parse_digraph(text)
        got, fwd, bwd = _max_flow(d.n, d.out_adj, s, t, d.n)
        assert got == value
        _assert_flow(d, s, t, value, fwd, bwd)
        side = _reach([f | b for f, b in zip(fwd, bwd)], 1 << s, d.full_mask)
        assert not side >> t & 1 and cut_degree(d, side, "out") == value
        assert _cut_below(d.n, d.out_adj, s, t, value + 1) == (value, side)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3, 4])
    def test_cap_bounds_the_value(self, cap):
        """A flow capped at cap has value min(cap, minimum cut); one that
        stops below cap leaves t out of the residual reach of s."""
        rng = random.Random(500 + cap)
        below = 0
        for _ in range(150):
            n = rng.randint(2, 8)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
            s, t = rng.sample(range(n), 2)
            v = subset_min_cut(d, s, t)
            value, fwd, bwd = _max_flow(n, d.out_adj, s, t, cap)
            assert value == min(cap, v), (d, s, t)
            _assert_flow(d, s, t, value, fwd, bwd)
            if value < cap:
                side = _reach([f | b for f, b in zip(fwd, bwd)], 1 << s, d.full_mask)
                assert not side >> t & 1 and cut_degree(d, side, "out") == value
                below += 1
        assert below >= (cap > 0) * 10

    def test_carried_arcs_form_a_flow(self):
        """The arcs a flow leaves out of ``fwd`` carry it: they conserve
        flow off s and t, send ``value`` units out of s, and are the arcs
        ``bwd`` records backwards."""
        rng = random.Random(4040)
        for _ in range(4000):
            n = rng.randint(2, 12)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
            s, t = rng.sample(range(n), 2)
            value, fwd, bwd = _max_flow(n, d.out_adj, s, t, rng.randint(1, n))
            _assert_flow(d, s, t, value, fwd, bwd)

    def test_cap_is_required(self):
        assert inspect.signature(_max_flow).parameters["cap"].default is inspect.Parameter.empty
        with pytest.raises(TypeError):
            _max_flow(3, BI3.out_adj, 0, 2)


class TestArcConnectivity:
    def test_bi3_witness(self):
        lam, w = arc_connectivity(BI3)
        assert lam == 2
        assert w == CutWitness(x_set=0b001, direction="out", value=2)

    def test_c3(self):
        lam, w = arc_connectivity(C3)
        assert lam == 1
        assert out_cut(C3, w.x_set) == 1

    def test_disconnected(self):
        d = from_arcs(2, [])
        lam, w = arc_connectivity(d)
        assert lam == 0

    def test_single_vertex_rejected(self):
        with pytest.raises(ValueError):
            arc_connectivity(Digraph(1, (0,)))

    def test_matches_enumeration(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(2, 8)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
            lam, w = arc_connectivity(d)
            assert lam == lambda_enum(d)
            # the witness really is a tight cut
            assert 0 < w.x_set < d.full_mask
            assert out_cut(d, w.x_set) == lam

    @given(digraphs(max_n=8))
    @settings(max_examples=300, deadline=None)
    def test_witness_is_closest_cut_of_first_minimum_pair(self, d):
        lam, w = arc_connectivity(d)
        assert (lam, w.x_set) == arc_connectivity_reference(d)
        assert w == CutWitness(w.x_set, "out", lam)

    @given(digraphs(), st.integers(1, 3))
    @settings(max_examples=400, deadline=None)
    def test_cap_agrees_with_uncapped(self, d, k):
        lam, w = arc_connectivity(d)
        if lam < k:
            assert arc_connectivity(d, cap=k) == (lam, w)
        else:
            assert arc_connectivity(d, cap=k) == (k, None)
        if lam == 0:
            assert cut_degree(d, w.x_set, "out") == 0

    def test_not_strong_witness_order(self):
        # 0 reaches every vertex and 2 is the first that cannot reach 0,
        # so the witness is the reach of 2
        d = from_arcs(4, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2), (1, 3)])
        assert arc_connectivity(d) == (0, CutWitness(0b1100, "out", 0))
        # 1 is the first vertex 0 cannot reach: the reach of 0
        d = from_arcs(3, [(1, 0), (0, 2), (2, 0)])
        assert arc_connectivity(d, cap=2) == (0, CutWitness(0b101, "out", 0))

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError, match="cap"):
            arc_connectivity(BI3, cap=0)


class TestShortPaths:
    def test_never_claims_more_than_the_flow(self):
        """Sufficient only: every claim of k paths is backed by a flow of k,
        on all ordered pairs of sparse and dense digraphs, k = 1..3."""
        rng = random.Random(77)
        claims = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            d = rand_digraph(rng, n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)))
            rows, in_rows = d.out_adj, _in_rows(n, d.out_adj)
            for s in range(n):
                for t in range(n):
                    if s == t:
                        continue
                    for k in (1, 2, 3):
                        if _short_paths(rows, in_rows, s, t, k) is None:
                            claims += 1
                            assert _max_flow(n, rows, s, t, cap=k)[0] == k, (d, s, t, k)
        assert claims > 10_000

    @pytest.mark.parametrize(
        "arcs, k, claimed",
        [
            # the arc and the 2-paths through distinct middle vertices
            ([(0, 1), (0, 2), (2, 1), (0, 3), (3, 1)], 3, True),
            ([(0, 2), (2, 1), (0, 3), (3, 1)], 3, False),
            # a 2-path plus a 3-path that avoids its middle vertex
            ([(0, 2), (2, 1), (0, 3), (3, 4), (4, 1)], 2, True),
            ([(0, 2), (2, 1), (0, 3), (3, 2)], 2, False),  # shares 2->1
            # the arc plus a 3-path
            ([(0, 1), (0, 3), (3, 4), (4, 1)], 2, True),
            # two 3-paths with distinct first and distinct second vertices
            ([(0, 2), (2, 4), (4, 1), (0, 3), (3, 5), (5, 1)], 2, True),
            ([(0, 2), (2, 4), (4, 1), (0, 3), (3, 4)], 2, False),  # both via 4
            ([(0, 2), (2, 4), (4, 1), (2, 5), (5, 1)], 2, False),  # both via 2
        ],
    )
    def test_each_rule(self, arcs, k, claimed):
        d = from_arcs(6, arcs)
        rows, in_rows = d.out_adj, _in_rows(6, d.out_adj)
        assert (_short_paths(rows, in_rows, 0, 1, k) is None) is claimed
        assert _max_flow(6, rows, 0, 1, cap=k)[0] == (k if claimed else k - 1)


class TestCutBelow:
    def test_agrees_with_flow(self):
        """On seeded digraphs with 2..12 vertices, sparse (often not
        strong) to dense (with digons), every pair the short-path test
        leaves open at k = 1..4 is decided as a flow capped at k decides
        it, both along the path that test saw and along the paths
        ``_augment`` finds; below k the set is that flow's residual reach."""
        rng = random.Random(2024)
        below = [0] * 5
        bfs = seen = digons = non_strong = 0
        for _ in range(300):
            n = rng.randint(2, 12)
            d = rand_digraph(rng, n, rng.choice((0.1, 0.2, 0.3, 0.5, 0.8)))
            rows, in_rows = d.out_adj, _in_rows(n, d.out_adj)
            digons += any(rows[u] & in_rows[u] for u in range(n))
            non_strong += arc_connectivity(d, cap=1)[0] == 0
            for s in range(n):
                for t in range(n):
                    if s == t:
                        continue
                    for k in (1, 2, 3, 4):
                        value, fwd, bwd = _max_flow(n, rows, s, t, cap=k)
                        path = _short_paths(rows, in_rows, s, t, k)
                        if path is None:
                            assert value == k, (d, s, t, k)
                            continue
                        if path:
                            assert k == 2 and (path[0], path[-1]) == (s, t) and len(path) <= 4
                            assert all(rows[u] >> v & 1 for u, v in zip(path, path[1:]))
                        side = _reach([f | b for f, b in zip(fwd, bwd)], 1 << s, d.full_mask)
                        want = (k, 0) if value == k else (value, side)
                        assert _cut_below(n, rows, s, t, k, path) == want, (d, s, t, k)
                        assert _cut_below(n, rows, s, t, k) == want, (d, s, t, k)
                        bfs += not path
                        seen += bool(path)
                        below[k] += value < k
        assert min(below[1:]) > 3000 and bfs > 25_000 and seen > 2000
        assert digons > 100 and non_strong > 100

    def test_arc_connectivity_cap_2_matches_enumeration(self):
        rng = random.Random(62)
        deficient = 0
        for _ in range(200):
            n = rng.randint(2, 9)
            d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
            lam, w = arc_connectivity(d, cap=2)
            if lambda_enum(d) >= 2:
                assert (lam, w) == (2, None), d
            else:
                assert (lam, w.x_set) == arc_connectivity_reference(d), d
                assert w == CutWitness(w.x_set, "out", lam)
                deficient += 1
        assert 50 < deficient < 180


def _walks(monkeypatch) -> list[bool]:
    """The answers of ``_two_arc_strong``'s backward walks, as they come."""
    walks = []
    reaches = connectivity._reaches

    def recorded(*args):
        walks.append(reaches(*args))
        return walks[-1]

    monkeypatch.setattr(connectivity, "_reaches", recorded)
    return walks


def _two_arc_strong_of(d: Digraph) -> bool:
    rows, in_rows = list(d.out_adj), _in_rows(d.n, d.out_adj)
    got = _two_arc_strong(d.n, rows, in_rows)
    assert rows == list(d.out_adj) and in_rows == _in_rows(d.n, rows)  # bits restored
    return got


# bidirected triangles on 0, 1, 2 and on 3, 4, 5, joined by 0->3, 4->0 and
# 5->1: the one arc into {3, 4, 5}, 0->3, is the only strong bridge
ONE_BRIDGE = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1), (3, 4), (4, 3), (3, 5), (5, 3),
              (4, 5), (5, 4), (0, 3), (4, 0), (5, 1)]


class TestTwoArcStrong:
    def test_agrees_with_the_capped_scan(self, monkeypatch):
        """20,000 seeded digraphs on 2..14 vertices, p spread over (0, 1)
        (8,300 with lambda >= 2); the backward walk runs 13,839 times and
        finds a bridge in 8,064."""
        walks = _walks(monkeypatch)
        rng = random.Random(28)
        yes = 0
        for _ in range(20_000):
            n = rng.randint(2, 14)
            d = rand_digraph(rng, n, rng.uniform(0.01, 0.99))
            got = _two_arc_strong_of(d)
            assert got == (arc_connectivity(d, cap=2)[0] >= 2), d
            yes += got
        assert 5_000 < yes < 15_000
        assert walks.count(True) > 4_000 and walks.count(False) > 6_000

    def test_agrees_with_subset_cuts(self):
        """Every digraph on 2..4 vertices and 3,000 seeded ones on 5 and 6
        (1,261 of the 7,164 with lambda >= 2)."""
        rng = random.Random(6)
        cases = [d for n in (2, 3, 4) for d in enumerate_small(n)]
        cases += [rand_digraph(rng, rng.randint(5, 6), rng.uniform(0.2, 0.95)) for _ in range(3000)]
        yes = 0
        for d in cases:
            got = _two_arc_strong_of(d)
            assert got == (lambda_enum(d) >= 2), d
            yes += got
        assert yes > 1000

    def test_bidirected_62_cycle(self):
        n = 62
        d = from_arcs(n, [(v, (v + s) % n) for v in range(n) for s in (1, -1)])
        assert _two_arc_strong_of(d)
        for u, v in d.arcs():
            rows = list(d.out_adj)
            rows[u] ^= 1 << v
            assert not _two_arc_strong_of(Digraph(n, tuple(rows))), (u, v)

    @pytest.mark.parametrize("direction", ["out", "in"])
    def test_the_only_bridge_needs_the_walk(self, monkeypatch, direction):
        """The bridge is the tree arc of 3 (into 0 for "in"), whose other
        neighbours on that side, 4 and 5, lie deeper, so only a walk back
        from 3 finds it.  Reversed, 0 still reaches every vertex with the
        bridge gone, so the in-tree's walk finds it."""
        arcs = ONE_BRIDGE if direction == "out" else [(v, u) for u, v in ONE_BRIDGE]
        d = from_arcs(6, arcs)
        bridges = []
        for u, v in arcs:
            rows = list(d.out_adj)
            rows[u] ^= 1 << v
            reach = _reach(rows, 1, d.full_mask)
            coreach = _reach(_in_rows(6, rows), 1, d.full_mask)
            if reach & coreach != d.full_mask:
                bridges.append((u, v, reach == d.full_mask))
        assert bridges == [(*arcs[12], direction == "in")]
        walks = _walks(monkeypatch)
        assert not _two_arc_strong_of(d)
        assert walks[-1] is False


class TestEdmonds:
    def test_c3_blocking_cut(self):
        got = edmonds_branchings(C3, 0, 2)
        assert got == CutWitness(x_set=0b010, direction="in", value=1)

    def test_bi3_two_branchings(self):
        got = edmonds_branchings(BI3, 0, 2)
        assert isinstance(got, list) and len(got) == 2
        seen = set()
        for b in got:
            assert b.kind == "out" and b.root == 0
            assert verify_branching(BI3, b) is None
            arcs = frozenset(b.arcs())
            assert not any(arcs & other for other in seen)
            seen.add(arcs)

    def test_single_branching(self):
        got = edmonds_branchings(C3, 1, 1)
        assert isinstance(got, list) and len(got) == 1
        assert verify_branching(C3, got[0]) is None

    def test_bad_input(self):
        with pytest.raises(ValueError):
            edmonds_branchings(C3, 5, 1)
        with pytest.raises(ValueError):
            edmonds_branchings(C3, 0, 0)

    def test_blocking_cut_on_criterion_5_stream(self):
        # the witness is the residual co-reach of the target, which is the
        # same for every maximum flow: the smallest minimum cut around t
        rng = random.Random(505)
        for _ in range(500):
            n = rng.randint(4, 8)
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.8))
            z = rng.randrange(n)
            k = rng.randint(1, 3)
            got = edmonds_branchings(d, z, k)
            ref = edmonds_witness_reference(d, z, k)
            if ref is None:
                assert isinstance(got, list) and len(got) == k
            else:
                assert got == CutWitness(ref[1], "in", ref[0])

    def test_matches_cut_oracle(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(3, 7)
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.9))
            z = rng.randrange(n)
            k = rng.randint(1, 3)
            got = edmonds_branchings(d, z, k)
            feasible = edmonds_feasible(d, z, k)
            if feasible:
                assert isinstance(got, list) and len(got) == k
                used = set()
                for b in got:
                    assert verify_branching(d, b) is None
                    for arc in b.arcs():
                        assert arc not in used
                        used.add(arc)
            else:
                assert isinstance(got, CutWitness)
                assert got.direction == "in"
                assert not got.x_set >> z & 1
                assert in_cut(d, got.x_set) == got.value < k
