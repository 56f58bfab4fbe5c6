"""Constructive rules: pairing, absorption, spare vertex, Hamilton split,
and the reduction pipeline."""

import collections
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from goodpairs import (
    ConditionNotMet,
    Digraph,
    Dipath,
    GenModel,
    GoodPairCert,
    ReductionTrace,
    TRACE_RULES,
    TraceStep,
    absorb_external_vertices,
    bits,
    cert_to_json,
    component_pairing,
    derive_seed,
    find_good_pair_exact,
    induced_subdigraph,
    mask_of,
    pair_with_spare_vertex,
    parse_digraph,
    random_2arc_strong,
    reduce_and_lift,
    reverse,
    verify_dipath,
    verify_good_pair,
)
from goodpairs import branchings, connectivity, constructions, digraph
from goodpairs.constructions import (
    _PAIRS4,
    _TOURNAMENT4_CERTS,
    _absorb,
    _alternating_selection,
    _check_condition,
    _in_forest,
    _seed_subdigraph,
    _Sides,
    _tournament4,
    hamilton_dipath,
    longest_dipath,
    pair_from_hamilton,
)
from goodpairs.digraph import _in_rows, from_arcs

from oracles import (
    absorb_reference,
    initial_comps_reference,
    rand_digraph,
    seed_subdigraph_reference,
    terminal_comps_reference,
)

BI3 = Digraph(3, (0b110, 0b101, 0b011))
C3 = Digraph(3, (0b010, 0b100, 0b001))

# Q = digon {0,1}, X = {2,3} (feeds Q), Y = {4,5} (fed by Q), Y->X complete
PAIRING_ARCS = [(0, 1), (1, 0), (2, 0), (3, 0), (1, 4), (1, 5),
                (4, 2), (4, 3), (5, 2), (5, 3)]
PAIRING_D = from_arcs(6, PAIRING_ARCS)
Q_SET = 0b000011


def _digon_pair_cert(d, q_set):
    h, _ = induced_subdigraph(d, q_set)
    return find_good_pair_exact(h).cert


class TestComponentPairing:
    def test_closes_partition(self):
        cert = component_pairing(PAIRING_D, Q_SET, _digon_pair_cert(PAIRING_D, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(PAIRING_D, cert) is None

    def test_deterministic(self):
        cq = _digon_pair_cert(PAIRING_D, Q_SET)
        a = component_pairing(PAIRING_D, Q_SET, cq)
        b = component_pairing(PAIRING_D, Q_SET, cq)
        assert a.out.parent == b.out.parent and a.in_.parent == b.in_.parent

    def test_q_equals_everything(self):
        cert = find_good_pair_exact(BI3).cert
        assert component_pairing(BI3, 0b111, cert) is cert

    def test_condition_not_met_both_sides(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (1, 3), (3, 2)])
        got = component_pairing(d, 0b0011, _digon_pair_cert(d, 0b0011))
        assert isinstance(got, ConditionNotMet)
        assert got.component == 0b0100  # the component {2} of D[X]

    def test_condition_not_met_no_entering_arc(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (1, 3)])
        got = component_pairing(d, 0b0011, _digon_pair_cert(d, 0b0011))
        assert isinstance(got, ConditionNotMet)
        assert "no arc" in got.reason and got.component == 0b0100

    def test_deficient_component_allowed_once(self):
        # component {2} receives a single arc from Y, component {3} two
        d = from_arcs(6, [(0, 1), (1, 0), (2, 0), (3, 0), (1, 4), (1, 5),
                          (4, 2), (4, 3), (5, 3), (5, 2)])
        cert = component_pairing(d, Q_SET, _digon_pair_cert(d, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_dual_orientation_used(self):
        # reverse of the pairing instance: deficiency sits on the Y side
        rd = reverse(PAIRING_D)
        cert = component_pairing(rd, Q_SET, _digon_pair_cert(rd, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(rd, cert) is None

    def test_overlapping_neighbourhoods_rejected(self):
        d = from_arcs(3, [(0, 1), (1, 0), (2, 0), (0, 2)])
        with pytest.raises(ValueError, match="overlap"):
            component_pairing(d, 0b011, _digon_pair_cert(d, 0b011))

    def test_uncovered_vertex_rejected(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError, match="cover"):
            component_pairing(d, 0b0011, _digon_pair_cert(d, 0b0011))

    def test_invalid_cert_rejected(self):
        cert = find_good_pair_exact(BI3).cert  # wrong size for the digon
        with pytest.raises(ValueError, match="invalid"):
            component_pairing(PAIRING_D, Q_SET, cert)

    def test_selection_artifacts_disjoint(self):
        d = PAIRING_D
        sides = _Sides.build(d.out_adj, _in_rows(d.n, d.out_adj), 0b001100, 0b110000)
        p_x, p_y = _alternating_selection(sides, 0)
        comps_x, comps_y = sides.comps_x, sides.comps_y
        assert set(p_x) & set(p_y) == set()
        assert len(p_x) == len(comps_x)
        assert len(p_y) == len(comps_y)
        heads = {v for _, v in p_x}
        assert all(len([h for h in heads if c >> h & 1]) == 1 for c in comps_x)


class TestAbsorption:
    def test_single_vertex(self):
        d = from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        cert = absorb_external_vertices(d, 0b011, _digon_pair_cert(d, 0b011), 0b100)
        assert verify_good_pair(d, cert) is None

    def test_cascading_order(self):
        # vertex 3 only attaches after vertex 2 joined
        d = from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 2)])
        cert = absorb_external_vertices(d, 0b0011, _digon_pair_cert(d, 0b0011), 0b1100)
        assert verify_good_pair(d, cert) is None

    def test_empty_set_is_identity(self):
        cq = _digon_pair_cert(PAIRING_D, Q_SET)
        assert absorb_external_vertices(PAIRING_D, Q_SET, cq, 0) is cq

    def test_stuck_vertex_reported(self):
        d = from_arcs(3, [(0, 1), (1, 0), (0, 2)])
        with pytest.raises(ValueError, match="vertex 2"):
            absorb_external_vertices(d, 0b011, _digon_pair_cert(d, 0b011), 0b100)

    def test_overlap_rejected(self):
        cq = _digon_pair_cert(PAIRING_D, Q_SET)
        with pytest.raises(ValueError, match="disjoint"):
            absorb_external_vertices(PAIRING_D, Q_SET, cq, 0b000001)

    @pytest.mark.parametrize("x_set", [0, 0b100])
    def test_invalid_cert_rejected(self, x_set):
        d = from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        cq = _digon_pair_cert(d, 0b011)
        broken = GoodPairCert(2, cq.out, cq.out)
        with pytest.raises(ValueError, match="certificate for D\\[Q\\] invalid"):
            absorb_external_vertices(d, 0b011, broken, x_set)

    def test_attaches_in_pipeline_order(self):
        """Each step attaches the lowest vertex that can join.  Here Q = {2}
        and X = {0, 1, 3}: 1 joins first, then 0 (through 1) and then 3,
        whose lowest covered neighbour is 0 by then.  Lowest-first passes
        with rescans attach 3 before 0, through 1; both pairs are good."""
        d = parse_digraph("&C]so")
        cq = find_good_pair_exact(induced_subdigraph(d, 0b0100)[0]).cert
        cert = absorb_external_vertices(d, 0b0100, cq, 0b1011)
        assert verify_good_pair(d, cert) is None
        assert (cert.out.parent[3], cert.in_.parent[3]) == ((0, 3), (3, 0))
        passes = absorb_reference(d, 0b0100, cq, 0b1011, _in_rows(d.n, d.out_adj))
        assert verify_good_pair(d, passes) is None
        assert (passes.out.parent[3], passes.in_.parent[3]) == ((1, 3), (3, 1))

    def test_pipeline_verifies_each_step_once(self, monkeypatch):
        # a tournament has no digon, so the seed is its first 4-clique, whose
        # good pair comes from the table with no search; D[Q] is induced
        # once, at the first absorb step, and each step grows it by one row
        calls = collections.Counter()
        for name in ("verify_good_pair", "induced_subdigraph", "find_good_pair_exact"):
            def counted(*args, _real=getattr(constructions, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(constructions, name, counted)
        d = random_2arc_strong(GenModel("tournament", 20, 0.3, derive_seed(99, 0)))
        res, trace = reduce_and_lift(d)
        assert res.status == "found" and trace.steps[-1].rule == "absorb"
        steps = sum(s.rule == "absorb" for s in trace.steps)
        assert steps == 16
        assert calls == {"verify_good_pair": steps, "induced_subdigraph": 1}
        assert calls["find_good_pair_exact"] == 0

    def test_pipeline_without_absorb_step_induces_nothing(self, monkeypatch):
        """A digon seed that absorbs nothing goes to the exact fallback
        without inducing D[Q]."""
        calls = _counted(monkeypatch, "induced_subdigraph", (constructions,))
        d = random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(7, 1)))
        res, trace = reduce_and_lift(d)
        assert res.status == "found"
        assert [s.rule for s in trace.steps] == ["small-base", "exact-fallback"]
        assert calls == []


@st.composite
def absorb_cases(draw, max_n=9):
    """A digraph with each arc present with probability 3/4, a nonempty
    proper vertex set Q, and the vertices outside Q with an in- and an
    out-neighbour in Q."""
    n = draw(st.integers(2, max_n))
    full = (1 << n) - 1
    rows = tuple(
        (draw(st.integers(0, full)) | draw(st.integers(0, full))) & ~(1 << u) for u in range(n)
    )
    d = Digraph(n, rows)
    q_set = draw(st.integers(1, full - 1))
    in_rows = _in_rows(n, rows)
    attachable = [v for v in bits(full & ~q_set) if in_rows[v] & q_set and rows[v] & q_set]
    return d, in_rows, q_set, attachable


class TestAbsorbStep:
    @given(absorb_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_grows_induced_rows_and_matches_reference(self, case, data):
        """One step on a random Q and an attachable v: its rows are
        induced_subdigraph's of Q + v, and its certificate is the one the
        re-inducing absorb step built."""
        d, in_rows, q_set, attachable = case
        assume(attachable)
        h, _ = induced_subdigraph(d, q_set)
        res = find_good_pair_exact(h)
        assume(res.status == "found")
        v = data.draw(st.sampled_from(attachable))
        grown, cert = _absorb(d, in_rows, q_set, h, res.cert, v)
        assert grown == induced_subdigraph(d, q_set | 1 << v)[0]
        assert cert == absorb_reference(d, q_set, res.cert, 1 << v, in_rows)


def _counted(monkeypatch, name, modules):
    """The calls made to ``name`` through any of ``modules``, recorded in
    the returned list from now on."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


IN_ROWS_USERS = (digraph, connectivity, branchings, constructions)


class TestPipelineCarriesInRows:
    def test_fallback_builds_in_rows_once(self, monkeypatch):
        """The seed scan, every absorb step and the exact fallback take the
        in-rows that reduce_and_lift built."""
        calls = _counted(monkeypatch, "_in_rows", IN_ROWS_USERS)
        for i in range(5):
            d = random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(1, i)))
            calls.clear()
            res, trace = reduce_and_lift(d)
            assert (res.status, trace.steps[-1].rule) == ("found", "exact-fallback")
            assert len(calls) == 1, i

    def test_pairing_closes_verify_once(self, monkeypatch):
        """First 300 arc-minimal n = 9 draws of seed 5005: a pairing or
        spare-vertex close verifies only the certificate it builds, one call
        beyond the absorb steps' own, and builds no in-rows of its own."""
        verified = _counted(monkeypatch, "verify_good_pair", (constructions,))
        built = _counted(monkeypatch, "_in_rows", IN_ROWS_USERS)
        closes = collections.Counter()
        for i in range(300):
            d = random_2arc_strong(GenModel("arc-minimal", 9, 0.3, derive_seed(5005, i)))
            verified.clear()
            built.clear()
            _, trace = reduce_and_lift(d)
            rule = trace.steps[-1].rule
            if rule in ("component-pairing", "spare-vertex"):
                absorbs = sum(s.rule == "absorb" for s in trace.steps)
                assert (len(verified), len(built)) == (absorbs + 1, 1), (i, rule)
                closes[rule] += 1
        assert closes == {"component-pairing": 31, "spare-vertex": 40}


SPARE_BASE = PAIRING_ARCS  # Q={0,1}, X={2,3}, Y={4,5}, w=6


class TestSpareVertex:
    def test_no_arcs_either_way(self):
        d = from_arcs(7, SPARE_BASE + [(2, 6), (3, 6), (6, 4), (6, 5)])
        cert = pair_with_spare_vertex(d, Q_SET, _digon_pair_cert(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_feed_arc_from_y(self):
        d = from_arcs(7, SPARE_BASE + [(4, 6), (6, 4), (6, 5)])
        cert = pair_with_spare_vertex(d, Q_SET, _digon_pair_cert(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_feed_arc_into_x_dual(self):
        # w's in-neighbours avoid Y, so only the reversed branch applies
        d = from_arcs(7, SPARE_BASE + [(6, 2), (6, 3), (2, 6)])
        cert = pair_with_spare_vertex(d, Q_SET, _digon_pair_cert(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_too_few_attachments(self):
        d = from_arcs(7, SPARE_BASE + [(2, 6), (6, 4), (6, 5)])
        got = pair_with_spare_vertex(d, Q_SET, _digon_pair_cert(d, Q_SET), 6)
        assert isinstance(got, ConditionNotMet)
        assert "two in-neighbours" in got.reason

    def test_w_inside_q_rejected(self):
        with pytest.raises(ValueError, match="outside Q"):
            pair_with_spare_vertex(
                PAIRING_D, Q_SET, _digon_pair_cert(PAIRING_D, Q_SET), 0
            )

    def test_coverage_required(self):
        d = from_arcs(8, SPARE_BASE + [(2, 6), (3, 6), (6, 4), (6, 5), (7, 6), (6, 7)])
        with pytest.raises(ValueError, match="cover"):
            pair_with_spare_vertex(d, Q_SET, _digon_pair_cert(d, Q_SET), 6)


PAIRING_REASONS = {
    "component of D[X] receives no arc from Y",
    "component of D[Y] sends no arc into X",
    "deficient components on both sides",
    "two components of D[X] with a single entering arc",
    "two components of D[Y] with a single leaving arc",
}
SPARE_REASONS = {
    "spare vertex needs two in-neighbours in X",
    "spare vertex needs two out-neighbours in Y",
    "component of D[X] short of entering arcs from Y",
    "component of D[Y] short of leaving arcs into X",
    "component of D[X] short of entering arcs",
    "component of Y + w short of leaving arcs into X",
}


def _partitioned_instance(rng, spare):
    """A random digraph with a vertex set Q whose D[Q] has a good pair, and
    whose in-neighbourhood X and out-neighbourhood Y are disjoint and cover
    the rest, bar one spare vertex w seeing neither Q nor being seen by it.
    Returns (d, Q, cert of D[Q], X, Y, w or None)."""
    while True:
        n = rng.randint(4, 9)
        verts = rng.sample(range(n), n)
        k = rng.randint(2, 3)
        q = verts[:k]
        w = verts[k] if spare else None
        rest = verts[k + (1 if spare else 0):]
        if not rest:
            continue
        cut = rng.randint(0, len(rest))
        xs, ys = rest[:cut], rest[cut:]
        p = rng.choice((0.2, 0.4, 0.6, 0.8))
        arcs = {(a, b) for a in q for b in q if a != b and rng.random() < 0.8}
        for x in xs:  # x feeds Q, Q never feeds x
            arcs |= {(x, b) for b in rng.sample(q, rng.randint(1, k))}
        for y in ys:  # Q feeds y, y never feeds Q
            arcs |= {(a, y) for a in rng.sample(q, rng.randint(1, k))}
        arcs |= {(a, b) for a in rest for b in rest if a != b and rng.random() < p}
        if spare and rng.random() < 0.5:  # w is seen only by X and only sees Y
            arcs |= {(x, w) for x in xs if rng.random() < 0.7}
            arcs |= {(w, y) for y in ys if rng.random() < 0.7}
        elif spare:
            arcs |= {(a, w) for a in rest if rng.random() < p}
            arcs |= {(w, b) for b in rest if rng.random() < p}
        d = from_arcs(n, sorted(arcs))
        x_set, y_set = mask_of(xs), mask_of(ys)
        if rng.random() < 0.5:  # the reversal swaps the roles of X and Y
            d, x_set, y_set = reverse(d), y_set, x_set
        q_set = mask_of(q)
        res = find_good_pair_exact(induced_subdigraph(d, q_set)[0])
        if res.status == "found":
            return d, q_set, res.cert, x_set, y_set, w


def _degrees(d, x_set, y_set):
    """Arcs from Y into each initial component of D[X], and out of each
    terminal component of D[Y] into X, from the reference components."""
    din = [sum(d.has_arc(u, v) for v in bits(c) for u in bits(y_set))
           for c in initial_comps_reference(d, x_set)]
    dout = [sum(d.has_arc(u, v) for u in bits(c) for v in bits(x_set))
            for c in terminal_comps_reference(d, y_set)]
    return din, dout


def _feed_arc_admits(d, x_set, y_set, w):
    """Some arc v -> w from Y leaves, once deleted, degrees the pairing of
    X and Y + w admits with its deficient component on the Y side."""
    for v in bits(y_set):
        if d.has_arc(v, w):
            stripped = from_arcs(d.n, [a for a in d.arcs() if a != (v, w)])
            din, dout = _degrees(stripped, x_set, y_set | 1 << w)
            if _check_condition(dout, din)[0]:
                return True
    return False


class TestPairingIsTotal:
    """Under the degree condition the pairing rules always build a good
    pair; otherwise they decline with the degree reason, never with a
    failure of their own."""

    def test_component_pairing(self):
        rng = random.Random(1601)
        seen = collections.Counter()
        for _ in range(4_000):
            d, q_set, cert_q, x_set, y_set, _ = _partitioned_instance(rng, spare=False)
            din, dout = _degrees(d, x_set, y_set)
            direct, dual = _check_condition(din, dout)[0], _check_condition(dout, din)[0]
            got = component_pairing(d, q_set, cert_q)
            if direct or dual:
                assert isinstance(got, GoodPairCert), (d, q_set, got)
                assert verify_good_pair(d, got) is None
                seen["direct" if direct else "dual"] += 1
                seen["single-arc start"] += 1 in din + dout
            else:
                assert isinstance(got, ConditionNotMet), (d, q_set)
                assert got.reason in PAIRING_REASONS
                assert got.component and not got.component & q_set
                seen[got.reason] += 1
        assert seen["direct"] >= 100 and seen["dual"] >= 20, seen
        assert seen["single-arc start"] >= 20, seen
        assert all(seen[r] for r in PAIRING_REASONS), seen

    def test_spare_vertex(self):
        rng = random.Random(1602)
        seen = collections.Counter()
        for _ in range(4_000):
            d, q_set, cert_q, x_set, y_set, w = _partitioned_instance(rng, spare=True)
            wbit = 1 << w
            if any(d.has_arc(v, w) for v in bits(y_set)):
                case, ok = "feed", _feed_arc_admits(d, x_set, y_set, w)
            elif any(d.has_arc(w, v) for v in bits(x_set)):
                case, ok = "dual feed", _feed_arc_admits(reverse(d), y_set, x_set, w)
            else:
                din, dout = _degrees(d, x_set, y_set)
                win = sum(d.has_arc(v, w) for v in bits(x_set))
                wout = sum(d.has_arc(w, v) for v in bits(y_set))
                case, ok = "plain", min(din + dout + [win, wout]) >= 2
            got = pair_with_spare_vertex(d, q_set, cert_q, w)
            if ok:
                assert isinstance(got, GoodPairCert), (d, q_set, w, got)
                assert verify_good_pair(d, got) is None
            else:
                assert isinstance(got, ConditionNotMet), (d, q_set, w)
                assert got.reason in SPARE_REASONS
                assert got.component and not got.component & q_set
            seen[case, ok] += 1
            assert not wbit & (q_set | x_set | y_set)
        for case in ("feed", "dual feed", "plain"):
            assert seen[case, True] >= 20 and seen[case, False] >= 20, seen


class TestEndComponents:
    def test_matches_reference(self):
        rng = random.Random(71)
        for _ in range(10_000):
            n = rng.randint(1, 12)
            d = rand_digraph(rng, n, rng.random())
            x_set = rng.getrandbits(n)
            y_set = rng.getrandbits(n) & ~x_set
            sides = _Sides.build(d.out_adj, _in_rows(d.n, d.out_adj), x_set, y_set)
            assert sides.comps_x == initial_comps_reference(d, x_set), (d, x_set, y_set)
            assert sides.comps_y == terminal_comps_reference(d, y_set), (d, x_set, y_set)

    def test_in_forest_reaches_roots(self):
        rng = random.Random(72)
        for _ in range(2_000):
            n = rng.randint(1, 10)
            d = rand_digraph(rng, n, rng.random())
            inside = rng.getrandbits(n)
            roots = inside & rng.getrandbits(n)
            forest = _in_forest(d.out_adj, inside, roots)
            # every vertex of the set that reaches a root inside it
            reach = roots
            while True:
                more = mask_of(v for v in bits(inside) if d.out_adj[v] & reach) | reach
                if more == reach:
                    break
                reach = more
            if reach != inside:
                assert forest is None
                continue
            assert set(forest) == set(bits(inside & ~roots))
            for v, (tail, head) in forest.items():
                assert tail == v and d.has_arc(tail, head) and inside >> head & 1
            for v in forest:  # parent arcs lead to a root without a cycle
                seen = set()
                while not roots >> v & 1:
                    assert v not in seen
                    seen.add(v)
                    v = forest[v][1]


class TestDipaths:
    def test_longest_on_cycle(self):
        assert len(longest_dipath(C3)) == 3

    def test_longest_no_arcs(self):
        assert len(longest_dipath(Digraph(3, (0, 0, 0)))) == 1

    def test_hamilton_found(self):
        d = from_arcs(4, [(0, 1), (1, 2), (2, 3)])
        p = hamilton_dipath(d)
        assert p is not None and p.vertices == (0, 1, 2, 3)

    def test_hamilton_absent(self):
        d = from_arcs(4, [(0, 1), (2, 3)])
        assert hamilton_dipath(d) is None

    def test_size_guard(self):
        with pytest.raises(ValueError):
            longest_dipath(Digraph(13, (0,) * 13))

    def test_path_is_valid(self):
        rng = random.Random(9)
        for _ in range(40):
            d = rand_digraph(rng, rng.randint(1, 8), rng.random())
            p = longest_dipath(d)
            assert verify_dipath(d, p) is None


# orientation whose path split needs the low-index dual construction
HAM7_ARCS = [(i, i + 1) for i in range(6)] + [
    (0, 2), (2, 4), (4, 6), (6, 0), (1, 3), (3, 5), (5, 1)
]
HAM7 = from_arcs(7, HAM7_ARCS)
HAM7_PATH = Dipath(tuple(range(7)))

# orientation engineered so only the ninth path arc crosses the two
# components, forcing the direct high-index construction
HAM9_ARCS = [(i, i + 1) for i in range(8)] + [
    (4, 6), (6, 8), (8, 4),
    (0, 2), (2, 5), (5, 1), (1, 3), (3, 0), (5, 7), (7, 0),
]
HAM9 = from_arcs(9, HAM9_ARCS)
HAM9_PATH = Dipath(tuple(range(9)))

# arc-minimal n = 10, seed 6006, index 10188: an orientation that the
# pipeline once closed by the Hamilton split and now by the exact fallback
HAM_SPLIT_D6 = "&IE?gGG?o__D@D?gOS?"


class TestHamiltonSplit:
    def test_low_index_case(self):
        cert = pair_from_hamilton(HAM7, HAM7_PATH)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(HAM7, cert) is None

    def test_high_index_case(self):
        cert = pair_from_hamilton(HAM9, HAM9_PATH)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(HAM9, cert) is None

    def test_reversed_instance(self):
        rd = reverse(HAM9)
        rp = Dipath(tuple(reversed(HAM9_PATH.vertices)))
        cert = pair_from_hamilton(rd, rp)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(rd, cert) is None

    def test_wrong_component_count_declined(self):
        # a different spanning dipath of the same orientation strips badly
        other = Dipath((3, 5, 1, 2, 4, 6, 0))
        got = pair_from_hamilton(HAM7, other)
        assert isinstance(got, ConditionNotMet)
        assert "strong components" in got.reason

    def test_digons_rejected(self):
        with pytest.raises(ValueError, match="orientation"):
            pair_from_hamilton(BI3, Dipath((0, 1, 2)))

    def test_spanning_required(self):
        with pytest.raises(ValueError, match="span"):
            pair_from_hamilton(HAM7, Dipath((0, 1, 2)))

    def test_invalid_path_rejected(self):
        with pytest.raises(ValueError, match="dipath"):
            pair_from_hamilton(HAM7, Dipath((6, 5, 4, 3, 2, 1, 0)))

    def test_pinned_certificate_bytes(self):
        d = parse_digraph(HAM_SPLIT_D6)
        cert = pair_from_hamilton(d, hamilton_dipath(d))
        assert verify_good_pair(d, cert) is None
        assert _sha(cert_to_json(cert)) == (
            "1a1ab609c28c9ced507d9173abd7474cdaaec17354a8eee5dee310d8cff05555"
        )


def _has_digon(d):
    in_rows = _in_rows(d.n, d.out_adj)
    return any(row & in_rows[u] for u, row in enumerate(d.out_adj))


class TestSeedScan:
    def _check(self, d):
        got = _seed_subdigraph(d, _in_rows(d.n, d.out_adj))
        assert (None if got is None else (got[0], got[2])) == seed_subdigraph_reference(d)
        if got is not None:
            h, _ = induced_subdigraph(d, got[0])
            assert verify_good_pair(h, got[1]) is None
        return got

    @pytest.mark.parametrize("kind", ["oriented-gnp-repair", "tournament"])
    def test_matches_subset_scan(self, kind):
        for n in range(5, 13):
            for i in range(4):
                self._check(random_2arc_strong(GenModel(kind, n, 0.3, derive_seed(31, 100 * n + i))))

    def test_tournament4_table_holds_the_exact_search_certificates(self):
        for key, cert in enumerate(_TOURNAMENT4_CERTS):
            h = _tournament4(key)
            assert [h.has_arc(a, b) for a, b in _PAIRS4] == [bool(key >> i & 1) for i in range(6)]
            assert cert_to_json(cert) == cert_to_json(find_good_pair_exact(h).cert)
            assert verify_good_pair(h, cert) is None
        assert len(_TOURNAMENT4_CERTS) == 64

    def test_seed_certificate_is_a_copy(self):
        # a caller may edit the seed's certificate without touching the table
        d = _tournament4(0b101101)
        _, cert, note = _seed_subdigraph(d, _in_rows(4, d.out_adj))
        assert note == "4-vertex base with 6 arcs"
        assert cert == _TOURNAMENT4_CERTS[0b101101]
        cert.out.parent.clear()
        assert len(_TOURNAMENT4_CERTS[0b101101].out.parent) == 3

    def test_matches_subset_scan_on_digon_free_arc_minimal(self):
        found = missed = 0
        for i in range(2000):
            n = 5 + i % 8
            d = random_2arc_strong(GenModel("arc-minimal", n, 0.3, derive_seed(37, i)))
            if _has_digon(d):
                continue
            if self._check(d) is None:
                missed += 1
            else:
                found += 1
        assert found and missed  # both outcomes of the scan are exercised


class TestReduceAndLift:
    def test_found_with_verified_cert(self):
        for i in range(30):
            d = random_2arc_strong(GenModel("gnp-repair", 8, 0.3, derive_seed(55, i)))
            res, trace = reduce_and_lift(d)
            assert res.status == "found"
            assert verify_good_pair(d, res.cert) is None
            assert all(s.rule in TRACE_RULES for s in trace.steps)

    def test_none_keeps_trace(self):
        res, trace = reduce_and_lift(C3)
        assert res.status == "none"
        assert trace.steps[-1].rule == "exact-fallback"

    def test_deterministic(self):
        d = random_2arc_strong(GenModel("arc-minimal", 9, 0.3, 123))
        r1, t1 = reduce_and_lift(d)
        r2, t2 = reduce_and_lift(d)
        assert t1.steps == t2.steps
        assert r1.cert.out.parent == r2.cert.out.parent
        assert r1.cert.in_.parent == r2.cert.in_.parent

    def test_trace_jsonl_round_trip(self):
        d = random_2arc_strong(GenModel("gnp-repair", 7, 0.3, 9))
        _, trace = reduce_and_lift(d)
        again = ReductionTrace.from_jsonl(trace.to_jsonl())
        assert again.steps == trace.steps

    def test_oriented_instances(self):
        for i in range(20):
            d = random_2arc_strong(
                GenModel("oriented-gnp-repair", 9, 0.3, derive_seed(66, i))
            )
            res, trace = reduce_and_lift(d)
            assert res.status == "found"
            assert verify_good_pair(d, res.cert) is None

    def test_never_runs_the_hamilton_split(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the pipeline ran the Hamilton code")

        for name in ("hamilton_dipath", "pair_from_hamilton", "longest_dipath"):
            monkeypatch.setattr(constructions, name, refuse)
        draws = [parse_digraph(HAM_SPLIT_D6)] + [
            random_2arc_strong(GenModel("arc-minimal", 9 + i % 4, 0.3, derive_seed(5005, i)))
            for i in range(300)
        ]
        for d in draws:
            res, _ = reduce_and_lift(d)
            assert res.status == "found"
            assert verify_good_pair(d, res.cert) is None

    def test_trivial_single_vertex(self):
        res, _ = reduce_and_lift(Digraph(1, (0,)))
        assert res.status == "found"

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node_budget"):
            reduce_and_lift(C3, node_budget=budget)

    @pytest.mark.parametrize(
        "text, lineno",
        [
            ('[1, 2]', 1),
            ('"absorb"', 1),
            ('{"subdigraph": "0x3", "note": ""}', 1),
            ('{"rule": "absorb", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "0x3"}', 1),
            ('{"rule": "absorb", "subdigraph": 3, "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "0xz", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "-0x3", "note": ""}', 1),
            ('{"rule": 5, "subdigraph": "0x3", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "0x3", "note": null}', 1),
            ('{"rule": "absorb", "subdigraph": "0x3", "note": ""}\n\nnot json', 3),
            ('{"rule": "absorb", "subdigraph": "0X3", "note": "", "rule": "x"}', 1),
            ('{"rule": "absorb", "subdigraph": "0x3", "note": "", "rule": "x"}', 1),
            ('{"rule": "absorb", "subdigraph": "0X3", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": " 0x_3 ", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "3", "note": ""}', 1),
            ('{"rule": "absorb", "subdigraph": "0x", "note": ""}', 1),
        ],
    )
    def test_trace_jsonl_malformed(self, text, lineno):
        with pytest.raises(ValueError, match=f"malformed trace line {lineno}:"):
            ReductionTrace.from_jsonl(text)

    def test_trace_jsonl_keeps_unknown_rules(self):
        # traces written before the pipeline dropped the Hamilton split load
        text = '{"rule": "hamilton", "subdigraph": "0x3ff", "note": "spanning dipath split"}'
        trace = ReductionTrace.from_jsonl(text)
        assert trace.steps == [TraceStep("hamilton", 0x3FF, "spanning dipath split")]
        assert trace.to_jsonl() == text

    def test_trace_step_fields(self):
        step = TraceStep("absorb", 0b101, "attached vertex 2")
        trace = ReductionTrace([step])
        line = trace.to_jsonl()
        assert '"rule": "absorb"' in line and '"0x5"' in line


REDUCE_GOLDEN = json.loads((Path(__file__).parent / "data" / "reduce_golden.json").read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _reduce_line(kind, n, seed, index):
    d = random_2arc_strong(GenModel(kind, n, REDUCE_GOLDEN["p"], derive_seed(seed, index)))
    res, trace = reduce_and_lift(d)
    cert = _sha(cert_to_json(res.cert)) if res.cert is not None else "-"
    return f"{res.status} {trace.steps[-1].rule} {cert} {_sha(trace.to_jsonl())}"


class TestReduceGolden:
    """Status, closing rule, certificate bytes and trace of every instance,
    recorded before the pairing rules moved onto strong_decomposition and
    one forest builder: none of them may move."""

    @pytest.mark.parametrize("kind", sorted(REDUCE_GOLDEN["digests"]))
    def test_stream_pinned(self, kind):
        closed_by = collections.Counter()
        for n, digest in REDUCE_GOLDEN["digests"][kind].items():
            lines = [
                _reduce_line(kind, int(n), REDUCE_GOLDEN["seed"], 1000 * int(n) + i)
                for i in range(REDUCE_GOLDEN["count"])
            ]
            closed_by.update(line.split()[1] for line in lines)
            assert _sha("\n".join(lines)) == digest, (kind, n)
        assert closed_by == REDUCE_GOLDEN["closed_by"][kind]

    @pytest.mark.parametrize("row", REDUCE_GOLDEN["extra"])
    def test_single_instance_pinned(self, row):
        got = _reduce_line(row["kind"], row["n"], row["seed"], row["index"])
        assert got == row["line"]
