"""Constructive rules: pairing, absorption, spare vertex, Hamilton split,
and the reduction pipeline."""

import collections
import copy
import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from goodpairs import (
    Branching,
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
    _absorb_phase,
    _alternating_selection,
    _check_condition,
    _seed_subdigraph,
    _Sides,
    _tournament4,
    _tournament4_certs,
    hamilton_dipath,
    longest_dipath,
    pair_from_hamilton,
)
from goodpairs.digraph import _in_rows, from_arcs

from oracles import (
    absorb_reference,
    dense_cert,
    initial_comps_reference,
    rand_digraph,
    relabel_cert,
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


def _host_pair(d, q_set):
    """The exact search's good pair of D[Q], in d's numbering."""
    h, vmap = induced_subdigraph(d, q_set)
    return relabel_cert(find_good_pair_exact(h).cert, h.n, vmap.__getitem__)


class TestComponentPairing:
    def test_closes_partition(self):
        cert = component_pairing(PAIRING_D, Q_SET, _host_pair(PAIRING_D, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(PAIRING_D, cert) is None

    def test_deterministic(self):
        cq = _host_pair(PAIRING_D, Q_SET)
        a = component_pairing(PAIRING_D, Q_SET, cq)
        b = component_pairing(PAIRING_D, Q_SET, cq)
        assert a.out.parent == b.out.parent and a.in_.parent == b.in_.parent

    def test_q_equals_everything(self):
        cert = find_good_pair_exact(BI3).cert
        assert component_pairing(BI3, 0b111, cert) is cert

    def test_condition_not_met_both_sides(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (1, 3), (3, 2)])
        got = component_pairing(d, 0b0011, _host_pair(d, 0b0011))
        assert isinstance(got, ConditionNotMet)
        assert got.component == 0b0100  # the component {2} of D[X]

    def test_condition_not_met_no_entering_arc(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (1, 3)])
        got = component_pairing(d, 0b0011, _host_pair(d, 0b0011))
        assert isinstance(got, ConditionNotMet)
        assert "no arc" in got.reason and got.component == 0b0100

    def test_deficient_component_allowed_once(self):
        # component {2} receives a single arc from Y, component {3} two
        d = from_arcs(6, [(0, 1), (1, 0), (2, 0), (3, 0), (1, 4), (1, 5),
                          (4, 2), (4, 3), (5, 3), (5, 2)])
        cert = component_pairing(d, Q_SET, _host_pair(d, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_dual_orientation_used(self):
        # reverse of the pairing instance: deficiency sits on the Y side
        rd = reverse(PAIRING_D)
        cert = component_pairing(rd, Q_SET, _host_pair(rd, Q_SET))
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(rd, cert) is None

    def test_overlapping_neighbourhoods_rejected(self):
        d = from_arcs(3, [(0, 1), (1, 0), (2, 0), (0, 2)])
        with pytest.raises(ValueError, match="overlap"):
            component_pairing(d, 0b011, _host_pair(d, 0b011))

    def test_uncovered_vertex_rejected(self):
        d = from_arcs(4, [(0, 1), (1, 0), (2, 0), (2, 3), (3, 2)])
        with pytest.raises(ValueError, match="cover"):
            component_pairing(d, 0b0011, _host_pair(d, 0b0011))

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
        cert = absorb_external_vertices(d, 0b011, _host_pair(d, 0b011), 0b100)
        assert verify_good_pair(d, cert) is None

    def test_cascading_order(self):
        # vertex 3 only attaches after vertex 2 joined
        d = from_arcs(4, [(0, 1), (1, 0), (1, 2), (2, 0), (2, 3), (3, 2)])
        cert = absorb_external_vertices(d, 0b0011, _host_pair(d, 0b0011), 0b1100)
        assert verify_good_pair(d, cert) is None

    def test_empty_set_is_identity(self):
        cq = _host_pair(PAIRING_D, Q_SET)
        assert absorb_external_vertices(PAIRING_D, Q_SET, cq, 0) is cq

    def test_stuck_vertex_reported(self):
        d = from_arcs(3, [(0, 1), (1, 0), (0, 2)])
        with pytest.raises(ValueError, match="vertex 2"):
            absorb_external_vertices(d, 0b011, _host_pair(d, 0b011), 0b100)

    def test_overlap_rejected(self):
        cq = _host_pair(PAIRING_D, Q_SET)
        with pytest.raises(ValueError, match="disjoint"):
            absorb_external_vertices(PAIRING_D, Q_SET, cq, 0b000001)

    @pytest.mark.parametrize("x_set", [0, 0b100])
    def test_invalid_cert_rejected(self, x_set):
        d = from_arcs(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
        cq = _host_pair(d, 0b011)
        broken = GoodPairCert(2, cq.out, cq.out)
        with pytest.raises(ValueError, match="certificate for D\\[Q\\] invalid"):
            absorb_external_vertices(d, 0b011, broken, x_set)

    def test_attaches_in_pipeline_order(self):
        """Each step attaches the lowest vertex that can join.  Here Q = {2}
        and X = {0, 1, 3}: 1 joins first, then 0 (through 1) and then 3,
        whose lowest covered neighbour is 0 by then.  Lowest-first passes
        with rescans attach 3 before 0, through 1; both pairs are good."""
        d = parse_digraph("&C]so")
        cq = _host_pair(d, 0b0100)
        cert = absorb_external_vertices(d, 0b0100, cq, 0b1011)
        assert verify_good_pair(d, cert) is None
        assert (cert.out.parent[3], cert.in_.parent[3]) == ((0, 3), (3, 0))
        in_rows = _in_rows(d.n, d.out_adj)
        passes = absorb_reference(d, 0b0100, dense_cert(cq, 0b0100), 0b1011, in_rows)
        assert verify_good_pair(d, passes) is None
        assert (passes.out.parent[3], passes.in_.parent[3]) == ((1, 3), (3, 1))

    def test_pipeline_verifies_each_step_once(self, monkeypatch):
        """A tournament has no digon, so the seed is its first 4-clique,
        whose good pair comes from the table with no search.  D[Q] is never
        induced: each absorb step verifies its pair once, on d's rows and
        the vertex set of its trace step."""
        verified = _counted(monkeypatch, "verify_good_pair", (constructions,))
        induced = _counted(monkeypatch, "induced_subdigraph", (constructions,))
        searched = _counted(monkeypatch, "find_good_pair_exact", (constructions,))
        d = random_2arc_strong(GenModel("tournament", 20, 0.3, derive_seed(99, 0)))
        res, trace = reduce_and_lift(d)
        assert res.status == "found" and trace.steps[-1].rule == "absorb"
        steps = [s.subdigraph for s in trace.steps if s.rule == "absorb"]
        assert len(steps) == 16
        assert [(args[0], args[2]) for args in verified] == [(d, q_set) for q_set in steps]
        assert (len(induced), len(searched)) == (0, 0)

    def test_pipeline_without_absorb_step_induces_nothing(self, monkeypatch):
        """A digon seed that absorbs nothing goes to the exact fallback
        with no D[Q] induced and no step verified."""
        calls = _counted(monkeypatch, "induced_subdigraph", (constructions,))
        verified = _counted(monkeypatch, "verify_good_pair", (constructions,))
        d = random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(7, 1)))
        res, trace = reduce_and_lift(d)
        assert res.status == "found"
        assert [s.rule for s in trace.steps] == ["small-base", "exact-fallback"]
        assert calls == [] and verified == []


@st.composite
def absorb_cases(draw, max_n=20):
    """A digraph with each arc present with probability 3/4 and a nonempty
    proper vertex set Q whose D[Q] has a good pair, with that pair in
    ``induced_subdigraph``'s numbering."""
    n = draw(st.integers(2, max_n))
    full = (1 << n) - 1
    rows = tuple(
        (draw(st.integers(0, full)) | draw(st.integers(0, full))) & ~(1 << u) for u in range(n)
    )
    d = Digraph(n, rows)
    q_set = draw(st.integers(1, full - 1))
    res = find_good_pair_exact(induced_subdigraph(d, q_set)[0], node_budget=10_000)
    assume(res.status == "found")
    return d, q_set, res.cert


class TestAbsorbPhase:
    @given(absorb_cases())
    @settings(max_examples=200, deadline=None)
    def test_steps_match_reference(self, case):
        """A whole phase on a random Q: each step attaches the lowest vertex
        with an in- and an out-neighbour among the covered ones, and
        verifies on d's rows and the grown Q the certificate that the
        re-inducing reference builds one vertex at a time, lifted through
        its vertex map into d's numbering."""
        d, q_set, dense_q = case
        h, vmap = induced_subdigraph(d, q_set)
        cert_q = relabel_cert(dense_q, h.n, vmap.__getitem__)
        before = copy.deepcopy(cert_q)
        in_rows = _in_rows(d.n, d.out_adj)
        seen = []
        real = constructions.verify_good_pair

        def recorded(host, cert, vertices=None):
            seen.append((host, copy.deepcopy(cert), vertices))
            return real(host, cert, vertices)

        constructions.verify_good_pair = recorded
        try:
            attached, cert = _absorb_phase(d, in_rows, q_set, cert_q, d.full_mask & ~q_set)
        finally:
            constructions.verify_good_pair = real
        assert len(seen) == len(attached)
        covered = q_set
        ref = dense_q
        lifted = cert_q
        for v, (host, step, vertices) in zip(attached, seen):
            joinable = [u for u in bits(d.full_mask & ~covered)
                        if in_rows[u] & covered and d.out_adj[u] & covered]
            assert v == joinable[0]
            ref = absorb_reference(d, covered, ref, 1 << v, in_rows)
            covered |= 1 << v
            vmap = tuple(bits(covered))
            lifted = relabel_cert(ref, len(vmap), vmap.__getitem__)
            assert (host, step, vertices) == (d, lifted, covered)
        assert not [u for u in bits(d.full_mask & ~covered)
                    if in_rows[u] & covered and d.out_adj[u] & covered]
        assert cert == lifted and cert_q == before

    def test_leaves_its_inputs_alone(self):
        """The phase grows its parent maps in place, so it must own them:
        the 4-tournament table survives 200 tournament runs, and the public
        rule leaves the certificate it was given as it was."""
        for i in range(200):
            d = random_2arc_strong(GenModel("tournament", 20, 0.3, derive_seed(21, i)))
            _, trace = reduce_and_lift(d)
            assert trace.steps[0].note == "4-vertex base with 6 arcs"
        assert _TOURNAMENT4_CERTS == _tournament4_certs()
        d = parse_digraph("&C]so")
        cq = _host_pair(d, 0b0100)
        before = copy.deepcopy(cq)
        cert = absorb_external_vertices(d, 0b0100, cq, 0b1011)
        assert cert.n == 4 and cq == before


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
        cert = pair_with_spare_vertex(d, Q_SET, _host_pair(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_feed_arc_from_y(self):
        d = from_arcs(7, SPARE_BASE + [(4, 6), (6, 4), (6, 5)])
        cert = pair_with_spare_vertex(d, Q_SET, _host_pair(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_feed_arc_into_x_dual(self):
        # w's in-neighbours avoid Y, so only the reversed branch applies
        d = from_arcs(7, SPARE_BASE + [(6, 2), (6, 3), (2, 6)])
        cert = pair_with_spare_vertex(d, Q_SET, _host_pair(d, Q_SET), 6)
        assert isinstance(cert, GoodPairCert)
        assert verify_good_pair(d, cert) is None

    def test_too_few_attachments(self):
        d = from_arcs(7, SPARE_BASE + [(2, 6), (6, 4), (6, 5)])
        got = pair_with_spare_vertex(d, Q_SET, _host_pair(d, Q_SET), 6)
        assert isinstance(got, ConditionNotMet)
        assert "two in-neighbours" in got.reason

    def test_w_inside_q_rejected(self):
        with pytest.raises(ValueError, match="outside Q"):
            pair_with_spare_vertex(
                PAIRING_D, Q_SET, _host_pair(PAIRING_D, Q_SET), 0
            )

    def test_coverage_required(self):
        d = from_arcs(8, SPARE_BASE + [(2, 6), (3, 6), (6, 4), (6, 5), (7, 6), (6, 7)])
        with pytest.raises(ValueError, match="cover"):
            pair_with_spare_vertex(d, Q_SET, _host_pair(d, Q_SET), 6)


# PAIRING_D and the spare-vertex digraphs on n vertices with vertex i
# renamed HOST[n][i], so that Q = {3, 5} is not a prefix of the vertices
# and the spare vertex is 2, below Q
HOST = {6: (3, 5, 0, 4, 1, 2), 7: (3, 5, 0, 4, 1, 6, 2)}
HOST_Q = 1 << 3 | 1 << 5
SPARE_ARCS = {
    "plain": [(2, 6), (3, 6), (6, 4), (6, 5)],
    "feed-from-y": [(4, 6), (6, 4), (6, 5)],
    "feed-into-x": [(6, 2), (6, 3), (2, 6)],
}


def _renamed(n, arcs):
    at = HOST[n]
    return from_arcs(n, [(at[a], at[b]) for a, b in arcs])


def _cycle62():
    n = 62
    return from_arcs(n, [(v, (v + s) % n) for v in range(n) for s in (1, -1)])


def _host_q_cases():
    """(name, digraph, Q, good pair of D[Q] in d's numbering, the rule on
    them, the number of verify_good_pair calls it makes): Q is never
    {0, ..., k - 1}, and absorption runs at n = 62."""
    pairing = _renamed(6, PAIRING_ARCS)
    cases = [
        (name, d, HOST_Q, lambda d, q, c: component_pairing(d, q, c), 2)
        for name, d in (("pairing", pairing), ("pairing-reversed", reverse(pairing)))
    ]
    for name, arcs in SPARE_ARCS.items():
        d = _renamed(7, SPARE_BASE + arcs)
        cases.append((f"spare-{name}", d, HOST_Q,
                      lambda d, q, c: pair_with_spare_vertex(d, q, c, 2), 2))
    cases.append(("absorb-n62", _cycle62(), 1 << 30 | 1 << 31,
                  lambda d, q, c: absorb_external_vertices(d, q, c, d.full_mask & ~q), 61))
    return [(name, d, q, _host_pair(d, q), run, calls) for name, d, q, run, calls in cases]


HOST_Q_CASES = _host_q_cases()


def _defective(d, q_set, cert, defect):
    """cert with one defect that only D[Q]'s vertex set shows: a size other
    than |Q|, a root or parent key outside Q, or a parent arc of d with one
    end outside Q."""
    out, in_ = cert.out, cert.in_
    w = (~q_set & -~q_set).bit_length() - 1  # the lowest vertex outside Q
    if defect == "size":
        return GoodPairCert(cert.n + 1, out, in_)
    if defect == "root":
        return GoodPairCert(cert.n, Branching("out", w, out.parent), in_)
    if defect == "key":
        return GoodPairCert(cert.n, Branching("out", out.root, {**out.parent, w: (0, w)}), in_)
    in_rows = d.in_adj()
    for v in out.parent:
        for x in bits(in_rows[v] & ~q_set):
            return GoodPairCert(cert.n, Branching("out", out.root, {**out.parent, v: (x, v)}), in_)
    for v in in_.parent:
        for y in bits(d.out_adj[v] & ~q_set):
            return GoodPairCert(cert.n, out, Branching("in", in_.root, {**in_.parent, v: (v, y)}))
    raise AssertionError("no arc of d leaves Q at a non-root vertex")


DEFECT_REASONS = {
    "size": "certificate is for n=",
    "root": "out-branching: root",
    "key": "out-branching: unexpected vertex",
    "arc": "-branching: parent arc",
}


class TestHostNumberedQ:
    """The public rules take and return certificates in d's numbering for
    any vertex set Q, and check the good pair of D[Q] with the verifier on
    that set."""

    @pytest.mark.parametrize("case", HOST_Q_CASES, ids=lambda c: c[0])
    def test_accepts_a_good_pair_of_q(self, case, monkeypatch):
        _, d, q_set, cert_q, run, calls = case
        before = copy.deepcopy(cert_q)
        assert q_set & (q_set + 1)  # Q is not {0, ..., k - 1}
        verified = _counted(monkeypatch, "verify_good_pair", (constructions,))
        cert = run(d, q_set, cert_q)
        assert isinstance(cert, GoodPairCert), cert
        assert verify_good_pair(d, cert) is None and cert_q == before
        assert len(verified) == calls
        assert verified[0] == (d, cert_q, q_set)

    @pytest.mark.parametrize("defect", sorted(DEFECT_REASONS))
    @pytest.mark.parametrize("case", HOST_Q_CASES, ids=lambda c: c[0])
    def test_rejects_a_pair_outside_q(self, case, defect):
        _, d, q_set, cert_q, run, _ = case
        bad = _defective(d, q_set, cert_q, defect)
        with pytest.raises(ValueError, match=r"certificate for D\[Q\] invalid") as info:
            run(d, q_set, bad)
        assert DEFECT_REASONS[defect] in str(info.value)


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
    Returns (d, Q, cert of D[Q] in d's numbering, X, Y, w or None)."""
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
        h, vmap = induced_subdigraph(d, q_set)
        res = find_good_pair_exact(h)
        if res.status == "found":
            return d, q_set, relabel_cert(res.cert, h.n, vmap.__getitem__), x_set, y_set, w


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
        """The seed is the subset scan's; its certificate, in d's numbering,
        is a good pair of D[Q] and the digon's or the table's pair of
        ``induced_subdigraph(d, Q)`` lifted through its vertex map."""
        got = _seed_subdigraph(d, _in_rows(d.n, d.out_adj))
        assert (None if got is None else (got[0], got[2])) == seed_subdigraph_reference(d)
        if got is not None:
            q_set, cert, _ = got
            assert verify_good_pair(d, cert, q_set) is None
            h, vmap = induced_subdigraph(d, q_set)
            if h.n == 2:
                ref = GoodPairCert(
                    2, Branching("out", 0, {1: (0, 1)}), Branching("in", 0, {1: (1, 0)})
                )
            else:
                key = sum(h.has_arc(a, b) << i for i, (a, b) in enumerate(_PAIRS4))
                ref = _TOURNAMENT4_CERTS[key]
            assert cert == relabel_cert(ref, h.n, vmap.__getitem__)
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
        """The table's pair, lifted onto the host's 4-clique {1, 3, 4, 5};
        a caller may edit the seed's certificate without touching the
        table."""
        at = (1, 3, 4, 5)
        t = _tournament4(0b101101)
        d = from_arcs(6, [(at[a], at[b]) for a, b in t.arcs()])
        q_set, cert, note = _seed_subdigraph(d, _in_rows(6, d.out_adj))
        assert (q_set, note) == (0b111010, "4-vertex base with 6 arcs")
        assert cert == relabel_cert(_TOURNAMENT4_CERTS[0b101101], 4, at.__getitem__)
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

    def test_closing_rules_never_decline_when_2_arc_strong(self, monkeypatch):
        """On lambda >= 2 the pairing and the spare-vertex rule close every
        time they run.  Q's neighbourhoods X and Y are disjoint, so an
        initial component of D[X] is entered only from Y (or w) and a
        terminal one of D[Y] leaves only into X (or to w): each has two
        such arcs.  A feed arc v->w leaves only v's component short, by
        one arc; a lone w has two in-neighbours in X and two out-neighbours
        in Y.  So the exact search runs only without a seed or with two or
        more vertices left outside Q, X and Y."""
        closes = collections.Counter()

        def wrapped(name):
            real = getattr(constructions, name)

            def closing_rule(*args):
                got = real(*args)
                assert not isinstance(got, ConditionNotMet), (name, args[0], got)
                closes[name] += 1
                return got

            monkeypatch.setattr(constructions, name, closing_rule)

        wrapped("_component_pairing")
        wrapped("_pair_with_spare_vertex")
        fallbacks = 0
        for i in range(1200):
            for kind in ("arc-minimal", "gnp-repair"):
                d = random_2arc_strong(GenModel(kind, 9, 0.3, derive_seed(2024, i)))
                res, trace = reduce_and_lift(d)
                assert res.status == "found"
                if trace.steps[-1].rule != "exact-fallback" or len(trace.steps) == 1:
                    continue
                q_set = trace.steps[-2].subdigraph
                rows = d.out_adj
                x_set, y_set = constructions._neighbourhoods(rows, _in_rows(9, rows), q_set)
                assert (d.full_mask & ~(q_set | x_set | y_set)).bit_count() >= 2, d
                fallbacks += 1
        assert min(closes.values()) >= 100 and len(closes) == 2, closes
        assert fallbacks >= 100

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

    @pytest.mark.parametrize(
        "name, absorbs, digest",
        [
            ("cycle", 60, "c0cb81abb8741df45bacb7ec57752903632979b8e716a595dec3e74e35702ffc"),
            ("complete", 60, "0e0dac29f4cc97f358c9b8f59ef6d04629e33a301e318066565fa7e2b31ec312"),
            ("tournament", 58, "181a1744e6480a5fd0babf8f3cefe14ebb21743678207e90044343dc7b388362"),
        ],
    )
    def test_n62_closes_by_absorb(self, name, absorbs, digest, monkeypatch):
        """At n = 62, far past the golden files: the bidirected cycle, the
        complete digraph and a tournament close by absorption, one verified
        step per absorbed vertex and no induced D[Q], with the certificate
        bytes the absorb phase gave when it renumbered every step."""
        n = 62
        d = {
            "cycle": from_arcs(n, [(v, (v + s) % n) for v in range(n) for s in (1, -1)]),
            "complete": Digraph(n, tuple(((1 << n) - 1) & ~(1 << v) for v in range(n))),
            "tournament": random_2arc_strong(GenModel("tournament", n, 0.3, 1)),
        }[name]
        verified = _counted(monkeypatch, "verify_good_pair", (constructions,))
        induced = _counted(monkeypatch, "induced_subdigraph", (constructions,))
        searched = _counted(monkeypatch, "_find_good_pair_exact", (constructions,))
        res, trace = reduce_and_lift(d)
        rules = [s.rule for s in trace.steps]
        assert (res.status, rules) == ("found", ["small-base"] + ["absorb"] * absorbs)
        assert (len(verified), len(induced), len(searched)) == (absorbs, 0, 0)
        assert verify_good_pair(d, res.cert) is None
        assert _sha(cert_to_json(res.cert)) == digest

    def test_n62_arc_minimal_draws_found(self):
        """Arc-minimal n = 62 draws of seeds 1-6 close by the exact fallback
        within the default budget.  Seeds 2, 4 and 6 restart: their
        single-order searches take 250,001 (inconclusive), 62,862 and
        11,189 nodes.  The work is bounded by the pinned node counts."""
        pinned = {
            1: (88, "found"),
            2: (11274, "found by run 14, 11274 nodes in all"),
            3: (86, "found"),
            4: (616, "found by run 2, 616 nodes in all"),
            5: (123, "found"),
            6: (1265, "found by run 3, 1265 nodes in all"),
        }
        for s, (nodes, note) in pinned.items():
            d = random_2arc_strong(GenModel("arc-minimal", 62, 0.3, s))
            res, trace = reduce_and_lift(d)
            assert res.status == "found", s
            assert verify_good_pair(d, res.cert) is None, s
            step = TraceStep("exact-fallback", d.full_mask, note)
            assert (res.nodes, trace.steps[-1]) == (nodes, step), s

    def test_fifty_n62_arc_minimal_draws_found(self):
        """Every one of 50 arc-minimal n = 62 draws of derive_seed(9, i)
        answers "found" with a verified certificate in at most 25,000 nodes
        (the most is 22,614), within the default budget.  The search is
        deterministic, so the total is pinned."""
        total = 0
        for i in range(50):
            d = random_2arc_strong(GenModel("arc-minimal", 62, 0.3, derive_seed(9, i)))
            res, _ = reduce_and_lift(d)
            assert res.status == "found", i
            assert verify_good_pair(d, res.cert) is None, i
            assert res.nodes <= 25_000, i
            total += res.nodes
        assert total == 175_016

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


N10_D6 = "&II?OOKOIC@@I@?_K`?"  # tests/data/no_good_pair_n10.json: no good pair


def _single_order(d, budget=branchings.DEFAULT_NODE_BUDGET):
    return branchings._find_good_pair_exact(d, _in_rows(d.n, d.out_adj), node_budget=budget)


def _answer(res, note):
    cert = cert_to_json(res.cert) if res.cert is not None else None
    return res.status, res.nodes, cert, note


def _n62_seed2():
    """Its single-order search is inconclusive after 250,000 nodes; with
    restarts, runs 1-13 spend 10,240 nodes and run 14 finds a pair in
    1,034 more."""
    return random_2arc_strong(GenModel("arc-minimal", 62, 0.3, 2))


def _luby(k):
    """Luby's sequence 1, 1, 2, 1, 1, 2, 4, 1, ... by its recursive definition."""
    i = k.bit_length()
    if k == (1 << i) - 1:
        return 1 << (i - 1)
    return _luby(k - (1 << (i - 1)) + 1)


class TestExactFallbackRestarts:
    """The fallback runs the single-order search with 512 nodes, then
    relabelled copies with Luby budgets 512, 1,024, 512, 512, ... up to
    node_budget; a run that would carry the spent nodes past half of
    node_budget takes all that remains."""

    @pytest.mark.parametrize("budget", [1, 511, 512, 1023, 1024, 1025, 2000, 5000, 250_000, 10**6])
    def test_schedule(self, budget):
        """Every run but the last gets 512 * luby(k), and together they stay
        at or below half the budget; the last takes what remains, so the
        budgets add up to node_budget exactly."""
        runs = list(constructions._run_budgets(budget))
        *head, last = runs
        assert head == [512 * _luby(k) for k in range(1, len(runs))]
        assert 2 * sum(head) <= budget and sum(runs) == budget
        assert last == 512 * _luby(len(runs)) or 2 * (sum(head) + 512 * _luby(len(runs))) > budget

    def test_default_schedule(self):
        runs = list(constructions._run_budgets(branchings.DEFAULT_NODE_BUDGET))
        assert runs[:8] == [512, 512, 1024, 512, 512, 1024, 2048, 512]
        assert (len(runs), runs[-1]) == (92, 125_072)

    @pytest.mark.parametrize("budget, nodes, runs", [(2000, 1835, 2), (3000, 2322, 3), (4000, 2322, 3)])
    def test_last_run_can_exhaust_a_tree(self, budget, nodes, runs):
        """The fixture's relabelled runs 2 and 3 exhaust their trees in 1,323
        and 1,298 nodes, more than their Luby terms of 512 and 1,024: only
        the last run's share of the budget lets them answer "none"."""
        res, trace = reduce_and_lift(parse_digraph(N10_D6), node_budget=budget)
        note = f"none by run {runs}, {nodes} nodes in all"
        assert _answer(res, trace.steps[-1].note) == ("none", nodes, None, note)
        luby_spent = sum(512 * _luby(k) for k in range(1, runs + 1))
        assert nodes > luby_spent

    def test_stream_keeps_single_order_answers(self):
        """First 600 arc-minimal n = 20 draws of seed 29: a fallback whose
        single-order search needs at most 512 nodes keeps its status,
        nodes, certificate bytes and bare note.  Every other one restarts,
        finds a pair that verifies on d, and stays within its budget, the
        default's and 2,000 nodes."""
        restarts = 0
        for i in range(600):
            d = random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(29, i)))
            res, trace = reduce_and_lift(d)
            if trace.steps[-1].rule != "exact-fallback":
                continue
            note = trace.steps[-1].note
            single = _single_order(d)
            if single.nodes <= 512:
                assert _answer(res, note) == _answer(single, single.status), i
                continue
            restarts += 1
            assert res.status == "found", i
            assert verify_good_pair(d, res.cert) is None, i
            assert 512 < res.nodes <= branchings.DEFAULT_NODE_BUDGET, i
            assert note.startswith("found by run ") and note.endswith(f", {res.nodes} nodes in all")
            capped, _ = reduce_and_lift(d, node_budget=2000)
            if capped.status == "found":
                assert capped.nodes <= 2000 and verify_good_pair(d, capped.cert) is None, i
            else:
                assert (capped.status, capped.nodes) == ("inconclusive", 2001), i
        assert restarts >= 40

    @pytest.mark.parametrize("budget", [1, 500, 512, 1023])
    def test_budgets_up_to_the_first_run_answer_as_today(self, budget):
        """Up to 512 run 1 gets the whole budget by its Luby term, and below
        1,024 because 1,024 would carry it past half the budget."""
        draws = [parse_digraph(N10_D6), _n62_seed2()] + [
            random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(29, i)))
            for i in range(40)
        ]
        for d in draws:
            res, trace = reduce_and_lift(d, node_budget=budget)
            if trace.steps[-1].rule == "exact-fallback":
                single = _single_order(d, budget)
                assert _answer(res, trace.steps[-1].note) == _answer(single, single.status)

    @pytest.mark.parametrize("budget, runs", [(1025, 2), (3072, 3), (5000, 4), (20479, 13)])
    def test_exhausted_budget_is_inconclusive(self, budget, runs):
        res, trace = reduce_and_lift(_n62_seed2(), node_budget=budget)
        note = f"inconclusive after run {runs}, {budget + 1} nodes in all"
        assert _answer(res, trace.steps[-1].note) == ("inconclusive", budget + 1, None, note)

    def test_budget_that_reaches_the_answer(self):
        """20,480 is the least budget whose schedule reaches run 14, the
        default's answering run, as its last run."""
        d = _n62_seed2()
        res, trace = reduce_and_lift(d, node_budget=20480)
        assert (res.status, res.nodes) == ("found", 11274)
        assert trace.steps[-1].note == "found by run 14, 11274 nodes in all"
        assert verify_good_pair(d, res.cert) is None

    def test_none_only_from_an_exhausted_tree(self):
        """The fixture's relabelled run 7 exhausts its tree in 1,328 nodes.
        With 1,834 nodes, run 2 is the last and gets 1,322, one short of
        its tree: inconclusive."""
        d = parse_digraph(N10_D6)
        res, trace = reduce_and_lift(d)
        note = "none by run 7, 5424 nodes in all"
        assert _answer(res, trace.steps[-1].note) == ("none", 5424, None, note)
        res, _ = reduce_and_lift(d, node_budget=1834)
        assert (res.status, res.nodes) == ("inconclusive", 1835)

    def test_deterministic(self):
        for d in (parse_digraph(N10_D6), _n62_seed2()):
            (r1, t1), (r2, t2) = reduce_and_lift(d), reduce_and_lift(d)
            assert _answer(r1, t1.to_jsonl()) == _answer(r2, t2.to_jsonl())


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
    recorded before the pairing rules moved onto strong_decomposition.
    None of them may move, except that the arc-minimal n = 12 digest was
    re-recorded when the pairing took the exact search's forest order:
    one spare-vertex certificate (index 12098) changed, and every status,
    closing rule and trace stayed."""

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
