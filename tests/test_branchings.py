"""Branching verification, certificates, enumeration, exact search."""

import collections
import gc
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from goodpairs import (
    Branching,
    Digraph,
    GenModel,
    GoodPairCert,
    branching_roots,
    cert_from_json,
    cert_to_json,
    derive_seed,
    find_good_pair_exact,
    random_2arc_strong,
    reverse,
    reverse_cert,
    verify_branching,
    verify_good_pair,
)
from goodpairs import branchings
from goodpairs.branchings import _cut_terminal, _find_good_pair_exact
from goodpairs.digraph import (
    _in_rows,
    _strong_decomposition,
    from_arcs,
    parse_digraph,
    serialize_digraph,
    strong_decomposition,
)

from oracles import (
    closure_sccs,
    count_out_branchings,
    enumerate_branchings,
    find_good_pair_exact_reference,
    good_pair_exists_bruteforce,
    rand_digraph,
    verify_branching_reference,
)

N10 = Path(__file__).parent / "data" / "no_good_pair_n10.json"

BI3 = Digraph(3, (0b110, 0b101, 0b011))
C3 = Digraph(3, (0b010, 0b100, 0b001))


class TestBranchingRoots:
    def test_cycle_all_roots(self):
        assert branching_roots(C3, "out") == 0b111
        assert branching_roots(C3, "in") == 0b111

    def test_path_digraph(self):
        d = from_arcs(3, [(0, 1), (1, 2)])
        assert branching_roots(d, "out") == 0b001
        assert branching_roots(d, "in") == 0b100

    def test_two_sources(self):
        d = from_arcs(3, [(0, 2), (1, 2)])
        assert branching_roots(d, "out") == 0
        assert branching_roots(d, "in") == 0b100

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            branching_roots(C3, "up")


class TestHashing:
    def test_equal_branchings_share_a_set_slot(self):
        a = Branching("out", 0, {1: (0, 1), 2: (1, 2)})
        b = Branching("out", 0, dict([(2, (1, 2)), (1, (0, 1))]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert len({a, Branching("in", 0, {1: (0, 1), 2: (1, 2)})}) == 2

    def test_certificates_stay_hashable(self):
        certs = {find_good_pair_exact(BI3).cert for _ in range(3)}
        assert len(certs) == 1


class TestVerifyBranching:
    def test_valid(self):
        b = Branching("out", 0, {1: (0, 1), 2: (1, 2)})
        assert verify_branching(C3, b) is None

    def test_violations(self):
        assert "kind" in verify_branching(C3, Branching("up", 0, {}))
        assert "root" in verify_branching(C3, Branching("out", 9, {}))
        assert "no parent" in verify_branching(C3, Branching("out", 0, {1: (0, 1)}))
        b = Branching("out", 0, {1: (0, 1), 2: (0, 2)})
        assert "not an arc" in verify_branching(C3, b)
        b = Branching("out", 0, {1: (1, 2), 2: (1, 2)})
        assert "must point at" in verify_branching(C3, b)
        b = Branching("in", 0, {1: (2, 0), 2: (2, 0)})
        assert "must start at" in verify_branching(C3, b)
        # two vertices pointing at each other never reach the root
        d = from_arcs(4, [(0, 1), (2, 3), (3, 2)])
        b = Branching("out", 0, {1: (0, 1), 2: (3, 2), 3: (2, 3)})
        assert "never reach the root" in verify_branching(d, b)

    def test_root_with_parent(self):
        b = Branching("out", 0, {0: (1, 0), 1: (0, 1), 2: (1, 2)})
        assert "root" in verify_branching(C3, b)

    @pytest.mark.parametrize("kind", ["out", "in"])
    def test_walk_is_linear_on_a_path(self, kind):
        """Each vertex is walked through once: on a path-shaped branching a
        walk that never marks vertices settled takes about n^2 / 2 steps."""
        n = 62
        d = from_arcs(n, [(v, v + s) for v in range(n) for s in (1, -1) if 0 <= v + s < n])
        if kind == "out":
            b = Branching("out", 0, {v: (v - 1, v) for v in range(1, n)})
        else:
            b = Branching("in", n - 1, {v: (v, v + 1) for v in range(n - 1)})
        code = verify_branching.__code__
        lines = 0

        def local(frame, event, arg):
            nonlocal lines
            lines += event == "line"
            return local

        previous = sys.gettrace()
        sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
        try:
            got = verify_branching(d, b)
        finally:
            sys.settrace(previous)
        assert got is None
        assert 0 < lines <= 25 * n, lines

    def test_matches_reference_on_corruptions(self):
        """Same first violation as the quadratic reference, on seeded valid
        branchings (random and path-shaped trees) and their corruptions."""
        rng = random.Random(4242)
        messages = ("out of range", "has a parent", "no parent", "unexpected",
                    "not an arc", "must", "never reach")
        seen = collections.Counter()
        for i in range(3000):
            n = rng.randint(1, 20)
            kind = ("out", "in")[i & 1]
            rows, b = _random_branching(rng, n, kind, path=i % 3 == 0)
            d = Digraph(n, tuple(rows))
            assert verify_branching(d, b) is None
            assert verify_branching_reference(d, b) is None
            for _ in range(rng.randint(1, 2)):
                rows, b = _corrupt(rng, rows, b)
            d = Digraph(n, tuple(rows))
            got = verify_branching(d, b)
            assert got == verify_branching_reference(d, b), (rows, b)
            seen[next((m for m in messages if got and m in got), got)] += 1
        assert set(seen) == {*messages, None}
        assert min(seen.values()) > 50, seen


class TestGoodPairVerification:
    def _pair(self):
        return find_good_pair_exact(BI3).cert

    def test_valid(self):
        assert verify_good_pair(BI3, self._pair()) is None

    def test_n_mismatch(self):
        cert = self._pair()
        bad = GoodPairCert(4, cert.out, cert.in_)
        assert "n=4" in verify_good_pair(BI3, bad)

    def test_kind_mix_up(self):
        cert = self._pair()
        assert "kind 'out'" in verify_good_pair(BI3, GoodPairCert(3, cert.in_, cert.in_))
        assert "kind 'in'" in verify_good_pair(BI3, GoodPairCert(3, cert.out, cert.out))

    def test_shared_arc_detected(self):
        out = Branching("out", 0, {1: (0, 1), 2: (1, 2)})
        in_ = Branching("in", 0, {1: (1, 2), 2: (2, 0)})
        d = from_arcs(3, [(0, 1), (1, 2), (2, 0)])
        assert "used by both" in verify_good_pair(d, GoodPairCert(3, out, in_))

    def test_reverse_cert_duality(self):
        cert = self._pair()
        rc = reverse_cert(cert)
        assert verify_good_pair(reverse(BI3), rc) is None
        assert rc.out.root == cert.in_.root and rc.in_.root == cert.out.root


class TestCertJson:
    def test_frozen_layout(self):
        cert = find_good_pair_exact(BI3, root_out=0, root_in=0).cert
        assert cert_to_json(cert) == (
            '{"n": 3, "out": {"root": 0, "parent": {"1": [0, 1], "2": [0, 2]}}, '
            '"in": {"root": 0, "parent": {"1": [1, 0], "2": [2, 0]}}}'
        )

    def test_round_trip(self):
        cert = find_good_pair_exact(BI3).cert
        back = cert_from_json(cert_to_json(cert))
        assert back.n == cert.n
        assert back.out.root == cert.out.root and back.out.parent == cert.out.parent
        assert back.in_.root == cert.in_.root and back.in_.parent == cert.in_.parent

    @pytest.mark.parametrize(
        "text",
        ["not json", "{}", '{"n": 3, "out": {}, "in": {}}',
         '{"n": 3, "out": {"root": 0, "parent": {"1": [0]}}, "in": {"root": 0, "parent": {}}}'],
    )
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            cert_from_json(text)

    @pytest.mark.parametrize("parent", ["[]", '"0"', "3"])
    def test_parent_not_an_object(self, parent):
        text = json.dumps({"n": 2, "out": {"root": 0, "parent": json.loads(parent)},
                           "in": {"root": 0, "parent": {}}})
        with pytest.raises(ValueError, match="malformed certificate object"):
            cert_from_json(text)


# the bidirected path 0-1-2 and a good pair of it, as cert_to_json writes it
PATH3 = Digraph(3, (0b010, 0b101, 0b010))
PATH3_CERT = {"n": 3, "out": {"root": 0, "parent": {"1": [0, 1], "2": [1, 2]}},
              "in": {"root": 0, "parent": {"1": [1, 0], "2": [2, 1]}}}


def _edited(path, value):
    """PATH3_CERT as JSON text with the field at ``path`` set to ``value``."""
    root = json.loads(json.dumps(PATH3_CERT))
    obj = root
    *keys, last = path
    for k in keys:
        obj = obj[k]
    obj[last] = value
    return json.dumps(root)


class TestCertJsonStrict:
    def test_untouched_certificate_parses_and_verifies(self):
        assert verify_good_pair(PATH3, cert_from_json(json.dumps(PATH3_CERT))) is None

    @pytest.mark.parametrize(
        "path, value",
        [
            (("n",), "3"),
            (("n",), 3.0),
            (("n",), True),
            (("out", "root"), 0.9),
            (("out", "root"), False),
            (("in", "root"), "0"),
            (("out", "parent", "1"), [0, 1.7]),
            (("in", "parent", "2"), [2, "1"]),
            (("in", "parent", "2"), [2, True]),
            (("out", "parent", "2"), [1, 2, 0]),
            (("out", "parent", "2"), [1]),
            (("out", "parent", "2"), "12"),
            (("out", "parent", "2"), {"0": 1, "1": 2}),
            (("out", "parent", "01"), [1, 2]),
            (("out", "parent", " 1"), [1, 2]),
            (("out", "parent", "+1"), [1, 2]),
            (("out", "parent", "1.0"), [1, 2]),
            (("out", "parent", "-0"), [1, 2]),
        ],
    )
    def test_non_integer_fields_rejected(self, path, value):
        with pytest.raises(ValueError, match="malformed certificate object"):
            cert_from_json(_edited(path, value))

    def test_coercible_certificate_rejected(self):
        # int() would turn every field back into the valid good pair above
        obj = json.loads(json.dumps(PATH3_CERT))
        obj["n"] = "3"
        obj["out"]["root"] = 0.9
        obj["out"]["parent"]["1"] = [0, 1.7]
        obj["in"]["parent"]["2"] = [2, "1"]
        with pytest.raises(ValueError, match="malformed certificate object"):
            cert_from_json(json.dumps(obj))

    def test_repeated_parent_key_rejected(self):
        # the last "1" alone gives the valid good pair above; the first names
        # a non-arc, and keeping either one silently would hide the other
        text = ('{"n": 3, "out": {"root": 0, "parent": {"1": [9, 9], "1": [0, 1], "2": [1, 2]}}, '
                '"in": {"root": 0, "parent": {"1": [1, 0], "2": [2, 1]}}}')
        with pytest.raises(ValueError, match="malformed certificate object: repeated key '1'"):
            cert_from_json(text)

    def test_repeated_top_level_key_rejected(self):
        text = json.dumps(PATH3_CERT)[:-1] + ', "n": 3}'
        with pytest.raises(ValueError, match="malformed certificate object: repeated key 'n'"):
            cert_from_json(text)

    def test_negative_vertex_parses_and_fails_verification(self):
        # a well-formed certificate that names no vertex of the digraph is
        # invalid, not malformed
        cert = cert_from_json(_edited(("out", "parent", "-1"), [1, 2]))
        assert -1 in cert.out.parent
        assert verify_good_pair(PATH3, cert) is not None


class TestEnumerateBranchings:
    def test_matches_matrix_tree_counts(self):
        rng = random.Random(17)
        for _ in range(60):
            n = rng.randint(2, 6)
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.9))
            root = rng.randrange(n)
            got = list(enumerate_branchings(d, "out", root))
            assert len(got) == count_out_branchings(d, root)
            assert len({frozenset(b.arcs()) for b in got}) == len(got)
            for b in got[:5]:
                assert verify_branching(d, b) is None
            # in-branchings equal out-branchings of the reverse
            got_in = list(enumerate_branchings(d, "in", root))
            assert len(got_in) == count_out_branchings(reverse(d), root)

    def test_limit(self):
        assert len(list(enumerate_branchings(BI3, "out", 0, limit=2))) == 2

    def test_guards(self):
        with pytest.raises(ValueError):
            enumerate_branchings(Digraph(9, (0,) * 9), "out", 0)
        with pytest.raises(ValueError):
            enumerate_branchings(BI3, "sideways", 0)
        with pytest.raises(ValueError):
            enumerate_branchings(BI3, "out", 7)


class TestExactSearch:
    def test_found_and_verified(self):
        res = find_good_pair_exact(BI3)
        assert res.status == "found"
        assert verify_good_pair(BI3, res.cert) is None

    def test_none_on_cycle(self):
        res = find_good_pair_exact(C3)
        assert res.status == "none" and res.cert is None

    def test_single_vertex(self):
        res = find_good_pair_exact(Digraph(1, (0,)))
        assert res.status == "found"

    def test_root_constraints_respected(self):
        for r1 in range(3):
            for r2 in range(3):
                res = find_good_pair_exact(BI3, root_out=r1, root_in=r2)
                assert res.status == "found"
                assert res.cert.out.root == r1 and res.cert.in_.root == r2

    def test_impossible_root(self):
        d = from_arcs(3, [(0, 1), (1, 2), (2, 1), (1, 0), (0, 2)])
        # vertex 2 cannot root an out-branching spanning {0,1} disjointly..
        # just check consistency: forcing roots never invents pairs
        base = find_good_pair_exact(d).status
        for r in range(3):
            forced = find_good_pair_exact(d, root_out=r).status
            if base == "none":
                assert forced == "none"

    def test_root_out_of_range(self):
        with pytest.raises(ValueError):
            find_good_pair_exact(BI3, root_out=5)
        with pytest.raises(ValueError):
            find_good_pair_exact(BI3, root_in=-1)

    @pytest.mark.parametrize("budget", [0, -5])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="node_budget"):
            find_good_pair_exact(BI3, node_budget=budget)

    def test_budget_inconclusive(self):
        # a spanning tree needs 7 arc inclusions, so a budget of 1 must trip
        full = Digraph(8, tuple(0b11111111 ^ (1 << u) for u in range(8)))
        res = find_good_pair_exact(full, node_budget=1)
        assert res.status == "inconclusive"
        assert res.cert is None and res.nodes >= 1

    def test_leaves_no_reference_cycle(self):
        """A search frees its closure by reference counting alone, whether it
        ends "found", "none" (the n = 10 fixture) or "inconclusive"."""
        fixture = parse_digraph(json.loads(N10.read_text())["digraph6"])
        found = [random_2arc_strong(GenModel("arc-minimal", 12, seed=derive_seed(7, i)))
                 for i in range(20)]
        gc.collect()
        gc.disable()
        try:
            statuses = [find_good_pair_exact(d).status for d in found]
            statuses.append(find_good_pair_exact(fixture).status)
            statuses.append(find_good_pair_exact(fixture, node_budget=50).status)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert set(statuses[:-2]) == {"found"} and statuses[-2:] == ["none", "inconclusive"]

    def test_matches_bruteforce_on_triples(self):
        rng = random.Random(23)
        for _ in range(80):
            d = rand_digraph(rng, rng.randint(2, 4), rng.uniform(0.2, 1.0))
            res = find_good_pair_exact(d)
            assert (res.status == "found") == good_pair_exists_bruteforce(d)


def _random_branching(rng, n, kind, path):
    """Host rows plus a spanning branching of them: each vertex in a
    shuffled order hangs from an earlier one (its predecessor when
    ``path``), and extra arcs are added at a random density."""
    order = list(range(n))
    rng.shuffle(order)
    rows = [0] * n
    parent = {}
    for i in range(1, n):
        v = order[i]
        p = order[i - 1] if path else order[rng.randrange(i)]
        a, h = (p, v) if kind == "out" else (v, p)
        parent[v] = (a, h)
        rows[a] |= 1 << h
    density = rng.choice((0.0, 0.1, 0.5))
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density:
                rows[u] |= 1 << v
    return rows, Branching(kind, order[0], parent)


def _corrupt(rng, rows, b):
    """One random defect: a wrong root, a missing or extra vertex, a
    non-arc, a wrong direction, or a cycle of 2 or more parent pointers
    whose arcs are added to the host, so that only the walk can see it."""
    n = len(rows)
    rows = list(rows)
    root = b.root
    parent = dict(b.parent)
    others = [v for v in range(n) if v != root]
    what = rng.choice(("root", "missing", "extra", "non-arc", "direction", "cycle", "cycle"))
    if what == "root":
        root = rng.choice([-1, n, *range(n)])
    elif what == "missing" and parent:
        del parent[rng.choice(sorted(parent))]
    elif what == "extra":
        parent[rng.choice((root, n))] = (0, 0)
    elif what == "non-arc" and others:
        v = rng.choice(others)
        u = rng.choice((-1, n, *range(n)))
        parent[v] = (u, v) if b.kind == "out" else (v, u)
    elif what == "direction" and n > 2 and others:
        v = rng.choice(others)
        a, h = rng.sample([u for u in range(n) if u != v], 2)
        parent[v] = (a, h)
    elif what == "cycle" and len(others) > 1:
        ring = rng.sample(others, rng.randint(2, len(others)))
        for prev, v in zip(ring[-1:] + ring[:-1], ring):
            a, h = (prev, v) if b.kind == "out" else (v, prev)
            parent[v] = (a, h)
            rows[a] |= 1 << h
    return rows, Branching(b.kind, root, parent)


def _terminal_comps(n, rows):
    """Terminal strong components by the reachability-closure oracle."""
    return [
        comp
        for comp in closure_sccs(Digraph(n, tuple(rows)))
        if all(not rows[u] & ~comp for u in range(n) if comp >> u & 1)
    ]


@st.composite
def digraphs_with_deletions(draw):
    n = draw(st.integers(1, 14))
    full = (1 << n) - 1
    sparsity = draw(st.integers(1, 3))  # a row is the AND of this many random masks
    rows = []
    for u in range(n):
        row = full & ~(1 << u)
        for _ in range(sparsity):
            row &= draw(st.integers(0, full))
        rows.append(row)
    arcs = [(u, v) for u in range(n) for v in range(n) if rows[u] >> v & 1]
    doomed = draw(st.lists(st.sampled_from(arcs), max_size=len(arcs))) if arcs else []
    return n, rows, doomed


def _unique_terminal(n, rows):
    terminal = _terminal_comps(n, rows)
    return terminal[0] if len(terminal) == 1 else 0


class TestSingleTerminal:
    """The exact search's terminal-component update after each arc removal
    against the closure oracle.  Removing arcs never lowers the number of
    terminal components, so once it is 0 the update is not run again."""

    @given(digraphs_with_deletions())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_scc_count(self, case):
        n, rows, doomed = case
        term = _unique_terminal(n, rows)
        for u, v in doomed:
            rows[u] &= ~(1 << v)
            if term:
                term = _cut_terminal(rows, u, term)
            assert term == _unique_terminal(n, rows)


def _outcome(res):
    return res.status, res.nodes, cert_to_json(res.cert) if res.cert else None


class TestIncrementalPruning:
    """The search, which reruns only the pruning test its last step could
    have made fail, against the reference, which reruns all three at every
    node: the same status, node count and certificate."""

    def test_random_with_root_constraints(self):
        rng = random.Random(606)
        statuses = collections.Counter()
        for _ in range(1500):
            n = rng.randint(1, 10)
            d = rand_digraph(rng, n, rng.uniform(0.15, 0.9))
            kw = {}
            if rng.random() < 0.5:
                kw["root_out"] = rng.randrange(n)
            if rng.random() < 0.5:
                kw["root_in"] = rng.randrange(n)
            got = _outcome(find_good_pair_exact(d, **kw))
            assert got == _outcome(find_good_pair_exact_reference(d, **kw)), (d, kw)
            statuses[got[0]] += 1
        assert statuses["found"] and statuses["none"]

    def test_arc_minimal(self):
        for i in range(36):
            n = 12 + i % 9
            d = random_2arc_strong(GenModel("arc-minimal", n, 0.3, derive_seed(607, i)))
            for kw in ({}, {"root_out": n - 1, "root_in": 0}):
                got = _outcome(find_good_pair_exact(d, node_budget=20_000, **kw))
                want = _outcome(find_good_pair_exact_reference(d, node_budget=20_000, **kw))
                assert got == want, (serialize_digraph(d, "digraph6"), kw)

    def test_budget_stops_at_the_same_node(self):
        rng = random.Random(608)
        stopped = 0
        for _ in range(400):
            n = rng.randint(5, 10)
            d = rand_digraph(rng, n, rng.uniform(0.2, 0.6))
            full = find_good_pair_exact(d).nodes
            if full < 4:
                continue
            budget = rng.randint(1, full - 1)
            got = _outcome(find_good_pair_exact(d, node_budget=budget))
            assert got == _outcome(find_good_pair_exact_reference(d, node_budget=budget))
            assert got[:2] == ("inconclusive", budget + 1)
            stopped += 1
        assert stopped > 100

    def test_arc_minimal_large(self):
        rng = random.Random(609)
        statuses = collections.Counter()
        for i in range(21):
            n = 20 + i % 7
            d = random_2arc_strong(GenModel("arc-minimal", n, 0.3, derive_seed(609, i)))
            rooted = {"root_out": rng.randrange(n), "root_in": rng.randrange(n)}
            for kw in ({}, rooted, {"node_budget": rng.randint(1, 5_000)}):
                kw.setdefault("node_budget", 5_000)
                got = _outcome(find_good_pair_exact(d, **kw))
                want = _outcome(find_good_pair_exact_reference(d, **kw))
                assert got == want, (serialize_digraph(d, "digraph6"), kw)
                statuses[got[0]] += 1
        assert statuses["found"] and statuses["inconclusive"]

    def test_four_tournaments(self):
        """All 64 labelled 4-tournaments, the seed searches of a digon-free
        host, unrooted and at every pair of roots."""
        pairs = [(a, b) for a in range(4) for b in range(a + 1, 4)]
        for pattern in range(64):
            d = from_arcs(4, [(a, b) if pattern >> i & 1 else (b, a)
                              for i, (a, b) in enumerate(pairs)])
            for kw in [{}] + [{"root_out": r, "root_in": s} for r in range(4) for s in range(4)]:
                got = _outcome(find_good_pair_exact(d, **kw))
                assert got == _outcome(find_good_pair_exact_reference(d, **kw)), (pattern, kw)


@st.composite
def rooted_digraphs(draw):
    """A digraph on 1..9 vertices, rows the AND of 1..3 random masks, with
    each root constraint present or absent."""
    n = draw(st.integers(1, 9))
    full = (1 << n) - 1
    sparsity = draw(st.integers(1, 3))
    rows = []
    for u in range(n):
        row = full & ~(1 << u)
        for _ in range(sparsity):
            row &= draw(st.integers(0, full))
        rows.append(row)
    kw = {
        "root_out": draw(st.none() | st.integers(0, n - 1)),
        "root_in": draw(st.none() | st.integers(0, n - 1)),
    }
    return Digraph(n, tuple(rows)), kw


class TestCarriedInRows:
    """The exact search's private entry, which takes the host's in-rows,
    against the public one and against the reference."""

    @given(rooted_digraphs())
    @settings(max_examples=300, deadline=None)
    def test_entry_matches_public_and_reference(self, case):
        d, kw = case
        in_rows = _in_rows(d.n, d.out_adj)
        got = _outcome(_find_good_pair_exact(d, in_rows, node_budget=5_000, **kw))
        assert in_rows == _in_rows(d.n, d.out_adj)  # read, never written
        assert got == _outcome(find_good_pair_exact(d, node_budget=5_000, **kw))
        assert got == _outcome(find_good_pair_exact_reference(d, node_budget=5_000, **kw))

    @given(rooted_digraphs())
    @settings(max_examples=300, deadline=None)
    def test_carried_decomposition_matches(self, case):
        d, _ = case
        carried = _strong_decomposition(d.n, d.out_adj, _in_rows(d.n, d.out_adj))
        assert carried == strong_decomposition(d)


class TestSearchWork:
    def test_full_reaches_per_node(self, monkeypatch):
        """Every full reach of the search, a descent's included, goes through
        the module name ``_reach``.  A reach that stops at the terminal
        component decides an include whose tail lies outside it; only an
        include inside it runs a full reach."""
        calls = 0
        reach = branchings._reach

        def counted(*args):
            nonlocal calls
            calls += 1
            return reach(*args)

        monkeypatch.setattr(branchings, "_reach", counted)
        nodes = 0
        for i in range(200):
            d = random_2arc_strong(GenModel("arc-minimal", 20, 0.3, derive_seed(610, i)))
            nodes += find_good_pair_exact(d).nodes
        assert nodes > 10_000
        assert calls <= 0.05 * nodes, (calls, nodes)

    def test_no_recursion(self):
        """The search keeps its path on a list, not on the interpreter stack:
        a bidirected 62-cycle needs a path of 61 includes."""
        d = from_arcs(62, [(v, (v + s) % 62) for v in range(62) for s in (1, -1)])
        depth = 0
        frame = sys._getframe()
        while frame:
            depth += 1
            frame = frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            res = find_good_pair_exact(d)
        finally:
            sys.setrecursionlimit(limit)
        assert (res.status, res.nodes) == ("found", 61)


GOLDEN = Path(__file__).parent / "data" / "exact_search_golden.json"


def _cert_digest(cert):
    return hashlib.sha256(cert_to_json(cert).encode()).hexdigest()[:16]


@pytest.mark.parametrize("row", json.loads(GOLDEN.read_text()))
def test_exact_search_pinned(row):
    """Search trees and certificates recorded on arc-minimal n=12..18 inputs
    with the Tarjan-based terminal-component test, which the co-reach test
    replaced: node counts and certificates must not move."""
    text, nodes, digest, rooted_nodes, rooted_digest = row
    d = parse_digraph(text)
    res = find_good_pair_exact(d)
    assert (res.status, res.nodes, _cert_digest(res.cert)) == ("found", nodes, digest)
    res = find_good_pair_exact(d, root_out=d.n - 1, root_in=0)
    assert (res.status, res.nodes, _cert_digest(res.cert)) == ("found", rooted_nodes, rooted_digest)
