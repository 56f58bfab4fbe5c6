"""Acceptance gate: one test per claim, each printing a tallied pass line.

Every test draws its own seeded instances, checks the library against an
independent oracle or a frozen expected value, and asserts the stated
tolerance (always exact).  Run with -v for one line per criterion.
"""

import json
import random
import time
from pathlib import Path

import pytest

from goodpairs import (
    ConditionNotMet,
    Digraph,
    GenModel,
    GoodPairCert,
    arc_connectivity,
    canonical_form,
    component_pairing,
    cut_degree,
    derive_seed,
    edmonds_branchings,
    enumerate_small,
    find_good_pair_exact,
    induced_subdigraph,
    parse_digraph,
    random_2arc_strong,
    reduce_and_lift,
    reverse,
    reverse_cert,
    serialize_digraph,
    verify_branching,
    verify_good_pair,
    verify_theorem_sample,
)
from goodpairs.connectivity import CutWitness, _cut_below
from goodpairs.constructions import longest_dipath
from goodpairs.digraph import _in_rows, bits, verify_dipath

from oracles import (
    edmonds_feasible,
    good_pair_by_out_branchings,
    good_pair_exists_bruteforce,
    in_cut,
    independent_set_size,
    lambda_enum,
    rand_digraph,
    subset_min_cut,
)

SWEEP_SEED = {7: 1007, 8: 1008, 9: 1009}
SWEEP_COUNT = 10_000
SWEEP_KINDS = ("gnp-repair", "arc-minimal")

# adjacency rows of the lone inadmissible 4-vertex class: two digons
# joined by one arc in each direction between different endpoints
EXCEPTIONAL_FORM = (2, 5, 8, 5)


def _semidegree_positive(d: Digraph) -> bool:
    return all(d.out_degree(v) >= 1 and d.in_degree(v) >= 1 for v in range(d.n))


def _semicomplete(d: Digraph) -> bool:
    return all(
        d.has_arc(u, v) or d.has_arc(v, u)
        for u in range(d.n)
        for v in range(u + 1, d.n)
    )


def test_criterion_01_all_three_vertex_digraphs_with_four_arcs():
    t0 = time.perf_counter()
    eligible = found = 0
    for d in enumerate_small(3):
        if d.m < 4:
            continue
        eligible += 1
        res = find_good_pair_exact(d)
        assert res.status == "found", f"no good pair on rows {d.out_adj}"
        assert verify_good_pair(d, res.cert) is None
        found += 1
    elapsed = time.perf_counter() - t0
    assert eligible == 22 and found == eligible
    assert elapsed < 1.0
    print(f"[PASS] criterion 1: {found}/{eligible} three-vertex digraphs "
          f"with >= 4 arcs certified in {elapsed:.2f}s")


def test_criterion_02_four_vertex_exceptions_form_one_class():
    t0 = time.perf_counter()
    eligible = found = 0
    failures = []
    for d in enumerate_small(4, min_arcs=6):
        if not (_semidegree_positive(d) or _semicomplete(d)):
            continue
        eligible += 1
        res = find_good_pair_exact(d)
        assert res.status != "inconclusive"
        if res.status == "found":
            assert verify_good_pair(d, res.cert) is None
            found += 1
        else:
            failures.append(d)
    classes = {canonical_form(d) for d in failures}
    elapsed = time.perf_counter() - t0
    assert len(classes) == 1, f"expected one exceptional class, got {len(classes)}"
    assert classes == {EXCEPTIONAL_FORM}
    assert elapsed < 10.0
    print(f"[PASS] criterion 2: {found}/{eligible} eligible four-vertex "
          f"digraphs certified; {len(failures)} labeled failures in one "
          f"isomorphism class, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def sweep_stream():
    """The seeded stream of criterion 3, drawn once per n exactly as
    ``verify_theorem_sample(n, SWEEP_COUNT, SWEEP_SEED[n], kinds=SWEEP_KINDS)``
    draws it."""
    return {
        n: [
            random_2arc_strong(GenModel(
                SWEEP_KINDS[i % len(SWEEP_KINDS)], n, 0.3, derive_seed(SWEEP_SEED[n], i)
            ))
            for i in range(SWEEP_COUNT)
        ]
        for n in (7, 8, 9)
    }


def test_criterion_03_sampled_two_arc_strong_sweeps(sweep_stream):
    t0 = time.perf_counter()
    tallies = []
    statuses = {}
    for n, stream in sweep_stream.items():
        statuses[n] = [reduce_and_lift(d)[0].status for d in stream]
        failures = statuses[n].count("none")
        inconclusive = statuses[n].count("inconclusive")
        assert len(statuses[n]) == SWEEP_COUNT
        assert failures == 0, f"n={n}: {failures} digraphs without a good pair"
        assert inconclusive == 0, f"n={n}: {inconclusive} searches gave up"
        tallies.append(f"n={n}:{statuses[n].count('found')}")
    # the sweep API certifies the same stream
    rep = verify_theorem_sample(9, 500, SWEEP_SEED[9], kinds=SWEEP_KINDS)
    assert rep.found == statuses[9][:500].count("found")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"[PASS] criterion 3: {' '.join(tallies)} all certified "
          f"({elapsed:.1f}s)")


def test_criterion_04_flow_decision_matches_min_cut():
    """Asked whether the s-t flow reaches v + 1, where v is the enumerated
    minimum cut, the flow decision answers no with a cut of exactly v
    arcs that separates s from t; asked about v itself, it answers yes."""
    rng = random.Random(404)
    checked = reached = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
        s = rng.randrange(n)
        t = rng.randrange(n - 1)
        if t >= s:
            t += 1
        v = subset_min_cut(d, s, t)
        value, side = _cut_below(n, d.out_adj, s, t, v + 1)
        assert value == v
        assert side >> s & 1 and not side >> t & 1
        assert cut_degree(d, side, "out") == v
        if v >= 1:
            assert _cut_below(n, d.out_adj, s, t, v) == (v, 0)
            reached += 1
        checked += 1
    print(f"[PASS] criterion 4: {checked}/1000 flow decisions stop at the "
          f"enumerated minimum cut with a cut of that size, and {reached} "
          f"reach it")


def test_criterion_05_edmonds_characterization():
    rng = random.Random(505)
    possible = impossible = 0
    for _ in range(500):
        n = rng.randint(4, 8)
        d = rand_digraph(rng, n, rng.uniform(0.2, 0.8))
        z = rng.randrange(n)
        k = rng.randint(1, 3)
        got = edmonds_branchings(d, z, k)
        feasible = edmonds_feasible(d, z, k)
        if feasible:
            assert isinstance(got, list) and len(got) == k
            used = set()
            for b in got:
                assert b.kind == "out" and b.root == z
                assert verify_branching(d, b) is None
                arcs = set(b.arcs())
                assert not (arcs & used), "branchings share an arc"
                used |= arcs
            possible += 1
        else:
            assert isinstance(got, CutWitness)
            assert not got.x_set >> z & 1 and got.x_set
            assert got.direction == "in"
            assert in_cut(d, got.x_set) == got.value < k
            impossible += 1
    print(f"[PASS] criterion 5: {possible} packings and {impossible} "
          f"blocking cuts, all matching the subset oracle")


def test_criterion_06_arc_connectivity_oracle():
    rng = random.Random(606)
    for _ in range(1000):
        n = rng.randint(2, 10)
        d = rand_digraph(rng, n, rng.uniform(0.05, 0.95))
        lam, wit = arc_connectivity(d)
        assert lam == lambda_enum(d)
        assert cut_degree(d, wit.x_set, "out") == wit.value == lam
    print("[PASS] criterion 6: 1000/1000 flow-based connectivity values "
          "equal the subset enumeration, witnesses tight")


def _cor1_instance(rng: random.Random) -> tuple[Digraph, int, int, int]:
    """A digraph meeting the pairing hypotheses: a digon Q = {0, 1} whose
    in-neighbourhood X and out-neighbourhood Y are disjoint and cover the
    rest, with lambda >= 2; arcs from Q to X or from Y to Q never occur."""
    while True:
        n = rng.randint(6, 10)
        rest = list(range(2, n))
        rng.shuffle(rest)
        a = rng.randint(2, len(rest) - 2)
        xs, ys = set(rest[:a]), set(rest[a:])
        allowed = set()
        for u in range(n):
            for v in range(n):
                if u == v or (u < 2 and v < 2):
                    continue
                if (
                    (u in xs and v < 2)
                    or (u < 2 and v in ys)
                    or (u in xs and v in xs)
                    or (u in ys and v in ys)
                    or (u in ys and v in xs)
                    or (u in xs and v in ys)
                ):
                    allowed.add((u, v))
        rows = [0b10, 0b01] + [0] * (n - 2)
        for x in xs:
            rows[x] |= 1 << rng.randrange(2)
        for y in ys:
            rows[rng.randrange(2)] |= 1 << y
        for u, v in allowed:
            if rng.random() < 0.25:
                rows[u] |= 1 << v
        stalled = False
        while True:
            d = Digraph(n, tuple(rows))
            lam, wit = arc_connectivity(d)
            if lam >= 2:
                break
            patch = next(
                (
                    (u, v)
                    for u in bits(wit.x_set)
                    for v in bits(d.full_mask & ~wit.x_set)
                    if (u, v) in allowed and not rows[u] >> v & 1
                ),
                None,
            )
            if patch is None:
                stalled = True
                break
            rows[patch[0]] |= 1 << patch[1]
        if stalled:
            continue
        x_mask = sum(1 << x for x in xs)
        y_mask = sum(1 << y for y in ys)
        return d, 0b11, x_mask, y_mask


def test_criterion_07_pairing_succeeds_under_hypotheses():
    rng = random.Random(707)
    done = 0
    for _ in range(1000):
        d, q_set, x_mask, y_mask = _cor1_instance(rng)
        assert arc_connectivity(d)[0] >= 2
        in_adj = d.in_adj()
        q_in = q_out = 0
        for q in bits(q_set):
            q_in |= in_adj[q]
            q_out |= d.out_adj[q]
        assert (q_in & ~q_set, q_out & ~q_set) == (x_mask, y_mask)
        h, _ = induced_subdigraph(d, q_set)
        cert_q = find_good_pair_exact(h).cert
        got = component_pairing(d, q_set, cert_q)
        assert isinstance(got, GoodPairCert), (
            f"pairing declined on rows {d.out_adj}: "
            f"{got.reason if isinstance(got, ConditionNotMet) else got}"
        )
        assert verify_good_pair(d, got) is None
        done += 1
    print(f"[PASS] criterion 7: component pairing certified "
          f"{done}/1000 hypothesis-satisfying instances")


def test_criterion_09_oriented_instances_have_long_dipaths():
    shortest = None
    for n in (7, 8, 9):
        for i in range(1000):
            d = random_2arc_strong(
                GenModel("oriented-gnp-repair", n, 0.3, derive_seed(1100 + n, i))
            )
            in_rows = _in_rows(d.n, d.out_adj)
            assert all(d.out_adj[v] & in_rows[v] == 0 for v in range(d.n))
            p = longest_dipath(d)
            assert verify_dipath(d, p) is None
            assert len(p) >= 7, f"n={n} seed index {i}: dipath of {len(p)}"
            shortest = len(p) if shortest is None else min(shortest, len(p))
    print(f"[PASS] criterion 9: 3000/3000 oriented instances carry a "
          f"dipath on >= 7 vertices (shortest seen: {shortest})")


def test_criterion_10_solver_agrees_with_branching_oracle():
    t0 = time.perf_counter()
    have = lack = 0
    for d in enumerate_small(4):
        res = find_good_pair_exact(d)
        assert res.status != "inconclusive"
        expected = good_pair_exists_bruteforce(d)
        assert (res.status == "found") == expected, f"rows {d.out_adj}"
        if expected:
            assert verify_good_pair(d, res.cert) is None
            have += 1
        else:
            lack += 1
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 10: solver matches the cross-product oracle "
          f"on all 4096 four-vertex digraphs ({have} with, {lack} "
          f"without, {elapsed:.1f}s)")


def test_criterion_11_reversal_duality():
    rng = random.Random(1111)
    agreed = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        d = rand_digraph(rng, n, rng.uniform(0.1, 0.9))
        rd = reverse(d)
        assert reverse(rd) == d
        res = find_good_pair_exact(d)
        rres = find_good_pair_exact(rd)
        assert res.status != "inconclusive" and rres.status != "inconclusive"
        assert res.status == rres.status
        if res.status == "found":
            flipped = reverse_cert(res.cert)
            assert verify_good_pair(rd, flipped) is None
        agreed += 1
    print(f"[PASS] criterion 11: {agreed}/500 digraphs answer identically "
          f"under reversal with certificates carried across")


def test_criterion_12_text_format_round_trips():
    rng = random.Random(1212)
    per_format = {"edge-list": 0, "digraph6": 0}
    for _ in range(10_000):
        n = rng.randint(1, 20)
        d = rand_digraph(rng, n, rng.random())
        for fmt in per_format:
            text = serialize_digraph(d, fmt)
            assert parse_digraph(text, fmt) == d
            assert parse_digraph(text) == d  # sniffed
            per_format[fmt] += 1
    print(f"[PASS] criterion 12: {per_format['edge-list']} edge-list and "
          f"{per_format['digraph6']} digraph6 round-trips are identities")


def test_criterion_13_ten_vertex_digraph_without_good_pair():
    fixture = json.loads((Path(__file__).parent / "data" / "no_good_pair_n10.json").read_text())
    d = parse_digraph(fixture["digraph6"])
    assert d == Digraph(10, tuple(fixture["out_rows"]))
    assert arc_connectivity(d)[0] == lambda_enum(d) == fixture["arc_connectivity"]
    assert independent_set_size(d) == fixture["independence_number"]
    res = find_good_pair_exact(d)
    assert (res.status, res.nodes) == ("none", fixture["search_nodes"])
    res, trace = reduce_and_lift(d)
    assert (res.status, res.nodes) == ("none", fixture["pipeline_search_nodes"])
    assert trace.steps[-1].rule == "exact-fallback"
    rooted = 0
    for root_out in range(d.n):
        for root_in in range(d.n):
            res = find_good_pair_exact(d, root_out=root_out, root_in=root_in)
            assert res.status == "none", (root_out, root_in)
            rooted += res.nodes
    assert rooted == fixture["rooted_search_nodes"]
    assert good_pair_by_out_branchings(d) == (False, fixture["out_branchings"])
    print(f"[PASS] criterion 13: the n=10 digraph with lambda=2 and alpha=4 has "
          f"no good pair: solver, pipeline, all 100 root pairs ({rooted} nodes) and "
          f"{fixture['out_branchings']} enumerated out-branchings agree")
