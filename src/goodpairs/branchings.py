"""Branchings, good-pair certificates, verification, and the exact solver.

An out-branching rooted at r is a spanning tree in which every vertex other
than r has exactly one incoming arc (its parent arc); an in-branching is the
dual with one outgoing arc per non-root vertex.  A good pair is an
out-branching plus an in-branching of the same digraph whose arc sets are
disjoint; the roots may differ.

Certificates carry one parent arc per non-root vertex and are checked by
independent linear-time verifiers that never share code with the builders.

The exact search (``find_good_pair_exact``) prunes a partial out-branching
with three tests: every unreached vertex keeps a usable in-arc, every
vertex stays reachable from the tree through usable arcs, and the residual
(host minus tree arcs) keeps one terminal strong component.  A node reruns
only the test its last step could have failed.  A root needs none: it
reaches every vertex, and roots are tried only when the host has one
terminal component.  After an arc is included, the first two carry over
and only the terminal test runs, reduced to whether the arc's tail still
reaches a carried vertex that every vertex reached before.  After an arc
is excluded, the residual is one the node already passed, and only the
excluded arc's head is tested for a usable in-arc and for reach.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator

from .digraph import Digraph, VertexSet, _in_rows, _reach, _reaches, bits, strong_decomposition

DEFAULT_NODE_BUDGET = 250_000


@dataclass(frozen=True, eq=True)
class Branching:
    """kind is "out" or "in"; parent maps each non-root vertex to its arc."""

    kind: str
    root: int
    parent: dict[int, tuple[int, int]]

    def arcs(self) -> set[tuple[int, int]]:
        return set(self.parent.values())

    def __hash__(self):  # the dict field is unhashable; hash what __eq__ compares
        return hash((self.kind, self.root, frozenset(self.parent.items())))


@dataclass(frozen=True)
class GoodPairCert:
    n: int
    out: Branching
    in_: Branching


@dataclass(frozen=True)
class SearchResult:
    """status is "found", "none" (definitive), or "inconclusive" (budget)."""

    status: str
    cert: GoodPairCert | None
    nodes: int


def branching_roots(d: Digraph, kind: str) -> VertexSet:
    """Vertices that can root a spanning branching of the given kind.

    Nonempty exactly when the strong decomposition has a single initial
    (kind "out") or terminal (kind "in") component, in which case the root
    set is that whole component.
    """
    if kind not in ("out", "in"):
        raise ValueError(f"kind must be 'out' or 'in', got {kind!r}")
    dec = strong_decomposition(d)
    comps = dec.initial_components() if kind == "out" else dec.terminal_components()
    return comps[0] if len(comps) == 1 else 0


def verify_branching(d: Digraph, b: Branching) -> str | None:
    """None if b is a valid spanning branching of d, else the first violation.

    Linear in n: each parent arc is one row-bit test, and the walks along
    parent pointers stop at a vertex already shown to reach the root, so
    every vertex is walked through once.
    """
    n = d.n
    if b.kind not in ("out", "in"):
        return f"unknown kind {b.kind!r}"
    if not 0 <= b.root < n:
        return f"root {b.root} out of range"
    if b.root in b.parent:
        return f"root {b.root} has a parent arc"
    expected = set(range(n)) - {b.root}
    got = set(b.parent)
    if got != expected:
        missing = expected - got
        if missing:
            return f"vertex {min(missing)} has no parent arc"
        return f"unexpected vertex {min(got - expected)} in parent map"
    rows = d.out_adj
    out = b.kind == "out"
    nxt = [b.root] * n  # the next vertex on the way to the root
    for v in range(n):
        if v == b.root:
            continue
        a, h = b.parent[v]
        if not (0 <= a < n and 0 <= h < n) or not rows[a] >> h & 1:
            return f"parent arc ({a}, {h}) of {v} is not an arc of the digraph"
        if out and h != v:
            return f"parent arc ({a}, {h}) of {v} must point at {v}"
        if not out and a != v:
            return f"parent arc ({a}, {h}) of {v} must start at {v}"
        nxt[v] = a if out else h
    # every vertex must reach the root along parent pointers without repeats
    settled = 1 << b.root
    for v in range(n):
        walk = 0
        cur = v
        while not settled >> cur & 1:
            if walk >> cur & 1:
                return f"parent pointers from {v} never reach the root"
            walk |= 1 << cur
            cur = nxt[cur]
        settled |= walk
    return None


def verify_good_pair(d: Digraph, cert: GoodPairCert) -> str | None:
    """None for a valid certificate, else the first violated invariant."""
    if cert.n != d.n:
        return f"certificate is for n={cert.n}, digraph has n={d.n}"
    if cert.out.kind != "out":
        return "first branching must have kind 'out'"
    if cert.in_.kind != "in":
        return "second branching must have kind 'in'"
    bad = verify_branching(d, cert.out)
    if bad:
        return f"out-branching: {bad}"
    bad = verify_branching(d, cert.in_)
    if bad:
        return f"in-branching: {bad}"
    shared = cert.out.arcs() & cert.in_.arcs()
    if shared:
        return f"arc {min(shared)} used by both branchings"
    return None


def reverse_cert(cert: GoodPairCert) -> GoodPairCert:
    """The certificate of the reversed digraph: kinds swap, arcs flip."""
    def flip(b: Branching, kind: str) -> Branching:
        return Branching(kind, b.root, {v: (h, a) for v, (a, h) in b.parent.items()})

    return GoodPairCert(cert.n, flip(cert.in_, "out"), flip(cert.out, "in"))


# ---------------------------------------------------------------------------
# JSON certificate interchange


def cert_to_json(cert: GoodPairCert) -> str:
    def branching_obj(b: Branching) -> dict:
        return {
            "root": b.root,
            "parent": {str(v): list(b.parent[v]) for v in sorted(b.parent)},
        }

    return json.dumps(
        {"n": cert.n, "out": branching_obj(cert.out), "in": branching_obj(cert.in_)}
    )


def cert_from_json(text: str) -> GoodPairCert:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from None
    try:
        n = int(obj["n"])
        out_obj, in_obj = obj["out"], obj["in"]
        out = Branching(
            "out",
            int(out_obj["root"]),
            {int(v): (int(a[0]), int(a[1])) for v, a in out_obj["parent"].items()},
        )
        in_ = Branching(
            "in",
            int(in_obj["root"]),
            {int(v): (int(a[0]), int(a[1])) for v, a in in_obj["parent"].items()},
        )
    except (AttributeError, KeyError, TypeError, IndexError, ValueError) as exc:
        raise ValueError(f"malformed certificate object: {exc}") from None
    return GoodPairCert(n, out, in_)


# ---------------------------------------------------------------------------
# exact search


class _BudgetExceeded(Exception):
    pass


def _single_terminal(
    rows: list[int], in_rows: list[int], full: VertexSet, t: int
) -> tuple[bool, int]:
    """Whether ``rows`` has exactly one terminal strong component.

    Also returns a vertex of a terminal component, found by descending from
    the hint ``t``: while some vertex reachable from t does not reach t, t
    moves to the lowest such vertex.  The forward reach of t shrinks
    strictly at each move, so the descent ends within n moves at a vertex
    whose forward reach is its own (terminal) component.  There is exactly
    one terminal component iff every vertex reaches that vertex.
    """
    while True:
        back = _reach(in_rows, 1 << t, full)
        if back == full:
            return True, t
        ahead = _reach(rows, 1 << t, full) & ~back
        if not ahead:
            return False, t
        t = (ahead & -ahead).bit_length() - 1


def _in_branching_completion(
    res: list[int], res_in: list[int], full: int, root_in: int | None, hint: int
) -> tuple[int, dict[int, tuple[int, int]]] | None:
    """In-branching of the residual digraph, or None if none exists.

    The residual has one exactly when its strong decomposition has a single
    terminal component; the root must lie inside it, that is, every vertex
    must reach the root.  Without a prescribed root, the root is the lowest
    vertex of that component.  The lowest unsettled vertex with an arc into
    the settled set joins next, by its arc to the lowest settled vertex;
    ``ready`` holds those vertices and grows by each joiner's in-row.
    """
    if root_in is not None:
        if _reach(res_in, 1 << root_in, full) != full:
            return None
        t = root_in
    else:
        single, t = _single_terminal(res, res_in, full, hint)
        if not single:
            return None
        term = _reach(res, 1 << t, full)
        t = (term & -term).bit_length() - 1
    parent: dict[int, tuple[int, int]] = {}
    settled = 1 << t
    ready = res_in[t] & ~settled
    while ready:
        vbit = ready & -ready
        v = vbit.bit_length() - 1
        hit = res[v] & settled
        parent[v] = (v, (hit & -hit).bit_length() - 1)
        settled |= vbit
        ready = (ready | res_in[v]) & ~settled
    if settled != full:
        return None  # unreachable when the terminal component is unique
    return t, parent


def find_good_pair_exact(
    d: Digraph,
    *,
    root_out: int | None = None,
    root_in: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """Exhaustive search for a good pair, with optional root constraints.

    Out-branchings are grown depth-first one frontier arc at a time; the
    lowest candidate arc (at the lowest tree vertex that has one) is either
    included in the tree or excluded from every tree of that subtree of the
    search, so no branching is visited twice.  A partial tree is abandoned
    as soon as some unreached vertex loses its last usable in-arc, some
    unreached vertex is no longer reachable through usable arcs, or the
    residual digraph (host minus tree arcs) stops having an in-branching,
    that is, stops having exactly one terminal strong component.

    Each step reruns only the test that it could have made fail; the
    others carry over from the state in which they last held:

    - At a root r all three hold: r reaches every vertex, and roots are
      tried only when the host has one terminal component.  Its lowest
      vertex becomes the carried vertex t, which every vertex reaches.
    - After including u->v, the first two follow: no usable in-arc was
      lost, and a usable path through u->v can start at v, now in the
      tree.  The residual lost u->v only.  Every vertex reached t before,
      so every vertex still does iff u does; when u no longer reaches t,
      ``_single_terminal`` descends from t.
    - After excluding u->v, the residual is back where the node's terminal
      test held, so that test follows.  Only v lost a usable in-arc: the
      in-arc test looks at v alone, and the reach test holds iff v keeps
      a usable in-arc from the tree or, failing that, is still reachable
      through usable arcs.

    t is replaced only by a test that passes, in a residual that the
    residuals of the node's ancestors contain; so whenever a node resumes,
    every vertex still reaches t in its residual, as the test after its
    next include assumes.  The search tree, node count and certificate are
    those of rerunning every test at every node.  Budget exhaustion yields
    "inconclusive", which is distinct from the definitive "none" produced
    by exhausting the whole search space.
    """
    n = d.n
    full = d.full_mask
    if root_out is not None and not 0 <= root_out < n:
        raise ValueError(f"root_out {root_out} out of range")
    if root_in is not None and not 0 <= root_in < n:
        raise ValueError(f"root_in {root_in} out of range")
    if node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    adj = list(d.out_adj)
    in_all = _in_rows(n, adj)
    roots = branching_roots(d, "out")
    if root_out is not None:
        roots &= 1 << root_out
    sinks = branching_roots(d, "in")
    if root_in is not None:
        sinks &= 1 << root_in
    if not sinks:
        roots = 0
    nodes = 0
    found: list[GoodPairCert] = []

    res = list(adj)          # host arcs minus current tree arcs
    res_in = list(in_all)    # in-rows of res
    hint = (sinks & -sinks).bit_length() - 1  # a vertex every vertex reaches in res
    avail = list(adj)        # res minus arcs excluded from the future tree
    forb_in = [0] * n        # per head: tails whose arc was excluded
    out_parent: dict[int, tuple[int, int]] = {}

    def extend(tree: int) -> bool:
        nonlocal nodes, hint
        if tree == full:
            done = _in_branching_completion(res, res_in, full, root_in, hint)
            if done is None:
                return False
            t, in_parent = done
            root = next(iter(set(range(n)) - set(out_parent))) if n > 1 else 0
            found.append(
                GoodPairCert(
                    n,
                    Branching("out", root, dict(out_parent)),
                    Branching("in", t, in_parent),
                )
            )
            return True
        excluded: list[tuple[int, int]] = []
        try:
            while True:
                probe = tree
                while probe:
                    ubit = probe & -probe
                    cand = avail[ubit.bit_length() - 1] & ~tree
                    if cand:
                        break
                    probe ^= ubit
                else:
                    return False
                nodes += 1
                if nodes > node_budget:
                    raise _BudgetExceeded
                u = ubit.bit_length() - 1
                vbit = cand & -cand
                v = vbit.bit_length() - 1
                res[u] &= ~vbit
                res_in[v] &= ~ubit
                avail[u] &= ~vbit
                out_parent[v] = (u, v)
                # include: only the terminal test can fail, and every vertex
                # still reaches hint iff u does
                ok = _reaches(res, ubit, 1 << hint)
                if not ok:
                    ok, t = _single_terminal(res, res_in, full, hint)
                    if ok:
                        hint = t
                ok = ok and extend(tree | vbit)
                res[u] |= vbit
                res_in[v] |= ubit
                if ok:
                    return True
                del out_parent[v]
                # exclude the arc from every remaining tree at this node;
                # only v can fail the in-arc and reach tests
                forb_in[v] |= ubit
                excluded.append((u, v))
                usable = in_all[v] & ~forb_in[v]
                if not usable:
                    return False
                if not usable & tree and not _reaches(avail, tree, vbit):
                    return False
        finally:
            for eu, ev in excluded:
                avail[eu] |= 1 << ev
                forb_in[ev] &= ~(1 << eu)

    try:
        for r in bits(roots):
            out_parent.clear()
            if extend(1 << r):
                cert = found[-1]
                bad = verify_good_pair(d, cert)
                if bad:  # pragma: no cover - guards the builder
                    raise AssertionError(f"solver emitted invalid certificate: {bad}")
                return SearchResult("found", cert, nodes)
    except _BudgetExceeded:
        return SearchResult("inconclusive", None, nodes)
    finally:
        # extend calls itself through its own closure cell; emptying the
        # cell lets reference counting free the closure and its state
        del extend
    return SearchResult("none", None, nodes)


# ---------------------------------------------------------------------------
# brute-force enumeration (small n oracle)


def enumerate_branchings(
    d: Digraph, kind: str, root: int, limit: int | None = None
) -> Iterator[Branching]:
    """Every spanning branching of the given kind and root, no duplicates.

    Brute force over parent choices in ascending vertex order with an
    incremental cycle check; intended as a ground-truth oracle, so n is
    capped at 8.
    """
    if d.n > 8:
        raise ValueError("enumerate_branchings supports n <= 8")
    if kind not in ("out", "in"):
        raise ValueError(f"kind must be 'out' or 'in', got {kind!r}")
    if not 0 <= root < d.n:
        raise ValueError(f"root {root} out of range")
    n = d.n
    cand_rows = _in_rows(n, d.out_adj) if kind == "out" else list(d.out_adj)
    order = [v for v in range(n) if v != root]
    chosen: dict[int, int] = {}  # vertex -> parent vertex
    emitted = 0

    def creates_cycle(v: int, p: int) -> bool:
        cur = p
        while cur != root and cur in chosen:
            if cur == v:
                return True
            cur = chosen[cur]
        return cur == v

    def rec(i: int) -> Iterator[Branching]:
        nonlocal emitted
        if limit is not None and emitted >= limit:
            return
        if i == len(order):
            if kind == "out":
                parent = {v: (p, v) for v, p in chosen.items()}
            else:
                parent = {v: (v, p) for v, p in chosen.items()}
            emitted += 1
            yield Branching(kind, root, parent)
            return
        v = order[i]
        for p in bits(cand_rows[v]):
            if p == v or creates_cycle(v, p):
                continue
            chosen[v] = p
            yield from rec(i + 1)
            del chosen[v]
            if limit is not None and emitted >= limit:
                return

    return rec(0)
