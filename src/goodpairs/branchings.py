"""Branchings, good-pair certificates, verification, and the exact solver.

An out-branching rooted at r is a spanning tree in which every vertex other
than r has exactly one incoming arc (its parent arc); an in-branching is the
dual with one outgoing arc per non-root vertex.  A good pair is an
out-branching plus an in-branching of the same digraph whose arc sets are
disjoint; the roots may differ.

Certificates carry one parent arc per non-root vertex.  The verifiers
share no code with the builders, ``digraph._reach`` included: one pass over
a parent map tests each arc and reaches from the root in map order, a
vertex whose parent is already reached being reached at once.  Only a
vertex read before its parent is filed in its parent's children mask, and
a closure from the reached set along those masks reaches the filed ones
afterwards.  Every builder lists parents first, so its certificates need
no closure.  Every message is the one the earlier walk-per-vertex verifier
gave.

A certificate of a sub-digraph D[Q] names vertices by their number in d.
The verifiers take Q as an optional vertex set, every vertex of d by
default, and test each arc's endpoints against Q's mask before reading
d's row, so a root, key or arc outside D[Q] fails as an out-of-range one
does on d, and n = |Q|.

The exact search (``find_good_pair_exact``) prunes a partial out-branching
with two tests: every unreached vertex stays reachable from the tree
through usable arcs, and the residual (host minus tree arcs) keeps one
terminal strong component, T.  It runs as one loop over an explicit stack
of frames, each holding a node's tree, its T, its mark in an undo log of
excluded arcs, and the arc it has included for its child, so the search
depth is not bounded by the interpreter's recursion limit.  A node reruns
only the test its last step could have failed.  After an arc u->v is
included, T survives iff u still reaches it when u lies outside T, and
becomes u's reach when u lies inside.  After an arc is excluded, only the
excluded arc's head is tested, by a walk backward over usable in-arcs that
stops at the tree.

The search reads the host's in-rows three times: for its strong
decomposition, as the usable in-rows of the exclude test, and at the leaf,
where the residual's in-rows are the host's minus the tree arcs.  The
leaf's in-branching comes from ``digraph._in_forest``, the package's one
forest builder, rooted at a vertex of T.
``find_good_pair_exact`` builds them; ``reduce_and_lift``, which holds
them already, passes its own to ``_find_good_pair_exact``.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .digraph import (
    Digraph,
    VertexSet,
    _in_forest,
    _in_rows,
    _reach,
    _reaches,
    _strong_decomposition,
    bits,
)

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


def verify_branching(d: Digraph, b: Branching, vertices: VertexSet | None = None) -> str | None:
    """None if b is a valid spanning branching of D[vertices], else the
    first violation.  ``vertices`` defaults to every vertex of d; a set
    naming a vertex outside d raises ValueError.

    Linear in n.  One pass over the parent map tests each arc by its own
    endpoints (direction, membership of the vertex set, one bit of d's
    rows) and reaches from the root in map order: a vertex whose parent is
    already reached is reached at once, and one read before its parent is
    filed in its parent's children mask.  With no failing arc the keys are
    distinct non-root vertices, so ``len(parent) == |vertices| - 1``
    replaces comparing key sets; otherwise key errors still come first,
    then the lowest vertex with a failing arc.  A closure from the reached
    set along the children masks, one layer at a time, reaches the filed
    vertices and names the lowest vertex it misses; a map that lists every
    parent before its children needs none.  On arcs that are pairs of ints,
    verdicts and messages are those of the walk-per-vertex verifier this
    replaced, and keys equal to a vertex but of another type (``True``,
    ``1.0``) pass.  A root that is not an int is out of range, and an arc
    with an endpoint that is not an int is not an arc of the digraph.
    """
    return _branching_violation(d, _vertex_set(d, vertices), b)


def _vertex_set(d: Digraph, vertices: VertexSet | None) -> VertexSet:
    """The vertex set, every vertex of d by default."""
    if vertices is None:
        return d.full_mask
    if vertices & ~d.full_mask:
        raise ValueError("vertex set mentions vertices >= n")
    return vertices


def _branching_violation(d: Digraph, q: VertexSet, b: Branching) -> str | None:
    """``verify_branching`` on the vertex set q of d."""
    kind, root, parent = b.kind, b.root, b.parent
    if kind not in ("out", "in"):
        return f"unknown kind {kind!r}"
    if not (isinstance(root, int) and 0 <= root < d.n and q >> root & 1):
        return f"root {root} out of range"
    if root in parent:
        return f"root {root} has a parent arc"
    rows = d.out_adj
    out = kind == "out"
    reached = 1 << root
    children = None  # children[p]: the vertices read before their parent p
    parents = 0  # the p with children[p] nonzero
    bad = False  # whether some parent arc fails
    try:
        for v, (a, h) in parent.items():
            if out:
                p, c = a, h
            else:
                p, c = h, a
            # a and h are tested before they shift: a negative count raises
            # ValueError, and a non-int one TypeError
            if c == v and a >= 0 and h >= 0 and q >> p & q >> c & 1 and rows[a] >> h & 1:
                if reached >> p & 1:
                    reached |= 1 << c
                else:
                    if children is None:
                        children = [0] * d.n
                    children[p] |= 1 << c
                    parents |= 1 << p
            else:
                bad = True
    except TypeError:  # an endpoint that is not an int, such as 0.0
        bad = True
    # with no bad arc the keys are distinct non-root members of q, so
    # |q| - 1 of them are all
    if bad or len(parent) != q.bit_count() - 1:
        expected = set(bits(q)) - {root}
        got = set(parent)
        if got != expected:
            missing = expected - got
            if missing:
                return f"vertex {min(missing)} has no parent arc"
            return f"unexpected vertex {min(got - expected)} in parent map"
        for v in sorted(expected):  # as ints, whatever the keys' types
            a, h = parent[v]
            ints = isinstance(a, int) and isinstance(h, int)
            if not (ints and a >= 0 and h >= 0 and q >> a & q >> h & 1 and rows[a] >> h & 1):
                return f"parent arc ({a}, {h}) of {v} is not an arc of the digraph"
            if (h if out else a) != v:
                return f"parent arc ({a}, {h}) of {v} must {'point at' if out else 'start at'} {v}"
    # reach the filed vertices from the reached set one layer at a time,
    # through the parents that have any; each was filed once, under a
    # parent not yet reached, so none enters two layers, and a vertex on a
    # cycle of parent pointers enters none
    layer = reached & parents
    while reached != q:
        below = 0
        while layer:
            low = layer & -layer
            below |= children[low.bit_length() - 1]
            layer ^= low
        if not below:
            missed = q & ~reached
            v = (missed & -missed).bit_length() - 1
            return f"parent pointers from {v} never reach the root"
        reached |= below
        layer = below & parents
    return None


def verify_good_pair(
    d: Digraph, cert: GoodPairCert, vertices: VertexSet | None = None
) -> str | None:
    """None for a valid certificate of D[vertices], else the first violated
    invariant.  ``vertices`` defaults to every vertex of d; the certificate
    names vertices by their number in d, and its n is the set's size.
    Each branching takes ``verify_branching``'s one pass, which reaches in
    map order; the shared arcs come from one set intersection."""
    q = _vertex_set(d, vertices)
    size = q.bit_count()
    if cert.n != size:
        return f"certificate is for n={cert.n}, digraph has n={size}"
    if cert.out.kind != "out":
        return "first branching must have kind 'out'"
    if cert.in_.kind != "in":
        return "second branching must have kind 'in'"
    bad = _branching_violation(d, q, cert.out)
    if bad:
        return f"out-branching: {bad}"
    bad = _branching_violation(d, q, cert.in_)
    if bad:
        return f"in-branching: {bad}"
    out_arcs = set(cert.out.parent.values())
    in_arcs = cert.in_.parent.values()
    if not out_arcs.isdisjoint(in_arcs):
        return f"arc {min(out_arcs.intersection(in_arcs))} used by both branchings"
    return None


def reverse_cert(cert: GoodPairCert) -> GoodPairCert:
    """The certificate of the reversed digraph: kinds swap, arcs flip."""
    def flip(b: Branching, kind: str) -> Branching:
        return Branching(kind, b.root, {v: (h, a) for v, (a, h) in b.parent.items()})

    return GoodPairCert(cert.n, flip(cert.in_, "out"), flip(cert.out, "in"))


# ---------------------------------------------------------------------------
# JSON certificate interchange


def cert_to_json(cert: GoodPairCert) -> str:
    """The certificate as JSON that ``cert_from_json`` reads back.  The
    first of n, the roots, parent keys and arc endpoints that is not an
    int (a bool or ``1.0``, which the verifier accepts as a vertex, say)
    raises ValueError: JSON would write it as a value no reader takes."""
    def branching_obj(kind: str, b: Branching) -> dict:
        root = _json_int(b.root, f"{kind} root")
        parent = {}
        for v, arc in b.parent.items():
            what = f"{kind} parent arc endpoint of {v}"
            parent[_json_int(v, f"{kind} parent key")] = [_json_int(x, what) for x in arc]
        return {"root": root, "parent": {str(v): parent[v] for v in sorted(parent)}}

    n = _json_int(cert.n, "n")
    out, in_ = branching_obj("out", cert.out), branching_obj("in", cert.in_)
    return json.dumps({"n": n, "out": out, "in": in_})


# a parent key as str() writes an int: no plus sign, spaces, underscores or
# leading zeros, so two keys name the same vertex only when they are equal
# strings, which _unique_keys rejects
_VERTEX_KEY = re.compile(r"0|-?[1-9][0-9]*")


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError
    instead of the later value silently replacing the earlier one."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated key {key!r}")
        obj[key] = value
    return obj


def _json_int(value, what: str) -> int:
    if type(value) is not int:  # json gives bool for true/false, a subclass of int
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def _branching_from_obj(kind: str, obj) -> Branching:
    parent_obj = obj["parent"]
    if not isinstance(parent_obj, dict):
        raise ValueError(f"{kind} parent must be an object, got {parent_obj!r}")
    parent = {}
    for key, arc in parent_obj.items():
        if not _VERTEX_KEY.fullmatch(key):
            raise ValueError(f"{kind} parent key {key!r} is not a decimal integer")
        if not isinstance(arc, list) or len(arc) != 2:
            raise ValueError(f"{kind} parent arc of {key} must be a pair, got {arc!r}")
        what = f"{kind} parent arc endpoint of {key}"
        parent[int(key)] = (_json_int(arc[0], what), _json_int(arc[1], what))
    return Branching(kind, _json_int(obj["root"], f"{kind} root"), parent)


def cert_from_json(text: str) -> GoodPairCert:
    """The certificate that ``cert_to_json`` wrote, read strictly.

    n, both roots and every arc endpoint must be JSON integers (not
    booleans, floats or strings), parent keys decimal integers and every
    arc a list of two endpoints; nothing is coerced, and no object may
    name a key twice.  Anything else raises
    ``ValueError("malformed certificate object: ...")``.  Whether the
    certificate fits a digraph is ``verify_good_pair``'s question.
    """
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"certificate is not valid JSON: {exc}") from None
    except ValueError as exc:  # from _unique_keys
        raise ValueError(f"malformed certificate object: {exc}") from None
    try:
        n = _json_int(obj["n"], "n")
        out = _branching_from_obj("out", obj["out"])
        in_ = _branching_from_obj("in", obj["in"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed certificate object: {exc}") from None
    return GoodPairCert(n, out, in_)


# ---------------------------------------------------------------------------
# exact search


def _cut_terminal(res: list[int], u: int, term: VertexSet) -> VertexSet:
    """The unique terminal strong component of ``res`` just after an arc out
    of u was cleared from it, given ``term``, the unique one before; 0 when
    there are now two or more.

    No arc leaves ``term``.  If u lies outside it, ``term`` is still
    strongly connected and terminal, and it stays the only one iff every
    vertex still reaches it, which holds iff u does: a path to ``term``
    that used the arc passes through u, and its part before u does not use
    the arc.  Otherwise u's reach holds a second terminal component.  If u
    lies inside, every vertex still reaches u, since a shortest path to u
    takes no arc out of u.  The terminal component in u's reach is then
    reached by every vertex, so it is the only one, and it contains u: it
    is u's reach.  Only this case runs a full reach.
    """
    ubit = 1 << u
    if term & ubit:
        return _reach(res, ubit, term)
    return term if _reaches(res, ubit, term) else 0


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
    as soon as some unreached vertex is no longer reachable from the tree
    through usable arcs (neither tree arcs nor excluded ones), or the
    residual digraph (host minus tree arcs) stops having an in-branching,
    that is, stops having exactly one terminal strong component.

    The search is one loop over an explicit stack.  A frame holds a node's
    tree, its terminal component T (the residual's unique one), the length
    of the undo log of excluded arcs when the node was entered, and the arc
    the node has included for the child being searched.  The node being
    worked on keeps the same in local variables, plus its probe start: the
    lowest tree vertex that may still have a candidate arc.  When a node
    fails, its excluded arcs are restored from the log, and its parent
    pops, restores the arc in the residual and excludes it.

    Each step reruns only the test that it could have made fail:

    - At a root r both hold: r reaches every vertex, and roots are tried
      only when the host has one terminal component, which is T.
    - After including u->v, the reach test still holds: a usable path
      through u->v can start at v, now in the tree.  Only the terminal
      test can fail, and ``_cut_terminal`` gives the child's T.  When u
      lies outside T, T survives iff u still reaches it, which a reach
      that stops at T's first vertex decides; when it does not, u's reach
      holds a second terminal component and the node is pruned with no
      further work.  When u lies inside T the test cannot fail, and one
      full reach gives the new T.
    - After excluding u->v, the residual is the node's own again, so its T
      holds, and only v can have become unreachable.  A walk backward from
      v over usable in-arcs that stops when it meets the tree decides
      that.  It is the forward reach from the tree turned round: no tree
      arc ends outside the tree, so the in-arcs of unreached vertices that
      are not excluded are exactly their usable ones.

    The probe is sound to start late: along a search path the tree only
    grows and the usable arcs only shrink, so a tree vertex with no
    candidate arc keeps none in every descendant and in every later
    sibling.  A child's probe starts at min(u, v), and after an exclude
    the node's probe restarts at u.  The search tree, node count and
    certificate are those of rerunning every test at every node.  At a
    leaf, the in-branching is rooted at ``root_in``, which must lie in T,
    or else at T's lowest vertex; every vertex reaches it.  Budget
    exhaustion yields "inconclusive", which is distinct from the
    definitive "none" produced by exhausting the whole search space.
    """
    n = d.n
    if root_out is not None and not 0 <= root_out < n:
        raise ValueError(f"root_out {root_out} out of range")
    if root_in is not None and not 0 <= root_in < n:
        raise ValueError(f"root_in {root_in} out of range")
    if node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    return _find_good_pair_exact(d, _in_rows(n, d.out_adj), root_out, root_in, node_budget)


def _find_good_pair_exact(
    d: Digraph,
    in_rows: list[int],
    root_out: int | None = None,
    root_in: int | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> SearchResult:
    """``find_good_pair_exact`` on checked arguments, given d's in-rows,
    which it does not modify.

    The roots and the host's terminal component come from a strong
    decomposition over the carried rows, and the leaf's residual in-rows
    are ``in_rows`` minus the tree arcs, so no in-rows are rebuilt.
    """
    n = d.n
    full = d.full_mask
    adj = list(d.out_adj)
    dec = _strong_decomposition(n, adj, in_rows)
    starts, ends = dec.initial_components(), dec.terminal_components()
    roots = starts[0] if len(starts) == 1 else 0
    if root_out is not None:
        roots &= 1 << root_out
    host_term = ends[0] if len(ends) == 1 else 0
    if not host_term or root_in is not None and not host_term >> root_in & 1:
        roots = 0
    nodes = 0

    res = list(adj)           # host arcs minus the tree's
    avail = list(adj)         # res minus the excluded arcs
    usable_in = list(in_rows)  # in-rows of the host minus the excluded arcs
    log: list[tuple[int, int]] = []  # excluded arcs, restored when their node fails
    stack: list[tuple[int, int, int, int, int]] = []  # (tree, T, log mark, u, v)
    for r in bits(roots):
        tree, term, mark, start = 1 << r, host_term, 0, r
        while True:
            cand = 0
            if tree == full:
                if root_in is None or term >> root_in & 1:
                    t = (term & -term).bit_length() - 1 if root_in is None else root_in
                    res_in = list(in_rows)
                    for _, _, _, u, v in stack:
                        res_in[v] ^= 1 << u
                    cert = GoodPairCert(
                        n,
                        Branching("out", r, {v: (u, v) for _, _, _, u, v in stack}),
                        Branching("in", t, _in_forest(res, res_in, full, 1 << t)),
                    )
                    bad = verify_good_pair(d, cert)
                    if bad:  # pragma: no cover - guards the builder
                        raise AssertionError(f"solver emitted invalid certificate: {bad}")
                    return SearchResult("found", cert, nodes)
            else:
                probe = tree >> start << start
                while probe:
                    ubit = probe & -probe
                    u = ubit.bit_length() - 1
                    cand = avail[u] & ~tree
                    if cand:
                        break
                    probe ^= ubit
            if cand:
                nodes += 1
                if nodes > node_budget:
                    return SearchResult("inconclusive", None, nodes)
                vbit = cand & -cand
                v = vbit.bit_length() - 1
                res[u] ^= vbit
                avail[u] ^= vbit
                child = _cut_terminal(res, u, term)
                if child:
                    stack.append((tree, term, mark, u, v))
                    tree |= vbit
                    term = child
                    mark = len(log)
                    start = u if u < v else v
                    continue
                res[u] |= vbit
            else:
                # the node fails: restore its exclusions, resume its parent
                while len(log) > mark:
                    eu, ev = log.pop()
                    avail[eu] |= 1 << ev
                    usable_in[ev] |= 1 << eu
                if not stack:
                    break
                tree, term, mark, u, v = stack.pop()
                ubit, vbit = 1 << u, 1 << v
                res[u] |= vbit
            # exclude u->v from every tree below this node; a start past
            # every vertex fails the node when v is no longer reachable
            usable_in[v] ^= ubit
            log.append((u, v))
            start = u if _reaches(usable_in, vbit, tree) else n
    return SearchResult("none", None, nodes)
