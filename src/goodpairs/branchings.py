"""Branchings, good-pair certificates, verification, and the exact solver.

An out-branching rooted at r is a spanning tree in which every vertex other
than r has exactly one incoming arc (its parent arc); an in-branching is the
dual with one outgoing arc per non-root vertex.  A good pair is an
out-branching plus an in-branching of the same digraph whose arc sets are
disjoint; the roots may differ.

Certificates carry one parent arc per non-root vertex and are checked by
independent linear-time verifiers that never share code with the builders.

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
where the residual's in-rows are the host's minus the tree arcs.
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
    _in_rows,
    _reach,
    _reaches,
    _strong_decomposition,
    bits,
    strong_decomposition,
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


def _in_branching(res: list[int], res_in: list[int], t: int) -> dict[int, tuple[int, int]]:
    """Parent arcs of an in-branching of the residual rooted at t, a vertex
    that every vertex reaches; ``res_in`` are the residual's in-rows.

    The lowest unsettled vertex with an arc into the settled set joins next,
    by its arc to the lowest settled vertex; ``ready`` holds those vertices
    and grows by each joiner's in-row.  Every vertex reaches t, so every
    vertex joins.
    """
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
    return parent


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
                        Branching("in", t, _in_branching(res, res_in, t)),
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
