"""Arc connectivity via unit-capacity max-flow, plus branching packings.

Flows are computed by repeated augmentation on bitmask residual rows:
``fwd[u]`` holds heads of unused arcs out of u, ``bwd[u]`` holds the
reversals of used arcs.  Each augmenting path comes from a layered BFS
that expands a whole frontier at once (``step |= fwd[u] | bwd[u]``),
stops as soon as the sink is reached, and is read back through the
stored layers by taking the lowest vertex with a residual arc into the
next one.  Every loop scans vertices in ascending order, so all results
are deterministic.

Values and cut witnesses do not depend on which augmenting paths are
chosen.  A maximum flow has one value, and every maximum flow leaves the
same residual reach from the source (the minimum cut closest to the
source) and the same residual co-reach to the sink (the one closest to
the sink).  Only the particular paths of ``max_arc_disjoint_paths``
depend on the search order.

Every connectivity question is one flow decision: does the s-t flow
reach k, and if not, what is its value and which cut stops it?
``_short_paths`` answers yes when it sees k arc-disjoint s-t paths of
length at most 3: the arc s->t, the 2-paths s->w->t through distinct w,
and for k = 2 also 3-paths s->w->x->t whose middle vertices avoid those
of the other path.  Such paths share no arc: an arc out of s is fixed by
its head, an arc into t by its tail, and a middle arc w->x by both.  The
test is sufficient only.  Otherwise ``_cut_below`` pushes k - 1 units
(at k = 2 along the one short path the test saw, if any) and takes one
residual reach of s.  If that reach holds t, the flow reaches k; if
not, the units pushed are a maximum flow, and the reach is the minimum
cut closest to s, the one every maximum flow leaves.  So arc
connectivity at any cap, the generator's repair and its arc stripping
return what they would with every flow run to the end.
``edmonds_branchings`` asks the same question from one root by capped
flows, whose residual also gives a blocked sink's co-reach.
``_two_arc_strong`` decides lambda >= 2 without a flow, by one BFS tree
out of vertex 0 and one into it (only their arcs can be strong bridges).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .branchings import Branching
from .digraph import Digraph, Dipath, VertexSet, _in_rows, _reach, _reaches, bits


@dataclass(frozen=True)
class CutWitness:
    """Vertex set whose out- or in-degree equals value (a certified cut)."""

    x_set: VertexSet
    direction: str  # "out" | "in"
    value: int


@dataclass(frozen=True)
class PathPacking:
    s: int
    t: int
    value: int
    paths: tuple[Dipath, ...]


def cut_degree(d: Digraph, x: VertexSet, direction: str) -> int:
    """Number of arcs leaving ("out") or entering ("in") the set x."""
    if x == 0 or x == d.full_mask:
        raise ValueError("cut is defined only for nonempty proper vertex sets")
    if x & ~d.full_mask:
        raise ValueError("vertex set mentions vertices >= n")
    if direction == "out":
        return sum(d.out_adj[u].bit_count() - (d.out_adj[u] & x).bit_count() for u in bits(x))
    if direction == "in":
        return sum((d.out_adj[u] & x).bit_count() for u in bits(d.full_mask & ~x))
    raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")


def _augment(fwd: list[int], bwd: list[int], s: int, t: int) -> bool:
    """Push one unit along a shortest residual s-t path; False if none is left.

    The BFS expands whole frontiers as bitmasks, in ascending vertex order,
    and stops as soon as t is reached; the path is then read back through
    the stored layers, taking at each one the lowest vertex with a residual
    arc into the next.
    """
    tbit = 1 << t
    seen = frontier = 1 << s
    layers = []
    while True:
        layers.append(frontier)
        step = 0
        while frontier:
            low = frontier & -frontier
            u = low.bit_length() - 1
            step |= fwd[u] | bwd[u]
            if step & tbit:
                break
            frontier ^= low
        if step & tbit:
            break
        frontier = step & ~seen
        if not frontier:
            return False
        seen |= frontier
    v = t
    for layer in reversed(layers):
        vbit = 1 << v
        while True:
            low = layer & -layer
            p = low.bit_length() - 1
            if (fwd[p] | bwd[p]) & vbit:
                break
            layer ^= low
        if fwd[p] & vbit:
            fwd[p] ^= vbit
            bwd[v] |= low
        else:
            bwd[p] ^= vbit
            fwd[v] |= low
        v = p
    return True


def _max_flow(
    n: int, adj: list[int] | tuple[int, ...], s: int, t: int, cap: int | None = None
) -> tuple[int, list[int], list[int]]:
    fwd = list(adj)
    bwd = [0] * n
    value = 0
    while cap is None or value < cap:
        if not _augment(fwd, bwd, s, t):
            break
        value += 1
    return value, fwd, bwd


def _short_paths(
    rows: Sequence[int], in_rows: Sequence[int], s: int, t: int, k: int
) -> tuple[int, ...] | None:
    """None when k arc-disjoint s-t paths of length at most 3 are in
    sight, proving the s-t flow reaches k; else the one such path it saw
    at k = 2, as a vertex tuple, and () when it saw none or k != 2.

    The arc s->t and the 2-paths s->w->t, one per w in N+(s) & N-(t), are
    pairwise arc-disjoint; their count settles any k.  At k = 2, one of
    those plus a 3-path s->w->x->t with w, x outside it, or two 3-paths
    with distinct w and distinct x, also suffice: with no arc s->t and no
    common neighbour the w's and x's are disjoint, and two such paths
    exist iff the arcs from the w's to the x's are not all at one vertex
    (Koenig).  The path seen is the arc, the 2-path or the 3-path through
    the lowest w with an arc into the x's, and the lowest such x.
    """
    out = rows[s]
    into = in_rows[t]
    mid = out & into
    if k != 2:
        return None if (out >> t & 1) + mid.bit_count() >= k else ()
    # at k = 2 these branches settle the pair without a count, which the
    # generator's hot loop would pay for on every pair, and keep the path seen
    if out >> t & 1:
        if mid:
            return None
        seen: tuple[int, ...] = (s, t)
    elif mid:
        if mid & (mid - 1):
            return None
        seen = (s, mid.bit_length() - 1, t)
    else:
        seen = ()
    heads = out & ~mid & ~(1 << t)
    tails = into & ~mid & ~(1 << s)
    union = 0
    while heads:
        low = heads & -heads
        hit = rows[low.bit_length() - 1] & tails
        if hit:
            if union:  # another 3-path: is there one with another w and x?
                union |= hit
                if union & (union - 1):
                    return None
            elif seen:  # a 3-path beside the arc or 2-path seen
                return None
            else:  # the first 3-path
                union = hit
                seen = (s, low.bit_length() - 1, (hit & -hit).bit_length() - 1, t)
        heads ^= low
    return seen


def _cut_below(
    n: int, rows: Sequence[int], s: int, t: int, k: int, path: tuple[int, ...] = ()
) -> tuple[int, VertexSet]:
    """``(k, 0)`` when the s-t flow reaches k; otherwise the flow's value
    and the residual reach of s under a maximum flow, the source side of
    the minimum cut closest to s: what a flow capped at k leaves.

    k - 1 units are pushed: along ``path``, the s-t path ``_short_paths``
    saw at k = 2, else by ``_max_flow``.  The flow reaches k exactly when
    the residual reach of s then holds t; if it does not, the units
    pushed are a maximum flow.
    """
    if path:
        value = 1
        res = list(rows)
        for p, v in zip(path, path[1:]):
            res[p] ^= 1 << v
            res[v] |= 1 << p
    else:
        value, fwd, bwd = _max_flow(n, rows, s, t, cap=k - 1)
        res = [f | b for f, b in zip(fwd, bwd)]
    side = _reach(res, 1 << s, (1 << n) - 1)
    return (k, 0) if side >> t & 1 else (value, side)


def _two_arc_strong(n: int, rows: list[int], in_rows: list[int]) -> bool:
    """Whether lambda >= 2: 0 reaches every vertex and every vertex
    reaches 0 with any one arc removed.  BFS layers from 0 give each v at
    depth d the tree arc p->v from its lowest in-neighbour at depth d - 1,
    and only tree arcs can cut a vertex off.  p->v cannot when v has
    another in-neighbour at depth at most d, as no descendant of v lies
    that shallow; else a walk back over v's other in-arcs must meet one.
    Swapped rows settle the in-direction.  A walk clears one bit of a row
    and restores it.
    """
    full = (1 << n) - 1
    for rows, in_rows in ((rows, in_rows), (in_rows, rows)):
        shallow = prev = 1  # depth at most d, depth d - 1
        layer = rows[0] & ~1
        while layer:
            shallow |= layer
            step = 0
            for v in bits(layer):
                step |= rows[v]
                into = in_rows[v]
                hit = into & prev
                pbit = hit & -hit
                if not into & shallow & ~pbit:
                    in_rows[v] = into ^ pbit
                    spared = _reaches(in_rows, 1 << v, shallow & ~(1 << v))
                    in_rows[v] = into
                    if not spared:
                        return False
            prev, layer = layer, step & ~shallow
        if shallow != full:
            return False
    return True


def max_arc_disjoint_paths(d: Digraph, s: int, t: int) -> PathPacking:
    """Maximum set of pairwise arc-disjoint s-t dipaths (Menger via max-flow).

    The flow is split into paths by following the lowest remaining flow arc
    out of each vertex.  A flow may also carry a circulation; when a walk
    comes back to a vertex it already holds, the loop since that vertex is
    such a circulation and is dropped, so every path is a dipath.
    """
    if not (0 <= s < d.n and 0 <= t < d.n):
        raise ValueError("endpoint out of range")
    if s == t:
        raise ValueError("endpoints must differ")
    value, fwd, _ = _max_flow(d.n, d.out_adj, s, t)
    used = [d.out_adj[u] & ~fwd[u] for u in range(d.n)]
    paths = []
    for _ in range(value):
        walk = [s]
        held = 1 << s
        cur = s
        while cur != t:
            step = used[cur] & -used[cur]  # lowest remaining flow arc
            cur = step.bit_length() - 1
            used[walk[-1]] ^= step
            if held & step:
                while walk[-1] != cur:
                    held ^= 1 << walk.pop()
            else:
                held |= step
                walk.append(cur)
        paths.append(Dipath(tuple(walk)))
    return PathPacking(s, t, value, tuple(paths))


def arc_connectivity(d: Digraph, cap: int | None = None) -> tuple[int, CutWitness | None]:
    """Global arc-connectivity with a certifying cut, or a lower bound.

    lambda(D) = min over proper nonempty X of the out-degree of X, computed
    as the minimum over t != 0 of maxflow(0, t) and maxflow(t, 0), pairs
    taken in that order.  The witness is the residual reach of the first
    pair whose flow equals the minimum (the source side of its minimum cut
    closest to the source).

    With ``cap=k`` (k >= 1) only "lambda >= k, or else a deficient cut" is
    decided: each pair is asked only whether its flow reaches k, or the
    least value seen so far, and the call returns ``(k, None)`` when
    lambda >= k.  Otherwise it returns exactly the ``(lambda, witness)``
    of the uncapped call, since the flow that attains the minimum stays
    below every cap it is asked about.  The uncapped call is the call
    capped at n, which no flow on n vertices reaches.

    No flow runs on a digraph that is not strong: lambda is 0, and the
    witness is the reach of vertex 0, or of the first t that cannot reach
    0, whichever pair comes first.  On a strong digraph the loop stops at
    the first pair of value 1.
    """
    if d.n < 2:
        raise ValueError("arc connectivity needs at least 2 vertices")
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    rows = d.out_adj
    return _scan_pairs(d.n, rows, _in_rows(d.n, rows), d.n if cap is None else cap, 0)[:2]


def _scan_pairs(
    n: int, rows: Sequence[int], in_rows: Sequence[int], cap: int, start: int
) -> tuple[int, CutWitness | None, int]:
    """``arc_connectivity``'s scan at ``cap``, from pair index ``start`` on.

    Pair i is (0, t) for even i and (t, 0) for odd i, with t = i // 2 + 1.
    ``in_rows`` are the in-rows of ``rows``.  The caller must know that
    every pair before ``start`` carries a flow of at least ``cap``.
    Besides ``(lambda, witness)`` the scan returns the index of the first
    pair not proven to carry ``cap``: the first whose flow fell below it,
    ``start`` when the digraph is not strong (no flow runs then), and
    2(n - 1) when every pair reaches it.

    Each pair is asked whether its flow reaches the least value seen so
    far, at first ``cap``: ``_short_paths`` answers yes for most pairs,
    ``_cut_below`` the rest, and a pair below lowers that value.
    """
    full = (1 << n) - 1
    pairs = 2 * (n - 1)
    reach = _reach(rows, 1, full)
    coreach = _reach(in_rows, 1, full)
    missed = full & ~(reach & coreach)
    if missed:  # the lowest t that 0 cannot reach or that cannot reach 0
        t = (missed & -missed).bit_length() - 1
        side = _reach(rows, 1 << t, full) if reach >> t & 1 else reach
        return 0, CutWitness(side, "out", 0), start
    best = cap
    witness = None
    stop = pairs
    for i in range(start, pairs):
        t = i // 2 + 1
        s, goal = (t, 0) if i & 1 else (0, t)
        path = _short_paths(rows, in_rows, s, goal, best)
        if path is None:
            continue
        value, side = _cut_below(n, rows, s, goal, best, path)
        if not side:
            continue
        stop = min(stop, i)
        best = value
        witness = CutWitness(side, "out", value)
        if value == 1:
            return 1, witness, stop
    return best, witness, stop


def edmonds_branchings(d: Digraph, z: int, k: int) -> list[Branching] | CutWitness:
    """k arc-disjoint out-branchings rooted at z, or a certified obstruction.

    Such a packing exists iff every nonempty X avoiding z has in-degree at
    least k; when it does not, the returned witness is a set with in-degree
    below k: the residual co-reach of the first t whose flow from z stays
    below k.  Construction grows each branching greedily, accepting a
    frontier arc only when the leftover digraph still admits the remaining
    k-1, k-2, ... branchings (no t blocked at that many).
    """
    n = d.n
    if not 0 <= z < n:
        raise ValueError(f"root {z} out of range")
    if k < 1:
        raise ValueError("k must be >= 1")

    def blocked(rows: Sequence[int], need: int) -> tuple[int, int, list[int], list[int]] | None:
        """The first t != z whose flow from z stays below ``need``, with
        that flow's value and residual rows ``fwd``, ``bwd``; else None."""
        for t in range(n):
            if t != z:
                value, fwd, bwd = _max_flow(n, rows, z, t, cap=need)
                if value < need:
                    return t, value, fwd, bwd
        return None

    cut = blocked(d.out_adj, k)
    if cut is not None:
        t, value, fwd, bwd = cut
        residual_in = _in_rows(n, [f | b for f, b in zip(fwd, bwd)])
        return CutWitness(_reach(residual_in, 1 << t, d.full_mask), "in", value)

    res = list(d.out_adj)
    result = []
    for rem in range(k - 1, -1, -1):
        parent: dict[int, tuple[int, int]] = {}
        tree = 1 << z
        while tree != d.full_mask:
            for u, v in ((u, v) for u in bits(tree) for v in bits(res[u] & ~tree)):
                res[u] ^= 1 << v
                if rem == 0 or blocked(res, rem) is None:
                    break
                res[u] |= 1 << v
            else:  # pragma: no cover - contradicts the theorem
                raise AssertionError("no safe arc although the cut condition holds")
            parent[v] = (u, v)
            tree |= 1 << v
        result.append(Branching("out", z, parent))
    return result
