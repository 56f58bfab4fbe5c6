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

A flow capped at k is skipped when ``_short_paths`` (``_short_pair`` for
k = 2) already sees k arc-disjoint s-t paths of length at most 3: the
arc s->t, the 2-paths s->w->t through distinct w, and for k = 2 also
3-paths s->w->x->t whose middle vertices w and x avoid those of the
other path.  Such paths share no arc: an arc out of s is fixed by its
head, an arc into t by its tail, and a middle arc w->x by both, so paths
with distinct middle vertices use distinct arcs.  The test is sufficient
only.  A skipped flow is one that would have returned its cap, and a
flow at its cap changes no value, witness or scan index.

Where the cap in force is 2 and the short-path test fails, no capped
flow runs either: ``_cut_below_2`` pushes one unit along the one short
path the test saw (or, where it saw none, along the shortest path
``_augment`` finds) and takes the residual reach of s.  If that reach
holds t, a second augmenting path exists and the flow is at least 2.
If not, the one unit is a maximum flow, and its residual reach is the
minimum cut closest to s, the set every maximum flow leaves: the
witness a flow capped at 2 returns.  So arc connectivity, the
generator's repair and its arc stripping return what they would with
every flow run.
"""

from __future__ import annotations

from dataclasses import dataclass

from .branchings import Branching
from .digraph import Digraph, Dipath, VertexSet, _in_rows, _reach, bits


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
        total = 0
        for u in range(d.n):
            if not x >> u & 1:
                total += (d.out_adj[u] & x).bit_count()
        return total
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
    rows: list[int] | tuple[int, ...], in_rows: list[int], s: int, t: int, k: int
) -> bool:
    """Whether k arc-disjoint s-t paths of length at most 3 are in sight.

    The arc s->t and the 2-paths s->w->t, one per w in N+(s) & N-(t), are
    pairwise arc-disjoint.  True proves the s-t flow reaches k; False
    proves nothing.  ``_short_pair`` is the k = 2 test, which also tries
    3-paths.
    """
    out = rows[s]
    return (out >> t & 1) + (out & in_rows[t]).bit_count() >= k


def _short_pair(
    rows: list[int] | tuple[int, ...], in_rows: list[int], s: int, t: int
) -> tuple[int, ...] | None:
    """None when two arc-disjoint s-t paths of length at most 3 are in
    sight; otherwise the one such path it saw, as a vertex tuple, or ()
    when it saw none.

    The arc s->t and the 2-paths s->w->t, one per w in N+(s) & N-(t), are
    pairwise arc-disjoint.  One of those plus a 3-path s->w->x->t with w,
    x outside it, or else two 3-paths with distinct w and distinct x, also
    suffice: with no arc s->t and no common neighbour, the w's and x's are
    disjoint sets, and two such paths exist iff the arcs from the w's to
    the x's are not all at one vertex (Koenig).  The path seen is the arc,
    the 2-path or the 3-path through the lowest w with an arc into the
    x's, and the lowest such x.
    """
    out = rows[s]
    into = in_rows[t]
    mid = out & into
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


def _cut_below_2(
    n: int, rows: list[int] | tuple[int, ...], s: int, t: int, path: tuple[int, ...]
) -> VertexSet:
    """0 when the s-t flow is at least 2; otherwise the residual reach of
    s under a maximum flow, the source side of the minimum cut closest to
    s, which is what a flow capped at 2 leaves.

    One unit is pushed along ``path``, the s-t path ``_short_pair`` saw,
    or, when it is (), along a shortest one found by ``_augment``.  The
    flow reaches 2 exactly when the residual reach of s then holds t.
    With no s-t path at all the flow is 0 and the reach of s is returned.
    """
    if path:
        res = list(rows)
        for p, v in zip(path, path[1:]):
            res[p] ^= 1 << v
            res[v] |= 1 << p
    else:
        _, fwd, bwd = _max_flow(n, rows, s, t, cap=1)
        res = [f | b for f, b in zip(fwd, bwd)]
    side = _reach(res, 1 << s, (1 << n) - 1)
    return 0 if side >> t & 1 else side


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
    decided: every flow stops at k or at the least value seen so far (at
    2, one pushed path and one residual reach decide instead), and the
    call returns ``(k, None)`` when lambda >= k.  Otherwise it returns
    exactly the ``(lambda, witness)`` of the uncapped call, since the flow
    that attains the minimum stays below every cap it runs under.

    No flow runs on a digraph that is not strong: lambda is 0, and the
    witness is the reach of vertex 0, or of the first t that cannot reach
    0, whichever pair comes first.  On a strong digraph the loop stops at
    the first pair of value 1.
    """
    if d.n < 2:
        raise ValueError("arc connectivity needs at least 2 vertices")
    if cap is not None and cap < 1:
        raise ValueError("cap must be at least 1")
    lam, witness, _ = _scan_pairs(d.n, d.out_adj, _in_rows(d.n, d.out_adj), cap, 0)
    return lam, witness


def _scan_pairs(
    n: int,
    rows: list[int] | tuple[int, ...],
    in_rows: list[int],
    cap: int | None,
    start: int,
) -> tuple[int, CutWitness | None, int]:
    """``arc_connectivity``'s scan, from pair index ``start`` on.

    Pair i is (0, t) for even i and (t, 0) for odd i, with t = i // 2 + 1.
    ``in_rows`` are the in-rows of ``rows``.  The caller must know that
    every pair before ``start`` carries a flow of at least ``cap``.
    Besides ``(lambda, witness)`` the scan returns the index of the first
    pair not proven to carry ``cap``: the first whose flow fell below it,
    ``start`` when the digraph is not strong (no flow runs then), and
    2(n - 1) when every pair reaches it.

    Each flow after the first runs capped at the least value seen so far,
    and is skipped when ``_short_paths`` proves the pair reaches that cap:
    the flow would have returned the cap, which changes neither the
    value, the witness nor the index returned.  Where the cap in force is
    2 no capped flow runs: ``_cut_below_2`` pushes one path, the one the
    short-path test saw or else one ``_augment`` finds, and its residual
    reach of s either holds the sink or is the cut that flow would have
    left.
    """
    full = (1 << n) - 1
    pairs = 2 * (n - 1)
    reach = _reach(rows, 1, full)
    coreach = _reach(in_rows, 1, full)
    if reach & coreach != full:
        for t in range(1, n):
            if not reach >> t & 1:
                return 0, CutWitness(reach, "out", 0), start
            if not coreach >> t & 1:
                return 0, CutWitness(_reach(rows, 1 << t, full), "out", 0), start
    if cap == 1:
        return 1, None, pairs
    best = cap
    witness = None
    stop = pairs
    for i in range(start, pairs):
        t = i // 2 + 1
        s, goal = (t, 0) if i & 1 else (0, t)
        if best == 2:
            path = _short_pair(rows, in_rows, s, goal)
            if path is None:
                continue
            side = _cut_below_2(n, rows, s, goal, path)
            if not side:
                continue
            value = 1
        else:
            if best is not None and _short_paths(rows, in_rows, s, goal, best):
                continue
            value, fwd, bwd = _max_flow(n, rows, s, goal, cap=best)
            if value == best:
                continue
            side = _reach([f | b for f, b in zip(fwd, bwd)], 1 << s, full)
        if witness is None:
            stop = i
        best = value
        witness = CutWitness(side, "out", value)
        if value == 1:
            return 1, witness, stop
    return best, witness, stop


def edmonds_branchings(d: Digraph, z: int, k: int) -> list[Branching] | CutWitness:
    """k arc-disjoint out-branchings rooted at z, or a certified obstruction.

    Such a packing exists iff every nonempty X avoiding z has in-degree at
    least k; when it does not, the returned witness is a set with in-degree
    below k.  Construction grows each branching greedily, accepting a
    frontier arc only when the leftover digraph still admits the remaining
    k-1, k-2, ... branchings (checked by capped max-flow feasibility from z
    to every other vertex).
    """
    n = d.n
    if not 0 <= z < n:
        raise ValueError(f"root {z} out of range")
    if k < 1:
        raise ValueError("k must be >= 1")
    for t in range(n):
        if t == z:
            continue
        value, fwd, bwd = _max_flow(n, d.out_adj, z, t, cap=k)
        if value < k:
            residual = [f | b for f, b in zip(fwd, bwd)]
            x = _reach(_in_rows(n, residual), 1 << t, d.full_mask)
            return CutWitness(x, "in", value)

    def feasible(rows: list[int], need: int) -> bool:
        for t in range(n):
            if t == z:
                continue
            if _max_flow(n, rows, z, t, cap=need)[0] < need:
                return False
        return True

    available = list(d.out_adj)
    result = []
    for i in range(k):
        rem = k - i - 1
        res = list(available)
        parent: dict[int, tuple[int, int]] = {}
        tree = 1 << z
        full = d.full_mask
        while tree != full:
            chosen = None
            probe = tree
            while probe and chosen is None:
                low = probe & -probe
                u = low.bit_length() - 1
                probe ^= low
                cand = res[u] & ~tree
                while cand:
                    vlow = cand & -cand
                    v = vlow.bit_length() - 1
                    cand ^= vlow
                    if rem == 0:
                        chosen = (u, v)
                        break
                    res[u] &= ~vlow
                    if feasible(res, rem):
                        chosen = (u, v)
                        res[u] |= vlow
                        break
                    res[u] |= vlow
            if chosen is None:  # pragma: no cover - contradicts the theorem
                raise AssertionError("no safe arc although the cut condition holds")
            u, v = chosen
            parent[v] = (u, v)
            tree |= 1 << v
            res[u] &= ~(1 << v)
        result.append(Branching("out", z, parent))
        available = res
    return result
