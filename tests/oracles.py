"""Independent reference implementations used to check the library.

Everything here is deliberately naive: subset enumeration for cuts (and
for the minimum cut closest to a source, which pins down the witnesses of
the flow routines), depth-first augmenting paths on an explicit arc set
for arc minimization, transitive closure for strong components, a
fraction-free determinant for counting branchings, the initial and
terminal components of an induced sub-digraph filtered from those closure
components, a cross product of exhaustively enumerated branchings for the
good-pair decision, and a scan over every small vertex subset for the
seed of the reduction.  Nothing imports the algorithms under test beyond
plain data types and the branching enumerator.
"""

from __future__ import annotations

import itertools
import random

from goodpairs import Digraph, bits, enumerate_branchings, mask_of


def rand_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def out_cut(d: Digraph, x: int) -> int:
    """Number of arcs leaving the vertex set x."""
    total = 0
    for u in bits(x):
        total += (d.out_adj[u] & ~x).bit_count()
    return total


def in_cut(d: Digraph, x: int) -> int:
    total = 0
    for u in range(d.n):
        if not x >> u & 1:
            total += (d.out_adj[u] & x).bit_count()
    return total


def subset_min_cut(d: Digraph, s: int, t: int) -> int:
    """Minimum out-cut over all vertex sets containing s but not t."""
    best = None
    full = d.full_mask
    for x in range(1, full + 1):
        if x >> s & 1 and not x >> t & 1:
            c = out_cut(d, x)
            if best is None or c < best:
                best = c
    return best


def lambda_enum(d: Digraph) -> int:
    """Arc connectivity by enumerating every proper nonempty subset."""
    best = None
    for x in range(1, d.full_mask):
        c = out_cut(d, x)
        if best is None or c < best:
            best = c
    return best


def edmonds_feasible(d: Digraph, z: int, k: int) -> bool:
    """Cut condition for k arc-disjoint out-branchings rooted at z."""
    for x in range(1, d.full_mask + 1):
        if x >> z & 1:
            continue
        if in_cut(d, x) < k:
            return False
    return True


def closure_sccs(d: Digraph) -> set[int]:
    """Strong components as masks, via reachability closure."""
    n = d.n
    reach = []
    for s in range(n):
        seen = 1 << s
        frontier = 1 << s
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= d.out_adj[u]
            frontier = nxt & ~seen
            seen |= nxt
        reach.append(seen)
    comps = set()
    for u in range(n):
        comp = 0
        for v in range(n):
            if reach[u] >> v & 1 and reach[v] >> u & 1:
                comp |= 1 << v
        comps.add(comp)
    return comps


def _induced_comps(d: Digraph, inside: int) -> list[int]:
    """Strong components of D[inside] as host masks, by lowest member."""
    rows = tuple(d.out_adj[u] & inside if inside >> u & 1 else 0 for u in range(d.n))
    comps = [c for c in closure_sccs(Digraph(d.n, rows)) if c & inside]
    comps.sort(key=lambda c: c & -c)
    return comps


def initial_comps_reference(d: Digraph, inside: int) -> list[int]:
    """Components of D[inside] that no arc from the rest of the set enters."""
    in_rows = [mask_of(u for u in range(d.n) if d.has_arc(u, v)) for v in range(d.n)]
    out = []
    for c in _induced_comps(d, inside):
        external = inside & ~c
        if all(not in_rows[v] & external for v in bits(c)):
            out.append(c)
    return out


def terminal_comps_reference(d: Digraph, inside: int) -> list[int]:
    """Components of D[inside] that no arc into the rest of the set leaves."""
    out = []
    for c in _induced_comps(d, inside):
        external = inside & ~c
        if all(not d.out_adj[v] & external for v in bits(c)):
            out.append(c)
    return out


def _int_det(mat: list[list[int]]) -> int:
    """Bareiss fraction-free determinant of an integer matrix."""
    m = [row[:] for row in mat]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for i in range(k + 1, size):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


def count_out_branchings(d: Digraph, root: int) -> int:
    """Directed matrix-tree count of spanning out-branchings at root."""
    n = d.n
    a = [[1 if d.out_adj[u] >> v & 1 else 0 for v in range(n)] for u in range(n)]
    indeg = [sum(a[u][v] for u in range(n)) for v in range(n)]
    lap = [
        [(indeg[v] if u == v else 0) - a[u][v] for v in range(n) if v != root]
        for u in range(n)
        if u != root
    ]
    return _int_det(lap)


def good_pair_exists_bruteforce(d: Digraph) -> bool:
    """Cross product of all out- and in-branchings over all root pairs."""
    for r_out in range(d.n):
        outs = [frozenset(b.arcs()) for b in enumerate_branchings(d, "out", r_out)]
        if not outs:
            continue
        for r_in in range(d.n):
            for b in enumerate_branchings(d, "in", r_in):
                arcs_in = b.arcs()
                if any(not (arcs_in & ao) for ao in outs):
                    return True
    return False


def independent_set_size(d: Digraph) -> int:
    """Largest set with no arcs inside, by subset enumeration."""
    best = 0
    for x in range(1, d.full_mask + 1):
        ok = True
        for u in bits(x):
            if d.out_adj[u] & x:
                ok = False
                break
        if ok:
            best = max(best, x.bit_count())
    return best


def _induced(d: Digraph, vertices: tuple[int, ...]) -> Digraph:
    rows = []
    for u in vertices:
        rows.append(mask_of(i for i, v in enumerate(vertices) if d.has_arc(u, v)))
    return Digraph(len(vertices), tuple(rows))


def seed_subdigraph_reference(d: Digraph) -> tuple[int, str] | None:
    """The reduction's seed as ``(vertex mask, trace note)``, or None.

    The lowest digon first; then every 3-subset and every 4-subset in
    lexicographic order, each induced and kept when it has at least 4
    (resp. 6) arcs, a 4-subset only when every vertex has an in- and an
    out-arc inside it or every pair is joined, and decided by the
    brute-force good-pair search.
    """
    n = d.n
    for u in range(n):
        for v in range(u + 1, n):
            if d.has_arc(u, v) and d.has_arc(v, u):
                return (1 << u) | (1 << v), f"digon {u}-{v}"
    for size, arc_floor in ((3, 4), (4, 6)):
        for combo in itertools.combinations(range(n), size):
            h = _induced(d, combo)
            if h.m < arc_floor:
                continue
            if size == 4:
                degree_ok = all(h.out_degree(v) >= 1 and h.in_degree(v) >= 1 for v in range(4))
                semicomplete = all(
                    h.has_arc(i, j) or h.has_arc(j, i)
                    for i, j in itertools.combinations(range(4), 2)
                )
                if not (degree_ok or semicomplete):
                    continue
            if good_pair_exists_bruteforce(h):
                return mask_of(combo), f"{size}-vertex base with {h.m} arcs"
    return None


def _min_cut_core(d: Digraph, s: int, t: int, cut) -> tuple[int, int]:
    """Least value of ``cut`` over the sets holding s but not t, and the
    intersection of the sets that attain it (the minimum cut closest to s)."""
    best = None
    core = d.full_mask
    for x in range(1, d.full_mask + 1):
        if x >> s & 1 and not x >> t & 1:
            c = cut(d, x)
            if best is None or c < best:
                best, core = c, x
            elif c == best:
                core &= x
    return best, core


def arc_connectivity_reference(d: Digraph) -> tuple[int, int]:
    """``(lambda, x_set)`` by enumeration: the witness is the minimum cut
    closest to the source of the first pair (0, t), (t, 0), t = 1, 2, ...
    whose minimum cut equals lambda."""
    lam = lambda_enum(d)
    for t in range(1, d.n):
        for s, goal in ((0, t), (t, 0)):
            value, core = _min_cut_core(d, s, goal, out_cut)
            if value == lam:
                return lam, core
    raise AssertionError("no pair attains lambda")


def edmonds_witness_reference(d: Digraph, z: int, k: int) -> tuple[int, int] | None:
    """``(value, x_set)`` of the blocking cut for k out-branchings at z, or
    None: the first t != z whose least in-cut over the sets holding t but
    not z is below k, with the smallest such set of that in-cut."""
    for t in range(d.n):
        if t == z:
            continue
        value, core = _min_cut_core(d, t, z, in_cut)
        if value < k:
            return value, core
    return None


def _two_arc_disjoint_paths(rows: list[int], s: int, t: int) -> bool:
    """Whether two arc-disjoint s-t paths exist: two augmenting depth-first
    searches on an explicit set of residual arcs."""
    n = len(rows)
    residual = {(u, v) for u in range(n) for v in bits(rows[u])}
    for _ in range(2):
        parent = {s: None}
        stack = [s]
        while stack and t not in parent:
            u = stack.pop()
            for v in range(n):
                if (u, v) in residual and v not in parent:
                    parent[v] = u
                    stack.append(v)
        if t not in parent:
            return False
        v = t
        while parent[v] is not None:
            u = parent[v]
            residual.remove((u, v))
            residual.add((v, u))
            v = u
    return True


def arc_minimize_reference(d: Digraph, seed: int) -> Digraph:
    """One flow test per arc, in the seeded order: an arc goes when two
    arc-disjoint paths from its tail to its head survive its removal."""
    rng = random.Random(seed)
    arcs = list(d.arcs())
    rng.shuffle(arcs)
    rows = list(d.out_adj)
    for u, v in arcs:
        rows[u] &= ~(1 << v)
        if not _two_arc_disjoint_paths(rows, u, v):
            rows[u] |= 1 << v
    return Digraph(d.n, tuple(rows))
