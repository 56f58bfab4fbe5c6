"""Independent reference implementations used to check the library.

Everything here is deliberately naive: subset enumeration for cuts (and
for the minimum cut closest to a source, which pins down the witnesses of
the flow routines), depth-first augmenting paths on an explicit arc set
for arc minimization, transitive closure for strong components, a
fraction-free determinant for counting branchings, the initial and
terminal components of an induced sub-digraph filtered from those closure
components, a cross product of branchings enumerated over every parent
choice (``enumerate_branchings``, checked against the determinant) for the
good-pair decision (and, for sparse digraphs beyond the enumerator's
reach, every out-branching with an in-branching test on its complement),
a scan over every small vertex subset for the seed of the reduction, and
the exact search as it stood before its incremental pruning, with every
pruning test rerun at every node, the generator's repair loop as it
stood before it carried its proven pairs, the absorb step as it stood
before it grew D[Q] by one row (it re-induces D[Q + X] from the host),
and a branching verifier that walks from every vertex all the way to the
root.  Nothing imports the algorithms under test beyond plain data types,
the repair's full ``arc_connectivity`` call per
round (itself checked against subset enumeration), and the absorb
reference's ``induced_subdigraph`` and ``verify_good_pair``.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from goodpairs import (
    Branching,
    Digraph,
    GoodPairCert,
    SearchResult,
    arc_connectivity,
    bits,
    induced_subdigraph,
    mask_of,
    verify_good_pair,
)


def rand_digraph(rng: random.Random, n: int, p: float) -> Digraph:
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p:
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def verify_branching_reference(d: Digraph, b: Branching) -> str | None:
    """``verify_branching`` with a full walk to the root from every vertex,
    up to n steps each; same checks, order and messages."""
    if b.kind not in ("out", "in"):
        return f"unknown kind {b.kind!r}"
    if not 0 <= b.root < d.n:
        return f"root {b.root} out of range"
    if b.root in b.parent:
        return f"root {b.root} has a parent arc"
    expected = set(range(d.n)) - {b.root}
    got = set(b.parent)
    if got != expected:
        missing = expected - got
        if missing:
            return f"vertex {min(missing)} has no parent arc"
        return f"unexpected vertex {min(got - expected)} in parent map"
    for v in sorted(b.parent):
        a, h = b.parent[v]
        if not (0 <= a < d.n and 0 <= h < d.n) or not d.has_arc(a, h):
            return f"parent arc ({a}, {h}) of {v} is not an arc of the digraph"
        if b.kind == "out" and h != v:
            return f"parent arc ({a}, {h}) of {v} must point at {v}"
        if b.kind == "in" and a != v:
            return f"parent arc ({a}, {h}) of {v} must start at {v}"
    for v in range(d.n):
        cur = v
        steps = 0
        while cur != b.root:
            arc = b.parent[cur]
            cur = arc[0] if b.kind == "out" else arc[1]
            steps += 1
            if steps > d.n:
                return f"parent pointers from {v} never reach the root"
    return None


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


def enumerate_branchings(
    d: Digraph, kind: str, root: int, limit: int | None = None
) -> Iterator[Branching]:
    """Every spanning branching of the given kind and root, no duplicates.

    Brute force over parent choices in ascending vertex order with an
    incremental cycle check, so n is capped at 8.
    """
    if d.n > 8:
        raise ValueError("enumerate_branchings supports n <= 8")
    if kind not in ("out", "in"):
        raise ValueError(f"kind must be 'out' or 'in', got {kind!r}")
    if not 0 <= root < d.n:
        raise ValueError(f"root {root} out of range")
    n = d.n
    cand_rows = d.in_adj() if kind == "out" else d.out_adj
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


def out_branchings_bruteforce(d: Digraph) -> Iterator[frozenset[tuple[int, int]]]:
    """Arc sets of every spanning out-branching, over every root: each
    non-root vertex picks one in-neighbour, and the picks are kept when
    every vertex follows them back to the root.  The product of the
    in-degrees bounds the work, so this suits sparse digraphs of any n."""
    n = d.n
    tails = [[u for u in range(n) if d.has_arc(u, v)] for v in range(n)]
    for root in range(n):
        others = [v for v in range(n) if v != root]
        for picks in itertools.product(*(tails[v] for v in others)):
            parent = dict(zip(others, picks))
            if all(_climbs_to(parent, v, root, n) for v in others):
                yield frozenset((p, v) for v, p in parent.items())


def _climbs_to(parent: dict[int, int], v: int, root: int, n: int) -> bool:
    for _ in range(n):
        if v == root:
            return True
        v = parent[v]
    return v == root


def has_in_branching(n: int, arcs: set[tuple[int, int]]) -> bool:
    """Whether some vertex is reached from every vertex along ``arcs``,
    that is, whether an in-branching rooted there spans the digraph."""
    common = (1 << n) - 1
    for s in range(n):
        seen, stack = {s}, [s]
        while stack:
            u = stack.pop()
            for a, b in arcs:
                if a == u and b not in seen:
                    seen.add(b)
                    stack.append(b)
        common &= mask_of(seen)
    return common != 0


def good_pair_by_out_branchings(d: Digraph) -> tuple[bool, int]:
    """Whether some out-branching leaves an in-branching in its complement,
    and how many out-branchings were enumerated to decide it."""
    arcs = set(d.arcs())
    count = 0
    for tree in out_branchings_bruteforce(d):
        count += 1
        if has_in_branching(d.n, arcs - tree):
            return True, count
    return False, count


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


def repair_reference(n: int, rows: list[int], oriented: bool) -> list[int] | None:
    """The repair loop with one full ``arc_connectivity(d, cap=2)`` call per
    round, every pair proved again from pair 0."""
    full = (1 << n) - 1
    for _ in range(2 * n * n + 4):
        d = Digraph(n, tuple(rows))
        lam, witness = arc_connectivity(d, cap=2)
        if lam >= 2:
            return rows
        x = witness.x_set
        added = False
        for u in bits(x):
            cand = full & ~x & ~rows[u] & ~(1 << u)
            for v in bits(cand):
                if oriented and rows[v] >> u & 1:
                    continue
                rows[u] |= 1 << v
                added = True
                break
            if added:
                break
        if not added:
            return None
    raise AssertionError("repair loop failed to converge")  # pragma: no cover


# ---------------------------------------------------------------------------
# the exact search with every pruning test at every node


class _RefBudgetExceeded(Exception):
    pass


def _ref_reach(rows: list[int], seen: int, full: int) -> int:
    frontier = seen
    while frontier and seen != full:
        step = 0
        for u in bits(frontier):
            step |= rows[u]
        frontier = step & ~seen
        seen |= frontier
    return seen


def _ref_single_terminal(
    rows: list[int], in_rows: list[int], full: int, t: int
) -> tuple[bool, int]:
    while True:
        back = _ref_reach(in_rows, 1 << t, full)
        if back == full:
            return True, t
        ahead = _ref_reach(rows, 1 << t, full) & ~back
        if not ahead:
            return False, t
        t = (ahead & -ahead).bit_length() - 1


def _ref_in_completion(n, res, res_in, full, root_in, hint):
    if root_in is not None:
        if _ref_reach(res_in, 1 << root_in, full) != full:
            return None
        t = root_in
    else:
        single, t = _ref_single_terminal(res, res_in, full, hint)
        if not single:
            return None
        term = _ref_reach(res, 1 << t, full)
        t = (term & -term).bit_length() - 1
    parent = {}
    settled = 1 << t
    while settled != full:
        for v in range(n):
            if settled >> v & 1:
                continue
            hit = res[v] & settled
            if hit:
                parent[v] = (v, (hit & -hit).bit_length() - 1)
                settled |= 1 << v
                break
        else:
            return None
    return t, parent


def find_good_pair_exact_reference(
    d: Digraph,
    *,
    root_out: int | None = None,
    root_in: int | None = None,
    node_budget: int = 250_000,
) -> SearchResult:
    """The exact search as it stood before its incremental pruning: the
    same branching order, but all three pruning tests (a usable in-arc
    for every unreached vertex, reach of every vertex through usable arcs,
    one terminal component of the residual) rerun in full at every node.
    Roots come from reach sets instead of a strong decomposition; the
    certificate is not verified here."""
    n = d.n
    full = d.full_mask
    adj = list(d.out_adj)
    in_all = [0] * n
    for u in range(n):
        for v in bits(adj[u]):
            in_all[v] |= 1 << u
    roots = mask_of(r for r in range(n) if _ref_reach(adj, 1 << r, full) == full)
    if root_out is not None:
        roots &= 1 << root_out
    if root_in is not None and _ref_reach(in_all, 1 << root_in, full) != full:
        roots = 0
    nodes = 0
    found: list[GoodPairCert] = []
    res = list(adj)
    res_in = list(in_all)
    hint = 0
    avail = list(adj)
    forb_in = [0] * n
    out_parent: dict[int, tuple[int, int]] = {}

    def prunable(tree: int) -> bool:
        nonlocal hint
        for v in bits(full ^ tree):
            if not in_all[v] & ~forb_in[v]:
                return True
        if _ref_reach(avail, tree, full) != full:
            return True
        single, hint = _ref_single_terminal(res, res_in, full, hint)
        return not single

    def extend(tree: int) -> bool:
        nonlocal nodes
        if tree == full:
            done = _ref_in_completion(n, res, res_in, full, root_in, hint)
            if done is None:
                return False
            t, in_parent = done
            root = next(iter(set(range(n)) - set(out_parent))) if n > 1 else 0
            found.append(
                GoodPairCert(
                    n, Branching("out", root, dict(out_parent)), Branching("in", t, in_parent)
                )
            )
            return True
        excluded = []
        try:
            while not prunable(tree):
                arc = None
                for u in bits(tree):
                    cand = avail[u] & ~tree
                    if cand:
                        v = (cand & -cand).bit_length() - 1
                        if arc is None or (u, v) < arc:
                            arc = (u, v)
                if arc is None:
                    return False
                nodes += 1
                if nodes > node_budget:
                    raise _RefBudgetExceeded
                u, v = arc
                res[u] &= ~(1 << v)
                res_in[v] &= ~(1 << u)
                avail[u] &= ~(1 << v)
                out_parent[v] = (u, v)
                ok = extend(tree | 1 << v)
                res[u] |= 1 << v
                res_in[v] |= 1 << u
                if ok:
                    return True
                del out_parent[v]
                forb_in[v] |= 1 << u
                excluded.append((u, v))
            return False
        finally:
            for eu, ev in excluded:
                avail[eu] |= 1 << ev
                forb_in[ev] &= ~(1 << eu)

    for r in bits(roots):
        out_parent.clear()
        try:
            if extend(1 << r):
                return SearchResult("found", found[-1], nodes)
        except _RefBudgetExceeded:
            return SearchResult("inconclusive", None, nodes)
    return SearchResult("none", None, nodes)


def absorb_reference(
    d: Digraph, q_set: int, cert_q: GoodPairCert, x_set: int, in_rows: list[int]
) -> GoodPairCert:
    """Attach the vertices of ``x_set`` to a good pair of D[Q] by
    re-inducing D[Q + X] from the host and re-indexing cert_q through its
    vertex map: lowest-first passes with rescans, each vertex attached by
    its lowest in- and out-neighbour among the covered vertices.  Both
    certificates are numbered as ``induced_subdigraph`` numbers D[Q] and
    D[Q + X]; in_rows are d's in-rows."""
    target = q_set | x_set
    h, vmap = induced_subdigraph(d, target)
    q_index = [i for i, v in enumerate(vmap) if q_set >> v & 1]

    root_out = q_index[cert_q.out.root]
    out_parent = {
        q_index[v]: (q_index[a], q_index[b]) for v, (a, b) in cert_q.out.parent.items()
    }
    root_in = q_index[cert_q.in_.root]
    in_parent = {
        q_index[v]: (q_index[a], q_index[b]) for v, (a, b) in cert_q.in_.parent.items()
    }

    covered = q_set
    rest = x_set
    while rest:
        attached = 0
        for v in bits(rest):
            ins = in_rows[v] & covered
            outs = d.out_adj[v] & covered
            if ins and outs:
                i = (target & ((1 << v) - 1)).bit_count()
                out_parent[i] = ((target & ((ins & -ins) - 1)).bit_count(), i)
                in_parent[i] = (i, (target & ((outs & -outs) - 1)).bit_count())
                covered |= 1 << v
                attached |= 1 << v
        if not attached:
            stuck = (rest & -rest).bit_length() - 1
            raise ValueError(f"vertex {stuck} cannot be absorbed")
        rest &= ~attached
    cert = GoodPairCert(
        h.n, Branching("out", root_out, out_parent), Branching("in", root_in, in_parent)
    )
    bad = verify_good_pair(h, cert)
    if bad:
        raise AssertionError(f"absorption produced invalid certificate: {bad}")
    return cert
