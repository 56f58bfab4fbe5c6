"""Constructive good-pair machinery: local rules that compose certificates.

Every builder here returns verified certificates.  The central tool is the
component pairing: given a sub-digraph Q that already has a good pair and a
partition of the remaining vertices into the in-neighbourhood X and the
out-neighbourhood Y of Q, two disjoint cross-arc systems are selected
alternately between the initial strong components of D[X] and the terminal
strong components of D[Y]; forests inside X and Y finish the job.
Absorption attaches vertices directly and the spare-vertex rule reduces to
the same pattern.  The Hamilton-path split of an orientation is neither
run by the pipeline nor exported; it stays while the benchmark binds it.

Once the degree condition holds the pairing cannot fail.  Only the start
component may have a single crossing arc, and it is picked first, so every
pick finds a candidate; every initial component of D[X] and terminal one of
D[Y] gets a pick, so the forests span X and Y; and Q feeds every vertex of
Y and is fed by every vertex of X.  A rule declines only on its degrees.

``reduce_and_lift`` chains the rules: seed a small sub-digraph with a good
pair, grow it by absorption, close with pairing / spare vertex, and fall
back to exhaustive search.  Each applied rule appends one step to a
replayable trace.

``reduce_and_lift`` builds the host's in-rows once and hands them to every
step: the seed scan, each absorb step, the pairing and spare-vertex steps
and the exact fallback.  It induces D[Q] once, at the first absorb step
after the seed; each absorb step grows D[Q] by the new vertex's row and
renumbers the certificate instead of inducing D[Q + v] from the host
again, and still verifies the good pair it builds.  Each public rule
checks its input (the good pair of D[Q] included) and then runs the same
private step.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Sequence

from .branchings import (
    Branching,
    DEFAULT_NODE_BUDGET,
    GoodPairCert,
    SearchResult,
    _find_good_pair_exact,
    _unique_keys,
    find_good_pair_exact,
    reverse_cert,
    verify_good_pair,
)
from .digraph import (
    Digraph,
    Dipath,
    VertexSet,
    _in_rows,
    _strong_decomposition,
    bits,
    induced_subdigraph,
    mask_of,
    verify_dipath,
)

TRACE_RULES = (
    "absorb",
    "component-pairing",
    "spare-vertex",
    "small-base",
    "exact-fallback",
)

# a vertex set as hex() writes it: no sign, spaces, underscores or capitals
_HEX_MASK = re.compile(r"0x[0-9a-f]+")


@dataclass(frozen=True)
class TraceStep:
    rule: str
    subdigraph: VertexSet
    note: str


@dataclass
class ReductionTrace:
    steps: list[TraceStep]

    def to_jsonl(self) -> str:
        return "\n".join(
            json.dumps({"rule": s.rule, "subdigraph": hex(s.subdigraph), "note": s.note})
            for s in self.steps
        )

    @classmethod
    def from_jsonl(cls, text: str) -> "ReductionTrace":
        steps = []
        for lineno, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line, object_pairs_hook=_unique_keys)
                sub = obj["subdigraph"]
                if not _HEX_MASK.fullmatch(sub):
                    raise ValueError(f"subdigraph {sub!r} is not written by hex()")
                step = TraceStep(obj["rule"], int(sub, 16), obj["note"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"malformed trace line {lineno}: {exc!r}") from None
            if not (isinstance(step.rule, str) and isinstance(step.note, str)):
                raise ValueError(f"malformed trace line {lineno}: {line.strip()}")
            steps.append(step)
        return cls(steps)


@dataclass(frozen=True)
class ConditionNotMet:
    """A constructive rule declined; ``component`` names the offending part."""

    reason: str
    component: VertexSet = 0


def _checked(d: Digraph, got, rule: str):
    """Return ``got``; a certificate must first pass the verifier on d."""
    if isinstance(got, GoodPairCert):
        bad = verify_good_pair(d, got)
        if bad:  # pragma: no cover - every rule builds arc-disjoint branchings
            raise AssertionError(f"{rule} produced invalid certificate: {bad}")
    return got


# ---------------------------------------------------------------------------
# forests


def _out_forest(
    in_rows: Sequence[int], inside: VertexSet, roots: VertexSet
) -> dict[int, tuple[int, int]] | None:
    """Parent arcs of an out-forest spanning ``inside`` from ``roots``.

    The roots lie inside the set, so arcs stay inside it; vertices attach
    lowest-first to their lowest covered in-neighbour.  None when some
    vertex is unreachable.
    """
    parent: dict[int, tuple[int, int]] = {}
    covered = roots
    rest = inside & ~roots
    while rest:
        attached = 0
        for v in bits(rest):
            hit = in_rows[v] & covered
            if hit:
                u = (hit & -hit).bit_length() - 1
                parent[v] = (u, v)
                covered |= 1 << v
                attached |= 1 << v
        if not attached:
            return None
        rest &= ~attached
    return parent


def _in_forest(
    out_rows: Sequence[int], inside: VertexSet, roots: VertexSet
) -> dict[int, tuple[int, int]] | None:
    """The in-forest into ``roots``: the out-forest of the reversed digraph,
    arcs flipped back."""
    forest = _out_forest(out_rows, inside, roots)
    return None if forest is None else {v: (b, a) for v, (a, b) in forest.items()}


# ---------------------------------------------------------------------------
# component pairing


@dataclass(frozen=True)
class _Sides:
    """The X / Y partition of a pairing on explicit rows.

    ``comps_x`` are the initial strong components of D[X], ``comps_y`` the
    terminal ones of D[Y]: the components the cross-arc systems must reach.
    """

    rows: Sequence[int]
    in_rows: Sequence[int]
    x_set: VertexSet
    y_set: VertexSet
    comps_x: list[VertexSet]
    comps_y: list[VertexSet]

    @classmethod
    def build(
        cls, rows: Sequence[int], in_rows: Sequence[int], x_set: VertexSet, y_set: VertexSet
    ) -> "_Sides":
        """One decomposition serves both sides: each row and each in-row is
        masked to the side of its vertex, so no arc joins X and Y and each
        component, with its initial and terminal flags, is one of D[X] or
        of D[Y].  Components are ordered by lowest member; the vertices
        outside X and Y are isolated singletons, dropped by the side test."""
        n = len(rows)
        masked = [0] * n
        masked_in = [0] * n
        for side in (x_set, y_set):
            for u in bits(side):
                masked[u] = rows[u] & side
                masked_in[u] = in_rows[u] & side
        dec = _strong_decomposition(n, masked, masked_in)

        def ends(flags: tuple[bool, ...], side: VertexSet) -> list[VertexSet]:
            comps = [c for c, flag in zip(dec.components, flags) if flag and c & side]
            return sorted(comps, key=lambda c: c & -c)

        return cls(rows, in_rows, x_set, y_set, ends(dec.initial, x_set), ends(dec.terminal, y_set))

    def reversed(self) -> "_Sides":
        """The same partition in the reversed digraph, where X and Y trade
        places: the initial components of reversed D[Y] are the terminal
        components of D[Y], and vice versa."""
        return _Sides(self.in_rows, self.rows, self.y_set, self.x_set, self.comps_y, self.comps_x)


def _alternating_selection(
    s: _Sides, start: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Pick one arc into each X-component and one out of each Y-component.

    Side 0 picks, for each component of ``comps_x``, an arc (u, v) from Y
    into it; side 1 picks, for each component of ``comps_y``, an arc out
    of it into X.  Either way ``arc[side]`` is the far endpoint.
    Components are processed alternately, each new arc forbidden from being
    the previous pick of the other side; preferring arcs whose far endpoint
    lies in a still-unprocessed component keeps consecutive picks in
    distinct components, which makes the two systems arc-disjoint.

    Under the degree condition a pick always exists.  X has components:
    Y's components send arcs into X, and X and Y are not both empty.  Every
    component has two arcs to choose from, so one survives the exclusion,
    except that the ``start`` component of X may have a single entering
    arc, and it is picked first, when nothing is excluded yet.
    """
    comps = (s.comps_x, s.comps_y)
    comp_of = tuple({v: i for i, c in enumerate(cs) for v in bits(c)} for cs in comps)
    unproc = tuple(set(range(len(cs))) for cs in comps)
    picks: tuple[list[tuple[int, int]], list[tuple[int, int]]] = ([], [])
    last: list[tuple[int, int] | None] = [None, None]
    side, cur = 0, start
    unproc[0].remove(start)
    while True:
        if side == 0:
            arcs = [(u, v) for v in bits(comps[0][cur]) for u in bits(s.in_rows[v] & s.y_set)]
        else:
            arcs = [(u, v) for u in bits(comps[1][cur]) for v in bits(s.rows[u] & s.x_set)]
        far = 1 - side
        cand = sorted(a for a in arcs if a != last[far])
        pref = [a for a in cand if comp_of[far].get(a[side]) in unproc[far]]
        arc = pref[0] if pref else cand[0]
        picks[side].append(arc)
        last[side] = arc
        if pref:
            side, cur = far, comp_of[far][arc[side]]
        elif unproc[far]:
            side, cur = far, min(unproc[far])
        elif unproc[side]:
            cur = min(unproc[side])
        else:
            return picks
        unproc[side].remove(cur)


def _lift_branching(b: Branching, vmap: tuple[int, ...]) -> tuple[int, dict]:
    root = vmap[b.root]
    parent = {vmap[v]: (vmap[a], vmap[h]) for v, (a, h) in b.parent.items()}
    return root, parent


def _neighbourhoods(
    rows: Sequence[int], in_rows: Sequence[int], q_set: VertexSet
) -> tuple[VertexSet, VertexSet]:
    """(in-neighbourhood, out-neighbourhood) of the set, both outside it."""
    x = 0
    y = 0
    for q in bits(q_set):
        x |= in_rows[q]
        y |= rows[q]
    return x & ~q_set, y & ~q_set


def _cross_degrees(s: _Sides) -> tuple[list[int], list[int]]:
    """Arcs from Y into each component of comps_x, and from each component
    of comps_y into X."""
    din = [sum((s.in_rows[v] & s.y_set).bit_count() for v in bits(c)) for c in s.comps_x]
    dout = [sum((s.rows[u] & s.x_set).bit_count() for u in bits(c)) for c in s.comps_y]
    return din, dout


def _check_condition(din: list[int], dout: list[int]) -> tuple[bool, int | None]:
    """Degrees admissible for a pairing with the deficient side in ``din``.

    Requires every entry of dout >= 2 and at most one entry of din equal to
    1, the rest >= 2.  Returns (ok, index of the deficient component)."""
    ones = [i for i, v in enumerate(din) if v == 1]
    if any(v < 2 for v in dout) or 0 in din or len(ones) > 1:
        return False, None
    return True, ones[0] if ones else None


def _checked_subdigraph(d: Digraph, q_set: VertexSet, cert_q: GoodPairCert) -> Digraph:
    """D[Q], once cert_q is checked to be a good pair of it."""
    h, _ = induced_subdigraph(d, q_set)
    bad = verify_good_pair(h, cert_q)
    if bad:
        raise ValueError(f"certificate for D[Q] invalid: {bad}")
    return h


def _pairing_prologue(
    d: Digraph, q_set: VertexSet, cert_q: GoodPairCert
) -> tuple[list[int], VertexSet, VertexSet]:
    """Checks shared by the public pairing rules: the good pair of D[Q],
    then disjoint neighbourhoods.  Returns (in-rows, X, Y)."""
    _checked_subdigraph(d, q_set, cert_q)
    in_rows = _in_rows(d.n, d.out_adj)
    x_set, y_set = _neighbourhoods(d.out_adj, in_rows, q_set)
    if x_set & y_set:
        raise ValueError("in- and out-neighbourhoods of Q overlap")
    return in_rows, x_set, y_set


def component_pairing(
    d: Digraph, q_set: VertexSet, cert_q: GoodPairCert
) -> GoodPairCert | ConditionNotMet:
    """Extend a good pair of D[Q] to all of D across the X / Y partition.

    X is the in-neighbourhood and Y the out-neighbourhood of Q; they must
    be disjoint and together cover every vertex outside Q.  The pairing
    needs every terminal component of D[Y] to send two arcs into X and
    every initial component of D[X] to receive two from Y, except that one
    component on one side may make do with a single arc.  When the count
    fails on both sides the offending component is reported.
    """
    if q_set == 0 or q_set & ~d.full_mask:
        raise ValueError("Q must be a nonempty vertex set of the digraph")
    in_rows, x_set, y_set = _pairing_prologue(d, q_set, cert_q)
    if q_set == d.full_mask:
        return cert_q
    if (x_set | y_set) != d.full_mask & ~q_set:
        raise ValueError("neighbourhoods of Q must cover every external vertex")
    return _component_pairing(d, in_rows, q_set, cert_q, x_set, y_set)


def _component_pairing(
    d: Digraph,
    in_rows: Sequence[int],
    q_set: VertexSet,
    cert_q: GoodPairCert,
    x_set: VertexSet,
    y_set: VertexSet,
) -> GoodPairCert | ConditionNotMet:
    """``component_pairing`` on checked input: cert_q is a good pair of
    D[Q], in_rows are d's in-rows, and X, Y are Q's disjoint in- and
    out-neighbourhoods covering every vertex outside Q, a proper subset.
    The certificate it builds is verified here, once."""
    sides = _Sides.build(d.out_adj, in_rows, x_set, y_set)
    comps_x, comps_y = sides.comps_x, sides.comps_y
    din, dout = _cross_degrees(sides)
    ok, deficient = _check_condition(din, dout)
    if ok:
        cert = _assemble_pairing(sides, q_set, cert_q, deficient or 0)
        return _checked(d, cert, "component pairing")
    # dual orientation: allow the deficient component on the Y side
    ok, deficient = _check_condition(dout, din)
    if ok:
        rcert = _assemble_pairing(sides.reversed(), q_set, reverse_cert(cert_q), deficient or 0)
        return _checked(d, reverse_cert(rcert), "component pairing")
    # report the first offending component; without zeros, failing both
    # orientations takes two single-arc components
    if 0 in din:
        return ConditionNotMet("component of D[X] receives no arc from Y", comps_x[din.index(0)])
    if 0 in dout:
        return ConditionNotMet("component of D[Y] sends no arc into X", comps_y[dout.index(0)])
    ones_x = [i for i, v in enumerate(din) if v == 1]
    ones_y = [j for j, v in enumerate(dout) if v == 1]
    if ones_x and ones_y:
        return ConditionNotMet("deficient components on both sides", comps_x[ones_x[0]])
    if len(ones_x) > 1:
        return ConditionNotMet(
            "two components of D[X] with a single entering arc", comps_x[ones_x[1]]
        )
    return ConditionNotMet(
        "two components of D[Y] with a single leaving arc", comps_y[ones_y[1]]
    )


def _assemble_pairing(
    s: _Sides,
    q_set: VertexSet,
    cert_q: GoodPairCert,
    start: int,
    skip_direct: VertexSet = 0,
) -> GoodPairCert:
    """Condition-one assembly: the deficient component (if any) is
    ``s.comps_x[start]``.

    cert_q is numbered as ``induced_subdigraph`` numbers D[Q], Q's members
    ascending.  Vertices in ``skip_direct`` take part in the selection and
    forests but get no direct arc to or from Q; the caller supplies their
    missing arc.  The caller verifies the certificate.

    Under the degree condition it cannot fail: the selection finds every
    pick; the forests span, as every initial component of D[X] holds a
    head of p_x and every terminal one of D[Y] a tail of p_y; and Q feeds
    every y in Y and is fed by every x in X.
    """
    p_x, p_y = _alternating_selection(s, start)
    # forests inside X / Y hanging off the p_x heads / the p_y tails
    t_x = _out_forest(s.in_rows, s.x_set, mask_of(v for _, v in p_x))
    t_y = _in_forest(s.rows, s.y_set, mask_of(u for u, _ in p_y))

    vmap = tuple(bits(q_set))
    root_out, out_parent = _lift_branching(cert_q.out, vmap)
    for y in bits(s.y_set & ~skip_direct):
        q = s.in_rows[y] & q_set
        out_parent[y] = ((q & -q).bit_length() - 1, y)
    for u, v in p_x:
        out_parent[v] = (u, v)
    out_parent.update(t_x)

    root_in, in_parent = _lift_branching(cert_q.in_, vmap)
    for x in bits(s.x_set & ~skip_direct):
        q = s.rows[x] & q_set
        in_parent[x] = (x, (q & -q).bit_length() - 1)
    for u, v in p_y:
        in_parent[u] = (u, v)
    in_parent.update(t_y)

    return GoodPairCert(
        len(s.rows), Branching("out", root_out, out_parent), Branching("in", root_in, in_parent)
    )


# ---------------------------------------------------------------------------
# absorption


def absorb_external_vertices(
    d: Digraph, q_set: VertexSet, cert_q: GoodPairCert, x_set: VertexSet
) -> GoodPairCert:
    """Attach every vertex of ``x_set`` to a good pair of D[Q].

    A vertex joins once it has an in-neighbour and an out-neighbour among
    the already covered vertices: the in-arc extends the out-branching,
    the out-arc the in-branching, and neither can collide with existing
    arcs because the new vertex was untouched so far.  Each step attaches
    the lowest vertex that can join, as the pipeline does, so a vertex
    whose neighbours only appear after others joined is still absorbed.
    """
    if q_set == 0:
        raise ValueError("Q must be nonempty")
    if q_set & x_set:
        raise ValueError("Q and X must be disjoint")
    if (q_set | x_set) & ~d.full_mask:
        raise ValueError("vertex sets mention vertices >= n")
    h = _checked_subdigraph(d, q_set, cert_q)
    if x_set == 0:
        return cert_q
    target = q_set | x_set
    in_rows = _in_rows(d.n, d.out_adj)
    for _, q_set, _, cert_q in _absorb_steps(d, in_rows, q_set, h, cert_q, x_set):
        pass
    if q_set != target:
        stuck = target & ~q_set
        raise ValueError(
            f"vertex {(stuck & -stuck).bit_length() - 1} cannot be absorbed: it lacks an "
            "in- or out-neighbour among the covered vertices"
        )
    return cert_q


def _absorb_steps(
    d: Digraph,
    in_rows: Sequence[int],
    q_set: VertexSet,
    h: Digraph | None,
    cert_q: GoodPairCert,
    rest: VertexSet,
) -> Iterator[tuple[int, VertexSet, Digraph, GoodPairCert]]:
    """Absorb members of ``rest`` one at a time, the lowest one with an
    in- and an out-neighbour in Q first, until none is left that can join.

    cert_q is a good pair of D[Q] as ``induced_subdigraph`` numbers it, and
    h is that D[Q], or None to induce it at the first step, so a Q that
    absorbs nothing is never induced; in_rows are d's in-rows.  Each step
    yields the vertex v it attached and the grown Q, D[Q] and certificate.
    """
    rows = d.out_adj
    while rest:
        for v in bits(rest):
            if in_rows[v] & q_set and rows[v] & q_set:
                break
        else:
            return
        if h is None:
            h, _ = induced_subdigraph(d, q_set)
        h, cert_q = _absorb(d, in_rows, q_set, h, cert_q, v)
        q_set |= 1 << v
        rest &= ~(1 << v)
        yield v, q_set, h, cert_q


def _absorb(
    d: Digraph,
    in_rows: Sequence[int],
    q_set: VertexSet,
    h: Digraph,
    cert_q: GoodPairCert,
    v: int,
) -> tuple[Digraph, GoodPairCert]:
    """Attach v to a good pair of D[Q]: returns D[Q + v] and its good pair,
    both numbered as ``induced_subdigraph`` numbers them.

    h is D[Q] in that numbering and cert_q a good pair of h, verified by
    the caller; in_rows are d's in-rows, and v has an in- and an
    out-neighbour in Q.  D[Q + v] is h grown by one row: v's rank r is
    the number of members of Q below v, so every index from r up moves up
    one, in the rows and in the certificate alike; bit r joins the rows of
    v's in-neighbours and v's own row goes in at r.  v's lowest in- and
    out-neighbours give its parent arc in the out-branching and its
    leaving arc in the in-branching.  The new certificate is verified
    here, once.
    """
    target = q_set | 1 << v
    r = (q_set & ((1 << v) - 1)).bit_count()
    rbit = 1 << r
    low = rbit - 1
    grown = [(row & low) | (row >> r << (r + 1)) for row in h.out_adj]
    row_v = 0
    outs = d.out_adj[v] & q_set
    while outs:
        low_u = outs & -outs
        row_v |= 1 << (target & (low_u - 1)).bit_count()
        outs ^= low_u
    grown.insert(r, row_v)
    ins = in_rows[v] & q_set
    parent_in = (target & ((ins & -ins) - 1)).bit_count()
    while ins:
        low_u = ins & -ins
        grown[(target & (low_u - 1)).bit_count()] |= rbit
        ins ^= low_u
    h = Digraph(h.n + 1, tuple(grown))

    up = list(range(h.n))
    del up[r]
    out_parent = {up[x]: (up[a], up[b]) for x, (a, b) in cert_q.out.parent.items()}
    out_parent[r] = (parent_in, r)
    in_parent = {up[x]: (up[a], up[b]) for x, (a, b) in cert_q.in_.parent.items()}
    in_parent[r] = (r, (row_v & -row_v).bit_length() - 1)
    cert = GoodPairCert(
        h.n,
        Branching("out", up[cert_q.out.root], out_parent),
        Branching("in", up[cert_q.in_.root], in_parent),
    )
    bad = verify_good_pair(h, cert)
    if bad:  # pragma: no cover - attachment cannot collide
        raise AssertionError(f"absorption produced invalid certificate: {bad}")
    return h, cert


# ---------------------------------------------------------------------------
# spare vertex


def pair_with_spare_vertex(
    d: Digraph, q_set: VertexSet, cert_q: GoodPairCert, w: int
) -> GoodPairCert | ConditionNotMet:
    """Component pairing with one vertex w outside Q, X, and Y.

    If some arc runs from Y to w, that arc is deleted, w joins Y, and the
    pairing runs with the deleted arc's side allowed one deficient
    component; the deleted arc then feeds w in the out-branching.  The
    symmetric case (an arc from w into X) is handled on the reversed
    digraph.  If w sees neither Y nor X that way, w must have two
    in-neighbours in X and two out-neighbours in Y; a plain pairing plus
    one arc into w and one out of w finishes.
    """
    n = d.n
    if not 0 <= w < n:
        raise ValueError(f"vertex {w} out of range")
    if q_set >> w & 1:
        raise ValueError("w must lie outside Q")
    in_rows, x_set, y_set = _pairing_prologue(d, q_set, cert_q)
    wbit = 1 << w
    if (x_set | y_set) & wbit:
        raise ValueError("w must lie outside the neighbourhoods of Q")
    if (q_set | x_set | y_set | wbit) != d.full_mask:
        raise ValueError("Q, X, Y and w must cover the digraph")
    return _pair_with_spare_vertex(d, in_rows, q_set, cert_q, x_set, y_set, w)


def _pair_with_spare_vertex(
    d: Digraph,
    in_rows: Sequence[int],
    q_set: VertexSet,
    cert_q: GoodPairCert,
    x_set: VertexSet,
    y_set: VertexSet,
    w: int,
) -> GoodPairCert | ConditionNotMet:
    """``pair_with_spare_vertex`` on checked input: cert_q is a good pair
    of D[Q], in_rows are d's in-rows, and Q, its disjoint in- and
    out-neighbourhoods X and Y, and w partition the vertices.  The
    certificate it builds is verified here, once."""
    wbit = 1 << w
    rows = d.out_adj
    if in_rows[w] & y_set:
        got = _spare_with_feed_arc(rows, in_rows, q_set, cert_q, x_set, y_set, w)
        return _checked(d, got, "spare vertex rule")
    if rows[w] & x_set:
        got = _spare_with_feed_arc(in_rows, rows, q_set, reverse_cert(cert_q), y_set, x_set, w)
        if isinstance(got, GoodPairCert):
            got = reverse_cert(got)
        return _checked(d, got, "spare vertex rule")

    # w is seen only by X and only sees Y
    win = in_rows[w] & x_set
    wout = rows[w] & y_set
    if win.bit_count() < 2:
        return ConditionNotMet("spare vertex needs two in-neighbours in X", wbit)
    if wout.bit_count() < 2:
        return ConditionNotMet("spare vertex needs two out-neighbours in Y", wbit)
    sides = _Sides.build(rows, in_rows, x_set, y_set)
    din, dout = _cross_degrees(sides)
    if any(v < 2 for v in din):
        return ConditionNotMet(
            "component of D[X] short of entering arcs from Y", sides.comps_x[din.index(min(din))]
        )
    if any(v < 2 for v in dout):
        return ConditionNotMet(
            "component of D[Y] short of leaving arcs into X", sides.comps_y[dout.index(min(dout))]
        )
    # the assembled certificate is fresh: w's two arcs go straight into it
    cert = _assemble_pairing(sides, q_set, cert_q, 0)
    cert.out.parent[w] = ((win & -win).bit_length() - 1, w)
    cert.in_.parent[w] = (w, (wout & -wout).bit_length() - 1)
    return _checked(d, cert, "spare vertex rule")


def _spare_with_feed_arc(
    rows: Sequence[int],
    in_rows: Sequence[int],
    q_set: VertexSet,
    cert_q: GoodPairCert,
    x_set: VertexSet,
    y_set: VertexSet,
    w: int,
) -> GoodPairCert | ConditionNotMet:
    """Branch with an arc e from Y into w: delete e, treat Y + w as Y.

    The tail's component may be left with a single leaving arc, so it
    plays the deficient role and is processed first.  The deleted arc
    itself becomes w's parent in the out-branching.  The caller verifies
    the certificate and makes sure some arc runs from Y into w.  Deleting
    it keeps Q's neighbourhoods, w lying outside Q, so only the degrees
    can make an arc fail; the last arc's reason is returned.
    """
    wbit = 1 << w
    y_prime = y_set | wbit
    for v in bits(in_rows[w] & y_set):
        stripped = list(rows)
        stripped[v] &= ~wbit
        in_stripped = list(in_rows)
        in_stripped[w] &= ~(1 << v)
        sides = _Sides.build(stripped, in_stripped, x_set, y_prime)
        comps_x, comps_y = sides.comps_x, sides.comps_y
        din, dout = _cross_degrees(sides)
        ok, deficient = _check_condition(dout, din)
        if not ok:
            bad_i = next((i for i, val in enumerate(din) if val < 2), None)
            if bad_i is not None:
                last_reason = ConditionNotMet(
                    "component of D[X] short of entering arcs", comps_x[bad_i]
                )
            else:
                bad_j = [j for j, val in enumerate(dout) if val < 2]
                idx = bad_j[1] if len(bad_j) > 1 else bad_j[0]
                last_reason = ConditionNotMet(
                    "component of Y + w short of leaving arcs into X", comps_y[idx]
                )
            continue
        if deficient is None:
            start = next((j for j, c in enumerate(comps_y) if c >> v & 1), 0)
        else:
            start = deficient
        # run the condition-one assembly on the reversed stripped digraph,
        # where the deficient side sits in X as required; w gets no direct
        # Q-arc there because the deleted arc e will feed it instead
        rcert = _assemble_pairing(
            sides.reversed(), q_set, reverse_cert(cert_q), start, skip_direct=wbit
        )
        cert = reverse_cert(rcert)
        cert.out.parent[w] = (v, w)
        return cert
    return last_reason


# ---------------------------------------------------------------------------
# Hamilton paths


def longest_dipath(d: Digraph) -> Dipath:
    """A maximum-cardinality dipath (subset DP, so n is capped at 12)."""
    if d.n > 12:
        raise ValueError("longest_dipath supports n <= 12")
    n = d.n
    rows = d.out_adj
    reach = [0] * (1 << n)
    for v in range(n):
        reach[1 << v] = 1 << v
    best_mask, best_end, best_size = 1, 0, 1
    for mask in range(1, 1 << n):
        ends = reach[mask]
        if not ends:
            continue
        size = mask.bit_count()
        if size > best_size:
            best_size = size
            best_mask = mask
            best_end = (ends & -ends).bit_length() - 1
        e = ends
        while e:
            low = e & -e
            v = low.bit_length() - 1
            e ^= low
            nxt = rows[v] & ~mask
            while nxt:
                wlow = nxt & -nxt
                nxt ^= wlow
                reach[mask | wlow] |= wlow
    in_rows = _in_rows(n, rows)
    path = [best_end]
    mask = best_mask ^ (1 << best_end)
    cur = best_end
    while mask:
        prevs = in_rows[cur] & mask
        while prevs:
            low = prevs & -prevs
            u = low.bit_length() - 1
            if reach[mask] & low:
                path.append(u)
                mask ^= low
                cur = u
                break
            prevs ^= low
        else:  # pragma: no cover - DP guarantees a predecessor
            raise AssertionError("dipath reconstruction failed")
    path.reverse()
    return Dipath(tuple(path))


def hamilton_dipath(d: Digraph) -> Dipath | None:
    """A spanning dipath, or None if the digraph has none (exact, n <= 12)."""
    p = longest_dipath(d)
    return p if len(p) == d.n else None


def pair_from_hamilton(d: Digraph, p: Dipath) -> GoodPairCert | ConditionNotMet:
    """Good pair of an orientation split along a spanning dipath.

    Stripping the path must leave exactly two strong components with no
    arcs between them, and some path arc with index 2, 3, n-1, or n
    (1-based) must cross the components.  The high cases are built
    directly, the low cases on the reversal.
    """
    n = d.n
    in_stripped = _in_rows(n, d.out_adj)  # d's, until the path arcs are stripped
    if any(row & in_row for row, in_row in zip(d.out_adj, in_stripped)):
        raise ValueError("digraph must be an orientation (no digons)")
    bad = verify_dipath(d, p)
    if bad:
        raise ValueError(f"invalid dipath: {bad}")
    if len(p) != n or p.closed:
        raise ValueError("dipath must span the digraph")
    verts = p.vertices
    stripped = list(d.out_adj)
    for u, v in zip(verts, verts[1:]):
        stripped[u] &= ~(1 << v)
        in_stripped[v] &= ~(1 << u)
    dec = _strong_decomposition(n, stripped, in_stripped)
    comps = dec.components
    if len(comps) != 2:
        return ConditionNotMet(
            f"stripping the path leaves {len(comps)} strong components, need 2", 0
        )
    if not dec.terminal[0]:  # topological order: an arc can only go 0 -> 1
        return ConditionNotMet("stripped components are adjacent", comps[1])

    # the reversal strips the reversed path: the same components, rows and
    # in-rows trade places
    rverts = verts[::-1]
    tried = []
    for q in (2, 3, n - 1, n):
        if not 2 <= q <= n or q in tried:
            continue
        tried.append(q)
        if q in (n - 1, n):
            cert = _hamilton_high_case(stripped, in_stripped, comps, verts, q)
        else:
            rcert = _hamilton_high_case(in_stripped, stripped, comps, rverts, n + 2 - q)
            cert = reverse_cert(rcert) if rcert is not None else None
        if cert is not None:
            return _checked(d, cert, "hamilton split")
    return ConditionNotMet("no splitting arc with index 2, 3, n-1 or n works", 0)


def _hamilton_high_case(
    stripped: Sequence[int],
    in_stripped: Sequence[int],
    comps: Sequence[VertexSet],
    verts: tuple[int, ...],
    q: int,
) -> GoodPairCert | None:
    """q in {n-1, n}: reroute the q-th path arc, certify both components.

    ``stripped`` / ``in_stripped`` are the rows without the path arcs and
    ``comps`` their two strong components."""
    n = len(stripped)
    a, b = verts[q - 2], verts[q - 1]
    c0, c1 = comps
    comp_b, comp_a = (c0, c1) if c0 >> b & 1 else (c1, c0)
    if not comp_a >> a & 1:
        return None  # the q-th arc does not cross the components
    feeds = in_stripped[b] & comp_b
    if not feeds:
        return None  # singleton component, nothing can reach b inside it
    x = (feeds & -feeds).bit_length() - 1

    out_parent = {verts[i]: (verts[i - 1], verts[i]) for i in range(1, n)}
    out_parent[b] = (x, b)

    # the root x never takes a leaving arc, so x->b stays out of the in-forest
    t2 = _in_forest(stripped, comp_b, 1 << x)
    t1 = _in_forest(stripped, comp_a, 1 << a)
    if t2 is None or t1 is None:
        return None
    in_parent = dict(t2)
    in_parent.update(t1)
    in_parent[a] = (a, b)
    return GoodPairCert(
        n,
        Branching("out", verts[0], out_parent),
        Branching("in", x, in_parent),
    )


# ---------------------------------------------------------------------------
# the pipeline


def _digon_cert() -> GoodPairCert:
    return GoodPairCert(
        2,
        Branching("out", 0, {1: (0, 1)}),
        Branching("in", 0, {1: (1, 0)}),
    )


# the six pairs of a 4-set in lexicographic order; bit i of a 4-tournament's
# key is set when pair i points from its lower to its higher member
_PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _tournament4(key: int) -> Digraph:
    """The labelled 4-tournament with the given key."""
    rows = [0, 0, 0, 0]
    for i, (a, b) in enumerate(_PAIRS4):
        if key >> i & 1:
            rows[a] |= 1 << b
        else:
            rows[b] |= 1 << a
    return Digraph(4, tuple(rows))


def _tournament4_certs() -> tuple[GoodPairCert, ...]:
    """The exact search's good pair of each of the 64 labelled 4-tournaments,
    indexed by key; every one of them has a good pair."""
    certs = []
    for key in range(64):
        res = find_good_pair_exact(_tournament4(key))
        if res.status != "found":  # pragma: no cover - all 64 have a good pair
            raise AssertionError(f"4-tournament {key} has no good pair")
        certs.append(res.cert)
    return tuple(certs)


_TOURNAMENT4_CERTS = _tournament4_certs()


def _seed_subdigraph(
    d: Digraph, in_rows: Sequence[int]
) -> tuple[VertexSet, GoodPairCert, str] | None:
    """Smallest sub-digraph with a good pair: a digon, else 4 vertices.

    A good pair on k vertices uses 2(k - 1) distinct arcs.  Without a digon
    3 vertices carry at most 3 arcs, and 4 vertices carry 6 only when every
    two of them are joined, that is when they induce a tournament.  All 64
    labelled 4-tournaments have a good pair, so after the digon check the
    seed is the lexicographically first 4-clique of the underlying graph,
    its certificate looked up in ``_TOURNAMENT4_CERTS`` (numbered as
    ``induced_subdigraph`` numbers D[Q]) and copied, so the caller owns it.
    ``in_rows`` are the in-rows of d.
    """
    n = d.n
    rows = d.out_adj
    for u in range(n):
        both = rows[u] & in_rows[u] & ~((1 << (u + 1)) - 1)
        if both:
            v = (both & -both).bit_length() - 1
            return (1 << u) | (1 << v), _digon_cert(), f"digon {u}-{v}"
    joined = [rows[v] | in_rows[v] for v in range(n)]
    for a in range(n):
        above_a = joined[a] & ~((2 << a) - 1)
        for b in bits(above_a):
            above_b = above_a & joined[b] & ~((2 << b) - 1)
            for c in bits(above_b):
                above_c = above_b & joined[c] & ~((2 << c) - 1)
                if above_c:
                    e = (above_c & -above_c).bit_length() - 1
                    key = (
                        (rows[a] >> b & 1)
                        | (rows[a] >> c & 1) << 1
                        | (rows[a] >> e & 1) << 2
                        | (rows[b] >> c & 1) << 3
                        | (rows[b] >> e & 1) << 4
                        | (rows[c] >> e & 1) << 5
                    )
                    cert = _TOURNAMENT4_CERTS[key]
                    copy = GoodPairCert(
                        4,
                        Branching("out", cert.out.root, dict(cert.out.parent)),
                        Branching("in", cert.in_.root, dict(cert.in_.parent)),
                    )
                    mask = 1 << a | 1 << b | 1 << c | 1 << e
                    return mask, copy, "4-vertex base with 6 arcs"
    return None


def reduce_and_lift(
    d: Digraph, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[SearchResult, ReductionTrace]:
    """Find a good pair by constructive reduction, with a replayable trace.

    Pipeline: seed a small sub-digraph that has a good pair, absorb
    external vertices one at a time while possible, then close the gap
    with the component pairing or the spare-vertex rule.  Whatever remains
    goes to the exhaustive solver.  Raises ValueError for a node budget below 1
    and otherwise never; the result status mirrors the solver's ("found",
    "none", "inconclusive").

    The host's in-rows are built once, and D[Q] is induced once, when the
    first vertex is absorbed after the seed; every absorb step grows D[Q]
    by one row and verifies its certificate, so each certificate the
    pipeline builds is verified once.
    """
    if node_budget < 1:
        raise ValueError(f"node_budget must be at least 1, got {node_budget}")
    steps: list[TraceStep] = []
    n = d.n
    full = d.full_mask
    in_rows = _in_rows(n, d.out_adj)

    seeded = _seed_subdigraph(d, in_rows)
    if seeded is not None:
        q_set, cert, note = seeded
        steps.append(TraceStep("small-base", q_set, note))
        # cert is a good pair of D[Q], by the digon or the table; each
        # absorb step grows D[Q] by one row and verifies the pair it builds
        for v, q_set, _, cert in _absorb_steps(d, in_rows, q_set, None, cert, full & ~q_set):
            steps.append(TraceStep("absorb", q_set, f"attached vertex {v}"))
        if q_set == full:
            return SearchResult("found", cert, 0), ReductionTrace(steps)
        # X and Y are disjoint: a vertex in both would have been absorbed
        x_set, y_set = _neighbourhoods(d.out_adj, in_rows, q_set)
        leftover = full & ~(q_set | x_set | y_set)
        if leftover == 0:
            got = _component_pairing(d, in_rows, q_set, cert, x_set, y_set)
            if isinstance(got, GoodPairCert):
                steps.append(TraceStep("component-pairing", q_set, "X/Y partition closed"))
                return SearchResult("found", got, 0), ReductionTrace(steps)
        elif leftover.bit_count() == 1:
            w = (leftover & -leftover).bit_length() - 1
            got = _pair_with_spare_vertex(d, in_rows, q_set, cert, x_set, y_set, w)
            if isinstance(got, GoodPairCert):
                steps.append(TraceStep("spare-vertex", q_set, f"spare vertex {w}"))
                return SearchResult("found", got, 0), ReductionTrace(steps)

    res = _find_good_pair_exact(d, in_rows, node_budget=node_budget)
    steps.append(TraceStep("exact-fallback", full, res.status))
    return res, ReductionTrace(steps)
