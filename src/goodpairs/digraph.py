"""Loop-free digraphs on up to 62 vertices, stored as adjacency bit rows.

Vertices are the integers ``0..n-1``.  A set of vertices is an ``int``
bitmask (type alias ``VertexSet``); bit ``i`` set means vertex ``i`` is in
the set.  With n capped at 62 every row and every vertex set fits in one
machine word, so set algebra on neighbourhoods is a couple of int ops.

A ``Digraph`` stores only out-adjacency as a tuple; in-neighbourhoods are
derived on demand by ``_in_rows``.  The generator and the pipeline build
them at most once per digraph and pass them on.  Instances are immutable
and hashable, safe to share between threads and to use as dict keys.

``_reach`` is the one traversal primitive: every "what reaches what"
question in the package, strong components included, is a reach to a
fixpoint along out-rows or in-rows (``_reaches`` stops at a target).

Two text formats are supported:

* edge-list: line 1 is the vertex count ``n`` in decimal; every following
  nonempty line is ``u v`` with ``0 <= u, v < n`` and ``u != v``, one arc
  per line, LF-terminated.  Numbers are ASCII digits ``[0-9]+``, separated
  by spaces or tabs; a line may end in CR.
* digraph6: optional ``>>digraph6<<`` header, mandatory ``&`` prefix, one
  byte ``n + 63``, then the row-major n*n adjacency matrix packed into
  6-bit groups, each group + 63 as printable ASCII; the padding bits of
  the last group are zero.

Both parsers accept one spelling per digraph, up to blank lines and the
blanks around tokens: ``int`` alone would also take ``_``, signs and
other scripts' digits, and nonzero padding would go unread.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

MAX_VERTICES = 62

# Bitmask over vertex indices 0..n-1.
VertexSet = int


class ParseError(ValueError):
    """Malformed digraph text; the message names the offending line."""


# an edge-list number: ASCII digits only, so "0_1", "+1" and "١" are malformed
_DECIMAL = re.compile(r"[0-9]+")
# blanks an edge-list line may carry around its tokens (CR for CRLF
# files), and the spaces or tabs between its two tokens
_BLANKS = " \t\r"
_SEPARATOR = re.compile(r"[ \t]+")


def _first_line(text: str) -> int:
    """The 1-based number of the line holding the first non-blank character."""
    return text[: len(text) - len(text.lstrip())].count("\n") + 1


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield the members of a vertex set in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> VertexSet:
    out = 0
    for v in vertices:
        out |= 1 << v
    return out


@dataclass(frozen=True)
class Digraph:
    """Simple loop-free digraph; ``out_adj[u]`` is the bitmask of heads of u."""

    n: int
    out_adj: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "out_adj", tuple(self.out_adj))
        if not 1 <= self.n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {self.n}")
        if len(self.out_adj) != self.n:
            raise ValueError("out_adj length must equal n")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.out_adj):
            if row & ~full:
                raise ValueError(f"adjacency row of {u} mentions vertices >= n")
            if row >> u & 1:
                raise ValueError(f"loop arc at vertex {u}")

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.out_adj)

    def has_arc(self, u: int, v: int) -> bool:
        return bool(self.out_adj[u] >> v & 1)

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs in lexicographic (tail, head) order."""
        for u, row in enumerate(self.out_adj):
            for v in bits(row):
                yield u, v

    def in_adj(self) -> tuple[int, ...]:
        """Derived in-neighbourhood rows: ``in_adj()[v]`` is the tail mask of v."""
        return tuple(_in_rows(self.n, self.out_adj))

    def out_degree(self, u: int) -> int:
        return self.out_adj[u].bit_count()

    def in_degree(self, v: int) -> int:
        bit = 1 << v
        return sum(1 for row in self.out_adj if row & bit)


def _in_rows(n: int, out_adj: tuple[int, ...] | list[int]) -> list[int]:
    rows = [0] * n
    for u in range(n):
        adj = out_adj[u]
        while adj:
            low = adj & -adj
            rows[low.bit_length() - 1] |= 1 << u
            adj ^= low
    return rows


def from_arcs(n: int, arcs: Iterable[tuple[int, int]]) -> Digraph:
    rows = [0] * n
    for u, v in arcs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"arc ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"loop arc at vertex {u}")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


@dataclass(frozen=True)
class Dipath:
    """Directed path as an ordered vertex tuple; ``closed`` marks a cycle."""

    vertices: tuple[int, ...]
    closed: bool = False

    def __len__(self) -> int:
        return len(self.vertices)

    def arcs(self) -> list[tuple[int, int]]:
        pairs = list(zip(self.vertices, self.vertices[1:]))
        if self.closed and len(self.vertices) > 1:
            pairs.append((self.vertices[-1], self.vertices[0]))
        return pairs


def verify_dipath(d: Digraph, path: Dipath) -> str | None:
    """None if the path is valid in d, else the first violated invariant."""
    seen: set[int] = set()
    for v in path.vertices:
        if not 0 <= v < d.n:
            return f"vertex {v} out of range"
        if v in seen:
            return f"vertex {v} repeated"
        seen.add(v)
    for u, v in path.arcs():
        if not d.has_arc(u, v):
            return f"missing arc ({u}, {v})"
    return None


# ---------------------------------------------------------------------------
# text formats


def parse_digraph(text: str, fmt: str | None = None) -> Digraph:
    """Parse ``text`` in the named format; None means sniff it first."""
    if fmt is None:
        fmt = sniff_format(text)
    if fmt == "edge-list":
        return _parse_edge_list(text)
    if fmt == "digraph6":
        return _parse_digraph6(text)
    raise ValueError(f"unknown format {fmt!r}")


def serialize_digraph(d: Digraph, fmt: str = "edge-list") -> str:
    if fmt == "edge-list":
        lines = [str(d.n)]
        lines.extend(f"{u} {v}" for u, v in d.arcs())
        return "\n".join(lines) + "\n"
    if fmt == "digraph6":
        return _serialize_digraph6(d)
    raise ValueError(f"unknown format {fmt!r}")


def sniff_format(text: str) -> str:
    """Guess the format from the first non-blank character."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    first = stripped[0]
    if first in "&>":
        return "digraph6"
    if first in "0123456789":
        return "edge-list"
    raise ParseError(
        f"line {_first_line(text)}: cannot determine format from leading character {first!r}"
    )


def _parse_edge_list(text: str) -> Digraph:
    lines = text.split("\n")
    head = lines[0].strip(_BLANKS)
    if not head:
        raise ParseError("line 1: expected vertex count")
    if not _DECIMAL.fullmatch(head):
        raise ParseError(f"line 1: expected vertex count, got {head!r}")
    n = int(head)
    if not 1 <= n <= MAX_VERTICES:
        raise ParseError(f"line 1: vertex count must be in 1..{MAX_VERTICES}, got {n}")
    rows = [0] * n
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip(_BLANKS)
        if not line:
            continue
        parts = _SEPARATOR.split(line)
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected 'u v', got {raw!r}")
        if not (_DECIMAL.fullmatch(parts[0]) and _DECIMAL.fullmatch(parts[1])):
            raise ParseError(f"line {lineno}: expected integers, got {raw!r}")
        u, v = int(parts[0]), int(parts[1])
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"line {lineno}: vertex out of range 0..{n - 1}")
        if u == v:
            raise ParseError(f"line {lineno}: loop arc at vertex {u}")
        rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


_D6_HEADER = ">>digraph6<<"


def _parse_digraph6(text: str) -> Digraph:
    where = f"line {_first_line(text)}: digraph6"
    s = text.strip()
    if s.startswith(_D6_HEADER):
        s = s[len(_D6_HEADER):]
    if not s.startswith("&"):
        raise ParseError(f"{where}: missing '&' prefix")
    s = s[1:]
    if not s:
        raise ParseError(f"{where}: missing vertex count byte")
    n = ord(s[0]) - 63
    if not 1 <= n <= MAX_VERTICES:
        raise ParseError(f"{where}: vertex count {n} out of range 1..{MAX_VERTICES}")
    body = s[1:]
    need = (n * n + 5) // 6
    if len(body) != need:
        raise ParseError(f"{where}: expected {need} data bytes, got {len(body)}")
    bits_acc = 0
    for ch in body:
        code = ord(ch) - 63
        if not 0 <= code < 64:
            raise ParseError(f"{where}: invalid data byte {ch!r}")
        bits_acc = bits_acc << 6 | code
    pad = 6 * need - n * n
    if bits_acc & ((1 << pad) - 1):
        raise ParseError(f"{where}: nonzero padding bits in the last data byte {body[-1]!r}")
    bits_acc >>= pad
    rows = [0] * n
    for u in range(n):
        for v in range(n):
            if bits_acc >> (n * n - 1 - (u * n + v)) & 1:
                if u == v:
                    raise ParseError(f"{where}: loop arc at vertex {u}")
                rows[u] |= 1 << v
    return Digraph(n, tuple(rows))


def _serialize_digraph6(d: Digraph) -> str:
    n = d.n
    bits_acc = 0
    for u in range(n):
        for v in range(n):
            bits_acc = bits_acc << 1 | (d.out_adj[u] >> v & 1)
    pad = (-n * n) % 6
    bits_acc <<= pad
    groups = (n * n + pad) // 6
    chars = []
    for i in range(groups - 1, -1, -1):
        chars.append(chr((bits_acc >> 6 * i & 63) + 63))
    return "&" + chr(n + 63) + "".join(chars)


# ---------------------------------------------------------------------------
# basic operations


def reverse(d: Digraph) -> Digraph:
    """The digraph with every arc flipped."""
    return Digraph(d.n, tuple(_in_rows(d.n, d.out_adj)))


def induced_subdigraph(d: Digraph, x: VertexSet) -> tuple[Digraph, tuple[int, ...]]:
    """d[x] with vertices reindexed densely.

    Returns ``(h, vmap)`` where ``vmap[i]`` is the original vertex behind
    index ``i`` of ``h``; vmap is ascending, so certificates computed on h
    lift back through it.
    """
    if x == 0:
        raise ValueError("induced subdigraph of the empty set")
    if x & ~d.full_mask:
        raise ValueError("vertex set mentions vertices >= n")
    vmap = tuple([*bits(x)])  # exact length: a resized tuple lingers on a free list
    index = {v: i for i, v in enumerate(vmap)}
    rows = []
    for v in vmap:
        row = d.out_adj[v] & x
        small = 0
        while row:
            low = row & -row
            small |= 1 << index[low.bit_length() - 1]
            row ^= low
        rows.append(small)
    return Digraph(len(vmap), tuple(rows)), vmap


def _reach(rows: Sequence[int], seen: VertexSet, full: VertexSet) -> VertexSet:
    """Vertices reachable from the set ``seen`` along ``rows``, seen included."""
    frontier = seen
    while frontier and seen != full:
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return seen


def _reaches(rows: Sequence[int], seen: VertexSet, target: VertexSet) -> bool:
    """Whether the set ``seen`` reaches some vertex of ``target`` along
    ``rows``; stops at the first layer that meets it."""
    frontier = seen
    while not seen & target:
        if not frontier:
            return False
        step = 0
        while frontier:
            low = frontier & -frontier
            step |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
    return True


@dataclass(frozen=True)
class StrongDecomposition:
    """Strong components of a digraph, condensation in topological order.

    ``components[c]`` is the vertex mask of component c, and ``comp_id[v]``
    locates v's component.  Components come by falling reach size (the
    number of vertices they reach), ties broken by lowest member.  That is
    a topological order of the condensation, since a component reaches
    strictly more vertices than any component it reaches: arcs go from
    lower to higher index, never backwards, and components of equal reach
    size are incomparable and ordered by lowest member.
    ``initial[c]`` / ``terminal[c]`` flag components with no incoming /
    no outgoing arcs from or to other components.
    """

    comp_id: tuple[int, ...]
    components: tuple[VertexSet, ...]
    initial: tuple[bool, ...]
    terminal: tuple[bool, ...]

    def initial_components(self) -> list[VertexSet]:
        return [c for c, flag in zip(self.components, self.initial) if flag]

    def terminal_components(self) -> list[VertexSet]:
        return [c for c, flag in zip(self.components, self.terminal) if flag]


def strong_decomposition(d: Digraph) -> StrongDecomposition:
    """The component of v is reach(v) & co-reach(v); it is terminal iff it
    is its own reach, initial iff it is its own co-reach."""
    return _strong_decomposition(d.n, d.out_adj, _in_rows(d.n, d.out_adj))


def _strong_decomposition(
    n: int, rows: Sequence[int], in_rows: Sequence[int]
) -> StrongDecomposition:
    """``strong_decomposition`` of the digraph with these out-rows, given
    its in-rows, which callers that already hold them pass on."""
    full = (1 << n) - 1
    found = []
    left = full
    while left:
        vbit = left & -left  # the lowest member of its component
        ahead = _reach(rows, vbit, full)
        back = _reach(in_rows, vbit, full)
        comp = ahead & back
        found.append((-ahead.bit_count(), vbit, comp, back == comp, ahead == comp))
        left &= ~comp
    found.sort()
    comp_id = [0] * n
    for c, (_, _, comp, _, _) in enumerate(found):
        for v in bits(comp):
            comp_id[v] = c
    _, _, comps, initial, terminal = zip(*found)
    return StrongDecomposition(tuple(comp_id), comps, initial, terminal)


def independence_number(d: Digraph) -> int:
    """Largest vertex set with no arc between any two members, either way."""
    if d.n > 32:
        raise ValueError("independence_number supports n <= 32")
    und = [d.out_adj[u] | row for u, row in enumerate(_in_rows(d.n, d.out_adj))]

    def grow(avail: int) -> int:
        best = 0
        while avail:
            low = avail & -avail
            v = low.bit_length() - 1
            nb = und[v] & avail
            if nb == 0:
                # v has no neighbour left: always take it
                best += 1
                avail ^= low
                continue
            take = 1 + grow(avail & ~(und[v] | low))
            skip = grow(avail ^ low)
            return best + max(take, skip)
        return best

    return grow(d.full_mask)
