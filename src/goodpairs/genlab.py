"""Instance generation and bulk verification sweeps.

Random 2-arc-strong digraphs come from a density model plus a repair loop
that patches deficient cuts one arc at a time; an optional minimization
pass then strips every arc whose removal keeps the connectivity, which
pushes instances toward the hard boundary of the property.  Exhaustive
streams cover all small digraphs and all small tournaments.

Each flow is proved once per draw.  Adding arcs never lowers a flow, so a
pair the repair has proven to carry 2 stays proven after every later
round; each round resumes the pair scan where the previous one stopped.
The repair's result is 2-arc-strong by construction, so the arc-minimal
draw strips arcs without proving lambda >= 2 again.  Most flows need not
run at all: ``connectivity._short_paths`` sees two arc-disjoint paths of
length at most 3 for most pairs, and a flow runs only where that test
fails; an n = 20 tournament draw rarely needs one.

The pair scan and the short-path test read in-rows next to the rows, and
each draw builds them at most once.  A tournament's in-row of v is the
complement of its out-row among the other vertices, so a tournament draw
builds none by scanning arcs.  A repaired draw builds them once from its
random rows; the repair then keeps them in step, one bit per added arc,
and hands them to the arc stripping of an arc-minimal draw, which keeps
them in step in turn.

``verify_theorem_sample`` drives the constructive pipeline over a seeded
batch and tallies the outcomes into a report; digraphs that end without a
certificate are kept verbatim so a failure is always reproducible.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

from .branchings import DEFAULT_NODE_BUDGET
from .connectivity import _scan_pairs, _short_paths, arc_connectivity
from .constructions import reduce_and_lift
from .digraph import MAX_VERTICES, Digraph, _in_rows, bits, serialize_digraph

GEN_KINDS = ("gnp-repair", "oriented-gnp-repair", "tournament", "arc-minimal")

_M64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _check_seed(seed: int) -> None:
    """One stream per seed: ``random.Random`` seeds on the absolute value
    and splitmix64 works modulo 2^64, so only an int in [0, 2^64) names a
    stream no other seed draws."""
    if type(seed) is not int or not 0 <= seed <= _M64:
        raise ValueError(f"seed must be an int in [0, 2**64), got {seed!r}")


def derive_seed(seed: int, index: int) -> int:
    """Stable per-instance seed; avoids correlated streams across a sweep.
    ``seed`` is an int in [0, 2^64), else ``ValueError``."""
    _check_seed(seed)
    return _splitmix64(seed ^ _splitmix64(index & _M64))


@dataclass(frozen=True)
class GenModel:
    """Recipe for one random 2-arc-strong digraph.

    kind: "gnp-repair" draws each ordered pair independently and repairs;
    "oriented-gnp-repair" draws each unordered pair and orients it, and
    the repair never closes a digon; "tournament" orients every pair and
    redraws until 2-arc-strong; "arc-minimal" is gnp-repair followed by
    the minimization pass.  seed is an int in [0, 2^64).
    """

    kind: str
    n: int
    p: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.kind not in GEN_KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if not 2 <= self.n <= MAX_VERTICES:
            raise ValueError(f"n must be between 2 and {MAX_VERTICES}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        _check_seed(self.seed)


def _repair_to_2_arc_strong(
    n: int, rows: list[int], oriented: bool
) -> tuple[list[int], list[int]] | None:
    """Add arcs across deficient cuts until every cut has two leaving arcs.

    Each round finds the first deficient pair in ``arc_connectivity``'s
    order and adds the lex-lowest missing arc over its cut.  In oriented
    mode arcs whose reversal is present are skipped; None is returned when
    only digon-closing arcs remain (caller redraws).

    Adding arcs never lowers a flow, so the pairs a round proved to carry
    2 stay proven: the next round resumes at the first pair not yet
    proven.  Its deficient pair, witness and added arc are those a scan
    from pair 0 would find.  The in-rows the scan reads are kept next to
    the rows, one bit set per added arc, and returned with them:
    ``(rows, in_rows)``, rows modified in place.
    """
    full = (1 << n) - 1
    in_rows = _in_rows(n, rows)
    start = 0
    for _ in range(2 * n * n + 4):
        lam, witness, start = _scan_pairs(n, rows, in_rows, 2, start)
        if lam >= 2:
            return rows, in_rows
        x = witness.x_set
        added = False
        for u in bits(x):
            cand = full & ~x & ~rows[u] & ~(1 << u)
            for v in bits(cand):
                if oriented and rows[v] >> u & 1:
                    continue
                rows[u] |= 1 << v
                in_rows[v] |= 1 << u
                added = True
                break
            if added:
                break
        if not added:
            return None
    raise AssertionError("repair loop failed to converge")  # pragma: no cover


def random_2arc_strong(model: GenModel) -> Digraph:
    """Draw a 2-arc-strong digraph according to the model, deterministically.

    The repair loop converges for the unrestricted model; the oriented
    models redraw (with a salted seed) when repair would need a digon,
    and tournaments redraw until the connectivity holds.
    """
    n = model.n
    kind, p = model.kind, model.p
    if n < 3:
        raise ValueError("no digraph on fewer than 3 vertices is 2-arc-strong")
    # without digons, two in- and two out-neighbours per vertex need n - 1 >= 4
    if kind in ("oriented-gnp-repair", "tournament") and n < 5:
        noun = "tournament" if kind == "tournament" else "oriented digraph"
        raise ValueError(f"no {noun} on fewer than 5 vertices is 2-arc-strong")
    full = (1 << n) - 1
    for attempt in range(1000):
        rng = random.Random(derive_seed(model.seed, attempt) if attempt else model.seed)
        draw, bit = rng.random, rng.getrandbits
        rows = [0] * n
        if kind in ("gnp-repair", "arc-minimal"):
            for u in range(n):
                for v in range(n):
                    if u != v and draw() < p:
                        rows[u] |= 1 << v
            repaired = _repair_to_2_arc_strong(n, rows, oriented=False)
        elif kind == "oriented-gnp-repair":
            for u in range(n):
                for v in range(u + 1, n):
                    if draw() < p:
                        if bit(1):
                            rows[u] |= 1 << v
                        else:
                            rows[v] |= 1 << u
            repaired = _repair_to_2_arc_strong(n, rows, oriented=True)
        else:  # tournament
            for u in range(n):
                for v in range(u + 1, n):
                    if bit(1):
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
            # each other vertex is an in- or an out-neighbour of v, not both
            in_rows = [full ^ (1 << v) ^ row for v, row in enumerate(rows)]
            repaired = (rows, in_rows) if _scan_pairs(n, rows, in_rows, 2, 0)[0] >= 2 else None
        if repaired is None:
            continue
        rows, in_rows = repaired
        if kind == "arc-minimal":
            _strip_arcs(n, rows, in_rows, bit(63))
        return Digraph(n, tuple(rows))
    raise RuntimeError(
        f"could not draw a 2-arc-strong {model.kind} digraph on {n} vertices"
    )  # pragma: no cover


def arc_minimize(d: Digraph, seed: int) -> Digraph:
    """Strip arcs (in seeded random order) while the digraph stays 2-arc-strong.

    One pass suffices for a minimal result relative to the visiting order:
    an arc is removable exactly when two arc-disjoint paths from its tail
    to its head survive its removal.  An arc whose removal would leave its
    tail with out-degree below 2 or its head with in-degree below 2 is
    kept without a flow.  An arc goes without a flow when, after its
    removal, ``connectivity._short_paths`` sees two arc-disjoint paths
    from its tail to its head of length at most 3 (a 2-path and a
    3-path avoiding its middle vertex, say); such a flow would only have
    confirmed the value 2, so the result is the same arc for arc.  Every
    other arc costs one flow capped at 2.

    The input is checked to be 2-arc-strong.  ``random_2arc_strong`` strips
    the arcs of its arc-minimal draws without that check, since the repair
    has just proved lambda >= 2 for them and a second proof would only
    repeat its flows.
    """
    lam, _ = arc_connectivity(d, cap=2)
    if lam < 2:
        raise ValueError("arc_minimize expects a 2-arc-strong digraph")
    rows = list(d.out_adj)
    _strip_arcs(d.n, rows, _in_rows(d.n, rows), seed)
    return Digraph(d.n, tuple(rows))


def _strip_arcs(n: int, rows: list[int], in_rows: list[int], seed: int) -> None:
    """``arc_minimize``'s pass, in place, on the rows and in-rows of a
    digraph known to be 2-arc-strong.

    The arcs are listed from the rows in (tail, head) order and shuffled.
    The in-rows the short-path test reads follow the rows, one bit per
    removed or restored arc; degrees are the rows' bit counts.
    """
    from .connectivity import _max_flow

    rng = random.Random(seed)
    arcs = [(u, v) for u in range(n) for v in bits(rows[u])]
    rng.shuffle(arcs)
    for u, v in arcs:
        if rows[u].bit_count() <= 2 or in_rows[v].bit_count() <= 2:
            continue
        rows[u] ^= 1 << v
        in_rows[v] ^= 1 << u
        if _short_paths(rows, in_rows, u, v, 2):
            continue
        if _max_flow(n, rows, u, v, cap=2)[0] < 2:
            rows[u] |= 1 << v
            in_rows[v] |= 1 << u


# ---------------------------------------------------------------------------
# exhaustive small streams


def enumerate_small(n: int, *, tournaments: bool = False, min_arcs: int = 0):
    """Yield every labeled digraph on n vertices (n <= 4), or every
    tournament (n <= 7), in a fixed order."""
    if tournaments:
        if n > 7:
            raise ValueError("tournament enumeration supports n <= 7")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            rows = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    rows[u] |= 1 << v
                else:
                    rows[v] |= 1 << u
            if len(pairs) >= min_arcs:
                yield Digraph(n, tuple(rows))
    else:
        if n > 4:
            raise ValueError("full enumeration supports n <= 4")
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for mask in range(1 << len(pairs)):
            if mask.bit_count() < min_arcs:
                continue
            rows = [0] * n
            for i, (u, v) in enumerate(pairs):
                if mask >> i & 1:
                    rows[u] |= 1 << v
            yield Digraph(n, tuple(rows))


def canonical_form(d: Digraph) -> tuple[int, ...]:
    """Lexicographically least adjacency rows over all vertex relabelings.

    Two digraphs are isomorphic exactly when their forms agree.  Factorial
    cost, so n is capped at 7; meant for classifying small failure sets,
    not for deduplicating big streams.
    """
    if d.n > 7:
        raise ValueError("canonical_form supports n <= 7")
    n = d.n
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        rows = [0] * n
        for u in range(n):
            r = d.out_adj[u]
            nr = 0
            while r:
                low = r & -r
                r ^= low
                nr |= 1 << perm[low.bit_length() - 1]
            rows[perm[u]] = nr
        t = tuple(rows)
        if best is None or t < best:
            best = t
    return best


# ---------------------------------------------------------------------------
# sweeps


@dataclass
class VerificationReport:
    """Outcome tally of a seeded sweep; failures are kept reproducible."""

    n: int
    requested: int
    seed: int
    kinds: tuple[str, ...]
    node_budget: int
    found: int = 0
    failures: list[str] = field(default_factory=list)
    inconclusive: list[str] = field(default_factory=list)

    @property
    def tested(self) -> int:
        return self.found + len(self.failures) + len(self.inconclusive)

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.n,
                "requested": self.requested,
                "seed": self.seed,
                "kinds": list(self.kinds),
                "node_budget": self.node_budget,
                "tested": self.tested,
                "found": self.found,
                "failures": self.failures,
                "inconclusive": self.inconclusive,
            },
            indent=2,
        )

    def write_artifacts(self, directory: str | Path) -> Path:
        """Write report.json (plus failure digraphs, one per line) and
        return the directory."""
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        (path / "report.json").write_text(self.to_json() + "\n")
        if self.failures:
            (path / "failures.d6").write_text("\n".join(self.failures) + "\n")
        if self.inconclusive:
            (path / "inconclusive.d6").write_text("\n".join(self.inconclusive) + "\n")
        return path


_SWEEP_CHUNK = 32  # instances per task sent to a worker process


def _sweep_case(args: tuple[int, str, float, int, int]) -> tuple[str, str]:
    n, kind, p, seed, node_budget = args
    d = random_2arc_strong(GenModel(kind, n, p, seed))
    res, _ = reduce_and_lift(d, node_budget=node_budget)
    return res.status, serialize_digraph(d, "digraph6")


def verify_theorem_sample(
    n: int,
    count: int,
    seed: int,
    *,
    kinds: tuple[str, ...] = ("gnp-repair", "arc-minimal"),
    p: float = 0.3,
    jobs: int = 1,
    node_budget: int = DEFAULT_NODE_BUDGET,
    artifact_dir: str | Path | None = None,
) -> VerificationReport:
    """Certify ``count`` seeded 2-arc-strong digraphs on n vertices.

    Instances cycle through ``kinds``; each gets its own seed derived from
    ``seed`` (an int in [0, 2^64), as ``derive_seed`` takes), so the batch
    is reproducible arc for arc and independent of ``jobs``, the number of
    worker processes (at most one per 32-instance chunk).
    Digraphs without a certificate land in the report (and on disk when
    ``artifact_dir`` is given).  For n <= 9 the theorem says every
    2-arc-strong digraph has a good pair, so an empty ``failures`` list is
    the expected outcome there.  n = 10 lies outside the theorem: a
    2-arc-strong digraph on 10 vertices can lack a good pair (one is
    pinned in ``tests/data/no_good_pair_n10.json``), so a failure at
    n = 10 need not be a fault.
    """
    if not 5 <= n <= 10:
        raise ValueError("sweeps cover 5 <= n <= 10")
    if count < 1:
        raise ValueError("count must be positive")
    if not kinds:
        raise ValueError("at least one generator kind is required")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cases = [
        (n, kinds[i % len(kinds)], p, derive_seed(seed, i), node_budget)
        for i in range(count)
    ]
    # a forking pool starts every worker at once: no more than there are chunks
    workers = min(jobs, -(-count // _SWEEP_CHUNK))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_sweep_case, cases, chunksize=_SWEEP_CHUNK))
    else:
        results = [_sweep_case(c) for c in cases]
    report = VerificationReport(n, count, seed, tuple(kinds), node_budget)
    for status, d6 in results:
        if status == "found":
            report.found += 1
        elif status == "none":
            report.failures.append(d6)
        else:
            report.inconclusive.append(d6)
    if artifact_dir is not None and (report.failures or report.inconclusive):
        report.write_artifacts(artifact_dir)
    return report
