"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded at the boundaries between the package's modules by
rebinding, in the calling module, the name of the function that module
calls in the next one.  Nothing under ``src/`` changes: the wrappers live
here and are removed again when the traced phase ends.

Each span has a name, a start and an end (``perf_counter_ns``), the index
of the span open when it began (-1 for none) and the id of the instance
being processed.  The five columns are ``array('q')`` so that a traced
certify run with a million spans stays within tens of megabytes; they are
written out as one binary file plus a JSON header when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name): every call the pipeline makes across a
# layer boundary, plus the constructive stages that reduce_and_lift
# dispatches to inside the constructions module.  arc_minimize reaches
# connectivity._max_flow through a function-local import, so its flows
# stay inside the genlab.arc_minimize span.  The rules in RULES also count
# the calls that returned a certificate.
BOUNDARIES = (
    ("genlab", "arc_connectivity", "connectivity.arc_connectivity"),
    ("genlab", "arc_minimize", "genlab.arc_minimize"),
    ("constructions", "induced_subdigraph", "digraph.induced_subdigraph"),
    ("constructions", "verify_good_pair", "branchings.verify_good_pair"),
    ("constructions", "find_good_pair_exact", None),  # seed or fallback, see below
    ("constructions", "absorb_external_vertices", "constructions.absorb"),
    ("constructions", "component_pairing", "constructions.pairing"),
    ("constructions", "pair_with_spare_vertex", "constructions.spare_vertex"),
    ("constructions", "hamilton_dipath", "constructions.hamilton_dipath"),
    ("constructions", "pair_from_hamilton", "constructions.pair_from_hamilton"),
)

RULES = ("component_pairing", "pair_with_spare_vertex", "pair_from_hamilton")
SEED_SEARCH = "branchings.exact_seed"
FALLBACK_SEARCH = "branchings.exact_fallback"

SPAN_FIELDS = ("name", "start", "end", "parent", "instance")


class Tracer:
    """Records spans while installed; counts outcomes at the same boundaries.

    The benchmark sets ``instance`` before each instance and ``instance_n``
    to the vertex count of the workload's instances: an exact search on a
    smaller digraph is a seed-scan search on a proper sub-digraph, one on
    the whole instance is the fallback.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {f: array("q") for f in SPAN_FIELDS}
        self._stack = [-1]
        self.instance = -1
        self.instance_n = 0
        # outcome counts: hits per rule and fallback search nodes
        self.hits: Counter[str] = Counter()
        self.fallback_nodes: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span named ``name``."""
        nid = self.name_id(name)
        cols = self.cols
        c_name, c_start, c_end = cols["name"], cols["start"], cols["end"]
        c_parent, c_inst = cols["parent"], cols["instance"]
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(c_name)
            c_name.append(nid)
            c_parent.append(stack[-1])
            c_inst.append(self.instance)
            c_end.append(0)
            stack.append(i)
            c_start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                c_end[i] = clock()
                stack.pop()

        return traced

    def _rule(self, name: str, fn, cert_type: type):
        wrapped = self.span(name, fn)
        hits = self.hits

        def call(*args, **kwargs):
            out = wrapped(*args, **kwargs)
            if isinstance(out, cert_type):
                hits[name] += 1
            return out

        return call

    def _exact_search(self, fn):
        seed = self.span(SEED_SEARCH, fn)
        fallback = self.span(FALLBACK_SEARCH, fn)
        hits = self.hits

        def call(d, *args, **kwargs):
            if d.n < self.instance_n:
                res = seed(d, *args, **kwargs)
                if res.status == "found":
                    hits[SEED_SEARCH] += 1
            else:
                res = fallback(d, *args, **kwargs)
                self.fallback_nodes.append(res.nodes)
            return res

        return call

    def install(self, modules: dict[str, object]) -> None:
        """Rebind every boundary name in ``modules`` (short name -> module)."""
        from goodpairs import GoodPairCert

        for mod_name, attr, span_name in BOUNDARIES:
            module = modules[mod_name]
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            if span_name is None:
                wrapped = self._exact_search(fn)
            elif attr in RULES:
                wrapped = self._rule(span_name, fn, GoodPairCert)
            else:
                wrapped = self.span(span_name, fn)
            setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def write(self, stem: Path, header: dict) -> None:
        """Write ``<stem>.bin`` (the five columns, int64, one after another)
        and ``<stem>.json`` (names, span count, column order, ``header``)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".bin"), "wb") as f:
            for field in SPAN_FIELDS:
                self.cols[field].tofile(f)
        meta = dict(header, names=self.names, spans=len(self.cols["name"]), fields=SPAN_FIELDS)
        stem.with_suffix(".json").write_text(json.dumps(meta, indent=1) + "\n")


def read_spans(stem: Path) -> tuple[dict, dict[str, array]]:
    """The header and columns written by ``Tracer.write``."""
    meta = json.loads(stem.with_suffix(".json").read_text())
    cols = {}
    with open(stem.with_suffix(".bin"), "rb") as f:
        for field in meta["fields"]:
            col = array("q")
            col.fromfile(f, meta["spans"])
            cols[field] = col
    return meta, cols


def self_times(cols: dict[str, array], lo: int = 0, hi: int | None = None) -> list[int]:
    """Self time (ns) of spans ``lo..hi``: duration minus the time covered by
    child spans.  Spans are single-threaded and properly nested, so the
    children of a span never overlap and their durations simply add up."""
    hi = len(cols["name"]) if hi is None else hi
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    own = [end[i] - start[i] for i in range(lo, hi)]
    for i in range(lo, hi):
        p = parent[i]
        if p >= lo:
            own[p - lo] -= end[i] - start[i]
    return own


def covered_ns(cols: dict[str, array], lo: int = 0, hi: int | None = None) -> int:
    """Wall time covered by spans ``lo..hi``: the union of the outermost ones."""
    hi = len(cols["name"]) if hi is None else hi
    start, end, parent = cols["start"], cols["end"], cols["parent"]
    return sum(end[i] - start[i] for i in range(lo, hi) if parent[i] < lo)
