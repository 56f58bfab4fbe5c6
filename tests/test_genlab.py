"""Generators, minimization, enumeration, canonicalization, and sweeps."""

import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from goodpairs import (
    GEN_KINDS,
    Digraph,
    GenModel,
    VerificationReport,
    arc_connectivity,
    arc_minimize,
    canonical_form,
    derive_seed,
    enumerate_small,
    parse_digraph,
    random_2arc_strong,
    reduce_and_lift,
    serialize_digraph,
    verify_theorem_sample,
)
from goodpairs import connectivity, digraph, genlab
from goodpairs.digraph import _in_rows, from_arcs

import oracles
from oracles import arc_minimize_reference, rand_digraph, repair_reference

GOLDEN = Path(__file__).parent / "data" / "generator_golden.json"


class TestDerivedSeeds:
    def test_frozen_values(self):
        assert derive_seed(0, 0) == 12035550249420947055
        assert derive_seed(0, 1) == 6791897765849424158
        assert derive_seed(42, 7) == 7974615062405353404
        assert derive_seed(2**64 - 1, 3) == 4722581856061867462

    def test_spread(self):
        seeds = {derive_seed(5, i) for i in range(1000)}
        assert len(seeds) == 1000


# random.Random seeds on |seed| and derive_seed once masked to 64 bits, so
# each of these drew the stream of another seed
BAD_SEEDS = [-1, -5, 2**64, 2**64 + 1, True, 1.0, "1", None]


class TestSeedRange:
    """A seed is an int in [0, 2^64): one stream per seed, on every path."""

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_derive_seed_rejects(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            derive_seed(seed, 0)

    @pytest.mark.parametrize("index", BAD_SEEDS)
    def test_derive_seed_rejects_index(self, index):
        # derive_seed(1, -1) drew the stream of derive_seed(1, 2**64 - 1)
        with pytest.raises(ValueError, match="index must be"):
            derive_seed(1, index)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_arc_minimize_rejects(self, seed):
        d = random_2arc_strong(GenModel("gnp-repair", 6, seed=1))
        with pytest.raises(ValueError, match="seed must be"):
            arc_minimize(d, seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_gen_model_rejects(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            GenModel("gnp-repair", 6, seed=seed)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_sweep_rejects(self, seed):
        with pytest.raises(ValueError, match="seed must be"):
            verify_theorem_sample(5, 1, seed)

    def test_range_ends_accepted(self):
        for seed in (0, 2**64 - 1):
            assert random_2arc_strong(GenModel("tournament", 6, seed=seed)).n == 6
        assert derive_seed(1, 2**64 - 1) == 7521888212171461645
        assert verify_theorem_sample(5, 1, 2**64 - 1).found == 1


class TestGenModel:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            GenModel("bogus", 6)

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="n must be"):
            GenModel("gnp-repair", 1)
        with pytest.raises(ValueError, match="n must be"):
            GenModel("gnp-repair", 63)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError, match="p must"):
            GenModel("gnp-repair", 6, p=1.5)


class TestRandom2ArcStrong:
    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_connectivity_holds(self, kind):
        for i in range(12):
            d = random_2arc_strong(GenModel(kind, 7, 0.3, derive_seed(3, i)))
            assert arc_connectivity(d)[0] >= 2

    @pytest.mark.parametrize("kind", ["oriented-gnp-repair", "tournament"])
    def test_no_digons(self, kind):
        for i in range(10):
            d = random_2arc_strong(GenModel(kind, 7, 0.3, derive_seed(4, i)))
            in_rows = _in_rows(d.n, d.out_adj)
            assert all(d.out_adj[v] & in_rows[v] == 0 for v in range(d.n))

    def test_tournament_has_every_pair(self):
        d = random_2arc_strong(GenModel("tournament", 6, seed=11))
        assert d.m == 15

    def test_deterministic(self):
        a = random_2arc_strong(GenModel("gnp-repair", 8, 0.3, 77))
        b = random_2arc_strong(GenModel("gnp-repair", 8, 0.3, 77))
        assert a == b

    def test_seed_changes_output(self):
        draws = {
            random_2arc_strong(GenModel("gnp-repair", 8, 0.3, s)).out_adj
            for s in range(8)
        }
        assert len(draws) > 1

    @pytest.mark.parametrize("kind", GEN_KINDS)
    def test_stream_pinned(self, kind):
        """sha256 of 40 digraph6 lines per (kind, n), recorded before the
        generator's flows were capped: the drawn digraphs must not move."""
        golden = json.loads(GOLDEN.read_text())
        for n, digest in golden["digests"][kind].items():
            lines = [
                serialize_digraph(
                    random_2arc_strong(
                        GenModel(kind, int(n), golden["p"], derive_seed(golden["seed"], i))
                    ),
                    "digraph6",
                )
                for i in range(golden["count"])
            ]
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, (kind, n)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError, match="fewer than 3"):
            random_2arc_strong(GenModel("gnp-repair", 2, seed=0))
        with pytest.raises(ValueError, match="tournament"):
            random_2arc_strong(GenModel("tournament", 4, seed=0))

    @pytest.mark.parametrize("n", [3, 4])
    def test_small_oriented_rejected_up_front(self, n):
        # an oriented digraph with lambda >= 2 has n - 1 >= 4: no redraw can help
        with pytest.raises(ValueError, match="oriented digraph on fewer than 5"):
            random_2arc_strong(GenModel("oriented-gnp-repair", n, seed=1))


def _start_rows(rng: random.Random, n: int, oriented: bool) -> list[int]:
    """Rows as the generator draws them, at densities from empty (never
    strong) to dense; oriented rows close no digon."""
    p = rng.choice((0.0, 0.1, 0.2, 0.35, 0.6))
    rows = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if oriented:
                if rng.random() < p:
                    if rng.getrandbits(1):
                        rows[u] |= 1 << v
                    else:
                        rows[v] |= 1 << u
            else:
                if rng.random() < p:
                    rows[u] |= 1 << v
                if rng.random() < p:
                    rows[v] |= 1 << u
    return rows


class TestRepair:
    def test_matches_per_round_reference(self):
        rng = random.Random(2718)
        non_strong = redrawn = 0
        for i in range(2000):
            n = rng.randint(3, 12)
            oriented = bool(i & 1)
            rows = _start_rows(rng, n, oriented)
            non_strong += arc_connectivity(Digraph(n, tuple(rows)), cap=1)[0] == 0
            got = genlab._repair_to_2_arc_strong(n, list(rows), oriented)
            if got is not None:
                got, in_rows = got
                assert in_rows == _in_rows(n, got), (n, rows, oriented)
            assert got == repair_reference(n, list(rows), oriented), (n, rows, oriented)
            redrawn += got is None
        assert non_strong > 500 and redrawn > 50

    def test_each_pair_proved_once(self, monkeypatch):
        """At most 2(n-1) proofs past the short-path test, one per pair,
        plus one per round that finds a deficient pair on a strong digraph
        (counted on the reference, whose per-round arc_connectivity
        answers 1 exactly then)."""
        proofs = []
        deficient_rounds = []
        prove, full_scan = connectivity._cut_below, oracles.arc_connectivity

        def counted_proof(*args):
            proofs.append(args[2:4])
            return prove(*args)

        def counted_scan(d, cap=None):
            lam, witness = full_scan(d, cap)
            deficient_rounds.append(lam == 1)
            return lam, witness

        monkeypatch.setattr(connectivity, "_cut_below", counted_proof)
        monkeypatch.setattr(oracles, "arc_connectivity", counted_scan)
        rng = random.Random(31)
        total = 0
        for i in range(300):
            n = rng.randint(3, 12)
            oriented = bool(i & 1)
            rows = _start_rows(rng, n, oriented)
            repair_reference(n, list(rows), oriented)
            proofs.clear()
            genlab._repair_to_2_arc_strong(n, list(rows), oriented)
            assert len(proofs) <= 2 * (n - 1) + sum(deficient_rounds), (n, rows, oriented)
            deficient_rounds.clear()
            total += len(proofs)
        assert total > 300  # the counter sees the scan's proofs

    @pytest.mark.parametrize("kind, most", [("tournament", 2), ("arc-minimal", 50)])
    def test_short_paths_spare_most_flows(self, monkeypatch, kind, most):
        """Mean proofs past the short-path test per n = 20 draw over 100
        draws of seed 1: the repair's pair scan, and the per-arc pass of
        an arc-minimal draw whose degree-only strip fails its lambda >= 2
        check (about 1.6 and 0.5 per arc-minimal draw; proving each pair
        that way took 38 per tournament).  A draw runs no flow capped at
        2; the only flow it runs pushes the one unit of a pair no short
        path proves."""
        proofs = []
        prove, flow = connectivity._cut_below, connectivity._max_flow

        def counted_proof(*args):
            proofs.append(args[2:4])
            return prove(*args)

        def one_unit_flow(n, adj, s, t, cap):
            assert cap == 1, "a draw ran a flow capped above 1"
            return flow(n, adj, s, t, cap)

        for module in (connectivity, genlab):
            monkeypatch.setattr(module, "_cut_below", counted_proof)
        monkeypatch.setattr(connectivity, "_max_flow", one_unit_flow)
        for i in range(100):
            random_2arc_strong(GenModel(kind, 20, 0.3, derive_seed(1, i)))
        assert len(proofs) / 100 <= most
        assert proofs or kind == "tournament"  # the counter sees the repair's proofs

    def test_repair_draws_call_no_arc_connectivity(self, monkeypatch):
        calls = []
        full_scan = genlab.arc_connectivity

        def counted(*args, **kwargs):
            calls.append(args)
            return full_scan(*args, **kwargs)

        monkeypatch.setattr(genlab, "arc_connectivity", counted)
        for kind in GEN_KINDS:  # a tournament's check runs the pair scan directly too
            for i in range(40):
                random_2arc_strong(GenModel(kind, 9, 0.3, derive_seed(1, i)))
        assert calls == []
        arc_minimize(random_2arc_strong(GenModel("tournament", 9, seed=1)), 1)
        assert calls  # arc_minimize's check passes through the counter

    @pytest.mark.parametrize(
        "kind, n, built", [("tournament", 20, 0), ("gnp-repair", 9, 1), ("arc-minimal", 20, 1)]
    )
    def test_in_rows_built_once_per_draw(self, monkeypatch, kind, n, built):
        """A tournament's in-rows are the complements of its rows, so its
        draw scans no arcs for them; a repaired draw builds them once, and
        the repair and the arc stripping keep them in step."""
        calls = []
        in_rows = digraph._in_rows

        def counted(*args):
            calls.append(args[0])
            return in_rows(*args)

        for module in (digraph, connectivity, genlab):
            monkeypatch.setattr(module, "_in_rows", counted)
        for i in range(30):
            calls.clear()
            random_2arc_strong(GenModel(kind, n, 0.3, derive_seed(13, i)))
            assert len(calls) == built, (kind, i)


class TestArcMinimize:
    def test_result_is_minimal_subset(self):
        d = random_2arc_strong(GenModel("gnp-repair", 8, 0.6, 5))
        slim = arc_minimize(d, 99)
        assert arc_connectivity(slim)[0] >= 2
        assert set(slim.arcs()) <= set(d.arcs())
        for u, v in slim.arcs():
            rows = list(slim.out_adj)
            rows[u] &= ~(1 << v)
            assert arc_connectivity(Digraph(slim.n, tuple(rows)))[0] < 2

    def test_rejects_weak_input(self):
        with pytest.raises(ValueError, match="2-arc-strong"):
            arc_minimize(Digraph(3, (0b010, 0b100, 0b001)), 0)

    def test_deterministic_in_seed(self):
        d = random_2arc_strong(GenModel("gnp-repair", 8, 0.6, 5))
        assert arc_minimize(d, 1) == arc_minimize(d, 1)

    def test_matches_flow_per_arc_reference(self):
        rng = random.Random(808)
        kinds = ("gnp-repair", "oriented-gnp-repair", "tournament")
        for i in range(200):
            n = rng.randint(5, 20)
            model = GenModel(kinds[i % 3], n, rng.uniform(0.2, 0.7), rng.getrandbits(32))
            d = random_2arc_strong(model)
            seed = rng.getrandbits(63)
            assert arc_minimize(d, seed) == arc_minimize_reference(d, seed)

    def test_degree_strip_falls_back_to_the_per_arc_pass(self, monkeypatch):
        """Over 800 arc-minimal draws with n = 9..20, the degree-only run
        leaves lambda < 2 in at least 20 (measured 35), and every draw, on
        either path, is ``arc_minimize_reference`` of the repaired digraph
        with the draw's strip seed."""
        strips = []
        strip, check = genlab._strip_arcs, genlab._two_arc_strong

        def recorded_strip(n, rows, in_rows, seed):
            strips.append([n, tuple(rows), seed, None])
            strip(n, rows, in_rows, seed)
            strips[-1].append(tuple(rows))

        def recorded_check(n, rows, in_rows):
            strips[-1][3] = check(n, rows, in_rows)
            return strips[-1][3]

        monkeypatch.setattr(genlab, "_strip_arcs", recorded_strip)
        monkeypatch.setattr(genlab, "_two_arc_strong", recorded_check)
        for i in range(800):
            random_2arc_strong(GenModel("arc-minimal", 9 + i % 12, 0.3, derive_seed(28, i)))
        assert len(strips) == 800
        for n, repaired, seed, _, stripped in strips:
            want = arc_minimize_reference(Digraph(n, repaired), seed)
            assert stripped == want.out_adj, (n, repaired, seed)
        assert sum(ok is False for _, _, _, ok, _ in strips) >= 20


class TestEnumerateSmall:
    def test_all_digraph_counts(self):
        assert sum(1 for _ in enumerate_small(3)) == 64
        assert sum(1 for _ in enumerate_small(4)) == 4096

    def test_min_arcs_filter(self):
        assert all(d.m >= 4 for d in enumerate_small(3, min_arcs=4))
        assert sum(1 for _ in enumerate_small(3, min_arcs=4)) == 22

    def test_tournament_count(self):
        ts = list(enumerate_small(3, tournaments=True))
        assert len(ts) == 8
        assert all(t.m == 3 for t in ts)

    def test_no_duplicates(self):
        seen = {d.out_adj for d in enumerate_small(4)}
        assert len(seen) == 4096

    def test_size_guards(self):
        with pytest.raises(ValueError):
            next(enumerate_small(5))
        with pytest.raises(ValueError):
            next(enumerate_small(8, tournaments=True))


class TestCanonicalForm:
    def test_invariant_under_relabeling(self):
        rng = random.Random(0)
        for _ in range(50):
            d = rand_digraph(rng, rng.randint(2, 6), rng.random())
            perm = list(range(d.n))
            rng.shuffle(perm)
            rows = [0] * d.n
            for u, v in d.arcs():
                rows[perm[u]] |= 1 << perm[v]
            assert canonical_form(d) == canonical_form(Digraph(d.n, tuple(rows)))

    def test_separates_nonisomorphic(self):
        c3 = Digraph(3, (0b010, 0b100, 0b001))
        p3 = from_arcs(3, [(0, 1), (1, 2)])
        assert canonical_form(c3) != canonical_form(p3)

    def test_class_count_n4(self):
        classes = {canonical_form(d) for d in enumerate_small(4)}
        assert len(classes) == 218

    def test_size_guard(self):
        with pytest.raises(ValueError):
            canonical_form(Digraph(8, (0,) * 8))


class TestVerificationReport:
    def test_json_fields(self):
        rep = VerificationReport(6, 5, 9, ("gnp-repair",), 1000, found=5)
        data = json.loads(rep.to_json())
        assert data["tested"] == 5 and data["found"] == 5
        assert data["failures"] == [] and data["inconclusive"] == []

    def test_artifacts_on_failures(self, tmp_path):
        bad = serialize_digraph(Digraph(3, (0b010, 0b100, 0b001)), "digraph6")
        rep = VerificationReport(6, 2, 9, ("gnp-repair",), 1000, found=1,
                                 failures=[bad])
        out = rep.write_artifacts(tmp_path / "art")
        assert (out / "report.json").exists()
        text = (out / "failures.d6").read_text().strip()
        assert parse_digraph(text).n == 3
        assert not (out / "inconclusive.d6").exists()


class TestSweep:
    def test_small_sweep_all_found(self):
        rep = verify_theorem_sample(6, 40, 17)
        assert rep.tested == 40 and rep.found == 40
        assert rep.failures == [] and rep.inconclusive == []

    def test_found_instances_are_not_serialized(self, monkeypatch):
        calls = []
        monkeypatch.setattr(genlab, "serialize_digraph", lambda *a: calls.append(a))
        assert verify_theorem_sample(6, 40, 17).found == 40
        assert calls == []

    def test_inconclusive_instances_are_reported(self, tmp_path):
        """A one-node budget leaves some n = 9 draws inconclusive; each is
        reported, and written, as the digraph6 of the digraph drawn."""
        rep = verify_theorem_sample(9, 64, 1, node_budget=1, artifact_dir=tmp_path)
        kinds = ("gnp-repair", "arc-minimal")
        drawn = [random_2arc_strong(GenModel(kinds[i % 2], 9, 0.3, derive_seed(1, i)))
                 for i in range(64)]
        stuck = [d for d in drawn if reduce_and_lift(d, node_budget=1)[0].status == "inconclusive"]
        assert rep.failures == [] and rep.found == 64 - 11
        assert [parse_digraph(text) for text in rep.inconclusive] == stuck
        assert (tmp_path / "inconclusive.d6").read_text() == "\n".join(rep.inconclusive) + "\n"

    def test_parallel_matches_serial(self):
        # 70 instances make three 32-instance chunks, so both workers start
        serial = verify_theorem_sample(6, 70, 21, jobs=1)
        parallel = verify_theorem_sample(6, 70, 21, jobs=2)
        assert serial.found == parallel.found
        assert serial.failures == parallel.failures
        assert serial.inconclusive == parallel.inconclusive

    def test_kind_cycling(self):
        rep = verify_theorem_sample(
            5, 10, 3, kinds=("gnp-repair", "oriented-gnp-repair", "tournament")
        )
        assert rep.tested == 10 and rep.found == 10

    def test_no_artifacts_when_clean(self, tmp_path):
        target = tmp_path / "clean"
        verify_theorem_sample(5, 5, 2, artifact_dir=target)
        assert not target.exists()

    def test_workers_capped_by_chunks(self, monkeypatch):
        started = []

        class Recording:
            """Stands in for the process pool: records its size, maps in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
        assert verify_theorem_sample(5, 70, 4, jobs=8).found == 70  # 3 chunks
        assert verify_theorem_sample(5, 20, 4, jobs=8).found == 20  # 1 chunk, no pool
        assert verify_theorem_sample(5, 70, 4, jobs=2).found == 70
        assert started == [3, 2]

    def test_import_starts_no_pool_machinery(self):
        """The process pool is imported only when a sweep starts one."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = (
            "import sys, goodpairs; "
            "print([m for m in ('multiprocessing', 'concurrent.futures.process') "
            "if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs"):
            verify_theorem_sample(5, 1, 0, jobs=jobs)

    def test_guards(self):
        with pytest.raises(ValueError, match="5 <= n <= 10"):
            verify_theorem_sample(4, 1, 0)
        with pytest.raises(ValueError, match="count"):
            verify_theorem_sample(6, 0, 0)
        with pytest.raises(ValueError, match="kind"):
            verify_theorem_sample(6, 1, 0, kinds=())
