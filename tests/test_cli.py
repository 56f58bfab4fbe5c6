"""End-to-end command line checks, run in process through main()."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from goodpairs import Digraph, cert_to_json, find_good_pair_exact, serialize_digraph
from goodpairs.cli import main

BI3_TEXT = "3\n0 1\n1 0\n0 2\n2 0\n1 2\n2 1\n"
C3_TEXT = "3\n0 1\n1 2\n2 0\n"


@pytest.fixture
def bi3_file(tmp_path):
    f = tmp_path / "bi3.txt"
    f.write_text(BI3_TEXT)
    return str(f)


@pytest.fixture
def c3_file(tmp_path):
    f = tmp_path / "c3.txt"
    f.write_text(C3_TEXT)
    return str(f)


class TestLambda:
    def test_plain(self, bi3_file, capsys):
        assert main(["lambda", bi3_file]) == 0
        out = capsys.readouterr().out
        assert "lambda = 2" in out and "X = {0}" in out

    def test_json_frozen(self, bi3_file, capsys):
        assert main(["lambda", "--json", bi3_file]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "lambda": 2,
            "witness": {"x_set": [0], "direction": "out", "value": 2},
        }

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(BI3_TEXT))
        assert main(["lambda", "-"]) == 0
        assert "lambda = 2" in capsys.readouterr().out

    def test_digraph6_input(self, tmp_path, capsys):
        f = tmp_path / "bi3.d6"
        f.write_text("&B\\o\n")
        assert main(["lambda", str(f)]) == 0
        assert "lambda = 2" in capsys.readouterr().out


class TestPaths:
    def test_packing(self, bi3_file, capsys):
        assert main(["paths", "--json", bi3_file, "0", "1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["value"] == 2
        assert all(p[0] == 0 and p[-1] == 1 for p in data["paths"])

    def test_bad_vertex(self, bi3_file, capsys):
        assert main(["paths", bi3_file, "0", "9"]) == 3
        assert "error:" in capsys.readouterr().err


class TestEdmonds:
    def test_branchings_found(self, bi3_file, capsys):
        assert main(["edmonds", bi3_file, "0", "2"]) == 0
        assert "2 arc-disjoint out-branchings" in capsys.readouterr().out

    def test_blocking_cut(self, c3_file, capsys):
        assert main(["edmonds", "--json", c3_file, "0", "2"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["branchings"] is None
        assert data["cut"] == {"x_set": [1], "direction": "in", "value": 1}


class TestGoodpair:
    def test_found(self, bi3_file, capsys):
        assert main(["goodpair", bi3_file]) == 0
        assert "good pair found" in capsys.readouterr().out

    def test_forced_roots(self, bi3_file, capsys):
        assert main(["goodpair", "--json", bi3_file,
                     "--root-out", "2", "--root-in", "2"]) == 0
        cert = json.loads(capsys.readouterr().out)["certificate"]
        assert cert["out"]["root"] == 2 and cert["in"]["root"] == 2

    def test_none(self, c3_file, capsys):
        assert main(["goodpair", c3_file]) == 1
        assert "no good pair" in capsys.readouterr().out

    def test_inconclusive(self, tmp_path, capsys):
        k8 = Digraph(8, tuple(0b11111111 ^ (1 << u) for u in range(8)))
        f = tmp_path / "k8.d6"
        f.write_text(serialize_digraph(k8, "digraph6") + "\n")
        assert main(["goodpair", str(f), "--budget", "1"]) == 2
        assert "inconclusive" in capsys.readouterr().out


class TestReduce:
    def test_trace_and_cert(self, tmp_path, capsys):
        assert main(["gen", "--n", "8", "--seed", "4"]) == 0
        text = capsys.readouterr().out
        f = tmp_path / "g.txt"
        f.write_text(text)
        assert main(["reduce", "--json", str(f)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"] == "found"
        assert data["certificate"]["out"]["root"] >= 0
        assert len(data["trace"]) >= 1
        assert all("rule" in s and "note" in s for s in data["trace"])

    def test_negative_instance(self, c3_file, capsys):
        assert main(["reduce", c3_file]) == 1
        out = capsys.readouterr().out
        assert "[exact-fallback]" in out and "no good pair" in out


class TestVerify:
    def test_valid(self, bi3_file, tmp_path, capsys):
        bi3 = Digraph(3, (0b110, 0b101, 0b011))
        cert = find_good_pair_exact(bi3).cert
        cf = tmp_path / "cert.json"
        cf.write_text(cert_to_json(cert))
        assert main(["verify", bi3_file, str(cf)]) == 0
        assert "certificate valid" in capsys.readouterr().out

    def test_wrong_digraph(self, c3_file, tmp_path, capsys):
        bi3 = Digraph(3, (0b110, 0b101, 0b011))
        cert = find_good_pair_exact(bi3).cert
        cf = tmp_path / "cert.json"
        cf.write_text(cert_to_json(cert))
        assert main(["verify", c3_file, str(cf)]) == 1
        assert "certificate invalid" in capsys.readouterr().out

    def test_malformed_json(self, bi3_file, tmp_path, capsys):
        cf = tmp_path / "cert.json"
        cf.write_text("{nope")
        assert main(["verify", bi3_file, str(cf)]) == 3
        assert "error:" in capsys.readouterr().err

    def test_coercible_certificate_exits_3(self, tmp_path, capsys):
        # on the bidirected path 0-1-2, int() would coerce these fields into
        # a valid good pair
        df = tmp_path / "path3.txt"
        df.write_text("3\n0 1\n1 0\n1 2\n2 1\n")
        cf = tmp_path / "cert.json"
        cf.write_text(json.dumps({
            "n": "3",
            "out": {"root": 0.9, "parent": {"1": [0, 1.7], "2": [1, 2]}},
            "in": {"root": 0, "parent": {"1": [1, 0], "2": [2, "1"]}},
        }))
        assert main(["verify", str(df), str(cf)]) == 3
        captured = capsys.readouterr()
        assert "malformed certificate object" in captured.err
        assert "certificate valid" not in captured.out

    def test_repeated_parent_key_exits_3(self, tmp_path, capsys):
        # json.loads alone keeps the last "1", which makes a valid good pair
        # of the bidirected path 0-1-2
        df = tmp_path / "path3.txt"
        df.write_text("3\n0 1\n1 0\n1 2\n2 1\n")
        cf = tmp_path / "cert.json"
        cf.write_text('{"n": 3, "out": {"root": 0, "parent": {"1": [9, 9], "1": [0, 1], '
                      '"2": [1, 2]}}, "in": {"root": 0, "parent": {"1": [1, 0], "2": [2, 1]}}}')
        assert main(["verify", str(df), str(cf)]) == 3
        captured = capsys.readouterr()
        assert "malformed certificate object: repeated key '1'" in captured.err
        assert "certificate valid" not in captured.out

    def test_parent_not_an_object(self, bi3_file, tmp_path, capsys):
        cf = tmp_path / "cert.json"
        cf.write_text(json.dumps({"n": 3, "out": {"root": 0, "parent": []},
                                  "in": {"root": 0, "parent": {}}}))
        assert main(["verify", bi3_file, str(cf)]) == 3
        assert "error:" in capsys.readouterr().err


class TestGen:
    def test_deterministic(self, capsys):
        assert main(["gen", "--n", "7", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "7", "--seed", "5"]) == 0
        assert capsys.readouterr().out == first

    def test_digraph6_format(self, capsys):
        assert main(["gen", "--n", "7", "--seed", "5", "--format", "digraph6"]) == 0
        assert capsys.readouterr().out.startswith("&")

    def test_json_fields(self, capsys):
        assert main(["gen", "--json", "--n", "6", "--seed", "1",
                     "--kind", "tournament"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "tournament" and data["n"] == 6
        assert data["arcs"] == 15

    def test_small_oriented_exits_3(self, capsys):
        # no answer to give: the request itself is impossible
        assert main(["gen", "--kind", "oriented-gnp-repair", "--n", "4", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "oriented digraph on fewer than 5 vertices" in captured.err

    def test_output_feeds_back_in(self, tmp_path, capsys):
        assert main(["gen", "--n", "6", "--seed", "9",
                     "--format", "digraph6"]) == 0
        f = tmp_path / "g.d6"
        f.write_text(capsys.readouterr().out)
        assert main(["lambda", str(f)]) == 0
        assert "lambda = " in capsys.readouterr().out


class TestProbabilityArgument:
    """--p is ASCII digits with at most one decimal point: float() would
    also read another script's digits, an underscore or a sign, and
    `gen --p ٠.٣` drew the digraph of `--p 0.3`."""

    VERBS = [["gen", "--n", "6", "--seed", "1"], ["sweep", "--n", "5", "--count", "1", "--seed", "1"]]

    @pytest.mark.parametrize("verb", VERBS)
    @pytest.mark.parametrize("text", ["٠.٣", "0.3_0", "+.3"])
    def test_rejected_with_exit_3(self, verb, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(verb + ["--p", text])
        assert exc.value.code == 3
        assert "invalid float value" in capsys.readouterr().err

    def test_decimal_spellings_accepted(self, capsys):
        assert main(self.VERBS[0]) == 0
        default = capsys.readouterr().out
        for text in ("0.3", ".3", "0.30"):
            assert main(self.VERBS[0] + ["--p", text]) == 0
            assert capsys.readouterr().out == default
        assert main(self.VERBS[0] + ["--p", "1.5"]) == 3  # GenModel's range check
        assert "p must lie in [0, 1]" in capsys.readouterr().err


class TestSweep:
    def test_clean_sweep(self, tmp_path, capsys):
        target = tmp_path / "art"
        assert main(["sweep", "--n", "5", "--count", "6", "--seed", "3",
                     "--json", "--artifact-dir", str(target)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["tested"] == 6 and data["found"] == 6
        assert not target.exists()

    def test_plain_line(self, capsys):
        assert main(["sweep", "--n", "5", "--count", "4", "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert "n=5 tested=4 found=4 failures=0 inconclusive=0" in out


class TestEnum:
    def test_all_triples(self, capsys):
        assert main(["enum", "--n", "3"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 64

    def test_tournaments(self, capsys):
        assert main(["enum", "--n", "3", "--tournaments"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8

    def test_canonical_classes(self, capsys):
        assert main(["enum", "--n", "4", "--canonical"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 218


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["lambda", "/nonexistent/x.txt"]) == 3
        assert "error:" in capsys.readouterr().err

    def test_garbage_content(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("xyzzy\n")
        assert main(["lambda", str(f)]) == 3
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("3\n0 0_1\n1 0\n1 2\n2 1\n", "line 2"),
            ("3\n0 \u0661\n1 0\n1 2\n2 1\n", "line 2"),
            ("\u0663\n0 1\n1 0\n1 2\n2 1\n", "line 1"),
            ("&AX\n", "line 1: digraph6: nonzero padding"),
        ],
    )
    def test_second_spelling_exits_3(self, text, fragment, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert main(["lambda", "-"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err

    def test_usage_error_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["goodpair"])  # missing the digraph argument
        assert exc.value.code == 3

    def test_unknown_command_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("verb", [["goodpair"], ["reduce"]])
    @pytest.mark.parametrize("budget", ["0", "-5", "many"])
    def test_bad_budget_exits_3(self, bi3_file, verb, budget, capsys):
        with pytest.raises(SystemExit) as exc:
            main(verb + [bi3_file, "--budget", budget])
        assert exc.value.code == 3
        assert "--budget" in capsys.readouterr().err

    def test_bad_sweep_budget_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "5", "--count", "1", "--seed", "1", "--budget", "0"])
        assert exc.value.code == 3

    @pytest.mark.parametrize("jobs", ["0", "-1", "two"])
    def test_bad_sweep_jobs_exits_3(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--n", "5", "--count", "1", "--seed", "1", "--jobs", jobs])
        assert exc.value.code == 3
        assert "--jobs" in capsys.readouterr().err

    def test_closed_pipe_exits_141_silently(self):
        # the output (2^21 tournaments) is far larger than a pipe buffer, so
        # closing the read end after one line makes a later write fail
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.Popen(
            [sys.executable, "-m", "goodpairs.cli", "enum", "--n", "7", "--tournaments"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
            proc.wait()
        assert first.startswith(b"&")
        assert err == b""
        assert code == 141

    def test_retired_hamilton_verb_exits_3(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("3\n0 1\n1 2\n")
        with pytest.raises(SystemExit) as exc:
            main(["hamilton", f.as_posix()])
        assert exc.value.code == 3
        assert "invalid choice: 'hamilton'" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", [["gen", "--n", "6"], ["sweep", "--n", "5", "--count", "1"]])
    def test_seed_from_2_to_the_64_exits_3(self, verb, capsys):
        # derive_seed masked it to 64 bits: sweep drew seed 1's batch for 2^64 + 1
        for seed in ("18446744073709551616", "18446744073709551617"):
            with pytest.raises(SystemExit) as exc:
                main(verb + ["--seed", seed])
            assert exc.value.code == 3
            assert "must be below 2**64" in capsys.readouterr().err

    def test_largest_seed_accepted(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen", "--n", "6", "--seed", "18446744073709551615"]) == 0
        assert main(["sweep", "--n", "5", "--count", "1", "--seed", "18446744073709551615"]) == 0

    def test_bad_gen_kind_exits_3(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--n", "6", "--seed", "1", "--kind", "nope"])
        assert exc.value.code == 3


# a command line per integer argument, "{}" marking it, and a value it takes
INT_ARGS = {
    "paths source": (["paths", "{file}", "{}", "1"], "2"),
    "paths target": (["paths", "{file}", "0", "{}"], "2"),
    "edmonds root": (["edmonds", "{file}", "{}", "2"], "1"),
    "edmonds k": (["edmonds", "{file}", "0", "{}"], "2"),
    "goodpair --root-out": (["goodpair", "{file}", "--root-out", "{}"], "2"),
    "goodpair --root-in": (["goodpair", "{file}", "--root-in", "{}"], "2"),
    "goodpair --budget": (["goodpair", "{file}", "--budget", "{}"], "10"),
    "reduce --budget": (["reduce", "{file}", "--budget", "{}"], "10"),
    "gen --n": (["gen", "--n", "{}", "--seed", "1"], "6"),
    "gen --seed": (["gen", "--n", "6", "--seed", "{}"], "12"),
    "sweep --n": (["sweep", "--n", "{}", "--count", "1", "--seed", "1"], "5"),
    "sweep --count": (["sweep", "--n", "5", "--count", "{}", "--seed", "1"], "2"),
    "sweep --seed": (["sweep", "--n", "5", "--count", "1", "--seed", "{}"], "12"),
    "sweep --jobs": (["sweep", "--n", "5", "--count", "1", "--seed", "1", "--jobs", "{}"], "1"),
    "sweep --budget": (
        ["sweep", "--n", "5", "--count", "1", "--seed", "1", "--budget", "{}"], "10"
    ),
    "enum --n": (["enum", "--n", "{}"], "3"),
    "enum --min-arcs": (["enum", "--n", "3", "--min-arcs", "{}"], "4"),
}


def _int_argv(name: str, text: str, digraph_file: str) -> list[str]:
    return [a.replace("{file}", digraph_file).replace("{}", text) for a in INT_ARGS[name][0]]


class TestIntegerArguments:
    """Integer arguments are ASCII digits: int() would also read a sign,
    an underscore or another script's digit, and run on a value the user
    did not write (`gen --seed ١` drew the digraph of seed 1)."""

    @pytest.mark.parametrize("name", sorted(INT_ARGS))
    @pytest.mark.parametrize("text", ["١", "6_0", "+1", "-3", " 1", "", "1.0"])
    def test_rejected_with_exit_3(self, bi3_file, name, text, capsys):
        with pytest.raises(SystemExit) as exc:
            main(_int_argv(name, text, bi3_file))
        assert exc.value.code == 3
        assert "invalid int value" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(INT_ARGS))
    def test_ascii_digits_accepted(self, bi3_file, name, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # a sweep writes its failures under the working directory
        assert main(_int_argv(name, INT_ARGS[name][1], bi3_file)) == 0
