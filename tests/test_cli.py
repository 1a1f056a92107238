import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import steinhaus
from steinhaus import BitSeq, CeilingExceeded, CheckRecord, VerificationReport, Witness
from steinhaus import cli, ladder_ends, level_sets, level_sets_high, level_sets_low, orbit
from steinhaus import verify_all

from conftest import all_seqs, rejection


# what every command prints, on stderr, refusing size n above the ceiling
CEILING = ("error: n={} exceeds the enumeration ceiling of {}; "
           "pass force=True (CLI --force) or raise STEINHAUS_MAX_N\n")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert err == ""
    return code, json.loads(out)


class TestTriangle:
    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "triangle", "1011")
        assert code == 0
        assert "triangle weight 7" in out
        assert out.startswith("1 . 1 1\n")

    def test_single_zero(self, capsys):
        code, out, _ = run(capsys, "triangle", "0")
        assert code == 0
        assert "triangle weight 0" in out
        assert "three-row" not in out  # needs length >= 3

    def test_figure_weights(self, capsys):
        code, doc = run_json(capsys, "triangle", "0001001", "--format", "json")
        assert code == 0
        payload = doc["payload"]
        assert payload["triangle_weight"] == 14
        assert payload["s3"] == 8
        assert payload["rows"] == ["0001001", "001101", "01011", "1110", "001", "01", "1"]

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run(capsys, "triangle", "10X1")
        assert code == 2
        assert "invalid character" in err

    def test_empty_sequence_exits_2(self, capsys):
        code, _, err = run(capsys, "triangle", "")
        assert code == 2


class TestSpectrum:
    def test_csv_exact(self, capsys):
        code, out, _ = run(capsys, "spectrum", "4", "--format", "csv")
        assert code == 0
        assert out == "weight,count\n0,1\n4,3\n5,6\n6,4\n7,2\n"

    def test_csv_trivial(self, capsys):
        code, out, _ = run(capsys, "spectrum", "1", "--format", "csv")
        assert code == 0
        assert out == "weight,count\n0,1\n1,1\n"

    def test_json_derived_values(self, capsys):
        code, doc = run_json(capsys, "spectrum", "9")
        derived = doc["payload"]["derived"]
        assert derived["wm"] == 30
        assert derived["w1"] == 9
        assert derived["wm1"] == 27
        assert derived["m"] == 17
        assert doc["payload"]["counts"][0] == [0, 1]

    def test_reduced_payload_identical(self, capsys):
        _, full_doc = run_json(capsys, "spectrum", "8")
        _, reduced_doc = run_json(capsys, "spectrum", "8", "--reduced")
        assert full_doc["payload"] == reduced_doc["payload"]

    def test_ceiling_exit_2_and_force(self, capsys, monkeypatch):
        monkeypatch.setenv("STEINHAUS_MAX_N", "8")
        code, _, err = run(capsys, "spectrum", "9")
        assert code == 2 and "ceiling" in err
        code, out, _ = run(capsys, "spectrum", "9", "--format", "csv", "--force")
        assert code == 0 and out.startswith("weight,count")

    def test_worker_count_does_not_change_bytes(self, capsys):
        _, out1, _ = run(capsys, "spectrum", "10", "--workers", "1")
        _, out4, _ = run(capsys, "spectrum", "10", "--workers", "4")
        assert out1 == out4

    def test_round_trip(self, capsys):
        _, out, _ = run(capsys, "spectrum", "6")
        doc = json.loads(out)
        assert json.loads(json.dumps(doc, sort_keys=True, indent=2)) == doc


class TestLevels:
    def test_json_members(self, capsys):
        code, doc = run_json(capsys, "levels", "7", "--low", "2", "--high", "2",
                             "--format", "json")
        assert code == 0
        low = doc["payload"]["low"]
        high = doc["payload"]["high"]
        assert low[2]["weight"] == 9
        assert low[2]["members"] == ["0000010", "0001000", "0100000", "0101010"]
        assert high[0]["weight"] == 19
        assert high[1]["members"] == ["0110110"]

    def test_text_mode(self, capsys):
        code, out, _ = run(capsys, "levels", "4", "--low", "1", "--high", "0")
        assert code == 0
        assert "W_1: weight 4, 3 generators" in out

    def test_worker_determinism(self, capsys):
        args = ("levels", "9", "--low", "3", "--high", "2", "--format", "json")
        _, a, _ = run(capsys, *args, "--workers", "1")
        _, b, _ = run(capsys, *args, "--workers", "3")
        assert a == b


    def test_defaults_clamp_to_short_ladders(self, capsys):
        code, doc = run_json(capsys, "levels", "1", "--format", "json")
        assert code == 0
        assert doc["args"] == {"n": 1, "low": 1, "high": 2}
        assert [ls["index"] for ls in doc["payload"]["low"]] == [0, 1]
        assert [ls["index"] for ls in doc["payload"]["high"]] == [1, 0]

    def test_levels_beyond_the_ladder_exit_2(self, capsys):
        code, _, err = run(capsys, "levels", "4", "--low", "5")
        assert code == 2 and "k=5 exceeds the top level m=4 for n=4" in err
        code, _, err = run(capsys, "levels", "4", "--high", "6")
        assert code == 2 and "k=6 exceeds the ladder height for n=4" in err
        code, _, err = run(capsys, "levels", "4", "--low", "-1")
        assert code == 2 and "nonnegative" in err
        code, out, err = run(capsys, "levels", "4", "--low", "0", "--high", "0")
        assert code == 2 and out == "" and "need at least one level" in err

    @pytest.mark.parametrize("low, high, message", [
        (0, 0, "need at least one level"),
        (-1, 0, "level counts must be nonnegative"),
        (0, -1, "level counts must be nonnegative"),
        (5, 0, "k=5 exceeds the top level m=4 for n=4"),
        (0, 6, "k=6 exceeds the ladder height for n=4"),
    ])
    def test_library_and_cli_refuse_a_count_with_one_message(self, capsys, low, high, message):
        calls = [lambda: level_sets_low(4, low)] if high == 0 else []
        calls += [lambda: level_sets_high(4, high)] if low == 0 else []
        for call in calls:
            assert rejection(call) == (ValueError, message)
        code, out, err = run(capsys, "levels", "4", "--low", str(low), "--high", str(high))
        assert (code, out, err) == (2, "", f"error: {message}\n")


class TestMemberOrder:
    """The CLI prints members as the engines and ``orbit`` give them, in text order."""

    @staticmethod
    def assert_text_order(members):
        texts = [str(x) for x in members]
        assert texts == sorted(texts)

    @pytest.mark.parametrize("capped", [True, False], ids=["capped", "uncapped"])
    def test_level_members(self, capped):
        for n in range(1, 13):
            every = n * (n + 1) // 2 + 1  # more levels than the ladder has: both engines clamp
            cap = 3 if capped else 1 << n
            for found in (level_sets(n, every, every, cap=cap),
                          ladder_ends(n, every, every, cap=cap)):
                for ls in found.low + found.high:
                    assert ls.truncated == (ls.count > cap)
                    self.assert_text_order(ls.members)

    def test_orbit_members(self):
        for n in range(1, 11):
            for x in all_seqs(n):
                self.assert_text_order(orbit(x).members)


class TestOrbit:
    def test_members_and_canonical(self, capsys):
        code, doc = run_json(capsys, "orbit", "0001000000", "--format", "json")
        assert code == 0
        payload = doc["payload"]
        assert payload["size"] == 6
        assert payload["canonical"] == "0000001000"
        assert payload["members"] == sorted([
            "0001000000", "0000001100", "0010001000",
            "0000001000", "0011000000", "0001000100"])

    def test_bad_sequence(self, capsys):
        code, _, err = run(capsys, "orbit", "012")
        assert code == 2


class TestFamilies:
    def test_all_rows_match_at_eight(self, capsys):
        code, doc = run_json(capsys, "families", "8", "--format", "json")
        assert code == 0
        rows = doc["payload"]["rows"]
        tags = {r["family"] for r in rows}
        assert {"a1", "b6", "c4", "z3", "e0", "e7"} <= tags
        assert "u1" not in tags and "v1" not in tags
        for row in rows:
            assert row["match"] in (True, None)
            if row["family"].startswith("e") and int(row["family"][1:]) in (0, 1, 2, 3):
                assert row["match"] is True

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "families", "12")
        assert code == 0
        assert "u7" in out and "NO" not in out

    @pytest.mark.parametrize("n", ["0", "-3", "129"])
    def test_size_out_of_range_exit_2(self, capsys, n):
        code, out, err = run(capsys, "families", n)
        assert code == 2 and out == ""
        assert f"families need 1 <= n <= 128, got n={n}" in err


class TestVerify:
    def test_small_range_passes(self, capsys):
        code, doc = run_json(capsys, "verify", "--from", "4", "--to", "6",
                             "--format", "json")
        assert code == 0
        payload = doc["payload"]
        assert payload["exit_code"] == 0
        assert payload["summary"]["pass"] > 0
        statuses = {r["status"] for r in payload["records"]}
        assert statuses <= {"pass", "skipped"}
        for record in payload["records"]:
            assert set(record) == {"check", "n", "status", "detail", "witness", "elapsed"}

    def test_text_mode_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--from", "4", "--to", "4")
        assert code == 0
        assert out.strip().endswith("skipped=10") or "summary:" in out

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_bad_worker_count_exit_2(self, capsys, workers):
        # verify sweeps nothing, so it checks the count itself
        code, out, err = run(capsys, "verify", "--from", "4", "--to", "4", "--workers", workers)
        assert code == 2 and out == ""
        assert "worker count must be positive" in err

    def test_conjecture_refutation_exit_3(self, capsys, monkeypatch):
        witness = Witness(BitSeq.from_string("10010010010"), 41, 42)
        fake = VerificationReport(11, 11, (
            CheckRecord("conjecture", 11, "conjecture-refuted", "boom", witness),
            CheckRecord("level-1", 11, "pass", "ok"),
        ))
        monkeypatch.setattr("steinhaus.verify.verify_all",
                            lambda a, b, workers=None, force=False: fake)
        code, doc = run_json(capsys, "verify", "--from", "11", "--to", "11",
                             "--format", "json")
        assert code == 3
        assert doc["payload"]["records"][0]["witness"] == {
            "sequence": "10010010010", "observed": 41, "predicted": 42}

    def test_theorem_failure_exit_1(self, capsys, monkeypatch):
        witness = Witness(BitSeq.from_string("11"), 2, 3)
        fake = VerificationReport(4, 4, (
            CheckRecord("level-1", 4, "fail", "boom", witness),
            CheckRecord("conjecture", 4, "conjecture-refuted", "boom", witness),
        ))
        monkeypatch.setattr("steinhaus.verify.verify_all",
                            lambda a, b, workers=None, force=False: fake)
        code, _, _ = run(capsys, "verify")
        assert code == 1

    def test_text_output_pinned(self, capsys):
        """The text report of a passing range is fixed byte for byte."""
        code, out, _ = run(capsys, "verify", "--from", "4", "--to", "16")
        assert code == 0
        assert len(out.splitlines()) == 200
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "82bcfe93b11901a29be4a58374b4c81985cc19e29081d23c826cd8b38f4fb102")

    def test_range_error_exit_2(self, capsys):
        code, _, err = run(capsys, "verify", "--from", "6", "--to", "5")
        assert code == 2 and "empty range" in err


    def test_ceiling_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("STEINHAUS_MAX_N", "8")
        with pytest.raises(CeilingExceeded):
            verify_all(4, 9)
        code, out, err = run(capsys, "verify", "--from", "4", "--to", "9")
        assert (code, out, err) == (2, "", CEILING.format(9, 8))

    def test_default_ceiling_exit_2_without_force(self, capsys, monkeypatch):
        monkeypatch.delenv("STEINHAUS_MAX_N", raising=False)
        code, out, err = run(capsys, "verify", "--from", "31", "--to", "31")
        assert (code, out, err) == (2, "", CEILING.format(31, 30))

    @pytest.mark.parametrize("argv,line", [
        (("spectrum", "31"), CEILING.format(31, 30)),
        (("levels", "31"), CEILING.format(31, 30)),
        (("verify", "--from", "4", "--to", "31"), CEILING.format(31, 30)),
        # the largest size asked for is named, as ``levels 33`` names 33
        (("verify", "--from", "4", "--to", "33"), CEILING.format(33, 30)),
        # --force cannot pass the engine limit, so it is named first
        (("verify", "--from", "4", "--to", "70"), "error: n=70 exceeds the engine limit of 64\n"),
    ], ids=["spectrum", "levels", "verify", "verify-largest-size", "verify-past-the-engine-limit"])
    def test_every_command_refuses_a_size_with_one_message(self, capsys, monkeypatch, argv, line):
        monkeypatch.delenv("STEINHAUS_MAX_N", raising=False)
        assert run(capsys, *argv) == (2, "", line)

    def test_force_passes_the_ceiling(self, capsys, monkeypatch):
        monkeypatch.delenv("STEINHAUS_MAX_N", raising=False)
        expected = run(capsys, "verify", "--from", "9", "--to", "9")
        monkeypatch.setenv("STEINHAUS_MAX_N", "8")
        assert run(capsys, "verify", "--from", "9", "--to", "9", "--force") == expected
        assert expected[0] == 0
        assert verify_all(9, 9, force=True).exit_code == 0

    @pytest.mark.parametrize("raw", ["abc", "-5"])
    def test_bad_ceiling_variable_exit_2(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("STEINHAUS_MAX_N", raw)
        for argv in (("verify", "--from", "4", "--to", "4"), ("levels", "4"),
                     ("spectrum", "4")):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == "" and "STEINHAUS_MAX_N" in err


class TestOptimizedInterpreter:
    """Self-checks raise errors rather than assert, so ``python -O`` changes nothing."""

    @pytest.mark.parametrize("argv", [
        ("levels", "10", "--format", "json"),
        ("verify", "--from", "4", "--to", "8"),
    ])
    def test_same_output_under_dash_o(self, argv):
        env = dict(os.environ, PYTHONPATH=str(Path(steinhaus.__file__).parents[1]))
        env.pop("STEINHAUS_MAX_N", None)
        runs = [subprocess.run([sys.executable, *flags, "-m", "steinhaus.cli", *argv],
                               capture_output=True, text=True, env=env, timeout=120)
                for flags in ([], ["-O"])]
        assert runs[0].returncode == 0 and runs[0].stdout
        assert (runs[1].returncode, runs[1].stdout) == (runs[0].returncode, runs[0].stdout)


class TestColdStart:
    """A command imports only the modules it runs."""

    UNUSED = ("steinhaus.verify", "steinhaus.ends", "steinhaus.families",
              "steinhaus.triangle", "steinhaus.symmetry", "concurrent.futures", "json")

    def test_levels_and_spectrum_load_no_other_module(self, capsys):
        script = ("import sys\n"
                  "from steinhaus.cli import main\n"
                  "codes = [main(['levels', '4']), main(['spectrum', '4', '--format', 'csv'])]\n"
                  f"print(codes, [m for m in {self.UNUSED!r} if m in sys.modules])\n"
                  "sys.exit(main(['verify', '--from', '4', '--to', '4']))\n")
        env = dict(os.environ, PYTHONPATH=str(Path(steinhaus.__file__).parents[1]))
        env.pop("STEINHAUS_MAX_N", None)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=120)
        expected = "".join(run(capsys, *argv)[1] for argv in (
            ("levels", "4"), ("spectrum", "4", "--format", "csv")))
        expected += "[0, 0] []\n" + run(capsys, "verify", "--from", "4", "--to", "4")[1]
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", expected)


class TestClosedStdout:
    """A reader that stops early (``| head``) ends the run with 141 and no traceback."""

    def test_write_raising_broken_pipe_exits_141(self, capsys, monkeypatch):
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert cli.main(["levels", "16", "--format", "json"]) == 141
        monkeypatch.undo()
        assert capsys.readouterr().err == ""

    def test_pipe_without_reader_exits_141_quietly(self):
        env = dict(os.environ, PYTHONPATH=str(Path(steinhaus.__file__).parents[1]))
        env.pop("STEINHAUS_MAX_N", None)
        proc = subprocess.Popen([sys.executable, "-m", "steinhaus.cli", "levels", "8"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        proc.stdout.close()  # nobody reads, so the first write to stdout fails
        err = proc.stderr.read()
        proc.stderr.close()
        assert (proc.wait(timeout=120), err) == (141, b"")


class TestParser:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["spectrum"])
        assert exc.value.code == 2

    def test_one_parser_serves_every_call(self, capsys):
        commands = (("spectrum", "6", "--format", "csv"), ("levels", "5", "--format", "json"),
                    ("orbit", "1101"))
        # each command on a parser of its own
        fresh = []
        for argv in commands:
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, *argv))
        cli._build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:  # a usage error leaves the parser usable
            cli.main(["spectrum"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert [run(capsys, *argv) for argv in commands] == fresh
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, len(commands))

    def test_commands_run_the_function_the_module_holds(self, capsys, monkeypatch):
        run(capsys, "orbit", "1101")  # the parser is built before the swap
        monkeypatch.setattr(cli, "cmd_orbit", lambda ns: print("swapped", ns.sequence) or 0)
        assert run(capsys, "orbit", "1101") == (0, "swapped 1101\n", "")


class TestDocuments:
    @pytest.mark.parametrize("argv", [
        ("triangle", "10110", "--format", "json"),
        ("spectrum", "7"),
        ("levels", "6", "--format", "json"),
        ("orbit", "110110", "--format", "json"),
        ("families", "11", "--format", "json"),
        ("verify", "--from", "4", "--to", "5", "--format", "json"),
    ])
    def test_every_document_round_trips(self, capsys, argv):
        code, doc = run_json(capsys, *argv)
        assert doc["schema"] == 1
        assert doc["command"] == argv[0]
        assert json.loads(json.dumps(doc, sort_keys=True, indent=2)) == doc


class TestEachFormatBuildsOnlyItsOutput:
    """Text output builds no JSON document, and JSON output renders no art."""

    @staticmethod
    def counting(monkeypatch, target, name):
        calls = []
        real = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *a, **k: calls.append(a) or real(*a, **k))
        return calls

    def test_levels_builds_a_level_payload_only_for_json(self, capsys, monkeypatch):
        calls = self.counting(monkeypatch, cli, "_level_payload")
        code, out, _ = run(capsys, "levels", "8")
        assert code == 0 and out.startswith("W_0: ") and calls == []
        code, doc = run_json(capsys, "levels", "8", "--format", "json")
        assert code == 0
        assert len(calls) == len(doc["payload"]["low"]) + len(doc["payload"]["high"]) == 6

    def test_triangle_renders_only_for_text(self, capsys, monkeypatch):
        import steinhaus.triangle

        calls = self.counting(monkeypatch, steinhaus.triangle, "render")
        code, doc = run_json(capsys, "triangle", "1011", "--format", "json")
        assert code == 0 and doc["payload"]["triangle_weight"] == 7 and calls == []
        code, out, _ = run(capsys, "triangle", "1011")
        assert code == 0 and out.startswith("1 . 1 1\n") and len(calls) == 1
