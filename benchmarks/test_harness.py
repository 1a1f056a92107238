"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout: python3 -m pytest -q benchmarks
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
from tracing import Tracer
from workloads import WORKLOADS, check_output

TINY_ARGV = {
    "spectrum": ("spectrum", "8", "--format", "csv"),
    "levels": ("levels", "8"),
    "verify": ("verify", "--from", "4", "--to", "6"),
}
TINY_SIZES = {"spectrum": (8,), "levels": (8,), "verify": (4, 5, 6)}


@pytest.fixture(scope="module")
def st():
    return run.import_package()


def _stdout(st, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert st.cli.main([*argv, "--workers", "2"]) == 0
    return out.getvalue()


def _tiny(st, name: str, digest: str | None = None):
    argv = TINY_ARGV[name]
    if digest is None:
        digest = hashlib.sha256(_stdout(st, argv).encode()).hexdigest()
    return dataclasses.replace(WORKLOADS[name], name=f"tiny-{name}", argv=argv,
                               sizes=TINY_SIZES[name], digest=digest)


def _run(wl, trace: int, tmp_path, monkeypatch, capsys) -> tuple[str, dict]:
    monkeypatch.setattr(run, "RESULTS", tmp_path)
    args = argparse.Namespace(seed=7, seconds=0.0, trace=trace)
    assert run.run_one(args, wl) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.splitlines()[-1])


def _declared():
    with open(run.ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


@pytest.mark.parametrize("name", sorted(TINY_ARGV))
def test_every_metric_printed_with_unit(st, name, tmp_path, monkeypatch, capsys):
    end_to_end, per_layer = _declared()
    for trace, printed, final in ((0, run.END_TO_END_UNITS, end_to_end),
                                  (1, run.PER_LAYER_UNITS, per_layer)):
        out, last = _run(_tiny(st, name), trace, tmp_path, monkeypatch, capsys)
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
        for metric, unit in printed.items():
            assert any(line.split()[:1] == [metric] and line.split()[2] == unit
                       for line in out.splitlines()), metric
        assert {k: v["unit"] for k, v in last["metrics"].items()} == final
        saved = json.loads(next(tmp_path.glob(f"BENCH_tiny-{name}_*trace{trace}.json"))
                           .read_text())
        assert saved["provenance"]["workers"] == len(os.sched_getaffinity(0))
        assert "chunk" in saved["provenance"]


def test_traced_layers_sum_to_the_operation(st, tmp_path, monkeypatch, capsys):
    _, last = _run(_tiny(st, "verify"), 1, tmp_path, monkeypatch, capsys)
    m = {k: v["value"] for k, v in last["metrics"].items()}
    assert m["trace.self_sum_ratio"] == pytest.approx(1.0, abs=0.05)
    assert m["spectrum.hist_calls"] > 0 and m["verify.records"] > 0
    assert m["spectrum.sweep_ratio"] > 1


def test_wrappers_restored_after_traced_run(st, tmp_path, monkeypatch, capsys):
    before = [dict(vars(st.cli)), dict(vars(st.verify))]
    _run(_tiny(st, "levels"), 1, tmp_path, monkeypatch, capsys)
    assert [dict(vars(st.cli)), dict(vars(st.verify))] == before
    with pytest.raises(RuntimeError):
        with Tracer().installed(st.cli, st.verify):
            assert st.cli.full_spectrum is not before[0]["full_spectrum"]
            raise RuntimeError
    assert [dict(vars(st.cli)), dict(vars(st.verify))] == before


def test_wrong_output_counts_as_failed(st, tmp_path, monkeypatch, capsys):
    _, last = _run(_tiny(st, "spectrum", digest="0" * 64), 0, tmp_path, monkeypatch,
                   capsys)
    # warm-up + k timed operations fail; the k set-up samples pass
    assert not last["correct"] and last["failed"] == (last["attempted"] + 1) // 2 > 0

    rng = random.Random(1)
    good = _stdout(st, TINY_ARGV["spectrum"])
    spectrum = dataclasses.replace(WORKLOADS["spectrum"], sizes=(8,), digest=None)
    assert check_output(spectrum, 0, good, rng) == []
    assert check_output(spectrum, 0, good.replace("\n0,1\n", "\n0,2\n"), rng)
    levels = dataclasses.replace(WORKLOADS["levels"], sizes=(8,), digest=None)
    text = _stdout(st, TINY_ARGV["levels"])
    assert check_output(levels, 0, text, rng) == []
    assert check_output(levels, 0, text.replace(" 1 generators", " 2 generators"), rng)
    assert check_output(levels, 1, text, rng) == ["exit code 1"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "spectrum",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
