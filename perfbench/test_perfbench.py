"""Tests of the benchmark harness at smoke size (each workload runs in seconds)."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _run(capsys, tmp_path, workload, trace, seed=3):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--smoke", "--out", str(tmp_path)]
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace, capsys, tmp_path):
    res = _run(capsys, tmp_path, workload, trace)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert res["failed"] == 0 and res["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert res["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(res["metrics"][m["name"]]["value"], (int, float))


def test_traced_runs_repeat_counts_and_unpatch_the_library(capsys, tmp_path):
    import paratorus
    from paratorus import circle, paraprod, spectral

    def bindings():
        return (spectral.analyze, circle.analyze, paratorus.solve,
                spectral.SpectralField.samples, paraprod.ParaOpHandle.__init__)

    before = bindings()
    first = _run(capsys, tmp_path, "circle_batch", trace=1)["metrics"]
    second = _run(capsys, tmp_path, "circle_batch", trace=1)["metrics"]
    assert all(a is b for a, b in zip(before, bindings()))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_failing_inputs_are_counted_not_raised(capsys, tmp_path, monkeypatch):
    import workloads

    sparse, dense = workloads.SPECS["torus_pair"]["smoke"]
    resonant = (replace(sparse, omega=(1.0, 1.0)), dense)
    runs = [workloads.run_case(c) for c in workloads.make_cases(resonant, 0)]
    assert [(r.attempted, r.failed) for r in runs] == [(1, 1), (1, 0)]
    assert "ResonantModeError" in runs[0].failures[0]

    too_large = replace(workloads.SPECS["circle_batch"]["smoke"], amplitudes=(0.05, 1.5))
    runs = [workloads.run_case(c) for c in workloads.make_cases(too_large, 0)]
    assert [(r.attempted, r.failed) for r in runs] == [(2, 0), (2, 2)]

    monkeypatch.setitem(workloads.SPECS["torus_pair"], "smoke", resonant)
    res = _run(capsys, tmp_path, "torus_pair", trace=0)
    assert res["correct"] is False
    assert (res["attempted"], res["failed"]) == (2, 1)


def test_refuses_to_run_without_the_sources(tmp_path):
    bare = tmp_path / "checkout"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
