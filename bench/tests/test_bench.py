"""Tests of the benchmark itself, not of euscat.

    python3 -m pytest bench/tests -q

The traced-run test starts real benchmark runs (about two minutes on a
2-core machine); the others take seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import compare  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = run.declared()
COUNTS = (
    "spectral.semigroup.apps",
    "chebyshev.degree_sum",
    "euclidean_gf.sesqui.calls",
    "model.exact_s_on_shell.calls",
)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _last_json(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_every_declared_workload_exists():
    assert SPEC["workloads"] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", SPEC["workloads"])
def test_inputs_depend_only_on_the_seed(name):
    make = workloads.WORKLOADS[name].inputs
    assert make(5) == make(5)
    assert make(5) != make(6)
    json.dumps(make(5))


def test_failed_ops_are_counted_not_raised():
    def op(ctx, spec):
        if spec["x"] == 1:
            raise ArithmeticError("op raised")
        return {"y": float(spec["x"])}, None

    def check(ctx, spec, outputs, keep):
        if spec["x"] == 3:
            raise ValueError("check raised")
        return spec["x"] != 2, 0.1 * spec["x"], "checked"

    fake = SimpleNamespace(new_context=dict, op=op, check=check, pass_check=lambda r: [])
    result = worker.run_passes(fake, [{"x": x} for x in range(5)], seconds=0.0)
    assert (result["attempted"], result["failed"]) == (5, 3)
    assert sorted(f["op"] for f in result["failures"]) == [1, 2, 3]
    assert worker.end_to_end(result)["rel_err_max"] == pytest.approx(0.4)


def test_pass_level_check_failure_is_reported():
    fake = SimpleNamespace(
        new_context=dict,
        op=lambda ctx, spec: ({"y": 1.0}, None),
        check=lambda ctx, spec, outputs, keep: (True, 0.5, "ok"),
        pass_check=lambda records: ["median too large"],
    )
    result = worker.run_passes(fake, [{"x": 0}], seconds=0.0)
    assert result["failed"] == 0
    assert result["failures"] == [{"pass": 0, "note": "median too large"}]


def _result(values, seed=1):
    ops = [{"spec": {"k": float(i)}, "outputs": {"t": [v, 1.0]}} for i, v in enumerate(values)]
    return {"workload": "t_scan", "seed": seed, "workers": [{"ops": ops}]}


def test_compare_reports_the_largest_relative_drift(tmp_path):
    before, after = _result([2.0, 4.0]), _result([2.0, 4.0 + 4e-9])
    assert compare.compare(before, before) == {"t": 0.0}
    assert compare.compare(before, after)["t"] == pytest.approx(1e-9)
    paths = []
    for name, data in (("a", before), ("b", after), ("c", _result([2.0, 4.0], seed=2))):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data))
    a, b, c = map(str, paths)
    assert compare.main([a, b, "--bound", "1e-8"]) == 0
    assert compare.main([a, b, "--bound", "1e-10"]) == 1
    assert compare.main([a, c]) == 2


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "gf", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_untraced_run_reports_the_end_to_end_metrics():
    done = _bench("--workload", "gf", "--seed", "3", "--seconds", "1", "--trace", "0")
    line = _last_json(done)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == SPEC["end_to_end"]
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("name", SPEC["workloads"])
def test_traced_counts_repeat_and_self_times_cover_the_ops(name):
    args = ("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = (_last_json(_bench(*args)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {k: m["unit"] for k, m in first["metrics"].items()} == SPEC["per_layer"]
    for metric, unit in SPEC["per_layer"].items():
        if unit == "count":
            assert first["metrics"][metric] == second["metrics"][metric], metric
    assert first["metrics"]["trace_coverage_frac"]["value"] >= 0.9
    busy = {m for m in COUNTS if first["metrics"][m]["value"] > 0}
    if name == "gf":
        assert busy == {"euclidean_gf.sesqui.calls"}
    else:
        assert busy == set(COUNTS) - {"euclidean_gf.sesqui.calls"}
