"""Smoke test of the benchmark itself, at tiny shapes.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once untraced and once traced, checks that the last line
is the result object with every metric named in BENCHMARK.json and its unit,
and checks that a deliberately corrupted output is counted as a failure.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_craft()

import numpy as np  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from craft import adapter, serialization  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SECONDS = "0.3"


@pytest.fixture(autouse=True)
def isolated_root(tmp_path, monkeypatch):
    """Keep the runs' work and result files out of the checkout."""
    monkeypatch.setattr(run, "ROOT", tmp_path)


def bench(capsys, workload, trace, seed=5):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", SECONDS,
                     "--trace", str(trace)], sizes=workloads.TINY)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out.strip().splitlines()[-1]), out


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert ([(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
            == list(tracing.PER_LAYER))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    result, out = bench(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert "environment {" in out and "error_rate = 0 ratio" in out


def test_traced_run_sees_nested_calls(capsys):
    result, _ = bench(capsys, "adapt-fit", 1)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    # hosvd inside init_adapter and mode products inside grad_j are only seen
    # through the names the consumer modules imported
    assert m["linalg.truncated_svd.calls"] == 3
    assert m["adapter.grad_j.calls"] > 0
    assert m["tensor.mode_n_product.calls"] > 4 * m["adapter.grad_j.calls"]
    assert m["adapter.self_share"] + m["tensor.self_share"] > 0


def _flip_a_byte(path):
    with open(path, "r+b") as fh:
        fh.seek(os.path.getsize(path) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))


def _corrupt_writes(name):
    original = getattr(serialization, name)

    def corrupted(path, value):
        original(path, value)
        _flip_a_byte(path)
    return corrupted


def _corrupt_read(path, _read=serialization.read_craft_adapter):
    a = _read(path)
    w = a.w_original.copy()
    w.flat[0] = np.nextafter(w.flat[0], np.inf)
    return type(a)(w, a.r_initial, a.factors, a.j1, a.j2, a.j3)


def _no_progress(a, upstream, _grad_j=adapter.grad_j):
    return tuple(0.0 * g for g in _grad_j(a, upstream))


CORRUPTIONS = {
    "decompose": (serialization, "write_tucker_factors", _corrupt_writes("write_tucker_factors")),
    "train-toy": (serialization, "write_matrix", _corrupt_writes("write_matrix")),
    "checkpoint": (serialization, "read_craft_adapter", _corrupt_read),
    "adapt-fit": (adapter, "grad_j", _no_progress),
}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_corrupted_output_is_counted_as_a_failure(capsys, monkeypatch, workload):
    module, attr, replacement = CORRUPTIONS[workload]
    monkeypatch.setattr(module, attr, replacement)
    result, _ = bench(capsys, workload, 0)
    assert result["correct"] is False
    assert result["failed"] >= 1


def test_fails_without_a_source_tree(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    code = run.main(["--workload", "decompose", "--seed", "1", "--seconds", SECONDS,
                     "--trace", "0"], sizes=workloads.TINY)
    assert code != 0
    assert capsys.readouterr().out == ""
