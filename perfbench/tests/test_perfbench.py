"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench.common import (  # noqa: E402
    BenchError,
    bootstrap,
    quantile,
    seeded_bench,
    tail_percentile,
)
from perfbench.layers import layer_metrics  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END,
    WORKLOADS,
    benchmark_json,
    per_layer_names,
)

bootstrap()

RUN = [sys.executable, str(ROOT / "perfbench" / "run.py")]


def _result(stdout: str) -> dict:
    last = stdout.strip().splitlines()[-1]
    return json.loads(last)


def test_benchmark_json_matches_the_metric_tables():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == benchmark_json()
    names = [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in on_disk["workloads"])
    assert all(m["bound"] <= 0.25 for m in on_disk["end_to_end"])


def test_every_layer_metric_has_a_value_even_with_no_spans():
    assert list(layer_metrics([], [], {}, {}, {})) == per_layer_names()


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_equal_benchmark_json(trace):
    proc = subprocess.run(
        RUN + ["--workload", "autotune-sweep", "--seed", "3", "--seconds", "0",
               "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = benchmark_json()["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec}
    assert result["correct"] and result["failed"] == 0


def test_workload_names_equal_benchmark_json():
    from perfbench.run import MODULES

    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(MODULES) == set(WORKLOADS) == {w["name"] for w in on_disk["workloads"]}


def test_tail_percentile_refuses_fewer_than_ten_samples_beyond():
    with pytest.raises(BenchError):
        tail_percentile([float(i) for i in range(99)], 90)
    assert tail_percentile([float(i) for i in range(100)], 90) == pytest.approx(
        quantile(range(100), 0.9))
    with pytest.raises(BenchError):
        tail_percentile([1.0] * 19, 50)


def _served_body(bench) -> bytes:
    """A response body as the server encodes it, for a direct launch."""
    from repro.gpusim.launch import launch
    from repro.serve.protocol import encode_result

    result = launch(bench.kernel, bench.grid, bench.block_size, bench.make_args(),
                    const_arrays=bench.const_arrays())
    return json.dumps(encode_result(result, key="k", coalesced=False)).encode()


def test_corrupted_response_buffer_is_counted_as_failed():
    from perfbench.serve_mix import check_response, decode_array, encode_array

    bench = seeded_bench("CFD", 7)
    raw = _served_body(bench)
    ok, reason, _ = check_response(bench, 200, raw)
    assert ok and reason is None

    response = json.loads(raw)
    out = decode_array(response["buffers"]["out"]).copy()
    out[3] += 1.0
    response["buffers"]["out"] = encode_array(out)
    ok, reason, _ = check_response(bench, 200, json.dumps(response).encode())
    assert not ok and "reference" in reason

    ok, reason, _ = check_response(bench, 503, b'{"ok": false}')
    assert not ok and "503" in reason


def test_seeded_inputs_repeat_per_seed_and_differ_across_seeds():
    a, b, c = seeded_bench("MV", 5), seeded_bench("MV", 5), seeded_bench("MV", 6)
    assert np.array_equal(a.a, b.a)
    assert not np.array_equal(a.a, c.a)


def test_bare_benchmark_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-scale", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_setup_s_has_the_largest_bound():
    assert END_TO_END["setup_s"][:2] == ("s", "lower")
    assert END_TO_END["setup_s"][2] == max(spec[2] for spec in END_TO_END.values())
