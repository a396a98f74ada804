"""Tests of the benchmark itself.

Run from the root of the repository::

    PYTHONPATH=src python -m pytest repobench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repobench import common, fixture
from repobench.metrics import (END_TO_END, LAYER_MOVES, NAME_RE, PER_LAYER,
                               UNIT_RE, WORKLOADS, benchmark_spec)

ROOT = Path(__file__).resolve().parents[2]


# -- metric names -------------------------------------------------------------

def test_metric_names_and_units_are_well_formed():
    names = [n for n, *_ in END_TO_END] + [n for n, *_ in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.match(name), name
    for _, unit, *_ in END_TO_END + PER_LAYER:
        assert UNIT_RE.match(unit), unit
    assert all(NAME_RE.match(w) for w in WORKLOADS)


def test_every_layer_metric_names_what_it_moves():
    assert set(LAYER_MOVES) == {name for name, *_ in PER_LAYER}
    assert all(LAYER_MOVES.values())


def test_benchmark_json_matches_the_tables():
    recorded = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert recorded == benchmark_spec()
    setup = [m for m in recorded["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s"
    assert setup[0]["bound"] == max(m["bound"]
                                    for m in recorded["end_to_end"])


# -- seeded inputs ------------------------------------------------------------

def test_one_seed_gives_one_input_set():
    for seed in (0, 7):
        assert common.dataset_seeds(seed, 5) == common.dataset_seeds(seed, 5)
        assert common.policy_bits(seed, 23) == common.policy_bits(seed, 23)
        assert np.array_equal(fixture.images(seed, 16, salt=1),
                              fixture.images(seed, 16, salt=1))
        assert (common.serve_schedule(seed, 17.0, 10.0, 256)
                == common.serve_schedule(seed, 17.0, 10.0, 256))
    assert common.dataset_seeds(0, 5) != common.dataset_seeds(1, 5)
    assert not np.array_equal(fixture.images(0, 16, salt=1),
                              fixture.images(1, 16, salt=1))
    assert not np.array_equal(fixture.images(0, 16, salt=1),
                              fixture.images(0, 16, salt=2))
    assert (common.serve_schedule(0, 17.0, 10.0, 256)
            != common.serve_schedule(1, 17.0, 10.0, 256))


def test_schedule_shape():
    plan = common.serve_schedule(3, 20.0, 50.0, 256)
    dues = [due for due, _ in plan]
    assert dues == sorted(dues) and 0 < dues[0] and dues[-1] < 50.0
    sizes = [len(images) for _, images in plan]
    assert min(sizes) >= 1 and max(sizes) <= 8
    assert sizes.count(1) > len(sizes) / 2
    assert 800 < len(plan) < 1200          # about rate x duration
    assert all(0 <= i < 256 for _, images in plan for i in images)


def test_images_are_exact_on_the_grid():
    x = fixture.images(0, 4, salt=1)
    assert x.dtype == np.float32 and x.shape == (4, 16, 16, 3)
    assert np.array_equal(x * 64, np.round(x * 64))
    assert set(common.policy_bits(0, 100)) <= set(common.BIT_MENU)


# -- percentiles --------------------------------------------------------------

def test_percentiles_are_exact_samples():
    values = [float(v) for v in range(1, 201)]
    assert common.percentile(values, 50) == 100.0
    assert common.percentile(values, 95) == 190.0
    assert common.percentile(values[::-1], 95) == 190.0
    assert common.percentile([3.0], 99) == 3.0
    with pytest.raises(ValueError):
        common.percentile([], 50)


def test_ten_samples_beyond_rule():
    assert common.beyond(200, 95) == 10
    assert common.supported(200) == 95.0
    assert common.beyond(199, 95) == 9
    assert common.supported(199) == 90.0
    assert common.supported(1000) == 99.0
    assert common.supported(20) == 50.0
    assert common.supported(19) is None


# -- span wrapping ------------------------------------------------------------

def test_wrappers_record_and_uninstall():
    pytest.importorskip("repro")
    from repro.nn import losses
    from repro.nas import search
    from repobench.spans import SpanRecorder
    original = losses.evaluate_classifier
    recorder = SpanRecorder()
    recorder.wrap_function("repro.nn.losses", "evaluate_classifier", "eval")
    assert search.evaluate_classifier is losses.evaluate_classifier
    assert losses.evaluate_classifier is not original
    recorder.uninstall()
    assert losses.evaluate_classifier is original
    assert search.evaluate_classifier is original
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
    assert recorder.count("outer") == recorder.count("inner") == 1
    assert recorder.spans[1][3] == 0          # inner's parent is outer
    assert recorder.total("outer") >= recorder.total("inner")


# -- smoke runs ---------------------------------------------------------------

def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "repobench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=180)


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "0",
                     "--seconds", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    spec = benchmark_spec()
    wanted = spec["per_layer" if trace == "1" else "end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        value = out["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        if trace == "0":
            assert value["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "repobench", tmp_path / "repobench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "search-unit", "--seed", "0",
                     "--seconds", "2", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
