"""BENCH_serve schema + load generator + gate integration."""

import json

import pytest

from repro.obs.gate import gate_file
from repro.obs.schema import validate_bench, validate_bench_file
from repro.serve.bench import (BENCH_SCHEMA_VERSION, RECORD_FIELDS,
                               append_bench_record, measure_serving)


@pytest.fixture(scope="module")
def serve_record(serve_artifact_path):
    """One real (tiny) load-generator run, reused by every schema test."""
    return measure_serving(artifact_path=serve_artifact_path,
                           image_size=8, n_requests=24, n_clients=4,
                           max_batch=4)


class TestMeasure:
    def test_record_is_complete_and_valid(self, serve_record):
        for field in RECORD_FIELDS:
            assert field in serve_record, field
        assert validate_bench({"schema": BENCH_SCHEMA_VERSION,
                               "runs": [serve_record]},
                              "BENCH_serve.json") == []

    def test_measures_are_sane(self, serve_record):
        assert serve_record["n_requests"] == 24
        assert serve_record["seq_ips"] > 0
        assert serve_record["conc_ips"] > 0
        assert 1.0 <= serve_record["mean_batch"] <= 4.0
        assert serve_record["shed"] == 0
        assert serve_record["timeouts"] == 0
        assert isinstance(serve_record["host_limited"], bool)
        assert serve_record["host"]["cpus"] >= 1


class TestAppend:
    def test_append_creates_and_extends(self, serve_record, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        append_bench_record(path, serve_record)
        append_bench_record(path, serve_record)
        payload = json.loads(path.read_text())
        assert payload["schema"] == BENCH_SCHEMA_VERSION
        assert len(payload["runs"]) == 2
        assert list(payload["runs"][0]) == list(RECORD_FIELDS)
        assert validate_bench_file(path) == []

    def test_validator_catches_missing_fields(self):
        problems = validate_bench(
            {"schema": BENCH_SCHEMA_VERSION, "runs": [{"dataset": "x"}]},
            "BENCH_serve.json")
        assert any("missing field 'conc_ips'" in p for p in problems)
        assert any("host must be an object" in p for p in problems)

    def test_validator_rejects_negative_counts(self, serve_record):
        bad = dict(serve_record, shed=-1, conc_s=-0.5)
        problems = validate_bench(
            {"schema": BENCH_SCHEMA_VERSION, "runs": [bad]},
            "BENCH_serve.json")
        assert any("shed" in p for p in problems)
        assert any("conc_s" in p for p in problems)


class TestGate:
    def test_gate_passes_on_stable_throughput(self, serve_record,
                                              tmp_path):
        path = tmp_path / "BENCH_serve.json"
        append_bench_record(path, serve_record)
        append_bench_record(path, serve_record)
        report = gate_file(path)
        metrics = {check.metric for check in report.checks}
        assert "conc_ips" in metrics
        assert not report.regressions

    def test_gate_catches_throughput_regression(self, serve_record,
                                                tmp_path):
        path = tmp_path / "BENCH_serve.json"
        append_bench_record(path, serve_record)
        slower = dict(serve_record,
                      conc_ips=serve_record["conc_ips"] * 0.5)
        append_bench_record(path, slower)
        report = gate_file(path)
        assert [check.metric for check in report.regressions] == \
            ["conc_ips"]

    def test_gate_skips_p99_on_limited_host(self, serve_record,
                                            tmp_path):
        limited = dict(serve_record, host_limited=True)
        path = tmp_path / "BENCH_serve.json"
        append_bench_record(path, limited)
        append_bench_record(path, dict(limited, p99_ms=99999.0))
        report = gate_file(path)
        assert "p99_ms" not in {check.metric for check in report.checks}
        assert any("host_limited" in note for note in report.notes)
