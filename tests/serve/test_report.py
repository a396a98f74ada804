"""SLO report: stats parsing, percentile rendering, breach detection."""

import json

import pytest

from repro.serve.report import (ModelSLO, ServeStatsError, build_report,
                                load_serve_stats, render_serve_report,
                                validate_serve_stats)


def stats_payload(p99_s=0.010, slo_p99_ms=None, requests=64):
    return {
        "schema": 1,
        "started_at": 100.0, "stopped_at": 160.0,
        "draining": True, "drained_cleanly": True, "flushed_requests": 0,
        "config": {"max_batch": 8, "queue_depth": 64,
                   "workers_per_model": 1, "slo_p99_ms": slo_p99_ms},
        "host": {"cpus": 4},
        "models": [{"name": "m", "path": "m.bomp"}],
        "metrics": {
            "serve.requests": {"type": "counter", "value": requests},
            "serve.shed": {"type": "counter", "value": 2},
            "serve.m.requests": {"type": "counter", "value": requests},
            "serve.m.batches": {"type": "counter", "value": 9},
            "serve.m.shed": {"type": "counter", "value": 2},
            "serve.m.timeouts": {"type": "counter", "value": 1},
            "serve.m.errors": {"type": "counter", "value": 0},
            "serve.m.batch_size": {"type": "histogram", "count": 9,
                                   "mean": 7.1},
            "serve.m.latency_s": {"type": "histogram", "count": requests,
                                  "p50": 0.004, "p95": 0.008,
                                  "p99": p99_s},
        },
    }


class TestLoading:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ServeStatsError, match="no serve stats"):
            load_serve_stats(tmp_path)

    def test_dir_resolves_to_stats_file(self, tmp_path):
        (tmp_path / "serve_stats.json").write_text(
            json.dumps(stats_payload()))
        assert load_serve_stats(tmp_path)["schema"] == 1

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "serve_stats.json"
        path.write_text("{nope")
        with pytest.raises(ServeStatsError, match="invalid JSON"):
            load_serve_stats(path)

    def test_validate_flags_problems(self):
        assert validate_serve_stats(stats_payload()) == []
        broken = stats_payload()
        broken["schema"] = 99
        broken["models"] = "nope"
        del broken["host"]
        problems = validate_serve_stats(broken)
        assert len(problems) == 3


class TestReport:
    def test_percentiles_in_ms(self, tmp_path):
        (tmp_path / "serve_stats.json").write_text(
            json.dumps(stats_payload()))
        report = build_report(tmp_path)
        model = report.models[0]
        assert model.p50_ms == 4.0 and model.p99_ms == 10.0
        assert model.requests == 64 and model.shed == 2
        assert model.slo_ok is None            # no target configured
        assert report.ok()

    def test_slo_breach_fails_report(self, tmp_path):
        (tmp_path / "serve_stats.json").write_text(json.dumps(
            stats_payload(p99_s=0.050, slo_p99_ms=20.0)))
        report = build_report(tmp_path)
        assert report.models[0].slo_ok is False
        assert not report.ok()
        assert "BREACH" in render_serve_report(report)

    def test_slo_met(self, tmp_path):
        (tmp_path / "serve_stats.json").write_text(json.dumps(
            stats_payload(p99_s=0.010, slo_p99_ms=20.0)))
        report = build_report(tmp_path)
        assert report.models[0].slo_ok is True
        assert report.ok()

    def test_no_traffic_never_breaches(self):
        slo = ModelSLO(name="m", requests=0, p99_ms=999.0,
                       slo_p99_ms=1.0)
        assert slo.slo_ok is None

    def test_render_mentions_everything(self, tmp_path):
        (tmp_path / "serve_stats.json").write_text(json.dumps(
            stats_payload(slo_p99_ms=20.0)))
        text = render_serve_report(build_report(tmp_path))
        assert "uptime 60.0s" in text
        assert "drained cleanly" in text
        assert "64 admitted, 2 shed" in text
        assert " ok" in text
