"""The serve SLO report: latency percentiles vs targets, shed/timeouts.

``repro serve-report <run_dir-or-stats.json>`` renders the
``serve_stats.json`` snapshot the daemon writes on shutdown (``repro
report`` falls through here for run directories that hold serve stats
instead of an event log).  The view is per model::

    model      reqs  imgs/b  p50 ms  p95 ms  p99 ms  shed  t/o  SLO
    cifar       512    6.2     4.1     7.9    11.2      0    0   ok

``SLO`` compares the measured p99 against the configured
``slo_p99_ms`` target; a breach renders the whole report as failed
(non-zero CLI exit), which is what lets CI assert a latency budget.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .daemon import STATS_FILENAME, STATS_SCHEMA_VERSION


class ServeStatsError(ValueError):
    """A serve stats file is missing or malformed."""


def stats_path(source: Union[str, Path]) -> Path:
    """Resolve a run directory or direct path to the stats JSON file."""
    path = Path(source)
    if path.is_dir():
        return path / STATS_FILENAME
    return path


def load_serve_stats(source: Union[str, Path]) -> Dict[str, Any]:
    path = stats_path(source)
    if not path.exists():
        raise ServeStatsError(
            f"{path}: no serve stats found (did the daemon run with "
            f"--run-dir and shut down cleanly?)")
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ServeStatsError(f"{path}: invalid JSON ({exc})")
    if not isinstance(payload, dict):
        raise ServeStatsError(f"{path}: not a JSON object")
    return payload


def validate_serve_stats(payload: Dict[str, Any]) -> List[str]:
    """Schema problems of a stats payload (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["stats payload is not a JSON object"]
    if payload.get("schema") != STATS_SCHEMA_VERSION:
        problems.append(f"schema {payload.get('schema')!r} != "
                        f"{STATS_SCHEMA_VERSION}")
    for key in ("config", "metrics", "host"):
        if not isinstance(payload.get(key), dict):
            problems.append(f"{key!r} must be an object")
    if not isinstance(payload.get("models"), list):
        problems.append("'models' must be a list")
    return problems


@dataclass
class ModelSLO:
    """One model's latency/shed view, in milliseconds."""

    name: str
    requests: int = 0
    batches: int = 0
    mean_batch: float = 0.0
    p50_ms: Optional[float] = None
    p95_ms: Optional[float] = None
    p99_ms: Optional[float] = None
    shed: int = 0
    timeouts: int = 0
    errors: int = 0
    slo_p99_ms: Optional[float] = None

    @property
    def slo_ok(self) -> Optional[bool]:
        """None when no target or no traffic — nothing to judge."""
        if self.slo_p99_ms is None or self.p99_ms is None \
                or self.requests == 0:
            return None
        return self.p99_ms <= self.slo_p99_ms


@dataclass
class ServeReport:
    source: str
    stats: Dict[str, Any]
    models: List[ModelSLO] = field(default_factory=list)
    warnings: List[str] = field(default_factory=list)

    def ok(self) -> bool:
        """True unless some model with traffic breached its SLO."""
        return all(model.slo_ok is not False for model in self.models)


def _metric(metrics: Dict[str, Any], name: str) -> Dict[str, Any]:
    value = metrics.get(name)
    return value if isinstance(value, dict) else {}


def build_report(source: Union[str, Path]) -> ServeReport:
    stats = load_serve_stats(source)
    report = ServeReport(source=str(stats_path(source)), stats=stats)
    report.warnings.extend(validate_serve_stats(stats))
    metrics = stats.get("metrics") or {}
    config = stats.get("config") or {}
    slo_target = config.get("slo_p99_ms")
    for model in stats.get("models") or []:
        if not isinstance(model, dict) or "name" not in model:
            continue
        name = model["name"]
        prefix = f"serve.{name}"
        latency = _metric(metrics, f"{prefix}.latency_s")
        batch = _metric(metrics, f"{prefix}.batch_size")

        def _ms(key: str) -> Optional[float]:
            value = latency.get(key)
            return round(value * 1000.0, 3) \
                if isinstance(value, (int, float)) else None

        report.models.append(ModelSLO(
            name=name,
            requests=int(_metric(metrics, f"{prefix}.requests")
                         .get("value", 0)),
            batches=int(_metric(metrics, f"{prefix}.batches")
                        .get("value", 0)),
            mean_batch=float(batch.get("mean", 0.0) or 0.0),
            p50_ms=_ms("p50"), p95_ms=_ms("p95"), p99_ms=_ms("p99"),
            shed=int(_metric(metrics, f"{prefix}.shed").get("value", 0)),
            timeouts=int(_metric(metrics, f"{prefix}.timeouts")
                         .get("value", 0)),
            errors=int(_metric(metrics, f"{prefix}.errors")
                       .get("value", 0)),
            slo_p99_ms=slo_target))
    return report


def _fmt(value: Optional[float], width: int = 8) -> str:
    if value is None:
        return "-".rjust(width)
    return f"{value:{width}.2f}"


def render_serve_report(report: ServeReport) -> str:
    stats = report.stats
    config = stats.get("config") or {}
    lines = [f"serve SLO report - {report.source}"]
    started, stopped = stats.get("started_at"), stats.get("stopped_at")
    if isinstance(started, (int, float)) and isinstance(stopped,
                                                        (int, float)):
        lines.append(f"uptime {stopped - started:.1f}s, "
                     f"drained {'cleanly' if stats.get('drained_cleanly') else 'HARD'}"
                     f" ({stats.get('flushed_requests', 0)} flushed)")
    lines.append(
        f"config: max_batch={config.get('max_batch')} "
        f"queue_depth={config.get('queue_depth')} "
        f"workers={config.get('workers_per_model')}"
        + (f" slo_p99_ms={config.get('slo_p99_ms')}"
           if config.get("slo_p99_ms") is not None else ""))
    if not report.models:
        lines.append("no models served")
    else:
        lines.append(f"{'model':<16} {'reqs':>7} {'imgs/b':>7} "
                     f"{'p50 ms':>8} {'p95 ms':>8} {'p99 ms':>8} "
                     f"{'shed':>5} {'t/o':>4} {'err':>4}  SLO")
        for model in report.models:
            verdict = {True: "ok", False: "BREACH", None: "-"}[model.slo_ok]
            lines.append(
                f"{model.name:<16} {model.requests:>7} "
                f"{model.mean_batch:>7.2f} "
                f"{_fmt(model.p50_ms)} {_fmt(model.p95_ms)} "
                f"{_fmt(model.p99_ms)} "
                f"{model.shed:>5} {model.timeouts:>4} "
                f"{model.errors:>4}  {verdict}")
    total_shed = _metric(stats.get("metrics") or {}, "serve.shed") \
        .get("value", 0)
    total = _metric(stats.get("metrics") or {}, "serve.requests") \
        .get("value", 0)
    lines.append(f"totals: {int(total)} admitted, {int(total_shed)} shed")
    for warning in report.warnings:
        lines.append(f"warning: {warning}")
    return "\n".join(lines)
