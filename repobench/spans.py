"""Spans recorded from outside the program, around calls into its layers.

Nothing under ``src/`` is instrumented.  :class:`SpanRecorder` replaces a
public function or method with a wrapper that records a span (name,
start, end, parent) in memory, and puts the original back on
:meth:`SpanRecorder.uninstall`.  A module-level function is replaced in
every loaded ``repro`` module that imported it by name, so call sites
that bound it with ``from ... import`` are covered too.

:data:`LAYER_WRAPS` lists the boundaries a traced run wraps.  Workloads
call :func:`install_layers` once the modules they use are imported.  The
boundaries in :data:`IMAGE_COUNTS` also record, as a sample, how many
images each call received, so throughputs in images/s can be derived.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: (span name, module, owner class or None, attribute)
LAYER_WRAPS: List[Tuple[str, str, Optional[str], str]] = [
    ("data.load", "repro.data.synthetic", None, "load_dataset"),
    ("nas.trial", "repro.nas.search", "BOMPNAS", "evaluate_candidate"),
    ("nn.train", "repro.nas.search", "BOMPNAS", "early_train"),
    ("nn.eval", "repro.nn.losses", None, "evaluate_classifier"),
    ("nn.dwconv.fwd", "repro.nn.conv", "DepthwiseConv2D", "forward"),
    ("nn.dwconv.bwd", "repro.nn.conv", "DepthwiseConv2D", "backward"),
    ("nn.conv2d.fwd", "repro.nn.conv", "Conv2D", "forward"),
    ("nn.conv2d.bwd", "repro.nn.conv", "Conv2D", "backward"),
    ("nn.bn.fwd", "repro.nn.layers", "BatchNorm2D", "forward"),
    ("nn.bn.bwd", "repro.nn.layers", "BatchNorm2D", "backward"),
    ("quant.apply_policy", "repro.quant.apply", None, "apply_policy"),
    ("quant.calibrate", "repro.quant.apply", None, "calibrate"),
    ("quant.qaft", "repro.quant.qaft", None,
     "quantization_aware_finetune"),
    ("bo.ask", "repro.bo.optimizer", "BayesianOptimizer", "ask_batch"),
    ("bo.tell", "repro.bo.optimizer", "BayesianOptimizer", "tell"),
    ("parallel.evaluate", "repro.parallel.engine", "TrialEngine",
     "evaluate"),
    ("infer.compile", "repro.infer.compile", None, "compile_model"),
    # building an arena executor, whether through ``Program.executor``
    # or directly, as each serve batch worker does
    ("infer.executor", "repro.infer.engine", "ArenaExecutor", "__init__"),
    ("infer.run_batch_into", "repro.infer.engine", "ArenaExecutor",
     "run_batch_into"),
]

#: span name -> sample name of the image count its calls receive (the
#: length of the first array argument: ``evaluate_classifier(model, x,
#: ...)`` and ``ArenaExecutor.run_batch_into(x, logits)``)
IMAGE_COUNTS: Dict[str, str] = {"nn.eval": "nn.eval.images",
                                "infer.run_batch_into": "infer.images"}


class SpanRecorder:
    """In-memory spans plus free-form samples, written out at the end."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index or -1]`` per span; ``end``
        #: is ``None`` while the span is open
        self.spans: List[List[Any]] = []
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self._local = threading.local()
        self._lock = threading.Lock()     # daemon threads record at once
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- recording -----------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else -1
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            stack.append(len(self.spans))
            self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(float(value))

    # -- wrapping ------------------------------------------------------------
    def _wrapper(self, original: Callable, name: str,
                 after: Optional[Callable]) -> Callable:
        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(self, result, args)
            return result
        return wrapper

    def wrap_method(self, cls: type, attr: str, name: str,
                    after: Optional[Callable] = None) -> None:
        own = attr in cls.__dict__
        original = cls.__dict__[attr] if own else getattr(cls, attr)
        setattr(cls, attr, self._wrapper(original, name, after))
        self._patches.append((cls, attr, original, own))

    def wrap_function(self, module: str, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        original = getattr(importlib.import_module(module), attr)
        wrapper = self._wrapper(original, name, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro"
                                   or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, original, True))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- aggregation ---------------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [end - start for span_name, start, end, _ in self.spans
                if span_name == name and end is not None]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def count(self, name: str) -> int:
        return len(self.durations(name))

    def summary(self) -> Dict[str, Dict[str, Any]]:
        """Per span name: call count, total seconds, and every duration."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in {span[0] for span in self.spans}:
            durations = self.durations(name)
            out[name] = {"calls": len(durations), "total_s": sum(durations),
                         "durations": durations}
        return out


def install_layers(recorder: SpanRecorder,
                   after: Optional[Dict[str, Callable]] = None) -> None:
    """Wrap every boundary in :data:`LAYER_WRAPS`.

    ``after`` maps a span name to an extra ``(recorder, result, args)``
    hook, called when a wrapped call returns.
    """
    hooks = dict(after or {})
    for name, sample in IMAGE_COUNTS.items():
        hooks[name] = _counting(sample, hooks.get(name))
    for name, module, owner, attr in LAYER_WRAPS:
        if owner is None:
            recorder.wrap_function(module, attr, name, hooks.get(name))
        else:
            cls = getattr(importlib.import_module(module), owner)
            recorder.wrap_method(cls, attr, name, hooks.get(name))


def _counting(sample: str, then: Optional[Callable]) -> Callable:
    def hook(recorder: SpanRecorder, result: Any, args: Tuple) -> None:
        recorder.sample(sample, len(args[1]))
        if then is not None:
            then(recorder, result, args)
    return hook


def layer_metrics(summary: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """The per-layer metrics every span-derived boundary yields.

    ``summary`` is :meth:`SpanRecorder.summary` (possibly after a JSON
    round trip).  Workload-specific metrics (image counts, program
    sizes, HTTP figures) are added by the workloads themselves.
    """
    def total(name: str) -> float:
        return float(summary.get(name, {}).get("total_s", 0.0))

    def calls(name: str) -> int:
        return int(summary.get(name, {}).get("calls", 0))

    out = {
        "data.load_s": total("data.load"),
        "nas.trial_s": total("nas.trial"),
        "nas.trial.calls": calls("nas.trial"),
        "nn.train_s": total("nn.train"),
        "nn.eval_s": total("nn.eval"),
        "quant.ptq_s": total("quant.apply_policy") + total(
            "quant.calibrate"),
        "quant.qaft_s": total("quant.qaft"),
        "quant.calibrate_s": total("quant.calibrate"),
        "bo.ask_s": total("bo.ask"),
        "bo.ask.calls": calls("bo.ask"),
        "bo.tell_s": total("bo.tell"),
        "bo.tell.calls": calls("bo.tell"),
        "parallel.overhead_s": (total("parallel.evaluate")
                                - total("nas.trial")
                                if calls("parallel.evaluate") else 0.0),
        "infer.compile_s": total("infer.compile"),
        "infer.executor_s": total("infer.executor"),
    }
    for kernel in ("dwconv", "conv2d", "bn"):
        for way in ("fwd", "bwd"):
            name = f"nn.{kernel}.{way}"
            out[f"{name}_s"] = total(name)
            out[f"{name}.calls"] = calls(name)
    return out
