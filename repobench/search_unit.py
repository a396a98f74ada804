"""Workload ``search-unit``: unit-scale BOMP-NAS searches, one process.

Each run does ``searches_for(seconds)`` searches: ``BOMPNAS.run`` in
``mp_qaft`` mode at ``--scale unit`` on ``cifar10``, one worker, no final
training.  The count depends only on ``--seconds``, so every commit does
the same work.

Search ``i`` runs on a dataset generated from a seed derived from the
bench seed, under search-config seed ``i``.  The config seed decides
which architectures the search samples, and with it most of the cost:
with config seeds derived from the bench seed, the median search time
varied by a quarter of its median across ten bench seeds.  Holding the
config seeds fixed keeps every run's work the same size, while the bench
seed still decides every generated input.

Set-up is process start to ready: imports and every search's dataset
(``load_dataset``, as ``repro search`` builds it).  A traced run does half
the searches untraced, then the same searches traced.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

from repobench.common import (Result, dataset_seeds, median, peak_rss_mb,
                              since_spawn, workload_args)

#: a unit search took about this long when this benchmark was written
#: (2-CPU Xeon); it turns --seconds into a fixed number of searches
NOMINAL_SEARCH_S = 3.3

#: trial fields that are wall-clock readings, left out of the digest
TIMING_FIELDS = ("wall_time_s", "phase_times", "train_seconds")


def searches_for(seconds: float) -> int:
    return max(2, int(round(seconds / NOMINAL_SEARCH_S)))


def trial_digest(trials) -> str:
    """SHA-256 of the trial records minus their timings."""
    rows = [{k: v for k, v in trial.as_dict().items()
             if k not in TIMING_FIELDS} for trial in trials]
    blob = json.dumps(rows, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def main() -> int:
    args = workload_args()

    start = time.perf_counter()
    import repro  # noqa: F401  (the import users pay)
    from repro.bo.scalarization import ScalarizationConfig
    from repro.data import synthetic
    from repro.experiments.runner import REF_SIZE
    from repro.nas.config import SearchConfig, get_mode, get_scale
    from repro.nas.search import BOMPNAS
    import_s = time.perf_counter() - start

    recorder = None
    if args.trace:
        from repobench.spans import SpanRecorder, install_layers
        recorder = SpanRecorder()
        install_layers(recorder)

    scale = get_scale("unit")
    count = searches_for(args.seconds)
    if args.trace:
        count = max(1, count // 2)
    data_seeds = dataset_seeds(args.seed, count)
    # through the module attribute, so a traced run's wrapper sees it
    datasets = [synthetic.load_dataset("cifar10", n_train=scale.n_train,
                                       n_test=scale.n_test,
                                       image_size=scale.image_size, seed=s)
                for s in data_seeds]
    configs = [SearchConfig(
        dataset="cifar10", mode=get_mode("mp_qaft"), scale=scale,
        scalarization=ScalarizationConfig(
            ref_accuracy=0.8, ref_model_size=REF_SIZE["cifar10"]),
        seed=i) for i in range(count)]
    result = Result()
    result.setup_s.append(since_spawn(args.t0))
    if args.setup_only:
        result.write(Path(args.out))
        return 0

    def search_pass():
        walls, bests, trials = [], [], []
        for config, dataset in zip(configs, datasets):
            t = time.perf_counter()
            found = BOMPNAS(config, dataset).run(final_training=False,
                                                 workers=1)
            walls.append(time.perf_counter() - t)
            result.attempted += scale.trials
            bad = scale.trials - len(found.trials) + sum(
                1 for trial in found.trials
                if not (math.isfinite(trial.score)
                        and 0.0 <= trial.accuracy <= 1.0))
            if bad:
                result.fail(bad, f"search {config.seed}: {bad} trials "
                                 "missing, non-finite or out of range")
            if found.trials:
                bests.append(max(trial.score for trial in found.trials))
            trials.extend(found.trials)
        return walls, bests, trials

    if recorder is not None:
        recorder.uninstall()
    walls, bests, trials = search_pass()
    digest = trial_digest(trials)
    trial_count = len(trials)
    # the mean, not the median: searches differ in cost (each samples its
    # own networks), so the median search is whichever sits in the
    # middle, and it moved twice as much from run to run as the mean
    result.e2e["latency_ms"] = (sum(walls) / len(walls) * 1000.0,
                                len(walls))
    result.e2e["throughput"] = (trial_count / sum(walls), trial_count)
    result.e2e["quality"] = (sum(bests) / max(len(bests), 1), len(bests))
    result.notes += [
        f"search.wall_s: median {median(walls):.4f} s, mean "
        f"{sum(walls) / len(walls):.4f} s over {len(walls)} searches",
        f"search.best_score: mean {result.e2e['quality'][0]:.6f} over "
        f"{len(bests)} searches",
        f"work: {sum(t.macs for t in trials) / 1e6:.3f} M MACs summed "
        f"over the {trial_count} trials' networks",
        f"search digest (trial records minus timings, dataset seeds "
        f"{data_seeds[0]}..): {digest}",
    ]

    if recorder is not None:
        from repobench.spans import install_layers, layer_metrics
        install_layers(recorder)
        traced_walls, _, traced_trials = search_pass()
        recorder.uninstall()
        if trial_digest(traced_trials) != digest:
            result.fail(len(traced_trials),
                        "traced searches differ from untraced ones")
        layers = layer_metrics(recorder.summary())
        images = (recorder.count("nn.train") * scale.n_train
                  * scale.early_epochs)
        layers["nn.train_ips"] = (images / layers["nn.train_s"]
                                  if layers["nn.train_s"] else 0.0)
        eval_images = sum(recorder.samples["nn.eval.images"])
        layers["nn.forward_ips"] = (eval_images / layers["nn.eval_s"]
                                    if layers["nn.eval_s"] else 0.0)
        layers["setup.import_s"] = import_s
        layers["trace_overhead"] = sum(traced_walls) / sum(walls) - 1.0
        result.layers = layers
    result.e2e["peak_rss_mb"] = (peak_rss_mb(), 1)
    result.write(Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
