"""preid benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload {ingest,train,score} --seed N \
        --seconds S --trace {0,1} [--self-test]

Run from the repository root; preid is imported from ./src. Set-up runs
``setup_repeats`` times (3 on ingest, 2 on train and score, whose set-up
builds a dataset) and ``setup_s`` is the median. The measured operation then
repeats until ``--seconds`` have passed and it ran ``min_ops`` times (3 on
ingest, once elsewhere). With ``--trace 0``
the last stdout line is a JSON object holding the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced set-up plus one
traced operation; the mean time of the untraced operations just before and
just after it is the baseline for the tracing overhead. ``--self-test`` runs the traced pass
twice and fails unless every count repeats exactly.

Every run writes ``.perfbench/results/<workload>-seed<N>-trace<T>.json``
with machine metadata, the metrics under their ROADMAP names and every check; a
traced run also writes its spans as JSON lines next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _pin_threads() -> None:
    """BLAS threads default to, and are capped at, the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= nproc:
            os.environ[var] = str(nproc)


def _import_preid():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import preid
    except ImportError as e:
        raise SystemExit(f"error: cannot import preid from {src}: {e}")
    if Path(preid.__file__).resolve().parent != (src / "preid").resolve():
        raise SystemExit(f"error: preid imported from {preid.__file__}, not from {src}")


def machine_metadata() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines,
        "platform": platform.platform(),
    }


def measure(wl, seconds: float) -> list:
    """Repeat the operation until ``seconds`` have passed and it ran ``min_ops`` times."""
    results = []
    start = time.perf_counter()
    while len(results) < wl.min_ops or time.perf_counter() - start < seconds:
        results.append(wl.run())
    return results


def traced_setup(wl):
    """Set up once with every layer wrapped; returns the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.instrument()
    try:
        root = tracer.open("bench.setup")
        wl.setup(tracer)
        tracer.close(root)
    finally:
        tracer.restore()
    return tracer


def traced_op(wl, tracer):
    """One traced operation; returns its result and its span range."""
    tracer.instrument()
    try:
        lo = len(tracer.spans)
        root = tracer.open("bench.op")
        result = wl.run(tracer)
        tracer.close(root)
    finally:
        tracer.restore()
    return result, (lo, len(tracer.spans))


def layer_metrics(tracer, span_range, untraced_s: float) -> dict:
    import metrics
    from preid.sampling import SamplerStats

    stats = SamplerStats()
    for sampler, args, kwargs in tracer.epoch_calls:
        sampler(*args, **kwargs, stats=stats)
    return metrics.per_layer(tracer, *span_range, untraced_s, stats)


def check_spec() -> list[str]:
    """Differences between BENCHMARK.json and the metrics this harness emits."""
    import metrics
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    want_e2e = [{"name": n, "unit": u, "better": b, "bound": bd}
                for n, u, b, bd in metrics.END_TO_END]
    want_layer = [{"name": n, "unit": u, "better": b} for n, u, b in metrics.PER_LAYER]
    if spec["end_to_end"] != want_e2e:
        problems.append("end_to_end differs from metrics.END_TO_END")
    if spec["per_layer"] != want_layer:
        problems.append("per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    return problems


def self_test(wl) -> int:
    import metrics

    counted = [n for n, unit, _ in metrics.PER_LAYER if unit not in ("s", "s/s")]
    runs = []
    for _ in range(2):
        tracer = traced_setup(wl)
        wl.prepare_checks()
        wl.warm_up()
        _, span_range = traced_op(wl, tracer)
        values = layer_metrics(tracer, span_range, 1.0)
        runs.append({n: values[n] for n in counted})
    problems = check_spec()
    problems += [f"{n}: {runs[0][n]} != {runs[1][n]}" for n in counted if runs[0][n] != runs[1][n]]
    for line in problems:
        print(f"self-test: {line}")
    print(f"self-test {wl.name}: {len(counted)} counters compared, "
          f"{'all repeat exactly' if not problems else f'{len(problems)} problems'}")
    return 1 if problems else 0


def run(args) -> int:
    import metrics
    import workloads

    workdir = OUT / "work" / f"{args.workload}-{args.seed}"
    wl = workloads.WORKLOADS[args.workload](workdir, args.seed)
    try:
        if args.self_test:
            return self_test(wl)
        return _measure_and_report(wl, args, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure_and_report(wl, args, metrics) -> int:
    import numpy as np

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine_metadata()}
    if args.trace:
        tracer = traced_setup(wl)
        checks = wl.prepare_checks()
        wl.warm_up()
        results = measure(wl, args.seconds)
        traced, span_range = traced_op(wl, tracer)
        after = wl.run()
        # the untraced runs on either side cancel the machine's slow drift
        untraced_s = (results[-1].seconds + after.seconds) / 2
        results += [traced, after]
        values = layer_metrics(tracer, span_range, untraced_s)
        spec = [(n, u) for n, u, _ in metrics.PER_LAYER]
        _write_spans(tracer, args)
    else:
        setup_s = []
        for _ in range(wl.setup_repeats):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
        checks = wl.prepare_checks()
        t0 = time.perf_counter()
        wl.warm_up()
        record["warm_up_s"] = time.perf_counter() - t0
        results = measure(wl, args.seconds)
        steps_ms = [s * 1e3 for r in results for s in r.steps_s]
        values = {
            "setup_s": statistics.median(setup_s),
            "step_p50_ms": np.percentile(steps_ms, 50),
            "step_p90_ms": np.percentile(steps_ms, 90),
            "throughput_per_s": sum(r.items for r in results) / sum(r.seconds for r in results),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        spec = [(n, u) for n, u, _, _ in metrics.END_TO_END]
        record.update(setup_runs_s=setup_s, op_s=[r.seconds for r in results],
                      step_samples=len(steps_ms))
        record["aliases"] = _aliases(wl.name, values, results, len(steps_ms))

    for r in results:
        checks += wl.check(r)
    failed = [name for name, ok in checks if not ok]
    record.update(checks_attempted=len(checks), checks_failed=failed, metrics=values)
    if not args.trace:
        record["aliases"]["failed_op_ratio"] = [len(failed) / len(checks), "ratio"]
        for name, (value, unit) in record["aliases"].items():
            print(f"{args.workload}: {name} = {value:.6g} {unit}")
    for name in failed:
        print(f"check failed: {name}")
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float) + "\n")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {n: {"value": float(values[n]), "unit": u} for n, u in spec},
    }))
    return 0


def _aliases(workload: str, values: dict, results, n_steps: int) -> dict:
    """The end-to-end metrics under the names the ROADMAP uses."""
    out = {"setup_s": [values["setup_s"], "s"], "peak_rss_mb": [values["peak_rss_mb"], "MB"]}
    if workload == "ingest":
        out["build_dataset_s"] = [statistics.median(r.outputs["build_s"] for r in results), "s"]
    elif workload == "train":
        out["train_pairs_per_s"] = [values["throughput_per_s"], "pairs/s"]
        out["train_step_p50_ms"] = [values["step_p50_ms"], "ms"]
        out["train_step_p90_ms"] = [values["step_p90_ms"], "ms"]
        out["train_steps"] = [n_steps, "count"]
    else:
        out["score_pairs_per_s"] = [values["throughput_per_s"], "pairs/s"]
    return out


def _write_spans(tracer, args) -> None:
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    t0 = tracer.spans[0][1] if tracer.spans else 0.0
    with open(results_dir / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as f:
        for name, start, end, parent in tracer.spans:
            f.write(json.dumps({"name": name, "start": start - t0, "end": end - t0,
                                "parent": parent}) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["ingest", "train", "score"])
    parser.add_argument("--seed", type=int, default=7, help="synthetic scene seed")
    parser.add_argument("--seconds", type=float, default=6.0,
                        help="keep repeating the measured operation this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the traced pass twice and compare every count")
    args = parser.parse_args()
    _pin_threads()
    _import_preid()
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
