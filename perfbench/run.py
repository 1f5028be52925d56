"""Benchmark of `spinsemi run`: wall time of whole purity-curve runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exchange_sweep --seed 0 --seconds 40 --trace 0

Workloads are defined in workloads.py. Each run imports spinsemi from the
checkout's src/ and calls `spinsemi.runner.run_experiment` with default
arguments, exactly as `spinsemi run` does. The seed draws LABELS_PER_RUN
initial labels; after one untimed warm-up call the timed calls cycle
through them until --seconds have passed. Every curve written is checked
by gate.py outside the timed region, and a label's CSV bytes must be the
same each time it runs.

--trace 0 prints the end-to-end metrics:
  run_s        median wall seconds of one run_experiment call, scaled to the
               reference machine speed measured by SpeedProbe
  setup_s      median over fresh processes of import spinsemi + parse_config
               + build_model, what `spinsemi run` pays before any compute
  peak_rss_mb  peak resident memory of this process
--trace 1 spends half the time untraced and half with wrappers installed
(tracing.py), and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Failures count curves: a curve fails when
the gate rejects it, its bytes change between repeats, or its run raised a
SpinsemiError. A fuller record (environment, labels drawn, every sample)
goes to .bench_out/ in the checkout.
"""

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, config_document, draw_labels

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"
SETUP_PROCESSES = 7
MIN_REPEATS = 3
MIN_TRACED_REPEATS = 2
# labels drawn per run; the timed repeats cycle through them, so a run's
# median is not tied to the cost of one label
LABELS_PER_RUN = 8

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

SETUP_CHILD = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import spinsemi
from spinsemi.config import build_model, parse_config
build_model(parse_config(sys.argv[2]))
print(time.perf_counter() - started)
"""


def import_checkout(root):
    """Import spinsemi from root/src, and from nowhere else."""
    src = root / "src"
    if not (src / "spinsemi" / "__init__.py").is_file():
        raise SystemExit(f"no spinsemi sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import spinsemi

    if src.resolve() not in Path(spinsemi.__file__).resolve().parents:
        raise SystemExit(f"imported spinsemi from {spinsemi.__file__}, not {src}")


def blas_record():
    """BLAS library name and its thread count, as far as numpy reveals them."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        name = "unknown"
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for getter in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, getter):
                threads = int(getattr(lib, getter)())
                break
    return name, threads


def environment(seed, labels):
    import numpy as np

    blas, blas_threads = blas_record()
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_start": os.getloadavg(),
        "seed": seed,
        "labels": [label.as_dict() for label in labels],
    }


def measure_setup(root, src, document, count):
    """Median seconds of import + parse_config + build_model in fresh processes."""
    values = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(src), document],
            cwd=root, capture_output=True, text=True, timeout=120, check=True,
        )
        values.append(float(proc.stdout.split()[-1]))
    return statistics.median(values), values


class Book:
    """Attempted and failed curves of one benchmark run, with the reasons."""

    def __init__(self, curves_per_run):
        self.curves_per_run = curves_per_run
        self.first_bytes = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, outcome, gate):
        """outcome: the run_experiment reports, or the SpinsemiError it raised."""
        if isinstance(outcome, Exception):
            self.attempted += self.curves_per_run
            self.failed += self.curves_per_run
            self.problems.append(f"run raised {type(outcome).__name__}: {outcome}")
            return
        self.attempted += len(outcome)
        for report in outcome:
            path = Path(report.csv_path)
            data = path.read_bytes()
            sidecar = json.loads(Path(str(path) + ".meta.json").read_text())
            problems = gate.check(path.name, data.decode(), sidecar)
            first = self.first_bytes.setdefault(path.name, data)
            if data != first:
                problems.append(f"{path.name}: CSV bytes differ from the first repeat's")
            if problems:
                self.failed += 1
                self.problems += problems


class SpeedProbe:
    """Machine speed: a fixed eigendecomposition, timed before each call.

    The shared machine switches between speed states for minutes at a
    time. On the seed commit the slow state made this probe about 1.35x
    slower and the workloads 1.25x to 1.7x, and the raw medians of runs
    made minutes apart spread by 16% to 49% (IQR over median). run_s is
    therefore the wall median scaled by REFERENCE_S / median probe time;
    the raw wall times are printed and recorded beside it.
    """

    # probe median of this machine in its fast state; it fixes the units,
    # so that run_s reads as seconds on the machine in that state
    REFERENCE_S = 0.027

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        self._h = a + a.conj().T
        self.times = []

    def __call__(self):
        import numpy as np

        started = time.perf_counter()
        np.linalg.eigh(self._h)
        self.times.append(time.perf_counter() - started)

    def scale(self):
        """Factor that converts this run's wall seconds to reference speed."""
        return self.REFERENCE_S / statistics.median(self.times)


def timed_run(run, book, gate):
    """Seconds of one run() call; its outcome goes to the book afterwards."""
    from spinsemi.errors import SpinsemiError

    started = time.perf_counter()
    try:
        outcome = run()
    except SpinsemiError as exc:
        outcome = exc
    elapsed = time.perf_counter() - started
    book.record(outcome, gate)
    return elapsed


def repeat_for(seconds, min_repeats, once, labels, warmup=True):
    """Timed once(k) calls cycling through the labels, after a warm-up once(0).

    Makes at least min_repeats timed calls, then stops before a call that
    would likely end past seconds (the warm-up counts). Label 0 runs at
    least twice when warming up, so its bytes are always compared.
    """
    started = time.perf_counter()
    first = once(0) if warmup else None
    samples = []
    while len(samples) < min_repeats or (
            time.perf_counter() - started + statistics.median(samples) < seconds):
        samples.append(once(len(samples) % labels))
    return first, samples


def spread(samples):
    q1, q2, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return {"min": min(samples), "q1": q1, "median": q2, "q3": q3, "max": max(samples)}


def metric(value, unit):
    return {"value": value, "unit": unit}


class Inputs:
    """The labels a seed draws, with one config, document and gate per label."""

    def __init__(self, workload, seed):
        from gate import Gate
        from spinsemi.config import parse_config

        self.labels = draw_labels(seed, LABELS_PER_RUN)
        self.documents = [config_document(workload, label, f"{workload.name}-label{k}.csv")
                          for k, label in enumerate(self.labels)]
        self.cfgs = [parse_config(doc) for doc in self.documents]
        self.gates = [Gate(workload, cfg) for cfg in self.cfgs]
        reference = REFERENCE_DIR / workload.name
        if seed == DEFAULT_SEED and reference.is_dir():
            self.gates[0] = Gate(workload, self.cfgs[0], reference)


def measure(workload, seed, seconds, trace, root, bench_out,
            setup_processes=SETUP_PROCESSES):
    """One benchmark run; returns (result line dict, full record dict)."""
    inputs = Inputs(workload, seed)
    book = Book(len(workload.sweep or (None,)))
    record = {"workload": workload.name, "seconds": seconds, "trace": trace,
              "environment": environment(seed, inputs.labels)}
    work_dir = bench_out / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            metrics = per_layer(workload, seconds, inputs, book, work_dir, record)
        else:
            metrics = end_to_end(seconds, inputs, book, work_dir, record, root,
                                 setup_processes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["environment"]["loadavg_end"] = os.getloadavg()
    record["problems"] = book.problems
    result = {"correct": book.failed == 0, "attempted": book.attempted,
              "failed": book.failed, "metrics": metrics}
    return result, record


def untraced_runner(inputs, book, work_dir):
    import spinsemi.runner

    def once(k):
        run = lambda: spinsemi.runner.run_experiment(inputs.cfgs[k], output_dir=str(work_dir),
                                                     quiet=True)
        return timed_run(run, book, inputs.gates[k])
    return once


def end_to_end(seconds, inputs, book, work_dir, record, root, setup_processes):
    """run_s, setup_s and peak_rss_mb, with tracing off."""
    setup_s, setup_samples = measure_setup(root, root / "src", inputs.documents[0],
                                           setup_processes)
    once = untraced_runner(inputs, book, work_dir)
    probe = SpeedProbe()

    def probed(k):
        probe()
        return once(k)

    warmup, run_samples = repeat_for(seconds, MIN_REPEATS, probed, len(inputs.labels))
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = probe.scale()
    record["samples"] = {"warmup_s": warmup, "run_s": run_samples, "setup_s": setup_samples}
    record["speed_probe"] = {"eigh_s": probe.times, "scale": scale}
    return {
        "run_s": metric(statistics.median(run_samples) * scale, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, seconds, inputs, book, work_dir, record):
    """Half the time untraced, half traced; both on label 0, so counts repeat."""
    import spinsemi.config
    import spinsemi.runner
    import tracing

    warmup, run_samples = repeat_for(seconds / 2, MIN_TRACED_REPEATS,
                                     untraced_runner(inputs, book, work_dir), 1)
    tracer = tracing.Tracer()
    wrappers = tracing.Wrappers(tracer).install()

    def traced(k):
        tracer.compact()
        tracer.run_id += 1
        cfg = spinsemi.config.parse_config(inputs.documents[k])
        run = lambda: tracer.call(tracing.ROOT_SPAN, spinsemi.runner.run_experiment, cfg,
                                  output_dir=str(work_dir), quiet=True)
        return timed_run(run, book, inputs.gates[k])

    try:
        _, traced_samples = repeat_for(seconds / 2, MIN_TRACED_REPEATS, traced, 1,
                                       warmup=False)
    finally:
        wrappers.restore()
    rows = workload.num_points * book.curves_per_run
    layers, counts_repeat = tracing.layer_metrics(tracer, wrappers.absent, rows)
    layers["trace.overhead_s"] = (statistics.median(traced_samples)
                                  - statistics.median(run_samples))
    spans_path = work_dir.parent / f"spans-{workload.name}.json"
    tracer.write(spans_path)
    record["samples"] = {"warmup_s": warmup, "run_s": run_samples,
                         "traced_run_s": traced_samples}
    record["counts_repeat"] = counts_repeat
    record["absent"] = sorted(n for n in tracing.PER_LAYER_UNITS if n not in layers)
    record["absent_spans"] = sorted(wrappers.absent)
    record["spans_file"] = spans_path.name
    record["dominant"] = dominant_module(layers)
    return {name: metric(layers[name], unit)
            for name, unit in tracing.PER_LAYER_UNITS.items() if name in layers}


def dominant_module(layers):
    """Module with the largest self-time share; numerics and flow count as one."""
    shares = {k.split(".")[0]: v for k, v in layers.items() if k.endswith(".self_share")}
    if "numerics" in shares and "flow" in shares:
        shares["numerics+flow"] = shares.pop("numerics") + shares.pop("flow")
    if not shares:
        return None
    return max(shares, key=shares.get), shares


def report(workload, result, record):
    """Human-readable lines: every metric by name with its unit."""
    print(f"workload {workload.name} seed {record['environment']['seed']} "
          f"trace {record['trace']}")
    print("environment " + json.dumps(record["environment"]))
    samples = record["samples"]["run_s"]
    s = spread(samples)
    print(f"run_s samples: {len(samples)} repeats, min {s['min']:.4f} q1 {s['q1']:.4f} "
          f"median {s['median']:.4f} q3 {s['q3']:.4f} max {s['max']:.4f} s "
          "(median reported only: no percentile above it has ten samples beyond it)")
    if "speed_probe" in record:
        probe = record["speed_probe"]
        p = spread(probe["eigh_s"])
        print(f"speed probe: median {p['median']:.4f} min {p['min']:.4f} max {p['max']:.4f} s "
              f"over {len(probe['eigh_s'])} calls; run_s = wall median {s['median']:.4f} s "
              f"x scale {probe['scale']:.4f}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    print(f"failed_frac {failed / attempted:.6g} fraction ({failed} of {attempted} curves)")
    for problem in record["problems"][:20]:
        print(f"problem: {problem}")
    if record["trace"]:
        print(f"per-layer counts repeat exactly across traced repeats: "
              f"{'yes' if record['counts_repeat'] else 'NO'}")
        if record["absent"]:
            print("absent metrics (wrapped name missing): " + ", ".join(record["absent"]))
        if record["dominant"]:
            found, shares = record["dominant"]
            held = "held" if found == workload.dominant else "did NOT hold"
            print(f"prediction: {workload.dominant} dominates {workload.name}: {held} "
                  f"(largest self-time share: {found} {shares[found]:.3f})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    import_checkout(root)
    workload = WORKLOADS[args.workload]
    bench_out = root / ".bench_out"
    result, record = measure(workload, args.seed, args.seconds, args.trace, root, bench_out)
    record["result"] = result
    record_path = bench_out / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    report(workload, result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
