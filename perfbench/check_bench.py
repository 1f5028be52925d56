"""Self-tests of the benchmark, on tiny workloads.

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these out of the repository's own test suite.
"""

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_checkout(ROOT)

import gate  # noqa: E402
import tracing  # noqa: E402
import spinsemi.flow  # noqa: E402
import spinsemi.runner  # noqa: E402
from spinsemi.config import parse_config  # noqa: E402
from workloads import WORKLOADS, Workload, config_document, draw_labels  # noqa: E402

TINY_PHASE = Workload(name="tiny_phase", model="phase_coupling", two_j=2, t_max=0.2,
                      num_points=6, why="test", dominant="numerics+flow")
TINY_EXCHANGE = Workload(name="tiny_exchange", model="exchange_coupling", two_j=2,
                         t_max=0.2, num_points=6, sweep=(0.5, 1.0), why="test",
                         dominant="spin")


def tiny_run(tmp_path, workload=TINY_PHASE, trace=0):
    result, record = run.measure(workload, seed=3, seconds=0.0, trace=trace, root=ROOT,
                                 bench_out=tmp_path, setup_processes=1)
    out = io.StringIO()
    with redirect_stdout(out):
        run.report(workload, result, record)
    return result, record, out.getvalue()


def benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_code():
    bench = benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, trace):
    result, _, text = tiny_run(tmp_path, trace=trace)
    kind = "per_layer" if trace else "end_to_end"
    names = [m["name"] for m in benchmark_json()[kind]]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(names)
    lines = text.splitlines()
    for m in benchmark_json()[kind]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines), m["name"]
    assert any(line.startswith("failed_frac 0 fraction") for line in lines)


def written_curve(tmp_path, workload):
    label = draw_labels(1, 1)[0]
    cfg = parse_config(config_document(workload, label, "curve.csv"))
    report = spinsemi.runner.run_experiment(cfg, output_dir=str(tmp_path), quiet=True)[0]
    sidecar = json.loads(Path(str(report.csv_path) + ".meta.json").read_text())
    return cfg, Path(report.csv_path), sidecar


def perturb(text, column, row, factor):
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    i = lines[0].split(",").index(column)
    cells[i] = f"{float(cells[i]) * factor:.17g}"
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines)


@pytest.mark.parametrize("workload, column, factor", [
    (TINY_PHASE, "p_exact", 1 + 1e-8),
    (TINY_PHASE, "p_sc", 1 + 1e-7),
    (TINY_EXCHANGE, "p_exact", 1 + 1e-9),
])
def test_gate_fails_on_a_perturbed_curve(tmp_path, workload, column, factor):
    cfg, path, sidecar = written_curve(tmp_path, workload)
    check = gate.Gate(workload, cfg)
    text = path.read_text()
    assert check.check(path.name, text, sidecar) == []
    problems = check.check(path.name, perturb(text, column, 3, factor), sidecar)
    assert any(column in p for p in problems)


def test_gate_fails_against_a_perturbed_reference(tmp_path):
    cfg, path, sidecar = written_curve(tmp_path, TINY_EXCHANGE)
    reference = tmp_path / "reference"
    reference.mkdir()
    shutil.copy(path, reference / path.name)
    check = gate.Gate(TINY_EXCHANGE, cfg, reference)
    assert check.check(path.name, path.read_text(), sidecar) == []
    (reference / path.name).write_text(perturb(path.read_text(), "p_sc", 4, 1 + 1e-7))
    assert check.check(path.name, path.read_text(), sidecar)


def test_changed_bytes_between_repeats_fail_the_curve(tmp_path):
    cfg, path, _ = written_curve(tmp_path, TINY_PHASE)
    book = run.Book(1)
    reports = [spinsemi.runner.RunReport(None, {}, path, [])]
    book.record(reports, gate.Gate(TINY_PHASE, cfg))
    assert book.failed == 0
    text = path.read_text()
    path.write_text(text + "\n")
    book.record(reports, gate.Gate(TINY_PHASE, cfg))
    assert book.failed == 1 and "differ from the first repeat" in book.problems[-1]


def test_per_layer_counts_repeat_between_traced_runs(tmp_path):
    counts = []
    for _ in range(2):
        result, record, _ = tiny_run(tmp_path, TINY_EXCHANGE, trace=1)
        assert record["counts_repeat"]
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["numerics.field_evals"] > 0


def test_missing_wrapped_name_is_absent_not_a_crash(tmp_path, monkeypatch):
    # stands for a refactor after which runner no longer imports the two
    # flow functions: they are gone when the wrappers are installed
    runner = spinsemi.runner
    compute_curve = runner.compute_curve

    def refactored_compute_curve(cfg, model=None):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(runner, "integrate_trajectory", spinsemi.flow.integrate_trajectory,
                      raising=False)
            m.setattr(runner, "integrate_stability", spinsemi.flow.integrate_stability,
                      raising=False)
            return compute_curve(cfg, model)

    monkeypatch.delattr(runner, "integrate_trajectory")
    monkeypatch.delattr(runner, "integrate_stability")
    monkeypatch.setattr(runner, "compute_curve", refactored_compute_curve)
    result, record, text = tiny_run(tmp_path, trace=1)
    assert result["correct"]
    assert record["absent"] == ["flow.stability_s", "flow.trajectory_s"]
    assert "absent metrics (wrapped name missing): flow.stability_s, flow.trajectory_s" in text
    assert "numerics.field_evals" in result["metrics"]


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    before = {name: getattr(spinsemi.runner, name) for name in
              ("build_model", "compute_curve", "write_csv", "SpectralPropagator")}
    tiny_run(tmp_path, trace=1)
    assert before == {name: getattr(spinsemi.runner, name) for name in before}
    assert spinsemi.flow.adaptive_rk.__module__ == "spinsemi.numerics"


def test_fails_without_a_checkout(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exchange_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
