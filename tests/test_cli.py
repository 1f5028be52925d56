import json
from dataclasses import asdict

import numpy as np
import pytest

import spinsemi as ss
from spinsemi.cli import main
from spinsemi.config import CSV_COLUMNS, available_models, build_model, parse_config
from spinsemi.errors import ParseError, ValidationError
from spinsemi.runner import compute_curve, run_experiment, write_csv

NAN, INF = float("nan"), float("inf")


def minimal_config(**overrides):
    doc = {
        "system": {"two_j": 1},
        "hamiltonian": {"model": "phase_coupling", "lambda": 1.0},
        "initial_state": {"sx": [1.0, 0.0], "sy": [1.0, 0.0]},
        "time": {"t_max": 2.0, "num_points": 9},
        "outputs": {"path": "out.csv"},
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config(json.dumps(minimal_config()))
        assert cfg.integrator.rel_tol == 1e-10
        assert cfg.integrator.abs_tol == 1e-12
        assert cfg.system.hbar == 1.0

    def test_negative_t_max(self):
        doc = minimal_config(time={"t_max": -1.0, "num_points": 5})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.key == "time.t_max"

    def test_unknown_model_lists_available(self):
        doc = minimal_config(hamiltonian={"model": "bogus"})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        for name in available_models():
            assert name in str(excinfo.value)

    def test_unknown_key_rejected(self):
        doc = minimal_config()
        doc["system"]["typo"] = 1
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert "system.typo" in str(excinfo.value)

    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_config("{\n  broken")
        assert excinfo.value.line is not None
        assert excinfo.value.column is not None

    def test_num_points_minimum(self):
        doc = minimal_config(time={"t_max": 1.0, "num_points": 1})
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_tiny_max_step_accepted(self):
        doc = minimal_config(integrator={"max_step": 1e-6})
        cfg = parse_config(json.dumps(doc))
        assert cfg.integrator.max_step == 1e-6

    def test_nonpositive_max_step_rejected(self):
        doc = minimal_config(integrator={"max_step": 0.0})
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    def test_quantities_key_rejected(self, tmp_path, capsys):
        # the CSV always holds every column, so there is nothing to select
        doc = minimal_config(outputs={"path": "o.csv", "quantities": ["p_exact"]})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.key == "outputs.quantities"
        assert main(["validate", write_config(tmp_path, doc)]) == 2
        assert "outputs.quantities" in capsys.readouterr().err

    def test_operator_terms_model(self):
        doc = minimal_config(
            hamiltonian={
                "model": "operator_terms",
                "terms": [
                    {"coefficient": 0.5, "x": ["J+", 1], "y": ["J-", 1]},
                    {"coefficient": 0.5, "x": ["J-", 1], "y": ["J+", 1]},
                ],
            }
        )
        cfg = parse_config(json.dumps(doc))
        model = build_model(cfg)
        assert model.operator.shape == (4, 4)

    def test_sweep_requires_model_parameter(self):
        doc = minimal_config(sweep={"parameter": "b3", "values": [1.0]})
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize("values", [[1.0, 1.0000001], [0.5, 1.0, 1.0]])
    def test_sweep_values_naming_one_file_are_rejected(self, tmp_path, values):
        # both values would be written to out_lambda=1.csv
        doc = minimal_config(sweep={"parameter": "lambda", "values": values})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.key == "sweep.values"
        out_dir = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--output-dir", str(out_dir),
                     "--quiet"]) == 2
        assert not out_dir.exists()

    @pytest.mark.parametrize("section, entry, key", [
        ("hamiltonian", {"model": "phase_coupling", "lambda": NAN}, "hamiltonian.lambda"),
        ("initial_state", {"sx": [NAN, 0.0], "sy": [1.0, 0.0]}, "initial_state.sx"),
        ("time", {"t_max": INF, "num_points": 9}, "time.t_max"),
        ("time", {"t_max": 10 ** 400, "num_points": 9}, "time.t_max"),
        ("integrator", {"max_step": NAN}, "integrator.max_step"),
        ("integrator", {"rel_tol": NAN}, "integrator.rel_tol"),
        ("sweep", {"parameter": "lambda", "values": [1.0, NAN]}, "sweep.values[1]"),
        ("hamiltonian", {"model": "operator_terms", "terms": [
            {"coefficient": NAN, "x": ["J3", 1], "y": ["J3", 1]}]},
         "hamiltonian.terms[0].coefficient"),
        ("hamiltonian", {"model": "operator_terms", "terms": [
            {"coefficient": [1.0, -INF], "x": ["J3", 1], "y": ["J3", 1]}]},
         "hamiltonian.terms[0].coefficient"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, section, entry, key):
        # json reads NaN, Infinity and integers beyond float range
        doc = minimal_config(**{section: entry})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.key == key
        out_dir = tmp_path / "out"
        assert main(["run", write_config(tmp_path, doc), "--output-dir", str(out_dir),
                     "--quiet"]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_hermitian_terms_fail_validation(self, tmp_path):
        doc = minimal_config(
            hamiltonian={
                "model": "operator_terms",
                "terms": [{"coefficient": 1.0, "x": ["J+", 1], "y": ["I", 0]}],
            }
        )
        cfg = parse_config(json.dumps(doc))  # shape is fine
        with pytest.raises(ValidationError) as excinfo:
            build_model(cfg)  # assembly is not
        assert excinfo.value.key == "hamiltonian.terms"
        path = write_config(tmp_path, doc)
        assert main(["validate", path]) == 2


class TestRunExperiment:
    def test_zero_coupling_keeps_unit_purity(self, tmp_path):
        doc = minimal_config(hamiltonian={"model": "phase_coupling", "lambda": 0.0})
        cfg = parse_config(json.dumps(doc))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        curve = reports[0].curve
        assert np.allclose(curve.p_exact, 1.0, atol=1e-9)
        assert np.allclose(curve.p_sc, 1.0, atol=1e-9)

    def test_spin_half_columns_match_closed_forms(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_config()))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        rows = _read_csv(reports[0].csv_path)
        t = rows["t"]
        assert np.max(np.abs(rows["p_exact"] - (3 + np.cos(t)) / 4)) < 1e-9
        assert np.max(np.abs(rows["p_sc"] - (1 + t ** 2 / 4) ** -0.5)) < 1e-9

    def test_csv_contract(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_config()))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        raw = reports[0].csv_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + cfg.num_points
        # slin columns are exactly 1 - p after round-tripping the text
        rows = _read_csv(reports[0].csv_path)
        assert np.all(rows["slin_exact"] == 1.0 - rows["p_exact"])
        assert np.all(rows["slin_sc"] == 1.0 - rows["p_sc"])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_config()))
        first = run_experiment(cfg, output_dir=str(tmp_path / "a"), quiet=True)
        second = run_experiment(cfg, output_dir=str(tmp_path / "b"), quiet=True)
        assert first[0].csv_path.read_bytes() == second[0].csv_path.read_bytes()

    def test_residual_budget(self, tmp_path):
        doc = minimal_config(
            system={"two_j": 4},
            hamiltonian={"model": "exchange_coupling", "lambda": 0.8},
            initial_state={"sx": [0.5, 0.2], "sy": [-0.3, 0.4]},
            time={"t_max": 0.5, "num_points": 6},
        )
        cfg = parse_config(json.dumps(doc))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        curve = reports[0].curve
        tcal_bound = 1e-8 * (1 + 1.0)
        assert np.nanmax(curve.residual_detM) <= tcal_bound

    def test_sweep_writes_one_file_per_value(self, tmp_path):
        doc = minimal_config(sweep={"parameter": "lambda", "values": [0.5, 1.0, 2.0]})
        cfg = parse_config(json.dumps(doc))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        names = sorted(p.name for p in tmp_path.glob("*.csv"))
        assert names == ["out_lambda=0.5.csv", "out_lambda=1.csv", "out_lambda=2.csv"]
        # sweep order preserved in the reports
        assert [r.metadata["sweep_override"][1] for r in reports] == [0.5, 1.0, 2.0]

    def test_metadata_sidecar(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_config()))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["config"] == cfg.raw
        assert "max_residual_detM" in meta["invariants"]
        assert meta["flagged_rows"] == []
        assert meta["flag_reasons"] == []
        assert reports[0].metadata["invariants"]["max_residual_detM"] >= 0.0

    def test_sidecar_records_the_integrator(self, tmp_path):
        cfg = parse_config(json.dumps(minimal_config()))
        first = run_experiment(cfg, output_dir=str(tmp_path / "a"), quiet=True)
        second = run_experiment(cfg, output_dir=str(tmp_path / "b"), quiet=True)
        meta = json.loads((tmp_path / "a" / "out.csv.meta.json").read_text())
        _, _, record = compute_curve(cfg)
        assert meta["integrator"] == asdict(record) == first[0].metadata["integrator"]
        assert meta["integrator"]["method"] == "DOP853"
        assert meta["integrator"]["field_evals"] > 0
        # counts and steps only, so a rerun writes the same record
        assert second[0].metadata["integrator"] == first[0].metadata["integrator"]

    def test_validity_breakdown_rows_flagged_not_fabricated(self, tmp_path, monkeypatch):
        import spinsemi.runner as runner_mod
        from spinsemi.semiclassical import PurityEvaluation

        real_eval = runner_mod.purity_sc_evaluate
        calls = {"n": 0}

        def breaking(stab, start, end):
            calls["n"] += 1
            ev = real_eval(stab, start, end)
            flagged = np.arange(len(stab)) > 0  # every row after t = 0
            reason = ev.reason.copy()
            reason[flagged] = "forced for the flag-path test"
            return PurityEvaluation(
                p_sc=np.where(flagged, np.nan, ev.p_sc),
                im_residual=np.where(flagged, np.nan, ev.im_residual),
                tcal=ev.tcal,
                reason=reason,
            )

        monkeypatch.setattr(runner_mod, "purity_sc_evaluate", breaking)
        cfg = parse_config(json.dumps(minimal_config()))
        reports = run_experiment(cfg, output_dir=str(tmp_path), quiet=True)
        report = reports[0]
        assert calls["n"] == 1  # one series evaluation per curve
        assert len(report.flagged_rows) == cfg.num_points - 1
        rows = _read_csv(report.csv_path)
        assert np.all(np.isnan(rows["p_sc"][1:]))
        assert np.all(np.isnan(rows["residual_detM"][1:]))
        assert np.isfinite(rows["p_sc"][0])
        assert np.all(np.isfinite(rows["p_exact"]))
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text())
        assert meta["flagged_rows"] == list(range(1, cfg.num_points))
        assert meta["flag_reasons"] == ["forced for the flag-path test"] * (cfg.num_points - 1)


    def test_exact_column_is_the_exact_purity_curve(self):
        # 1201 points at two_j = 4 (joint dimension 25) are one chunk;
        # at two_j = 12 (169) they are four
        for two_j in (4, 12):
            cfg = parse_config(json.dumps(minimal_config(
                system={"two_j": two_j},
                hamiltonian={"model": "exchange_coupling", "lambda": 0.7},
                time={"t_max": 0.4, "num_points": 1201},
            )))
            curve, _, _ = compute_curve(cfg)
            model = build_model(cfg)
            assert np.array_equal(curve.p_exact, ss.exact_purity_curve(
                cfg.system, model, cfg.initial_state, curve.times))


def _per_value_csv(path, curve):
    """The CSV writer that formatted each value on its own: the oracle of
    write_csv's one-format writer."""
    columns = [
        curve.times, curve.p_exact, curve.p_sc, curve.slin_exact,
        curve.slin_sc, curve.residual_detM, curve.residual_energy,
        curve.residual_im_psc,
    ]
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i in range(len(curve.times)):
            fh.write(",".join(f"{col[i]:.17g}" for col in columns) + "\n")


def test_csv_bytes_match_the_per_value_writer(tmp_path):
    special = np.array([NAN, INF, -INF, -0.0, 5e-324, 0.1 + 0.2, 1.0 / 3.0, 0.0,
                        123456789.01234567, -2.5e-300])
    n = special.size
    curve = ss.PurityCurve(
        times=np.linspace(0.0, 1.0, n),
        p_exact=special,
        p_sc=special[::-1].copy(),
        residual_detM=np.roll(special, 3),
        residual_energy=np.roll(special, 5),
        residual_im_psc=np.roll(special, 7),
    )
    write_csv(tmp_path / "new.csv", curve)
    _per_value_csv(tmp_path / "old.csv", curve)
    new = (tmp_path / "new.csv").read_bytes()
    assert new == (tmp_path / "old.csv").read_bytes()
    for text in (b"nan", b"inf", b"-inf", b"-0", b"4.9406564584124654e-324",
                 b"0.30000000000000004"):
        assert text in new


class TestCliVerbs:
    def test_validate_ok(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["validate", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_error_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config(time={"t_max": -1, "num_points": 5}))
        assert main(["validate", path]) == 2
        assert "time.t_max" in capsys.readouterr().err

    def test_missing_file_is_io_error(self, capsys):
        assert main(["run", "/nonexistent/config.json"]) == 4

    def test_models_verb(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        for name in available_models():
            assert name in out

    def test_run_verb(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["run", path, "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert (tmp_path / "out.csv").exists()

    def test_run_reports_progress(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config())
        assert main(["run", path, "--output-dir", str(tmp_path)]) == 0
        assert "out.csv" in capsys.readouterr().err

    def test_numeric_breakdown_exit_code(self, tmp_path, monkeypatch, capsys):
        import spinsemi.cli as cli_mod
        from spinsemi.errors import CausticEncountered

        def explode(*args, **kwargs):
            raise CausticEncountered("focal point at t = 0.125")

        monkeypatch.setattr(cli_mod, "run_experiment", explode)
        path = write_config(tmp_path, minimal_config())
        assert main(["run", path]) == 3
        assert "CausticEncountered" in capsys.readouterr().err


def _read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}
