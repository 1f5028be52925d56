"""Run configuration: a strict JSON document.

Unknown keys are rejected everywhere, so typos fail loudly instead of
silently falling back to defaults. The grammar is documented in the README;
the minimal document is

    {"system": {"two_j": 1},
     "hamiltonian": {"model": "phase_coupling", "lambda": 1.0},
     "initial_state": {"sx": [1.0, 0.0], "sy": [1.0, 0.0]},
     "time": {"t_max": 1.0, "num_points": 50},
     "outputs": {"path": "out.csv"}}
"""

import json
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import NotHermitian, ParseError, ValidationError
from .models import (
    PhaseCouplingParams,
    build_operator_model,
    exchange_coupling_model,
    free_precession_model,
    phase_coupling_model,
)
from .numerics import IntegratorConfig
from .spin import CoherentLabel, OperatorTerm, SpinSystem

CSV_COLUMNS = (
    "t",
    "p_exact",
    "p_sc",
    "slin_exact",
    "slin_sc",
    "residual_detM",
    "residual_energy",
    "residual_im_psc",
)

@dataclass(frozen=True)
class RunConfig:
    system: SpinSystem
    model_name: str
    model_params: dict
    initial_state: CoherentLabel
    t_max: float
    num_points: int
    integrator: IntegratorConfig
    output_path: str
    sweep: Optional[Tuple[str, Tuple[float, ...]]] = None
    raw: dict = field(default=None, compare=False, repr=False)


def _require_keys(section, mapping, allowed, required):
    if not isinstance(mapping, dict):
        raise ValidationError(f"'{section or 'document'}' must be an object", key=section)
    unknown = set(mapping) - set(allowed)
    if unknown:
        key = sorted(unknown)[0]
        raise ValidationError(f"unknown key '{section}.{key}'", key=f"{section}.{key}")
    for key in required:
        if key not in mapping:
            raise ValidationError(f"missing key '{section}.{key}'", key=f"{section}.{key}")


def _finite(value):
    """value is a JSON number (not a bool) that a float holds finitely; the
    json module reads NaN and Infinity as floats."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond float range
        return False


def _number(section, key, value, positive=False):
    if not _finite(value):
        raise ValidationError(f"'{section}.{key}' must be a finite number",
                              key=f"{section}.{key}")
    if positive and value <= 0:
        raise ValidationError(f"'{section}.{key}' must be positive", key=f"{section}.{key}")
    return float(value)


def _complex_pair(section, key, value):
    if not isinstance(value, (list, tuple)) or len(value) != 2 or not all(map(_finite, value)):
        raise ValidationError(
            f"'{section}.{key}' must be a [re, im] pair of finite numbers",
            key=f"{section}.{key}",
        )
    return complex(value[0], value[1])


def sweep_tag(value):
    """The text a sweep value contributes to its output file name."""
    return f"{value:g}"


def parse_config(document):
    """Validate a JSON configuration document into a RunConfig."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    if not isinstance(data, dict):
        raise ValidationError("top-level document must be an object")

    _require_keys(
        "", data,
        allowed=("system", "hamiltonian", "initial_state", "time",
                 "integrator", "outputs", "sweep"),
        required=("system", "hamiltonian", "initial_state", "time", "outputs"),
    )

    sec = data["system"]
    _require_keys("system", sec, allowed=("two_j", "hbar"), required=("two_j",))
    two_j = sec["two_j"]
    if isinstance(two_j, bool) or not isinstance(two_j, int) or two_j < 0:
        raise ValidationError("'system.two_j' must be a non-negative integer",
                              key="system.two_j")
    hbar = _number("system", "hbar", sec.get("hbar", 1.0), positive=True)
    system = SpinSystem(two_j=two_j, hbar=hbar)

    ham = data["hamiltonian"]
    if not isinstance(ham, dict) or "model" not in ham:
        raise ValidationError("'hamiltonian.model' is required", key="hamiltonian.model")
    name = ham["model"]
    if name not in MODELS:
        raise ValidationError(
            f"unknown hamiltonian model '{name}'; available: {sorted(MODELS)}",
            key="hamiltonian.model",
        )
    model_params = MODELS[name][0]
    _require_keys("hamiltonian", ham, allowed=("model",) + model_params,
                  required=("model",) + model_params)
    params = {}
    if name == "operator_terms":
        params["terms"] = _parse_terms(ham["terms"])
    else:
        pname = model_params[0]
        params[pname] = _number("hamiltonian", pname, ham[pname])

    ini = data["initial_state"]
    _require_keys("initial_state", ini, allowed=("sx", "sy"), required=("sx", "sy"))
    label = CoherentLabel(
        _complex_pair("initial_state", "sx", ini["sx"]),
        _complex_pair("initial_state", "sy", ini["sy"]),
    )

    tim = data["time"]
    _require_keys("time", tim, allowed=("t_max", "num_points"),
                  required=("t_max", "num_points"))
    t_max = _number("time", "t_max", tim["t_max"], positive=True)
    num_points = tim["num_points"]
    if isinstance(num_points, bool) or not isinstance(num_points, int) or num_points < 2:
        raise ValidationError("'time.num_points' must be an integer >= 2",
                              key="time.num_points")

    integ = data.get("integrator", {})
    _require_keys("integrator", integ, allowed=("rel_tol", "abs_tol", "max_step"),
                  required=())
    max_step = (_number("integrator", "max_step", integ["max_step"], positive=True)
                if "max_step" in integ else float("inf"))
    integrator = IntegratorConfig(
        rel_tol=_number("integrator", "rel_tol", integ.get("rel_tol", 1e-10), positive=True),
        abs_tol=_number("integrator", "abs_tol", integ.get("abs_tol", 1e-12), positive=True),
        max_step=max_step,
    )

    out = data["outputs"]
    _require_keys("outputs", out, allowed=("path",), required=("path",))
    path = out["path"]
    if not isinstance(path, str) or not path:
        raise ValidationError("'outputs.path' must be a non-empty string",
                              key="outputs.path")

    sweep = None
    if "sweep" in data:
        sw = data["sweep"]
        _require_keys("sweep", sw, allowed=("parameter", "values"),
                      required=("parameter", "values"))
        pname = sw["parameter"]
        if name == "operator_terms" or pname not in model_params:
            raise ValidationError(
                f"sweep parameter '{pname}' is not a numeric parameter of model '{name}'",
                key="sweep.parameter",
            )
        values = sw["values"]
        if not isinstance(values, list) or not values:
            raise ValidationError("'sweep.values' must be a non-empty list",
                                  key="sweep.values")
        values = tuple(
            _number("sweep", f"values[{i}]", v) for i, v in enumerate(values)
        )
        tags = [sweep_tag(v) for v in values]
        for i, tag in enumerate(tags):
            if tag in tags[:i]:
                raise ValidationError(
                    f"sweep values {values[tags.index(tag)]!r} and {values[i]!r} "
                    f"would both write the output '{pname}={tag}'",
                    key="sweep.values",
                )
        sweep = (pname, values)

    return RunConfig(
        system=system,
        model_name=name,
        model_params=params,
        initial_state=label,
        t_max=t_max,
        num_points=num_points,
        integrator=integrator,
        output_path=path,
        sweep=sweep,
        raw=data,
    )


def _parse_terms(raw_terms):
    if not isinstance(raw_terms, list) or not raw_terms:
        raise ValidationError("'hamiltonian.terms' must be a non-empty list",
                              key="hamiltonian.terms")
    terms = []
    for i, item in enumerate(raw_terms):
        sec = f"hamiltonian.terms[{i}]"
        _require_keys(sec, item, allowed=("coefficient", "x", "y"),
                      required=("coefficient", "x", "y"))
        coeff = item["coefficient"]
        if isinstance(coeff, (int, float)) and not isinstance(coeff, bool):
            cval = complex(_number(sec, "coefficient", coeff))
        else:
            cval = _complex_pair(sec, "coefficient", coeff)
        factors = []
        for axis in ("x", "y"):
            fac = item[axis]
            if (
                not isinstance(fac, list) or len(fac) != 2
                or not isinstance(fac[0], str)
                or isinstance(fac[1], bool) or not isinstance(fac[1], int)
            ):
                raise ValidationError(
                    f"'{sec}.{axis}' must be [kind, integer power]", key=f"{sec}.{axis}"
                )
            factors.append((fac[0], fac[1]))
        try:
            terms.append(OperatorTerm(cval, factors[0], factors[1]))
        except ValueError as exc:
            raise ValidationError(f"'{sec}': {exc}", key=sec) from exc
    return terms


def _operator_terms_model(system, params):
    """A term list that does not assemble to a Hermitian operator is a
    configuration mistake, so it surfaces as ValidationError."""
    try:
        return build_operator_model(system, params["terms"])
    except NotHermitian as exc:
        raise ValidationError(
            f"'hamiltonian.terms' does not assemble to a Hermitian operator: {exc}",
            key="hamiltonian.terms",
        ) from exc


# model name -> (parameters, summary, builder(system, params))
MODELS = {
    "phase_coupling": (
        ("lambda",), "lambda (coupling rate); H = lambda hbar J3 (x) J3",
        lambda system, p: phase_coupling_model(PhaseCouplingParams(lam=p["lambda"], sys=system)),
    ),
    "free_precession": (
        ("b3",), "b3 (field); H = b3 (J3 (x) I + I (x) J3), non-interacting",
        lambda system, p: free_precession_model(system, p["b3"]),
    ),
    "exchange_coupling": (
        ("lambda",), "lambda; H = (lambda hbar / 2)(J+ (x) J- + J- (x) J+)",
        lambda system, p: exchange_coupling_model(system, p["lambda"]),
    ),
    "operator_terms": (
        ("terms",), "terms: list of {coefficient, x: [kind, power], y: [kind, power]}",
        _operator_terms_model,
    ),
}


def build_model(cfg, override=None):
    """Instantiate the configured Hamiltonian model.

    override, when given, is a (param_name, value) pair from a sweep.
    """
    params = dict(cfg.model_params)
    if override is not None:
        params[override[0]] = override[1]
    return MODELS[cfg.model_name][2](cfg.system, params)


def available_models():
    """Name -> parameter summary of the built-in Hamiltonians."""
    return {name: summary for name, (_, summary, _) in MODELS.items()}
