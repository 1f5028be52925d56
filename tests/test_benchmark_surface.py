"""The package names the benchmark under perfbench/ reads, written out here
so that a refactor of src/ that hides one fails the test suite.

The tracer replaces the runner's names below, flow.adaptive_rk and
config.parse_config, and wraps the derivative callables of each model the
runner builds. It times the first read of `operator` through a subclass of
the model's class that replaces the property. The correctness gate imports
the phase-coupling closed forms and exact_purity_curve. The benchmark's own
checks stand flow's two integration functions in for the runner's names,
so the runner must import those very objects.

The model's `operator` property and its `htilde`/`grad`/`hess` attributes
cannot go without a change to the benchmark, even where a run needs none of
them: its check of a traced run requires every per-layer metric, among
them `models.operator_s` and the `spin.*_calls` counts of those attributes.
"""

import importlib

import pytest

import spinsemi as ss
from spinsemi import config, flow, runner

RUNNER_NAMES = ("build_model", "compute_curve", "write_csv", "integrate_trajectory",
                "integrate_stability", "SpectralPropagator", "reduced_density", "purity",
                "purity_sc_evaluate")

GATE_IMPORTS = {
    "spinsemi.config": ("CSV_COLUMNS", "build_model"),
    "spinsemi.models": ("PhaseCouplingParams", "pc_exact_purity", "pc_purity_sc"),
    "spinsemi.quantum": ("exact_purity_curve",),
}

MODEL_PARAMS = {
    "phase_coupling": {"lambda": 0.9},
    "free_precession": {"b3": 1.1},
    "exchange_coupling": {"lambda": 0.8},
    "operator_terms": {"terms": [ss.OperatorTerm(0.5, ("J+", 1), ("J-", 1)),
                                 ss.OperatorTerm(0.5, ("J-", 1), ("J+", 1))]},
}


@pytest.mark.parametrize("name", RUNNER_NAMES)
def test_runner_names_exist(name):
    assert callable(getattr(runner, name))


def test_wrapped_module_names_exist():
    assert callable(flow.adaptive_rk)
    assert callable(config.parse_config)


@pytest.mark.parametrize("name", ("integrate_trajectory", "integrate_stability"))
def test_runner_imports_the_flow_functions(name):
    assert callable(getattr(flow, name))
    assert getattr(runner, name) is getattr(flow, name)


@pytest.mark.parametrize("module", sorted(GATE_IMPORTS))
def test_gate_imports_resolve(module):
    mod = importlib.import_module(module)
    for name in GATE_IMPORTS[module]:
        assert hasattr(mod, name), f"{module}.{name}"


def test_phase_coupling_params_signature():
    sys = ss.SpinSystem(two_j=2)
    params = ss.PhaseCouplingParams(0.7, sys)
    assert (params.lam, params.sys) == (0.7, sys)
    assert ss.PhaseCouplingParams(lam=0.7, sys=sys) == params


def test_every_model_is_listed():
    assert set(MODEL_PARAMS) == set(config.MODELS)


@pytest.mark.parametrize("name", sorted(MODEL_PARAMS))
def test_model_surface(name):
    model = config.MODELS[name][2](ss.SpinSystem(two_j=2), MODEL_PARAMS[name])
    cls = type(model)
    assert isinstance(cls.operator, property)
    u = [0.3 + 0.1j, -0.2]
    for attr in ("htilde", "grad", "hess"):
        original = getattr(model, attr)
        assert callable(original)
        calls = []

        def replacement(*args, original=original, calls=calls):
            calls.append(args)
            return original(*args)

        setattr(model, attr, replacement)
        assert vars(model)[attr] is replacement
        getattr(model, attr)(u, u)
        assert len(calls) == 1
    # the first-read subclass: the property's getter, called through a
    # replacement property on a subclass the instance is moved to
    fget = cls.operator.fget
    reads = []

    def operator(self):
        reads.append(1)
        return fget(self)

    model.__class__ = type(cls.__name__, (cls,), {"operator": property(operator)})
    assert model.operator.shape == (9, 9)
    assert reads == [1]
