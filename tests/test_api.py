import importlib.util
import inspect
import math
from pathlib import Path

import numpy as np
import pytest

import reinhardt
from reinhardt.cli import main
from reinhardt.errors import InvalidInputError

PUBLIC = {
    "Certificate", "CertificateEntry", "Classification", "Convergent",
    "DbarReport", "DivergentLinear", "DomainSpec",
    "Inconclusive", "InvalidInputError", "MultiIndex", "NumericalFailureError",
    "RadialProfile", "SubharmonicityCheck", "Window",
    "certificate_ladder", "check_subharmonic", "classify_growth", "dbar_canonical_report",
    "density_mass", "find_window", "index_window", "lambda_alpha",
    "log_c_gamma_sq", "log_integrate", "log_profile_interval_moment", "log_radial_moment",
    "omega0_log_ck_sq", "profile_family",
    "s_alpha_partials", "sample_ladder", "shell_bound",
}


def test_public_api_is_pinned():
    # A new public name is a deliberate change to this set, not a side effect.
    exported = {
        name for name, value in vars(reinhardt).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert exported == PUBLIC
    assert len(PUBLIC) == 31


_POLYDISC = reinhardt.DomainSpec.polydisc(1.0)
_ALPHA = reinhardt.MultiIndex(1, 0)
_WINDOW = reinhardt.Window(a=0.2, b=0.5, A=0.1, B=1.0)

# Every entry point that takes an index, called with the index x.
INDEX_ENTRY_POINTS = {
    "log_c_shells": lambda x: reinhardt.moments.log_c_shells(_POLYDISC, (x,)),
    "s_alpha_partials": lambda x: reinhardt.s_alpha_partials(_POLYDISC, _ALPHA, (x,)),
    "shell_bound": lambda x: reinhardt.shell_bound(_POLYDISC, _ALPHA, x),
    "sample_ladder n_max": lambda x: reinhardt.sample_ladder(x),
    "sample_ladder n_step": lambda x: reinhardt.sample_ladder(8, x),
    "index_window": lambda x: reinhardt.index_window(_WINDOW, x),
    "MultiIndex": lambda x: reinhardt.MultiIndex(x, 0),
    "wiegerinck_omega_k": lambda x: reinhardt.DomainSpec.wiegerinck_omega_k(x),
    "omega0_log_ck_sq": lambda x: reinhardt.omega0_log_ck_sq(x),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, 1.5, -1, True])
@pytest.mark.parametrize("entry", list(INDEX_ENTRY_POINTS))
def test_a_bad_index_is_invalid_input(entry, value):
    # NaN and inf once escaped as ValueError and OverflowError from int();
    # True once passed as the index 1, though the CLI rejects booleans.
    with pytest.raises(InvalidInputError):
        INDEX_ENTRY_POINTS[entry](value)


_POLYDISC2 = reinhardt.DomainSpec.polydisc(2.0)
_P1 = reinhardt.profile_family("inv_one_minus_pow", {"p": 1})

# Every entry point that takes a relative tolerance, called with the tolerance t.
TOL_ENTRY_POINTS = {
    "log_integrate": lambda t: reinhardt.log_integrate(
        lambda r, owner: 0.0 * r, np.zeros(1), np.ones(1), t),
    "log_c_shells": lambda t: reinhardt.moments.log_c_shells(_POLYDISC2, (4,), t),
    "s_alpha_partials": lambda t: reinhardt.s_alpha_partials(_POLYDISC2, _ALPHA, (4,), t),
    "shell_bound": lambda t: reinhardt.shell_bound(_POLYDISC2, _ALPHA, 4, t),
    "dbar_canonical_report": lambda t: reinhardt.dbar_canonical_report(_POLYDISC2, 4, t),
    "log_c_gamma_sq omega0": lambda t: reinhardt.log_c_gamma_sq(
        reinhardt.DomainSpec.wiegerinck_omega0(), reinhardt.MultiIndex(1, 1), t),
    "log_radial_moment zero": lambda t: reinhardt.log_radial_moment(
        reinhardt.profile_family("zero"), [1.0], [2.0], t),
    "density_mass": lambda t: reinhardt.density_mass(_P1, [3.0], [4.0], (0.2, 0.6), t),
    "certificate_ladder": lambda t: reinhardt.certificate_ladder(_P1, reinhardt.MultiIndex(1, 1), (8,), t),
}


@pytest.mark.parametrize("value", ["x", None, True, 0, 2e-4, math.nan, object()],
                         ids=["text", "none", "bool", "zero", "loose", "nan", "object"])
@pytest.mark.parametrize("entry", list(TOL_ENTRY_POINTS))
def test_a_bad_tolerance_is_invalid_input(entry, value):
    # The closed-form paths once accepted any of these, and memoized shells
    # under them; the quadrature paths raised AttributeError.
    reinhardt.moments.clear_moment_caches()
    with pytest.raises(InvalidInputError, match=r"rel_tol must lie in \(0, 1e-4\]"):
        TOL_ENTRY_POINTS[entry](value)
    assert not reinhardt.moments._MOMENT_MEMO


@pytest.mark.parametrize("value", ["nan", "inf", "1.5", "-1"])
def test_a_bad_omega_k_index_is_a_one_line_exit_1(value, capsys):
    # The Omega_k report is built by the wiegerinck task, from its k.
    assert main(["wiegerinck", "--k", value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    line, = captured.err.splitlines()
    assert line.startswith("error: ")


def test_every_perfbench_tracer_binding_resolves():
    # perfbench/tracer.py patches these names at run time; a name the package
    # drops would otherwise fail only a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    bindings = [(module, name) for module, name, _ in tracer.BINDINGS]
    for module, name in [*bindings, ("reinhardt.domains", "profile_family")]:
        assert callable(getattr(importlib.import_module(module), name)), (module, name)
