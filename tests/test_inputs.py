"""The input contract of the library's real-number, state and raw-matrix arguments.

Every real argument takes an int, a float or a numpy integer or floating
scalar within 1e-12 of its range; every state argument takes a PureState or
a DensityMatrix; von_neumann_entropy and relative_entropy read a raw matrix
as a DensityMatrix. Everything else raises ValidationError, naming the
argument or the entry point. The integer arguments have their own contract
in test_qstate.py.
"""

import math

import numpy as np
import pytest

from qcorr import (
    AcinForm,
    DensityMatrix,
    MeasurementBasis,
    PureState,
    ValidationError,
    binary_entropy,
    canonical_ordering,
    classical_correlation_directional,
    concurrence,
    conditional_entropy_measured,
    correlation_report,
    density_of,
    discord_directional,
    double_conditional_entropy,
    eof_from_concurrence,
    family_ghz_tilde,
    family_w_tilde,
    genuine_total,
    genuine_total_via_relative_entropy,
    ghz_state,
    min_double_conditional_entropy,
    mutual_information,
    one_to_rest_concurrence,
    partial_trace,
    permute_parties,
    relative_entropy,
    symmetrized_classical,
    symmetrized_discord,
    to_pure,
    total_classical_mixed,
    total_information,
    von_neumann_entropy,
)
from qcorr.tripartite import sweep_grid
from test_qstate import _no_allocation

Z = MeasurementBasis(0.0, 0.0)
BELL = PureState(np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0))


def _acin(i):
    """AcinForm with coefficient i set to the argument, the others valid."""
    return lambda v: AcinForm(*[v if j == i else 0.5 for j in range(5)])


# every real argument: the call with that argument set to v, the name its
# message gives it, and a value beyond 1e-12 outside its range
REAL_ARGUMENTS = [
    ("binary_entropy", binary_entropy, "binary entropy argument", 1.5),
    ("eof_from_concurrence", eof_from_concurrence, "concurrence", -0.5),
    ("family_ghz_tilde", family_ghz_tilde, "p", 1.0 + 2e-12),
    ("family_w_tilde", family_w_tilde, "p", -2e-12),
    ("MeasurementBasis theta", lambda v: MeasurementBasis(v, 0.0), "theta", 3.5),
    ("MeasurementBasis phi", lambda v: MeasurementBasis(0.0, v), "phi", -0.2),
    *[(f"AcinForm lambda{i}", _acin(i), f"lambda{i}", -0.5) for i in range(5)],
    ("AcinForm theta", lambda v: AcinForm(1.0, 0.0, 0.0, 0.0, 0.0, v), "theta", 7.0),
    ("sweep_grid p_min", lambda v: sweep_grid(v, 1.0, 0.1), "p_min", -0.5),
    ("sweep_grid p_max", lambda v: sweep_grid(0.0, v, 0.1), "p_max", 1.5),
    ("sweep_grid step", lambda v: sweep_grid(0.0, 1.0, v), "step", -0.1),
]
INVALID_REALS = [("bool", True), ("str", "0.5"), ("None", None), ("complex", 0.5 + 0.0j),
                 ("nan", math.nan), ("array", np.array([0.5])), ("0-d array", np.array(0.5))]

# every entry point that takes a state: the call, and the parties it needs
# (None: any number)
STATE_ARGUMENTS = [
    ("partial_trace", lambda s: partial_trace(s, ["a"]), None),
    ("permute_parties", lambda s: permute_parties(s, ["b", "a"]), None),
    ("to_pure", to_pure, None),
    ("mutual_information", mutual_information, 2),
    ("concurrence", concurrence, 2),
    ("one_to_rest_concurrence", one_to_rest_concurrence, 1),
    ("conditional_entropy_measured", lambda s: conditional_entropy_measured(s, Z), 2),
    ("classical_correlation_directional", classical_correlation_directional, 2),
    ("symmetrized_classical", symmetrized_classical, 2),
    ("symmetrized_discord", symmetrized_discord, 2),
    ("total_information", total_information, 3),
    ("canonical_ordering", canonical_ordering, 3),
    ("genuine_total", genuine_total, 3),
    ("genuine_total_via_relative_entropy", genuine_total_via_relative_entropy, 3),
    ("correlation_report", correlation_report, 3),
    ("total_classical_mixed", total_classical_mixed, 3),
    ("min_double_conditional_entropy", lambda s: min_double_conditional_entropy(s, "c"), 3),
    ("double_conditional_entropy", lambda s: double_conditional_entropy(s, "c", (Z, Z)), 3),
]

# raw matrices that are not qubit density matrices, each with the invariant
# its message names
INVALID_MATRICES = [
    ("non-PSD", np.diag([1.5, -0.5, 0.0, 0.0]), "positivity violated"),
    ("trace 2", 2.0 * np.eye(4) / 4.0, "unit trace violated"),
    ("non-Hermitian", np.triu(np.ones((4, 4))) / 4.0, "hermiticity violated"),
    ("3x3", np.eye(3) / 3.0, "dimension 3 is not a power of two"),
]
MIXED = DensityMatrix(np.eye(4) / 4.0)
RAW_ARGUMENTS = [
    ("von_neumann_entropy", von_neumann_entropy),
    ("relative_entropy rho", lambda m: relative_entropy(m, MIXED)),
    ("relative_entropy sigma", lambda m: relative_entropy(MIXED, m)),
]


def _contract():
    """(id, call, value, message prefix, whether numpy may run) of each case."""
    for case, call, name, out in REAL_ARGUMENTS:
        for kind, value in INVALID_REALS + [("out of range", out)]:
            reason = ("outside" if kind in ("nan", "out of range")
                      else "must be a real number")
            yield f"{case}-{kind}", call, value, f"{name} {value!r} {reason}", False
    for case, call, n in STATE_ARGUMENTS:
        for kind, value in (("list", [1, 0]), ("raw matrix", np.eye(4) / 4.0)):
            yield (f"{case}-{kind}", call, value,
                   f"{case} expects a PureState or DensityMatrix", True)
        if n is not None:
            wrong = BELL if n != 2 else ghz_state()
            yield (f"{case}-parties", call, wrong,
                   f"{case} expects {n} parties, got {len(wrong.labels)}", True)
    for case, call in RAW_ARGUMENTS:
        for kind, value, invariant in INVALID_MATRICES:
            yield f"{case}-{kind}", call, value, invariant, True


CONTRACT = list(_contract())


@pytest.mark.parametrize("call, value, message, numpy_runs",
                         [case[1:] for case in CONTRACT], ids=[case[0] for case in CONTRACT])
def test_input_contract(monkeypatch, call, value, message, numpy_runs):
    if not numpy_runs:  # a real argument is checked before any array exists
        for attr in ("zeros", "empty", "array", "asarray"):
            monkeypatch.setattr(np, attr, _no_allocation)
    with pytest.raises(ValidationError) as exc:
        call(value)
    assert str(exc.value).startswith(message)
    assert exc.type is ValidationError


def test_real_arguments_of_any_real_type_pass():
    reference = family_ghz_tilde(0.5).amplitudes
    for p in (np.float64(0.5), np.float32(0.5)):
        np.testing.assert_array_equal(family_ghz_tilde(p).amplitudes, reference)
    np.testing.assert_array_equal(family_w_tilde(np.int64(1)).amplitudes,
                                  family_w_tilde(1.0).amplitudes)
    assert binary_entropy(np.float64(0.5)) == binary_entropy(0.5) == 1.0
    assert eof_from_concurrence(1) == eof_from_concurrence(1.0) == 1.0
    basis = MeasurementBasis(np.int64(1), np.float32(0.5))
    assert (type(basis.theta), type(basis.phi)) == (float, float)
    assert basis == MeasurementBasis(1.0, 0.5)
    form = AcinForm(1, 0, 0, 0, np.int8(0))
    assert all(type(x) is float for x in (*form.lambdas, form.theta))
    assert sweep_grid(np.int64(0), 1, np.float64(0.5)) == [0.0, 0.5, 1.0]
    # within 1e-12 of the range passes, clamped where the argument is a probability
    assert sweep_grid(-1e-12, 1.0 + 1e-12, 0.5) == [0.0, 0.5, 1.0]
    assert MeasurementBasis(-1e-12, 2.0 * math.pi).phi == 2.0 * math.pi


@pytest.mark.parametrize("call", [mutual_information, concurrence, symmetrized_classical,
                                  symmetrized_discord, classical_correlation_directional,
                                  discord_directional,
                                  lambda s: conditional_entropy_measured(s, Z)])
def test_two_qubit_functions_take_a_pure_state(call):
    assert call(BELL) == call(density_of(BELL))


def test_state_functions_take_a_pure_state():
    psi = ghz_state()
    assert partial_trace(psi, ["a"]).matrix.tobytes() == \
        partial_trace(density_of(psi), ["a"]).matrix.tobytes()
    assert permute_parties(psi, ["c", "a", "b"]).parties == ("c", "a", "b")
    assert one_to_rest_concurrence(PureState(np.array([1.0, 0.0]))) == 0.0


def test_raw_matrices_read_as_density_matrices():
    rho = density_of(ghz_state())
    sigma = DensityMatrix(np.eye(8) / 8.0)
    for m in (rho, np.array(rho.matrix)):
        assert von_neumann_entropy(m) == von_neumann_entropy(rho)
    want = relative_entropy(rho, sigma)
    assert relative_entropy(rho.matrix, sigma) == want
    assert relative_entropy(rho, sigma.matrix) == want
    assert relative_entropy(rho.matrix, sigma.matrix) == want
    # a raw argument takes the other's parties, so labelled states still compare
    labelled = density_of(ghz_state(labels=["x", "y", "z"]))
    assert relative_entropy(labelled, sigma.matrix) == want
    with pytest.raises(ValidationError, match="party mismatch"):
        relative_entropy(labelled, sigma)
