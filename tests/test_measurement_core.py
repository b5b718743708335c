"""The real Pauli-tensor measurement core against routes that share no code with it.

conditional_entropy_measured and double_conditional_entropy evaluate
sum_i p_i S(rho_k|i) from the Pauli tensor R of the state. The reference
route here applies the projectors of MeasurementBasis to the density
matrix, traces out the measured parties with partial_trace and sums
p * von_neumann_entropy, as the definition reads.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr import (
    DensityMatrix,
    MeasurementBasis,
    ValidationError,
    binary_entropy,
    conditional_entropy_measured,
    double_conditional_entropy,
    partial_trace,
    random_mixed_state,
    von_neumann_entropy,
)
from qcorr import bipartite, tripartite

# theta at the poles and the equator as well as anywhere in [0, pi]
THETA = st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi]),
                  st.floats(0.0, math.pi))
PHI = st.floats(0.0, 2.0 * math.pi, exclude_max=True)
BASIS = st.builds(MeasurementBasis, THETA, PHI)
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def projector_route(rho, measured, kept):
    """sum p S(rho_kept | outcomes) with measured = {party: MeasurementBasis}."""
    total = 0.0
    for outcome in itertools.product((0, 1), repeat=len(measured)):
        op = np.eye(1)
        chosen = dict(zip(measured, outcome))
        for party in rho.parties:
            if party in measured:
                factor = measured[party].projectors()[chosen[party]]
            else:
                factor = np.eye(2)
            op = np.kron(op, factor)
        m = op @ rho.matrix @ op
        p = float(np.trace(m).real)
        if p > 1e-12:
            state = DensityMatrix(m / p, rho.parties)
            total += p * von_neumann_entropy(partial_trace(state, [kept]))
    return total


@SETTINGS
@given(seed=st.integers(0, 47), basis=BASIS, measured=st.sampled_from("ab"))
def test_one_party_measurement_matches_projector_route(seed, basis, measured):
    rho = random_mixed_state(2, seed)
    kept = "b" if measured == "a" else "a"
    got = conditional_entropy_measured(rho, basis, measured)
    assert abs(got - projector_route(rho, {measured: basis}, kept)) < 1e-12


@SETTINGS
@given(seed=st.integers(0, 47), u=BASIS, v=BASIS, kept=st.sampled_from("abc"))
def test_two_party_measurement_matches_projector_route(seed, u, v, kept):
    rho = random_mixed_state(3, seed)
    i, j = [x for x in rho.parties if x != kept]
    got = double_conditional_entropy(rho, kept, (u, v))
    assert abs(got - projector_route(rho, {i: u, j: v}, kept)) < 1e-12


def test_scalar_and_grid_evaluators_agree_on_the_hemisphere():
    grid = tripartite.DOUBLE_GRID_DEFAULT
    th, ph, rows = bipartite._hemisphere(grid, grid)
    n = len(th)
    partner = np.random.default_rng(0).permutation(n)
    for seed, kept in ((5, "a"), (17, "b"), (100, "c")):
        rho = random_mixed_state(3, seed)
        r = tripartite._measured_tensor(rho, kept, "test")
        grid = tripartite._two_angle_values(r, rows)
        scalar = tripartite._two_angle_objective(r)
        # every point once as u and once as v
        worst = max(abs(scalar((th[i], ph[i], th[k], ph[k])) - grid[i, k])
                    for i, k in enumerate(partner))
        assert worst < 1e-14, (seed, worst)
        red = partial_trace(rho, [x for x in rho.parties if x != kept])
        r2 = bipartite._pauli_tensor(red.matrix, [1, 0])
        grid = bipartite._one_angle_values(r2, rows)
        scalar = bipartite._one_angle_objective(r2)
        worst = max(abs(scalar((th[i], ph[i])) - grid[i]) for i in range(n))
        assert worst < 1e-14, (seed, worst)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=st.tuples(*[st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
                               st.floats(-2.0, 2.0))] * 4),
       weight=st.sampled_from([0.5, 0.25]))
def test_scalar_outcome_entropy_is_the_binary_entropy_expression(w, weight):
    # the inlined scalar evaluator against binary_entropy, bit for bit
    w0, w1, w2, w3 = w
    p = weight * w0
    want = 0.0
    if p > 1e-12:
        lam = (1.0 + math.sqrt(w1 * w1 + w2 * w2 + w3 * w3) / w0) * 0.5
        want = p * binary_entropy(min(lam, 1.0))
    assert repr(bipartite._outcome_entropy(w0, w1, w2, w3, weight)) == repr(want)


def test_scalar_outcome_entropy_rejects_nan():
    with pytest.raises(ValidationError, match="binary entropy argument nan"):
        bipartite._outcome_entropy(1.0, math.nan, 0.0, 0.0, 0.5)
