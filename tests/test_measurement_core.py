"""The real Pauli-tensor measurement core against routes that share no code with it.

conditional_entropy_measured and double_conditional_entropy evaluate
sum_i p_i S(rho_k|i) from the Pauli tensor R of the state. The reference
route here applies the projectors of MeasurementBasis to the density
matrix, traces out the measured parties with partial_trace and sums
p * von_neumann_entropy, as the definition reads. The one-party search
descends the sphere on the analytic derivatives of that sum, which are
checked against central differences, and its minima against those of the
grid and Nelder-Mead search it replaced.
"""

import itertools
import json
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qcorr import (
    AcinForm,
    DensityMatrix,
    MeasurementBasis,
    ValidationError,
    acin_state,
    binary_entropy,
    conditional_entropy_measured,
    density_of,
    double_conditional_entropy,
    haar_random_pure,
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
    partner = np.random.default_rng(0).permutation(len(th))
    for seed, kept in ((5, "a"), (17, "b"), (100, "c")):
        rho = random_mixed_state(3, seed)
        r = tripartite._measured_tensor(rho, kept, "test")
        grid = tripartite._two_angle_values(r, rows)
        scalar = tripartite._two_angle_objective(r)
        # every point once as u and once as v
        worst = max(abs(scalar((th[i], ph[i], th[k], ph[k])) - grid[i, k])
                    for i, k in enumerate(partner))
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


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(w=st.tuples(*[st.one_of(st.sampled_from([0.0, 1e-13, 0.5, 1.0]),
                               st.floats(-2.0, 2.0))] * 4))
def test_outcome_slope_value_is_the_scalar_outcome_entropy(w):
    assert repr(bipartite._outcome_slope(*w)[0]) == repr(bipartite._outcome_entropy(*w, 0.5))


def one_angle(rho, measured):
    """The one-party evaluator of rho measured on the party measured."""
    slot = rho.parties.index(measured)
    return bipartite._one_angle_objective(
        bipartite._pauli_tensor(rho.matrix, [slot, 1 - slot]))


def test_one_angle_derivatives_match_central_differences():
    # inside the ball, where every outcome is mixed: central differences with
    # step 1e-5 err by about 1e-10 here (truncation h^2 times the third
    # derivative, rounding 1e-16 / h), so 1e-8 is far from either
    h = 1e-5
    worst = 0.0
    for seed in range(24):
        fun = one_angle(random_mixed_state(2, seed), "ab"[seed % 2])
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3)
        u *= rng.uniform(0.2, 0.95) / np.linalg.norm(u)
        f, grad, hess = fun(u.tolist(), True)
        assert fun(u.tolist()) == f
        for k, e in enumerate(np.eye(3)):
            up, down = fun((u + h * e).tolist(), True), fun((u - h * e).tolist(), True)
            worst = max(worst, abs((up[0] - down[0]) / (2 * h) - grad[k]),
                        *np.abs(np.subtract(up[1], down[1]) / (2 * h) - hess[k]))
    assert worst < 1e-8, worst


@SETTINGS
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), theta=THETA, phi=PHI)
def test_fixed_point_step_never_raises_f(seed, measured, theta, phi):
    # concavity gives f(-grad / |grad|) <= f(u) exactly; 1e-14 allows for the
    # rounding of two evaluations of a sum of order 1
    fun = one_angle(random_mixed_state(2, seed), measured)
    f, grad, _ = fun(bipartite._bloch_xyz(theta, phi), True)
    norm = math.sqrt(sum(g * g for g in grad))
    assert fun([-g / norm for g in grad]) <= f + 1e-14


@SETTINGS
@given(seed=st.integers(0, 47), measured=st.sampled_from("ab"), theta=THETA, phi=PHI)
def test_descent_moves_only_downhill(seed, measured, theta, phi):
    # every point the run moves to lowers f by more than tol = 1e-15, and the
    # run ends at the last of them: no higher than its start, and at most tol
    # above any point it tried
    fun = one_angle(random_mixed_state(2, seed), measured)
    tried = []

    def recorded(u, hessian=False):
        out = fun(u, hessian)
        tried.append((tuple(u), out[0] if hessian else out))
        return out

    res = bipartite._sphere_descent(recorded, bipartite._bloch_xyz(theta, phi),
                                    **bipartite._DESCENT_OPTIONS)
    path = [tried[0]]
    for u, f in tried[1:]:
        if f < path[-1][1] - 1e-15:
            path.append((u, f))
    assert (tuple(res.x), res.fun) == path[-1]
    assert res.success and res.fun <= min(f for _, f in tried) + 1e-15


def list_hessian(r, u):
    """The Hessian of the one-party evaluator as nested list comprehensions.

    The formula _one_angle_objective evaluated before it was written out
    entry by entry, kept here as the reference for its bits.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3), (d0, d1, d2, d3) = r.tolist()
    rt = ((b1, b2, b3), (c1, c2, c3), (d1, d2, d3))
    gram = [[x * y + x2 * y2 + x3 * y3 for y, y2, y3 in rt] for x, x2, x3 in rt]
    ux, uy, uz = u
    e0, e1, e2, e3 = [ux * b + uy * c + uz * d for b, c, d in zip(*r[1:].tolist())]
    _, _, pk, p2, pn = bipartite._outcome_slope(a0 + e0, a1 + e1, a2 + e2, a3 + e3)
    _, _, mk, m2, mn = bipartite._outcome_slope(a0 - e0, a1 - e1, a2 - e2, a3 - e3)
    hess = [[(pk + mk) * g for g in row] for row in gram]
    for sign, k1, k2, n in ((1.0, pk, p2, pn), (-1.0, mk, m2, mn)):
        if n > 0.0:
            w = (a1 + sign * e1) / n, (a2 + sign * e2) / n, (a3 + sign * e3) / n
            q = [x * w[0] + y * w[1] + z * w[2] for x, y, z in rt]
            v = [qi - n / (a0 + sign * e0) * x0 for qi, x0 in zip(q, (b0, c0, d0))]
            hess = [[h + k2 * vi * vj - k1 * qi * qj for h, vj, qj in zip(row, v, q)]
                    for row, vi, qi in zip(hess, v, q)]
    return hess


# (1 - t) rho_0 + t rho_seed measured on slot, with rho_0 the product state
# |00> or the classical mixture of |00> and |11>: at t = 0 and theta = 0 both
# outcomes are exactly pure or of probability 0, at t = 1e-13 one has p <= 1e-12
MIXTURE = st.tuples(st.integers(0, 47), st.sampled_from(["product", "classical"]),
                    st.one_of(st.sampled_from([0.0, 1e-13, 1e-12, 1e-6, 1.0]),
                              st.floats(0.0, 1.0)),
                    st.sampled_from([0, 1]))


def mixture_tensor(seed, rho0, t, slot):
    base = np.diag([1.0, 0.0, 0.0, 0.0] if rho0 == "product" else [0.5, 0.0, 0.0, 0.5])
    matrix = (1.0 - t) * base + t * random_mixed_state(2, seed).matrix
    return bipartite._pauli_tensor(matrix, [slot, 1 - slot])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mix=MIXTURE, theta=THETA, phi=PHI, radius=st.sampled_from([1.0, 0.5]))
def test_value_mode_is_the_derivative_mode_value(mix, theta, phi, radius):
    fun = bipartite._one_angle_objective(mixture_tensor(*mix))
    u = [radius * x for x in bipartite._bloch_xyz(theta, phi)]
    assert repr(fun(u)) == repr(fun(u, True)[0])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(mix=MIXTURE, theta=THETA, phi=PHI, radius=st.sampled_from([1.0, 0.5]))
def test_written_out_hessian_is_the_list_formula(mix, theta, phi, radius):
    r = mixture_tensor(*mix)
    u = [radius * x for x in bipartite._bloch_xyz(theta, phi)]
    hess = bipartite._one_angle_objective(r)(u, True)[2]
    assert repr([list(row) for row in hess]) == repr(list_hessian(r, u))


# the one-party minima of the grid and Nelder-Mead search this one replaced
# (the 60 x 120 hemisphere grid, then Nelder-Mead with tolerances 1e-10) in
# the six directions of one_angle_minima.json: the 48 mixed_report pool
# states and its warm-up input 100, reductions of Haar states of seeds
# 20000-20039, and Acin forms with random lambdas, seeds 300-399 of the W
# class (lambda4 = 0)
MINIMA = json.loads((pathlib.Path(__file__).parent / "one_angle_minima.json").read_text())


def acin_form(seed):
    rng = np.random.default_rng(seed)
    lam = rng.random(5)
    if seed >= 300:
        lam[4] = 0.0
    lam /= np.linalg.norm(lam)
    return AcinForm(*lam.tolist(), theta=float(rng.uniform(0.0, 2.0 * math.pi)))


@pytest.mark.parametrize("family, state", [
    ("mixed", lambda seed: random_mixed_state(3, seed)),
    ("haar", lambda seed: density_of(haar_random_pure(3, seed))),
    ("acin", lambda seed: density_of(acin_state(acin_form(seed)))),
], ids=["mixed", "haar", "acin"])
def test_search_never_ends_above_the_replaced_search(family, state):
    # at most 1e-12 above the recorded minimum, with the value reported at the
    # reported basis; the fixed-point step alone ended up to 2.7e-4 above it
    # on the Acin forms, where f is flat along the sphere
    above = {}
    for seed, want in MINIMA[family].items():
        rho = state(int(seed))
        for (measured, other), old in zip(MINIMA["directions"], want):
            red = partial_trace(rho, sorted([measured, other]))
            got, basis = bipartite._min_conditional_entropy(red, red.parties.index(measured))
            assert got == conditional_entropy_measured(red, basis, measured)
            if got > old + 1e-12:
                above[seed, measured + other] = got - old
    assert above == {}

