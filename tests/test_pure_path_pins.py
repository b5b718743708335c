"""Bit pins of the pure-state path that the harness and the reports run.

pure_path_pins.json holds repr()s and tobytes() digests recorded at commit
23fc16b, before the per-call cost of the small-matrix primitives was cut:
evaluate_sample's margins, the relative-entropy route to T3, the relative
entropy, the concurrence, the residual tangle and every partial trace of a
few states. The report and oracle pins elsewhere cover the closed forms;
these cover the harness's own routes, which share the primitives with them.
A primitive that returns other bits fails here even when every margin is
still small.
"""

import hashlib
import itertools
import json
import math
import pathlib

import numpy as np
import pytest

from qcorr import (
    AcinForm,
    DensityMatrix,
    PureState,
    acin_state,
    concurrence,
    density_of,
    evaluate_sample,
    genuine_total_via_relative_entropy,
    ghz_state,
    haar_random_pure,
    partial_trace,
    random_mixed_state,
    relative_entropy,
    three_tangle,
    w_state,
)

PINS = json.loads((pathlib.Path(__file__).parent / "pure_path_pins.json").read_text())

# tests/test_verify.py's DOMINANCE_COUNTEREXAMPLE
COUNTEREXAMPLE = AcinForm(0.72, 0.0, 0.15, 0.18,
                          math.sqrt(1.0 - 0.72**2 - 0.15**2 - 0.18**2))


def named_states():
    states = {f"haar{k}": haar_random_pure(3, k) for k in range(10)}
    states.update(ghz=ghz_state(), w=w_state(), cex=acin_state(COUNTEREXAMPLE))
    return states


def few_states():
    states = named_states()
    return {name: states[name] for name in ("haar0", "haar1", "haar2", "ghz", "w", "cex")}


def test_evaluate_sample_margins():
    got = {name: repr(evaluate_sample(psi, 7)["margins"])
           for name, psi in named_states().items()}
    assert got == PINS["margins"]


def test_genuine_total_via_relative_entropy():
    got = {name: repr(genuine_total_via_relative_entropy(density_of(psi)))
           for name, psi in few_states().items()}
    got.update({f"mixed{k}": repr(genuine_total_via_relative_entropy(random_mixed_state(3, k)))
                for k in range(3)})
    assert got == PINS["genuine_total_via_relative_entropy"]


def test_three_tangle():
    got = {name: repr(three_tangle(psi)) for name, psi in few_states().items()}
    assert got == PINS["three_tangle"]


def test_concurrence():
    got = {}
    for name, psi in few_states().items():
        rho = density_of(psi)
        for keep in (["a", "b"], ["a", "c"], ["b", "c"]):
            got[name + ":" + "".join(keep)] = repr(concurrence(partial_trace(rho, keep)))
    for k in range(3):
        got[f"mixed2q{k}"] = repr(concurrence(random_mixed_state(2, k)))
    assert got == PINS["concurrence"]


def test_relative_entropy():
    got = {}
    for k in range(3):
        rho = density_of(haar_random_pure(3, k))
        sigma = random_mixed_state(3, k)
        other = random_mixed_state(3, k + 1)
        got[f"haar{k}|mixed{k}"] = repr(relative_entropy(rho, sigma))
        got[f"mixed{k}|haar{k}"] = repr(relative_entropy(sigma, rho))
        got[f"mixed{k}|mixed{k + 1}"] = repr(relative_entropy(sigma, other))
        got[f"raw mixed{k}|mixed{k + 1}"] = repr(relative_entropy(sigma.matrix, other.matrix))
        got[f"haar{k}ab|I/4"] = repr(relative_entropy(partial_trace(rho, ["a", "b"]),
                                                      DensityMatrix(np.eye(4) / 4)))
    assert got == PINS["relative_entropy"]


@pytest.mark.parametrize("name, rho", [
    ("haar3_5", density_of(haar_random_pure(3, 5))),
    ("haar4_2", density_of(haar_random_pure(4, 2))),
    ("mixed3_4", random_mixed_state(3, 4)),
    ("ghz3", density_of(ghz_state())),
    # real amplitudes of both signs: imaginary parts that are -0.0
    ("real3", density_of(PureState(np.array([0.5, -0.5, 0, 0.5, 0, 0, -0.5, 0], complex)))),
])
def test_partial_trace_bytes(name, rho):
    got = {}
    for size in range(1, rho.n_parties):
        for keep in itertools.combinations(rho.parties, size):
            reduced = partial_trace(rho, list(keep)).matrix
            got[name + ":" + "".join(keep)] = hashlib.sha256(reduced.tobytes()).hexdigest()
    want = {key: value for key, value in PINS["partial_trace_sha256"].items()
            if key.startswith(name + ":")}
    assert want and got == want
