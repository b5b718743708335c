"""Recorded outputs of the code under test, and the one recorder that writes them.

pins.json maps each name to a value the code produced when it was recorded:
a repr, a JSON text or a sha256 hex digest, or a list or dict of them. Each
name has a producer here, a function of no arguments that computes the value
from the code as it is now, and test_pin compares the two with ==, so any
change in rounding shows. Running

    python tests/test_pins.py

rewrites pins.json from the producers; its diff is then the old -> new
record of a deliberate output change. Values that a search must reach,
rather than values it produced, are yardsticks and are never recorded here:
TWO_ANGLE_MISSES, CCQ_MISSES and the classical-flag minima in
test_tripartite.py, one_angle_minima.json, the analytic constants and
everything under perfbench/.

The states the producers use live here, and the other test modules import
them from here.
"""

import contextlib
import functools
import hashlib
import io
import itertools
import json
import math
import pathlib
import tempfile

import numpy as np
import pytest

from qcorr import (
    AcinForm,
    DensityMatrix,
    MeasurementBasis,
    PureState,
    acin_state,
    classical_correlation_directional,
    concurrence,
    correlation_report,
    density_of,
    discord_directional,
    double_conditional_entropy,
    evaluate_sample,
    genuine_classical,
    genuine_discord,
    genuine_total_via_relative_entropy,
    ghz_state,
    haar_random_pure,
    matrix_to_json,
    min_double_conditional_entropy,
    oracle_crosscheck,
    partial_trace,
    random_mixed_state,
    relative_entropy,
    symmetrized_classical,
    symmetrized_discord,
    three_tangle,
    total_discord_pure,
    w_state,
)
from qcorr import bipartite, verify
from qcorr.cli import main

PINS_FILE = pathlib.Path(__file__).with_name("pins.json")


def bell_state():
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2.0))


def werner(p):
    bell = density_of(bell_state()).matrix
    return DensityMatrix(p * bell + (1.0 - p) * np.eye(4) / 4.0, ("a", "b"))


def bell_with_spectator():
    # parties (a, b, c): a is |0>, b and c share a Bell pair
    bell = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)
    return PureState(np.kron([1.0, 0.0], bell).astype(complex))


# a four-term Acin form on which the pairwise-discord dominance statement
# fails (README "Known property failure"): D_bc exceeds D_ab by 5.2e-3 in the
# canonical ordering (a, b, c), whose mutual informations lie 3e-2 apart
DOMINANCE_COUNTEREXAMPLE = AcinForm(0.72, 0.0, 0.15, 0.18,
                                    math.sqrt(1.0 - 0.72**2 - 0.15**2 - 0.18**2))

DIRECTIONAL_STATES = {
    "mixed5": lambda: partial_trace(random_mixed_state(3, 5), ["a", "b"]),
    "mixed100": lambda: partial_trace(random_mixed_state(3, 100), ["b", "c"]),
    "pure7": lambda: partial_trace(density_of(haar_random_pure(3, 7)), ["a", "c"]),
}


def double_test_angles():
    # pole and equator bases, where vector entries are (signed) zeros or
    # rounding residues, then seeded random angles
    rng = np.random.default_rng(2011)
    scale = [math.pi, 2 * math.pi, math.pi, 2 * math.pi]
    return ([(0.0, 0.0, 0.0, 0.0), (math.pi, 0.0, 0.0, math.pi),
             (math.pi / 2, 0.0, math.pi, 1.5 * math.pi)]
            + [tuple(x) for x in rng.random((27, 4)) * scale])


PURE_PATH_STATES = {
    **{f"haar{k}": functools.partial(haar_random_pure, 3, k) for k in range(10)},
    "ghz": ghz_state,
    "w": w_state,
    "cex": lambda: acin_state(DOMINANCE_COUNTEREXAMPLE),
}
FEW = ("haar0", "haar1", "haar2", "ghz", "w", "cex")

PARTIAL_TRACE_STATES = {
    "haar3_5": lambda: density_of(haar_random_pure(3, 5)),
    "haar4_2": lambda: density_of(haar_random_pure(4, 2)),
    "mixed3_4": lambda: random_mixed_state(3, 4),
    "ghz3": lambda: density_of(ghz_state()),
    # real amplitudes of both signs: imaginary parts that are -0.0
    "real3": lambda: density_of(PureState(np.array([0.5, -0.5, 0, 0.5, 0, 0, -0.5, 0],
                                                   complex))),
}


def _triple(res):
    basis = res.optimal_basis
    return [repr(res.value), repr(basis.theta), repr(basis.phi)]


def _symmetrized(seed):
    rho = random_mixed_state(2, seed)
    return [repr(symmetrized_classical(rho)), repr(symmetrized_discord(rho)),
            _triple(discord_directional(rho, "a")), _triple(discord_directional(rho, "b"))]


def _cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(list(argv))
    return out.getvalue()


def _discord2q_json(seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"mixed{seed}.json"
        path.write_text(matrix_to_json(random_mixed_state(2, seed)))
        return _cli_stdout("discord2q", str(path), "--format", "json")


def _sweep_json_sha256():
    out = _cli_stdout("sweep", "both", "0", "1", "0.01", "--format", "json")
    return hashlib.sha256(out.encode()).hexdigest()


def _pure_psi(key):
    # bell_with_spectator's product cut takes the degenerate D2 branch
    return bell_with_spectator() if key == "spectator" else haar_random_pure(3, int(key))


def _pure_parts(key):
    # the accessors next to the report: (J, total_discord_pure, (J2, D2),
    # genuine_classical, genuine_discord)
    psi = _pure_psi(key)
    rep = correlation_report(psi)
    return repr((rep.J, total_discord_pure(psi), (rep.J2, rep.D2),
                 genuine_classical(psi), genuine_discord(psi)))


def _double_entropies():
    # on random_mixed_state(3, 5) and (3, 17) in turn and kept parties a, b, c
    # in turn
    states = (random_mixed_state(3, 5), random_mixed_state(3, 17))
    values = []
    for i, x in enumerate(double_test_angles()):
        bases = (MeasurementBasis(x[0], x[1]), MeasurementBasis(x[2], x[3]))
        values.append(repr(double_conditional_entropy(states[i % 2], "abc"[i % 3], bases)))
    return values


def _oracle_20_0_worst():
    # the largest margin each check of oracle_crosscheck(20, 0) saw
    worst = {}
    add = verify._Accumulator.add

    def recording_add(acc, margin, seed):
        worst[acc.name] = max(worst.get(acc.name, margin), margin)
        add(acc, margin, seed)

    verify._Accumulator.add = recording_add
    try:
        oracle_crosscheck(20, 0)
    finally:
        verify._Accumulator.add = add
    return {name: repr(margin) for name, margin in worst.items()}


def _relative_entropies(k):
    rho = density_of(haar_random_pure(3, k))
    sigma = random_mixed_state(3, k)
    other = random_mixed_state(3, k + 1)
    return {
        f"haar{k}|mixed{k}": lambda: relative_entropy(rho, sigma),
        f"mixed{k}|haar{k}": lambda: relative_entropy(sigma, rho),
        f"mixed{k}|mixed{k + 1}": lambda: relative_entropy(sigma, other),
        f"raw mixed{k}|mixed{k + 1}": lambda: relative_entropy(sigma.matrix, other.matrix),
        f"haar{k}ab|I/4": lambda: relative_entropy(partial_trace(rho, ["a", "b"]),
                                                   DensityMatrix(np.eye(4) / 4)),
    }


def _partial_trace_sha256(name):
    state, keep = name.split(":")
    reduced = partial_trace(PARTIAL_TRACE_STATES[state](), list(keep)).matrix
    return hashlib.sha256(reduced.tobytes()).hexdigest()


def _partial_trace_names():
    for state, make in PARTIAL_TRACE_STATES.items():
        parties = make().parties
        for size in range(1, len(parties)):
            for keep in itertools.combinations(parties, size):
                yield f"{state}:{''.join(keep)}"


def _descent_runs(call):
    # x, fun, nit, nfev and success of every one-party descent the call runs
    runs = []
    real = bipartite._sphere_descent

    def record(fun, x0, **options):
        res = real(fun, x0, **options)
        runs.append(repr([[float(v) for v in res.x], res.fun, res.nit, res.nfev, res.success]))
        return res

    bipartite._sphere_descent = record
    try:
        call()
    finally:
        bipartite._sphere_descent = real
    return runs


def _producers():
    """{pin name: zero-argument producer of its value}."""
    p = functools.partial
    produce = {
        "werner_08": lambda: repr(classical_correlation_directional(werner(0.8)).value),
        "sweep_json_sha256": _sweep_json_sha256,
        "double_conditional_entropy": _double_entropies,
        "oracle_crosscheck/20_0": lambda: repr(oracle_crosscheck(20, 0).to_dict()),
        "oracle_crosscheck/20_0_worst": _oracle_20_0_worst,
        "descent_runs/mixed_report_100":
            p(_descent_runs, lambda: correlation_report(random_mixed_state(3, 100))),
        "descent_runs/oracle_crosscheck_1_256":
            p(_descent_runs, lambda: oracle_crosscheck(1, 256)),
    }
    for name, party in (("mixed5", "a"), ("mixed5", "b"), ("mixed100", "b"),
                        ("mixed100", "c"), ("pure7", "a"), ("pure7", "c")):
        produce[f"directional/{name}/{party}"] = p(
            lambda n, x: _triple(classical_correlation_directional(DIRECTIONAL_STATES[n](), x)),
            name, party)
    for seed in range(12):
        produce[f"symmetrized/{seed}"] = p(_symmetrized, seed)
    for seed in (3, 8):
        produce[f"discord2q_json/{seed}"] = p(_discord2q_json, seed)
    for seed, kept in itertools.product((5, 100), "abc"):
        produce[f"min_double/{seed}{kept}"] = p(
            lambda s, k: repr(min_double_conditional_entropy(random_mixed_state(3, s), k)),
            seed, kept)
    for seed in (0, 100):
        produce[f"mixed_report/{seed}"] = p(
            lambda s: repr(correlation_report(random_mixed_state(3, s)).to_dict()), seed)
    for key in ("3", "17", "42", "spectator"):
        produce[f"pure_report/{key}"] = p(
            lambda k: repr(correlation_report(_pure_psi(k)).to_dict()), key)
        produce[f"pure_parts/{key}"] = p(_pure_parts, key)
    for name, psi in PURE_PATH_STATES.items():
        produce[f"margins/{name}"] = p(lambda s: repr(evaluate_sample(s(), 7)["margins"]), psi)
        if name not in FEW:
            continue
        produce[f"genuine_total_via_relative_entropy/{name}"] = p(
            lambda s: repr(genuine_total_via_relative_entropy(density_of(s()))), psi)
        produce[f"three_tangle/{name}"] = p(lambda s: repr(three_tangle(s())), psi)
        for keep in ("ab", "ac", "bc"):
            produce[f"concurrence/{name}:{keep}"] = p(
                lambda s, x: repr(concurrence(partial_trace(density_of(s()), list(x)))), psi, keep)
    for k in range(3):
        produce[f"genuine_total_via_relative_entropy/mixed{k}"] = p(
            lambda s: repr(genuine_total_via_relative_entropy(random_mixed_state(3, s))), k)
        produce[f"concurrence/mixed2q{k}"] = p(
            lambda s: repr(concurrence(random_mixed_state(2, s))), k)
        for name in _relative_entropies(k):
            produce[f"relative_entropy/{name}"] = p(
                lambda k, n: repr(_relative_entropies(k)[n]()), k, name)
    for name in _partial_trace_names():
        produce[f"partial_trace_sha256/{name}"] = p(_partial_trace_sha256, name)
    return produce


PRODUCERS = _producers()


def recorded():
    return json.loads(PINS_FILE.read_text(encoding="utf-8"))


def test_every_pin_has_one_producer():
    assert set(recorded()) == set(PRODUCERS)


@pytest.mark.parametrize("name", sorted(PRODUCERS))
def test_pin(name):
    assert PRODUCERS[name]() == recorded()[name]


def record():
    """Rewrite pins.json from the producers: sorted keys, indent 1, one final newline."""
    pins = {name: produce() for name, produce in PRODUCERS.items()}
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
