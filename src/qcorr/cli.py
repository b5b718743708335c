"""Command-line front end.

Subcommands: analyze (full correlation report of a three-qubit state),
sweep (interpolation families over a p grid, as CSV, table or JSON), verify
(Monte-Carlo property checks), discord2q (standalone two-qubit discord).
Exit codes: 0 success, 1 validation error, 2 I/O error, 3 internal
invariant failure, 4 verification violations.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import sys

from .errors import (
    InternalInvariantError,
    ParseError,
    UnsupportedInputError,
    ValidationError,
)
from . import qstate
from . import bipartite
from . import tripartite
from . import verify as verify_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2
EXIT_INTERNAL = 3
EXIT_VIOLATIONS = 4


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 by default, which this tool reserves for
    # I/O failures; flag problems are validation errors
    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qcorr",
                     description="Correlation structure of few-qubit states")
    subs = parser.add_subparsers(dest="command", required=True)

    p_an = subs.add_parser("analyze", parents=[], help="full report of one state")
    p_an.add_argument("state", help="state file or named state (ghz, w, "
                      "ghz_tilde:p=0.8, w_tilde:p=0.8, acin:l0,l1,l2,l3,l4[,theta])")
    p_an.add_argument("--format", choices=("table", "json"), default="table")
    p_an.add_argument("--dump-reductions", metavar="DIR",
                      help="write each two-qubit reduction as matrix JSON")
    p_an.set_defaults(func=cmd_analyze)

    p_sw = subs.add_parser("sweep", help="family sweep over p, as CSV, table or JSON")
    p_sw.add_argument("family", choices=("ghz_tilde", "w_tilde", "both"))
    p_sw.add_argument("p_min", type=float)
    p_sw.add_argument("p_max", type=float)
    p_sw.add_argument("step", type=float)
    p_sw.add_argument("--out", metavar="PATH", help="file for the --format "
                      "output (default: stdout, with the summary on stderr)")
    p_sw.add_argument("--format", choices=("csv", "table", "json"),
                      default="csv")
    p_sw.set_defaults(func=cmd_sweep)

    p_vf = subs.add_parser("verify", help="Monte-Carlo property checks")
    p_vf.add_argument("--samples", type=int, default=100, metavar="N")
    p_vf.add_argument("--seed", type=int, default=0, metavar="S")
    p_vf.add_argument("--qubits", type=int, default=3, metavar="n")
    p_vf.add_argument("--oracle", action="store_true",
                      help="also cross-check the optimizer against closed forms")
    p_vf.add_argument("--format", choices=("table", "json"), default="table")
    p_vf.set_defaults(func=cmd_verify)

    p_dq = subs.add_parser("discord2q", help="two-qubit discord of a matrix file")
    p_dq.add_argument("matrix_file")
    p_dq.add_argument("--measured", metavar="PARTY",
                      help="party of the file to measure (default: its second)")
    p_dq.add_argument("--format", choices=("table", "json"), default="table")
    p_dq.set_defaults(func=cmd_discord2q)

    return parser


def named_state(token: str):
    """Resolve a named-state token, or return None for file paths.

    The registry covers the reference states (ghz, w), the interpolation
    families (ghz_tilde:p=0.8, w_tilde:p=0.8), and the five-amplitude
    canonical form (acin:l0,l1,l2,l3,l4[,theta]).
    """
    name, sep, arg = token.partition(":")
    if name == "ghz" and not sep:
        return tripartite.ghz_state()
    if name == "w" and not sep:
        return tripartite.w_state()
    if name in tripartite.FAMILIES:
        if not sep:
            raise ValidationError(f"{name} needs a parameter, e.g. {name}:p=0.8")
        key, eq, value = arg.partition("=")
        if not eq or key != "p":
            raise ValidationError(f"malformed family parameter {arg!r}")
        try:
            p = float(value)
        except ValueError:
            raise ValidationError(f"malformed family parameter {arg!r}")
        return tripartite.FAMILIES[name](p)
    if name == "acin":
        if not sep:
            raise ValidationError(
                "acin needs coefficients, e.g. acin:0.7,0.1,0.1,0.1,0.69"
            )
        try:
            values = [float(x) for x in arg.split(",")]
        except ValueError:
            raise ValidationError(f"malformed acin coefficients {arg!r}")
        if len(values) not in (5, 6):
            raise ValidationError(
                f"acin takes 5 coefficients plus optional theta, got {len(values)}"
            )
        return tripartite.acin_state(tripartite.AcinForm(*values))
    return None


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    # + 0.0 keeps noise-level negatives from printing as -0.000000
    return f"{round(value, 6) + 0.0:.6f}"


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_text(path, text):
    # write-then-rename so readers never observe a partial file; a failed
    # write or rename removes the temp file before the error propagates
    tmp = f"{path}.tmp"
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def cmd_analyze(args) -> int:
    state = named_state(args.state) or qstate.load_state(args.state)
    report = tripartite.correlation_report(state)
    if args.dump_reductions:
        _dump_reductions(state, args.dump_reductions)
    if args.format == "json":
        sys.stdout.write(_json_dumps(report.to_dict()))
        return EXIT_OK
    lines = []
    for name in tripartite.REPORT_FIELDS:
        lines.append(f"{name} = {_fmt(getattr(report, name))}")
    lines.append("pairwise_mutual = "
                 + ",".join(_fmt(float(x)) for x in report.pairwise_mutual))
    lines.append("cut_mutual = "
                 + ",".join(_fmt(float(x)) for x in report.cut_mutual))
    lines.append("ordering = " + ",".join(report.ordering.permutation))
    lines.append(f"pure = {_fmt(report.pure)}")
    lines.append(f"method = {report.method}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _dump_reductions(state, directory):
    rho = qstate.density_of(state)
    os.makedirs(directory, exist_ok=True)
    for i, j in itertools.combinations(rho.parties, 2):
        red = qstate.partial_trace(rho, [i, j])
        path = os.path.join(directory, f"reduction_{i}{j}.json")
        _write_text(path, qstate.matrix_to_json(red))
        sys.stderr.write(f"wrote {path}\n")


def _sweep_rows(args):
    ps = tripartite.sweep_grid(args.p_min, args.p_max, args.step)
    families = (("ghz_tilde", "w_tilde") if args.family == "both"
                else (args.family,))
    return tripartite.sweep_families(ps, families), families


def _sweep_text(rows, fmt):
    if fmt == "json":
        return _json_dumps([{"p": p, "family": family, **report.to_dict()}
                            for p, family, report in rows])
    table = [[f"{p:.6f}", family]
             + [f"{getattr(report, name):.6f}" for name in tripartite.REPORT_FIELDS]
             for p, family, report in rows]
    if fmt == "csv":
        lines = [tripartite.CSV_HEADER] + [",".join(cells) for cells in table]
    else:
        header = tripartite.CSV_HEADER.split(",")
        lines = ["  ".join(h.ljust(10) for h in header)]
        lines += ["  ".join(c.ljust(10) for c in cells).rstrip() for cells in table]
    return "\n".join(lines) + "\n"


def cmd_sweep(args) -> int:
    rows, families = _sweep_rows(args)
    text = _sweep_text(rows, args.format)
    summary = None
    if len(families) == 2:
        star = tripartite.find_discord_crossover(rows)
        if star is None:
            summary = "no discord crossover in range\n"
        else:
            summary = f"discord crossover p* = {star:.6f}\n"
    if args.out:
        _write_text(args.out, text)
        sys.stderr.write(f"wrote {args.out}\n")
        if summary:
            sys.stdout.write(summary)
    else:
        sys.stdout.write(text)
        if summary:
            sys.stderr.write(summary)
    return EXIT_OK


def _verify_table(report) -> str:
    name_w = max(len(c.name) for c in report.checks)
    lines = [
        f"{'check'.ljust(name_w)}  {'tolerance':>10}  {'checked':>8}  "
        f"{'violated':>8}  {'worst_margin':>13}  worst_seed"
    ]
    for c in report.checks:
        margin = "-" if c.worst_margin is None else f"{c.worst_margin:.3e}"
        seed = "-" if c.worst_seed is None else str(c.worst_seed)
        lines.append(
            f"{c.name.ljust(name_w)}  {c.tolerance:>10.1e}  "
            f"{c.count_checked:>8}  {c.count_violated:>8}  {margin:>13}  {seed}"
        )
    verdict = "pass" if report.passes else \
        f"FAIL ({report.total_violations} violations)"
    lines.append(f"samples = {report.n_samples}, seed = {report.seed}: {verdict}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if args.oracle and args.qubits != 3:
        raise ValidationError("--oracle requires --qubits 3")
    report = verify_mod.run_suite(args.samples, args.seed, args.qubits)
    elapsed = report.elapsed
    if args.oracle:
        oracle = verify_mod.oracle_crosscheck(args.samples, args.seed)
        elapsed += oracle.elapsed
        report = verify_mod.ViolationReport(
            seed=report.seed,
            n_samples=report.n_samples,
            checks=report.checks + oracle.checks,
            elapsed=elapsed,
        )
    if args.format == "json":
        sys.stdout.write(_json_dumps(report.to_dict()))
    else:
        sys.stdout.write(_verify_table(report))
    sys.stderr.write(f"elapsed {elapsed:.2f}s\n")
    return EXIT_OK if report.passes else EXIT_VIOLATIONS


def cmd_discord2q(args) -> int:
    rho = qstate.load_matrix(args.matrix_file)
    measured = rho.parties[1] if args.measured is None else args.measured
    # one search per direction; the symmetrized fields derive from the two
    direct = bipartite.classical_correlation_directional(rho, measured)
    (other,) = [p for p in rho.parties if p != measured]
    reverse = bipartite.classical_correlation_directional(rho, other)
    mi = bipartite.mutual_information(rho)
    symmetrized = max(direct.value, reverse.value)
    payload = {
        "measured": measured,
        "classical": direct.value,
        "discord": bipartite.discord_from(mi, direct.value),
        "optimal_basis": {
            "theta": direct.optimal_basis.theta,
            "phi": direct.optimal_basis.phi,
        },
        "symmetrized_classical": symmetrized,
        "symmetrized_discord": bipartite.discord_from(mi, symmetrized),
        "mutual_information": mi,
    }
    if args.format == "json":
        sys.stdout.write(_json_dumps(payload))
        return EXIT_OK
    lines = [
        f"measured = {payload['measured']}",
        f"classical = {_fmt(payload['classical'])}",
        f"discord = {_fmt(payload['discord'])}",
        f"basis_theta = {_fmt(payload['optimal_basis']['theta'])}",
        f"basis_phi = {_fmt(payload['optimal_basis']['phi'])}",
        f"symmetrized_classical = {_fmt(payload['symmetrized_classical'])}",
        f"symmetrized_discord = {_fmt(payload['symmetrized_discord'])}",
        f"mutual_information = {_fmt(payload['mutual_information'])}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"qcorr: parse error: {exc}\n")
        return EXIT_VALIDATION
    except (ValidationError, UnsupportedInputError) as exc:
        sys.stderr.write(f"qcorr: {exc}\n")
        return EXIT_VALIDATION
    except InternalInvariantError as exc:
        sys.stderr.write(f"qcorr: internal invariant failure: {exc}\n")
        return EXIT_INTERNAL
    except OSError as exc:
        sys.stderr.write(f"qcorr: i/o error: {exc}\n")
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
