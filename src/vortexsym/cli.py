"""Command-line front end: scenario reports, figures, and the raw engine.

Subcommands ``square | kite | rectangle | trapezoid | all`` run the
classification scenarios and exit nonzero if any oracle check fails;
``groebner`` exposes the basis engine on polynomial text files.  ``all``
runs kite, rectangle and square in a forked child while the trapezoid,
itself split into two lanes, runs in the main process; reports, JSON and
exit codes are those of a serial run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from decimal import Decimal
from fractions import Fraction

from vortexsym.fork import fork_call
from vortexsym.groebner import ExponentOverflowError, Ideal, buchberger, eliminate
from vortexsym.ratpoly import GrevLex, Lex, Poly, VarRegistry
from vortexsym.scenarios import run_kite, run_rectangle, run_square, run_trapezoid
from vortexsym.scenarios.report import DEFAULT_EPS
from vortexsym.trigvortex import SCENARIOS
from vortexsym import targets

SCENARIO_ORDER = ("kite", "rectangle", "square", "trapezoid")

# representative angle for each family's figure
FIGURE_THETA2 = {
    "square": math.pi / 2,
    "kite": targets.KITE_SPECIAL_THETA2,
    "rectangle": math.pi / 4,
    "trapezoid": next(row["theta2"] for row in targets.ANGLE_TABLE if row["true_trapezoid"]),
}


def _parse_fraction(text):
    """A rational from ``n/d`` or a finite decimal.  Malformed or infinite
    input is a usage error (exit 2), not an arithmetic traceback."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(Decimal(text))
    except (ArithmeticError, ValueError):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite rational") from None


def _parse_mu(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--mu needs four comma-separated rationals")
    mus = tuple(_parse_fraction(p) for p in parts)
    if any(m == 0 for m in mus):
        raise argparse.ArgumentTypeError("circulation parameters must be nonzero")
    return mus


def _parse_eps(text):
    eps = _parse_fraction(text)
    if eps <= 0:
        raise argparse.ArgumentTypeError("--eps must be positive")
    return eps


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vortexsym",
        description="Symmetric relative equilibria of the (1+4)-vortex problem,"
        " re-derived in exact arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("square", "kite", "rectangle", "trapezoid", "all"):
        p = sub.add_parser(name, help=f"run the {name} classification")
        p.add_argument("--json", metavar="PATH", help="write the report as JSON")
        p.add_argument("--svg", metavar="DIR", help="write a configuration figure")
        if name in ("square", "kite", "rectangle"):
            p.add_argument(
                "--mu",
                type=_parse_mu,
                default=None,
                help="four circulation parameters, e.g. 1,2,1,2 or 3/2,1,3/2,1",
            )
        if name != "square":
            p.add_argument(
                "--eps",
                type=_parse_eps,
                default=DEFAULT_EPS,
                help="width of every reported root and window enclosure (default 1e-9)",
            )
        if name in ("trapezoid", "all"):
            p.add_argument(
                "--check-appendix",
                action="store_true",
                help="include the full coefficient-table and line-count oracles",
            )

    g = sub.add_parser("groebner", help="compute a reduced basis from a file")
    g.add_argument("--in", dest="infile", required=True, metavar="FILE")
    g.add_argument("--vars", required=True, help="comma-separated variable names")
    g.add_argument(
        "--order",
        choices=("lex", "grevlex"),
        default="lex",
        help="monomial order of the basis (default lex); no effect with --eliminate,"
        " whose basis is in grevlex on the kept variables",
    )
    g.add_argument("--eliminate", default=None, help="comma-separated variables to drop")
    g.add_argument("--json", metavar="PATH", help="write the basis as JSON")
    return parser


def _run_scenario(name, args):
    mus = getattr(args, "mu", None)
    if name == "square":
        return run_square(mus=mus)
    if name == "kite":
        return run_kite(mus=mus, eps=args.eps)
    if name == "rectangle":
        return run_rectangle(mus=mus, eps=args.eps)
    if name == "trapezoid":
        return run_trapezoid(eps=args.eps, check_appendix=args.check_appendix)
    raise ValueError(name)


def _print_report(report, stream):
    print(f"== {report.scenario} ==", file=stream)
    if report.conditions:
        print("conditions:", "; ".join(report.conditions), file=stream)
    for root in report.roots:
        print(
            f"  root {root.decimal:+.6f} (width {root.width:.2e})  theta2 = {root.theta2:+.6f}",
            file=stream,
        )
    verdict = report.stability.get("verdict")
    if verdict:
        print(f"stability: {verdict}", file=stream)
    for check in report.oracle_checks:
        print(f"[{check.status.upper():4s}] {check.name}: {check.detail}", file=stream)
    print(file=stream)


def render_json(document):
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def emit_svg(thetas, path):
    """Write an SVG figure of the four vortices at angles ``thetas``: unit
    circle, dominant vortex, labelled quadrilateral."""
    order = sorted(range(4), key=lambda i: thetas[i] % (2 * math.pi))
    points = [(math.cos(t), -math.sin(t)) for t in thetas]  # y flipped for screen coordinates
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.45 -1.45 2.9 2.9" width="360" height="360">',
        '<circle cx="0" cy="0" r="1" fill="none" stroke="#888" stroke-width="0.015"/>',
        '<circle cx="0" cy="0" r="0.06" fill="#222"/>',
    ]
    edge = " ".join(f"{points[i][0]:.5f},{points[i][1]:.5f}" for i in order)
    lines.append(
        f'<polygon points="{edge}" fill="none" stroke="#1f77b4" stroke-width="0.02"/>'
    )
    for i, (x, y) in enumerate(points):
        lines.append(f'<circle cx="{x:.5f}" cy="{y:.5f}" r="0.045" fill="#d62728"/>')
        lx, ly = 1.18 * x, 1.18 * y
        lines.append(
            f'<text x="{lx:.5f}" y="{ly + 0.05:.5f}" font-size="0.16" '
            f'text-anchor="middle">{i + 1}</text>'
        )
    lines.append("</svg>")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")


def _run_in_order(names, args):
    """Reports of the named scenarios in order; a ``ValueError`` that stops
    one ends the list in its place."""
    outcomes = []
    for name in names:
        try:
            outcomes.append(_run_scenario(name, args))
        except ValueError as err:
            outcomes.append(err)
            break
    return outcomes


def _scenario_command(name, args, stream):
    """Run one scenario, or all four for ``all``, print each report and
    write the requested JSON and figures.

    ``all`` runs in two lanes: kite, rectangle and square run in a forked
    child (:func:`vortexsym.fork.fork_call`) while the trapezoid runs here.
    Reports, errors and exit codes come out in ``SCENARIO_ORDER`` as a
    serial run gives them; a scenario that raises ``ValueError`` prints its
    error after the reports before it, and the command exits 2.
    """
    names = SCENARIO_ORDER if name == "all" else (name,)
    side = names[:-1]
    join_side = fork_call(_run_in_order, side, args) if side else lambda: []
    try:
        last = _run_in_order(names[-1:], args)
    finally:
        outcomes = join_side()
    # a side list cut short ends in an error, where the loop stops
    outcomes += last
    reports = []
    for outcome in outcomes:
        if isinstance(outcome, ValueError):
            print(f"error: {outcome}", file=sys.stderr)
            return 2
        reports.append(outcome)
        _print_report(outcome, stream)
    try:
        if args.svg:
            os.makedirs(args.svg, exist_ok=True)
            for scenario_name in names:
                path = os.path.join(args.svg, f"{scenario_name}.svg")
                emit_svg(SCENARIOS[scenario_name].angles(FIGURE_THETA2[scenario_name]), path)
        if args.json:
            if len(reports) == 1:
                document = reports[0].to_document()
            else:
                document = {"scenarios": [r.to_document() for r in reports]}
            with open(args.json, "w") as handle:
                handle.write(render_json(document))
    except OSError as err:
        return _cannot_write(err)
    return 0 if all(r.passed() for r in reports) else 1


def _cannot_write(err):
    """One error line and exit 2 for an output path that cannot be written,
    so that exit 1 keeps meaning a failed oracle check."""
    print(f"error: cannot write {err.filename}: {err.strerror}", file=sys.stderr)
    return 2


def _groebner_command(args, stream):
    names = [v.strip() for v in args.vars.split(",") if v.strip()]
    try:
        registry = VarRegistry(names)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    polys = []
    try:
        with open(args.infile) as handle:
            for line in handle:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                polys.append(Poly.parse(registry, line))
    except OSError as err:
        print(f"error: cannot read {args.infile}: {err}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as err:
        print(f"error: malformed polynomial: {err}", file=sys.stderr)
        return 2
    if not polys:
        print("error: no polynomials in input", file=sys.stderr)
        return 2
    try:
        ideal = Ideal.of(*polys)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    order = Lex() if args.order == "lex" else GrevLex()
    dropped = []
    if args.eliminate is not None:
        dropped = [v.strip() for v in args.eliminate.split(",") if v.strip()]
        if not dropped:
            print("error: --eliminate names no variable", file=sys.stderr)
            return 2
        for k, v in enumerate(dropped):
            if not registry.contains(v):
                print(f"error: cannot eliminate unknown variable {v!r}", file=sys.stderr)
                return 2
            if v in dropped[:k]:
                print(f"error: cannot eliminate variable {v!r} twice", file=sys.stderr)
                return 2
    try:
        if dropped:
            gb = eliminate(ideal, dropped)
        else:
            gb = buchberger(ideal, order)
    except ExponentOverflowError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    basis_text = [p.format(gb.order) for p in gb.polys]
    for text in basis_text:
        print(text, file=stream)
    document = {
        "basis": basis_text,
        "order": gb.order.kind,
        "eliminated": dropped,
    }
    if args.json:
        try:
            with open(args.json, "w") as handle:
                handle.write(render_json(document))
        except OSError as err:
            return _cannot_write(err)
    else:
        print(render_json(document), end="", file=stream)
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    stream = sys.stdout
    if args.command == "groebner":
        return _groebner_command(args, stream)
    return _scenario_command(args.command, args, stream)


if __name__ == "__main__":
    sys.exit(main())
