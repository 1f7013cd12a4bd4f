"""Command-line entry point.

Subcommands: verify (run a named suite, optionally writing a JSON report),
eval (localized normal form of an expression), phi (image under the
generator map), ygen (centralizer elements and their xi / operator images),
whittaker (Whittaker space of a tensor module), closure (submodule slice
probe), freeness (Cartan-translate rank report). Exit status is nonzero only
when a suite case fails; inconclusive bounded searches exit 0.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from .base import as_scalar, run_scope
from .centralizer import pi1, xi_y, y_element
from .expr import eval_loc, eval_phi, eval_seed, parse_element
from .gl2 import gl2_simple
from .report import emit_report
from .suites import run_suite, suite_names
from .tmodule import closure_probe, random_seed_vector, uh_freeness_check, whittaker_space


def _pair(text: str, name: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"{name} expects two comma-separated values")
    out = []
    for part in parts:
        part = part.strip()
        try:
            out.append(as_scalar(Fraction(part)) if "/" in part else int(part))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad {name} component {part!r}") from exc
    return tuple(out)


def _int_pair(text: str, name: str) -> tuple[int, int]:
    a, b = _pair(text, name)
    if a.denominator != 1 or b.denominator != 1:
        raise argparse.ArgumentTypeError(f"{name} must be integral")
    return (int(a), int(b))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sbar2lab",
        description="Exact workbench for the constant-divergence vector field algebra.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=suite_names())
    p.add_argument("--max-degree", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH", default=None)

    p = sub.add_parser("eval", help="localized normal form of an expression")
    p.add_argument("expr")

    p = sub.add_parser("phi", help="image of an expression under the generator map")
    p.add_argument("expr")

    p = sub.add_parser("ygen", help="centralizer element for an index")
    p.add_argument("--alpha", required=True, type=lambda s: _int_pair(s, "alpha"))
    p.add_argument("--xi", action="store_true", help="print the enveloping realization")
    p.add_argument("--pi1", action="store_true", help="print the operator image")
    p.add_argument("--lambda", dest="lam", type=lambda s: _pair(s, "lambda"), default=None)

    p = sub.add_parser("whittaker", help="Whittaker space of a tensor module")
    p.add_argument("--lambda", dest="lam", required=True, type=lambda s: _pair(s, "lambda"))
    p.add_argument("--type", dest="a", required=True, type=lambda s: _pair(s, "type"))
    p.add_argument("--degree", type=int, required=True)

    p = sub.add_parser("closure", help="submodule slice probe")
    p.add_argument("--lambda", dest="lam", required=True, type=lambda s: _pair(s, "lambda"))
    p.add_argument("--type", dest="a", required=True, type=lambda s: _pair(s, "type"))
    p.add_argument("--seed-expr", required=True, help='module vector, or "random"')
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--gen-degree", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="rng seed for random seeds")

    p = sub.add_parser("freeness", help="Cartan-translate rank report")
    p.add_argument("--lambda", dest="lam", required=True, type=lambda s: _pair(s, "lambda"))
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--type", dest="a", type=lambda s: _pair(s, "type"), default=(1, 1))

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with run_scope():  # each Y_a and phi(letter) is built once per command
        return _run(args)


def _run(args) -> int:
    try:
        if args.command == "verify":
            report = run_suite(args.suite, args.max_degree, args.seed)
            if args.json:
                emit_report(report, "json", args.json)
            sys.stdout.write(emit_report(report, "text"))
            return 1 if report.failures else 0

        if args.command == "eval":
            print(eval_loc(parse_element(args.expr)))
            return 0

        if args.command == "phi":
            print(eval_phi(parse_element(args.expr)))
            return 0

        if args.command == "ygen":
            alpha = args.alpha
            module = None if args.lam is None else gl2_simple(args.lam)  # a bad weight exits before any output
            if not (args.xi or args.pi1):
                print(y_element(alpha))
                return 0
            if args.xi:
                print(xi_y(alpha))
            if args.pi1:
                formal = pi1(alpha)
                matrix = () if module is None else formal.evaluate(module)
                print(formal)
                for row in matrix:
                    print("  [" + ", ".join(str(c) for c in row) + "]")
            return 0

        if args.command == "whittaker":
            module = gl2_simple(args.lam)
            basis = whittaker_space(module, args.a, args.degree)
            print(f"dim = {len(basis)}")
            for w in basis:
                print(f"  {w}")
            return 0

        if args.command == "closure":
            module = gl2_simple(args.lam)
            a = args.a
            if args.seed_expr.strip() == "random":
                seed_vec = random_seed_vector(module, a, random.Random(args.seed))
            else:
                seed_vec = eval_seed(parse_element(args.seed_expr), module, a)
            report = closure_probe(seed_vec, args.degree, args.gen_degree)
            print(f"seed = {seed_vec}")
            print(f"trusted window: degree <= {report['window']}")
            for deg, (got, ambient) in sorted(report["table"].items()):
                print(f"  degree <= {deg}: {got} of {ambient}")
            verdict = "full" if report["full"] else ("proper" if report["proper"] else "mixed")
            print(f"verdict: {verdict}")
            return 0

        if args.command == "freeness":
            module = gl2_simple(args.lam)
            report = uh_freeness_check(module, args.a, args.degree)
            print(
                f"rank {report['rank']} of {report['expected']} "
                f"({report['monomials']} monomials x dim {report['dim']})"
            )
            return 0 if report["full"] else 1
    except (ValueError, NotImplementedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unhandled command")


if __name__ == "__main__":
    sys.exit(main())
