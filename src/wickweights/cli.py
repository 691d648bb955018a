"""Command-line interface.

Subcommands
-----------
weights    print the coefficient table of a weight function
moment     Gaussian average of a product of trace invariants
integrate  weighted integral of an entry monomial
verify     check the defining conditions and measure the next error order
sample     Monte Carlo estimate of a concrete monomial, optionally checked

Exit codes: 0 success, 1 failed verification or cross-check, 2 usage error.
Symbolic output is deterministic; sampling output is reproducible for a
fixed seed.  Every result is computed in the run that prints it: nothing is
read from or written to disk.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .algebra import PoleError, RatFunc
from .combinatorics import check_partition, partition_label, structure_label
from .integrate import error_order, integrate_monomial
from .weights import solve_weight, verify_conditions
from .wick import Ensemble, MonomialSpec, gaussian_trace_moment

#: The largest kappa each command runs without a warning: above it a cold run in the slowest ensemble, the COE,
#: passes about 10 s on two cores.  `weights` takes 4.2-5.6 s at 14, 8.1 s at 15 and 15 s at 16, and `verify`
#: 5.8-6.3 s at 10 and 12.5 s at 11.  `integrate` solves the same weight as `weights`.
_COST_WARNING_KAPPA = {"weights": 14, "integrate": 14, "verify": 10}
#: The most factors of a monomial `integrate` takes without a warning: at 14 it enumerates 135135 index
#: structures, in 2.2 s and 97 MB in the COE, and at 16 15 times as many.
_COST_WARNING_FACTORS = 14


def _ensemble(text: str) -> Ensemble:
    try:
        return Ensemble(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown ensemble {text!r}; choose orthogonal, unitary or coe")


def _int_at_least(low: int, why: str = ""):
    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if v < low:
            raise argparse.ArgumentTypeError(f"value must be >= {low}{why}")
        return v

    return parse


_positive_int = _int_at_least(1)


def _parse_invariants(text: str) -> list[tuple[int, ...]]:
    """'2,1|1' -> [(2,1), (1)]: comma-separated parts, | between factors."""
    factors = []
    for chunk in text.split("|"):
        try:
            factors.append(check_partition(sorted((int(x) for x in chunk.split(",")), reverse=True)))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad factor {chunk.strip()!r}; expected positive parts like '2,1'")
    return factors


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}")


def _warn_cost(command: str, kappa: int, factors: int = 0) -> None:
    whys = []
    if kappa > _COST_WARNING_KAPPA[command]:
        whys.append(f"verify sums trace moments up to degree {4 * kappa + 2}" if command == "verify"
                    else f"the weight has a coefficient for each partition of weight <= {kappa}")
    if factors > _COST_WARNING_FACTORS:
        whys.append(f"a monomial of degree {factors} has up to {factors // 2 * 2 - 1}!! index structures")
    for why in whys:
        print(f"warning: {command} at kappa={kappa} may take long: {why}", file=sys.stderr)


def _print_json(obj, indent: int | None = None) -> None:
    import json  # only JSON output needs it; importing costs start-up time

    json.dump(obj, sys.stdout, indent=indent)
    print()


def _cmd_weights(args) -> int:
    _warn_cost("weights", args.kappa)
    weight = solve_weight(args.ensemble, args.kappa)
    if args.format == "json":
        _print_json(weight.to_json(), indent=2)
    else:
        print(f"weight table: ensemble={weight.ensemble.value} kappa={weight.kappa}")
        for p, v in weight.items():
            print(f"  {partition_label(p):12s} {v}")
    return 0


def _cmd_moment(args) -> int:
    print(gaussian_trace_moment(args.ensemble, args.invariants))
    return 0


def _cmd_integrate(args) -> int:
    if args.format == "json" and args.at is not None:
        raise ValueError("--at applies to text output only; drop it or --format json")
    monomial = MonomialSpec.parse(args.monomial)
    monomial.validate(args.ensemble)
    _warn_cost("integrate", args.kappa, len(monomial.slots))
    weight = solve_weight(args.ensemble, args.kappa)
    expansion = integrate_monomial(weight, monomial)
    if args.format == "json":
        _print_json(expansion.to_json(), indent=2)
    else:
        # every line is formed before the first is printed: a pole at --at prints nothing
        if monomial.is_concrete():
            value = expansion.as_ratfunc()
            lines = [str(value)]
            if args.at is not None:
                exact = value.eval(args.at)
                lines.append(f"= {exact} = {float(exact):.12g} at N = {args.at}")
        else:
            lines = [f"  {structure_label(s):30s} {c}" for s, c in expansion.items()] or ["0"]
            if args.at is not None and expansion:
                lines.append(f"-- coefficients at N = {args.at}:")
                lines += [f"  {c.eval(args.at)}" for _, c in expansion.items()]
        print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    _warn_cost("verify", args.kappa)
    weight = solve_weight(args.ensemble, args.kappa)
    ok = True
    for k in range(1, args.kappa + 1):
        report = verify_conditions(weight, k)
        print(report)
        ok = ok and report.ok
    beta = error_order(weight, args.kappa + 1)
    bound = args.kappa // 2 + 1
    if beta is None:
        print(f"error order at k={args.kappa + 1}: difference is identically zero")
    else:
        status = "ok" if beta >= bound else "FAILED"
        print(f"error order at k={args.kappa + 1}: observed beta={beta}, bound {bound}: {status}")
        ok = ok and beta >= bound
    return 0 if ok else 1


def _cmd_sample(args) -> int:
    from .sampling import cross_check, mc_integrate  # numpy loads only for sampling

    monomial = MonomialSpec.parse(args.monomial)
    if args.expect is not None:
        expected = RatFunc(*args.expect.as_integer_ratio())
        report = cross_check(expected, args.ensemble, monomial, args.N, args.samples, args.seed)
        _print_json(report.to_json())
        return 0 if report.passed else 1
    est = mc_integrate(args.ensemble, monomial, args.N, args.samples, args.seed)
    _print_json(est.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickweights",
        description="Exact Wick-contraction integration over O(N), U(N) and the COE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--ensemble", type=_ensemble, required=True)

    p = sub.add_parser("weights", parents=[common], help="coefficient table of a weight function")
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("moment", parents=[common], help="Gaussian average of trace invariants")
    p.add_argument("--invariants", type=_parse_invariants, required=True,
                   help="partitions like '2' or '2,1|1' (| separates factors)")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("integrate", parents=[common], help="weighted integral of an entry monomial")
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.add_argument("--monomial", required=True,
                   help="factors M[i,j] / Mc[i,j]; indices are integers or identifiers")
    p.add_argument("--at", type=int, default=None, help="also evaluate at a concrete dimension")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("verify", parents=[common], help="check defining conditions and the next error order")
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", parents=[common], help="Monte Carlo estimate of a concrete monomial")
    p.add_argument("--monomial", required=True)
    p.add_argument("--N", type=_positive_int, required=True, help="matrix dimension")
    p.add_argument("--samples", type=_int_at_least(10_000, " (10^4) for a usable error estimate"),
                   default=1_000_000)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--expect", type=_fraction, default=None,
                   help="exact rational to cross-check against, e.g. 1/8")
    p.set_defaults(func=_cmd_sample)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
