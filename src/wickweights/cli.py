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
import json
import sys
from fractions import Fraction

from .algebra import PoleError, RatFunc
from .combinatorics import check_partition, partition_label, structure_label
from .integrate import error_order, integrate_monomial
from .weights import solve_weight, verify_conditions
from .wick import Ensemble, MonomialSpec, gaussian_trace_moment

_COST_WARNING_KAPPA = 7
#: The largest total trace power `moment` accepts.  The loop equation visits every partition of every
#: smaller power: at 44 one trace takes 13-20 s and 150-245 MB on two cores, and 4 more double both.
_MAX_MOMENT_POWER = 44


def _ensemble(text: str) -> Ensemble:
    try:
        return Ensemble(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"unknown ensemble {text!r}; choose orthogonal, unitary or coe")


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if v < 1:
        raise argparse.ArgumentTypeError("value must be >= 1")
    return v


def _parse_invariants(text: str) -> list[tuple[int, ...]]:
    """'2,1|1' -> [(2,1), (1)]: comma-separated parts, | between factors."""
    factors = []
    for chunk in text.split("|"):
        chunk = chunk.strip()
        if not chunk:
            raise ValueError("empty invariant factor")
        parts = tuple(sorted((int(x) for x in chunk.split(",")), reverse=True))
        factors.append(check_partition(parts))
    return factors


def _warn_cost(kappa: int) -> None:
    if kappa > _COST_WARNING_KAPPA:
        print(
            f"warning: kappa={kappa} may take long: the weight has a coefficient for each partition of weight "
            f"<= {kappa}, and verify sums trace moments up to degree {4 * kappa + 2}",
            file=sys.stderr,
        )


def _cmd_weights(args) -> int:
    _warn_cost(args.kappa)
    weight = solve_weight(args.ensemble, args.kappa)
    if args.format == "json":
        json.dump(weight.to_json(), sys.stdout, indent=2)
        print()
    else:
        print(f"weight table: ensemble={weight.ensemble.value} kappa={weight.kappa}")
        for p, v in weight.items():
            print(f"  {partition_label(p):12s} {v}")
    return 0


def _cmd_moment(args) -> int:
    invariants = _parse_invariants(args.invariants)
    power = sum(map(sum, invariants))
    if power > _MAX_MOMENT_POWER:
        raise ValueError(f"total trace power {power} exceeds the limit of {_MAX_MOMENT_POWER}")
    print(gaussian_trace_moment(args.ensemble, invariants))
    return 0


def _cmd_integrate(args) -> int:
    if args.format == "json" and args.at is not None:
        raise ValueError("--at applies to text output only; drop it or --format json")
    _warn_cost(args.kappa)
    monomial = MonomialSpec.parse(args.monomial)
    monomial.validate(args.ensemble)
    weight = solve_weight(args.ensemble, args.kappa)
    expansion = integrate_monomial(weight, monomial)
    if args.format == "json":
        json.dump(expansion.to_json(), sys.stdout, indent=2)
        print()
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
            if args.at is not None:
                lines.append(f"-- coefficients at N = {args.at}:")
                lines += [f"  {c.eval(args.at)}" for _, c in expansion.items()]
        print("\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    _warn_cost(args.kappa)
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
    if args.samples < 10_000:
        raise ValueError("need at least 10^4 samples for a usable error estimate")
    if args.expect is not None:
        expected = RatFunc(Fraction(args.expect))
        report = cross_check(expected, args.ensemble, monomial, args.N, args.samples, args.seed)
        json.dump(report.to_json(), sys.stdout)
        print()
        return 0 if report.passed else 1
    est = mc_integrate(args.ensemble, monomial, args.N, args.samples, args.seed)
    json.dump(est.to_json(), sys.stdout)
    print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wickweights",
        description="Exact Wick-contraction integration over O(N), U(N) and the COE.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("weights", help="coefficient table of a weight function")
    p.add_argument("--ensemble", type=_ensemble, required=True)
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("moment", help="Gaussian average of trace invariants")
    p.add_argument("--ensemble", type=_ensemble, required=True)
    p.add_argument("--invariants", required=True,
                   help="partitions like '2' or '2,1|1' (| separates factors)")
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("integrate", help="weighted integral of an entry monomial")
    p.add_argument("--ensemble", type=_ensemble, required=True)
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.add_argument("--monomial", required=True,
                   help="factors M[i,j] / Mc[i,j]; indices are integers or identifiers")
    p.add_argument("--at", type=int, default=None, help="also evaluate at a concrete dimension")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("verify", help="check defining conditions and the next error order")
    p.add_argument("--ensemble", type=_ensemble, required=True)
    p.add_argument("--kappa", type=_positive_int, required=True)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample", help="Monte Carlo estimate of a concrete monomial")
    p.add_argument("--ensemble", type=_ensemble, required=True)
    p.add_argument("--monomial", required=True)
    p.add_argument("--N", type=_positive_int, required=True, help="matrix dimension")
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expect", default=None,
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
