"""Command-line surface for batch verification and exploration.

Weights use the bare comma syntax "a,b" (negative entries allowed, rank
inferred from the length); a token that starts with "-" and a digit is
always a weight, never an option.  Exit codes: 0 on success/pass, 1 on a
failed verification, 2 on usage errors.  Reports go to stdout, diagnostics
to stderr; --format json emits the documented stable schemas.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from math import comb

from . import bundle_calculus as bc
from . import rep_ring as rr
from . import soc, verify
from .bwb import bwb_single
from .partitions import Weight, parse_weight

#: Most integer additions `schur sym|ext --power m` makes: each combination of
#: m weight monomials adds m exponent vectors of length rank.  Near the bound
#: that is measured at 0.1-0.7 s from rank 2 to 100, and at 1.2 s where
#: decomposing the result dominates (one long row at rank 2, m = 2).
MAX_POWER_ADDITIONS = 1_000_000
#: Largest Weyl dimension of the smaller factor of `schur tensor`, which bounds
#: the product's total multiplicity (Brauer-Klimyk).  Near the bound that is
#: measured at 0.2-0.9 s from rank 2 to 4 and 0.1-1.2 s from rank 5 to 12;
#: past rank 12 the Littlewood-Richardson search also grows with the rank.
MAX_TENSOR_DIM = 50_000
#: Largest --d of `bwb`, `check-*`, `enumerate` and `kummer`, and largest
#: `schur --rank`, checked in `main` before dispatch.  Their work grows as
#: d^2: about 1 s at 400, plus 0.01-0.05 s per Weyl dimension a check
#: reports at that size.
MAX_LABEL_D = 400


class _Parser(argparse.ArgumentParser):
    """Reads every token that starts with -<digit> as a value, so "-1,-2" is a weight.

    No option starts with a digit.  Subparsers are built from this class too.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d")


def _emit(args: argparse.Namespace, text: str, payload: dict | list) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _weight_arg(text: str) -> Weight:
    try:
        return parse_weight(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def cmd_schur(args: argparse.Namespace) -> int:
    if args.operation != "dim" and len(args.weights) != (2 if args.operation == "tensor" else 1):
        count = "two weights" if args.operation == "tensor" else "one weight"
        raise ValueError(f"schur {args.operation} needs exactly {count}")
    elements = [rr.RepElement.schur(args.rank, w) for w in args.weights]
    if args.operation == "tensor":
        dim = min(e.dimension() for e in elements)
        if dim > MAX_TENSOR_DIM:
            raise ValueError(f"the smaller factor of tensor has dimension {dim}, over {MAX_TENSOR_DIM}")
        result = rr.tensor(elements[0], elements[1])
    elif args.operation == "dual":
        result = rr.dual(elements[0])
    elif args.operation in ("sym", "ext"):
        m = args.power
        if m > 0:
            dim = elements[0].dimension()
            combos = comb(dim + m - 1, m) if args.operation == "sym" else comb(dim, m)
            additions = args.rank * m * combos
            if additions > MAX_POWER_ADDITIONS:
                raise ValueError(
                    f"{args.operation}^{m} of dimension {dim} at rank {args.rank} needs {additions} additions, over {MAX_POWER_ADDITIONS}"
                )
        result = (rr.sym_power if args.operation == "sym" else rr.ext_power)(elements[0], m)
    else:  # dim
        dims = [(str(w), e.dimension()) for w, e in zip(args.weights, elements)]
        _emit(args, "\n".join(f"dim S{w} = {v}" for w, v in dims), {"dims": dict(dims)})
        return 0
    _emit(args, str(result), result.to_json())
    return 0


def cmd_bwb(args: argparse.Namespace) -> int:
    d, k = args.d, args.k
    # a plain tuple, so that bwb_single checks 1 <= k <= d-1 before it builds a Weight
    gamma = args.k_weight if args.k_weight is not None else (0,) * (d - k)
    outcome = bwb_single(d, k, gamma, args.q_weight)
    _emit(args, str(outcome), outcome.to_json())
    return 0


def cmd_wedge(args: argparse.Namespace) -> int:
    if args.middle:
        result = bc.wedge2_middle()
        label = "wedge^2 of the middle term"
    else:
        q = 1 if args.q is None else args.q
        result = bc.wedge_nprime(q)
        label = f"wedge^{q} N'"
    _emit(args, f"{label} = {result} (rank {result.dimension()})", result.to_json())
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    labels = (args.alpha, args.beta) if "beta" in args else (args.alpha,)
    # looked up when the command runs, so a patched soc check is the one called
    report = getattr(soc, args.check)(*labels, args.d)
    # each surviving summand's JSON carries its Weyl dimension, so the
    # payload is built only when it is printed
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        verdict = "pass" if report.verdict else "fail"
        print(f"{report.kind}: {verdict} (Hom dimension {report.hom_dimension})")
        for c in report.failures():
            print(f"  q={c.q} summand {c.weight}: {c.outcome}")
    return 0 if report.verdict else 1


def cmd_enumerate(args: argparse.Namespace) -> int:
    labels = soc.enumerate_sos(args.d) if args.sos else soc.enumerate_ff(args.d)
    text = "\n".join(str(a) for a in labels) + f"\n{len(labels)} labels"
    _emit(args, text, {"d": args.d, "sos": args.sos, "labels": [list(a.entries) for a in labels]})
    return 0


def cmd_kummer(args: argparse.Namespace) -> int:
    count = soc.kummer_count(args.d)
    _emit(args, str(count), {"d": args.d, "count": str(count)})
    return 0


def cmd_verify_paper(args: argparse.Namespace) -> int:
    results = verify.run_all(args.d_max)
    for name, cap in verify.D_CAPS.items():
        if cap < args.d_max:
            print(f"note: {name} checked d <= {cap}, not {args.d_max}", file=sys.stderr)
    width = max(len(r.name) for r in results)
    text = "\n".join(f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.detail}" for r in results)
    _emit(args, text, [r.to_json() for r in results])
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="schurbott",
        description="Exact Schur calculus and cohomology checks on Grassmannians",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    d_help = f"ambient dimension, at most {MAX_LABEL_D}"
    p = sub.add_parser("schur", help="representation ring operations")
    p.add_argument("operation", choices=("tensor", "dual", "sym", "ext", "dim"))
    p.add_argument("--rank", type=int, required=True, help=f"rank of the weights, at most {MAX_LABEL_D}")
    p.add_argument("--power", type=int, default=1,
                   help=f"power m for sym/ext: at most {MAX_POWER_ADDITIONS} additions, rank x m per combination")
    p.add_argument("weights", type=_weight_arg, nargs="+",
                   help=f"tensor: Weyl dimension at most {MAX_TENSOR_DIM} for the smaller factor")
    p.set_defaults(func=cmd_schur)

    p = sub.add_parser("bwb", help="cohomology of one homogeneous bundle on G(k,d)")
    p.add_argument("--d", type=int, required=True, help=d_help)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q-weight", type=_weight_arg, required=True)
    p.add_argument("--k-weight", type=_weight_arg, default=None)
    p.set_defaults(func=cmd_bwb)

    p = sub.add_parser("wedge", help="exterior powers of the restricted normal bundle")
    # --q defaults to None, not 1: argparse lets an explicit value equal to
    # the default pass a mutually exclusive group unseen
    which = p.add_mutually_exclusive_group()
    which.add_argument("--q", type=int, default=None, help="the power q of N' (default 1)")
    which.add_argument("--middle", action="store_true", help="wedge^2 of the middle SES term")
    p.set_defaults(func=cmd_wedge)

    for command, check, help_text in (
        ("check-exc", "check_exceptional", "exceptionality of one kernel bundle"),
        ("check-ff", "check_fully_faithful", "fibrewise fully-faithfulness conditions"),
        ("check-so", "check_semiorthogonal", "fibrewise semi-orthogonality conditions"),
    ):
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--d", type=int, required=True, help=d_help)
        p.add_argument("--alpha", type=_weight_arg, required=True)
        if command == "check-so":
            p.add_argument("--beta", type=_weight_arg, required=True)
        p.set_defaults(func=cmd_check, check=check)

    p = sub.add_parser("enumerate", help="list the admissible kernel labels")
    p.add_argument("--d", type=int, required=True, help=d_help)
    p.add_argument("--sos", action="store_true", help="restrict to the semi-orthogonal sequence")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("kummer", help="length of the induced exceptional sequence")
    p.add_argument("--d", type=int, required=True, help=d_help)
    p.set_defaults(func=cmd_kummer)

    p = sub.add_parser("verify-paper", help="run the whole verification suite")
    p.add_argument("--d-max", type=int, default=12)
    p.set_defaults(func=cmd_verify_paper)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag in ("d", "rank"):
            value = vars(args).get(flag, 0)
            if value > MAX_LABEL_D:
                raise ValueError(f"--{flag} {value} is above {MAX_LABEL_D}, the largest this command accepts")
        return args.func(args)
    except ValueError as exc:  # DecompositionError included
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
