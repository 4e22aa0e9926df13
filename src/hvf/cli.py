"""Command-line front end.

Subcommands:

    verify   build a field from a declarative description and test whether
             it is (p, q)-harmonic on seeded sample points
    solve    closed-form classification (killing / confgrad / quadratic /
             loxodromic), with exact surds, decimals and bound chains
    table    the quadratic-gradient classification table, optionally as CSV
    scan2d   sweep conformal-field parameters on M^2 and report, for each
             grid point, the vanishes-modulo-the-quadric verdict

Exit codes: 0 = confirmed, 1 = refuted, 2 = input error, 3 = proven
non-existence.  Identical command + seed produces byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .params import HARMONIC_TOL, MetricParams

# Each subcommand imports what it uses, so solve, table and scan2d run without numpy.

EXACT_BITS = 4096  # the most bits an exact scan2d grid value's numerator or denominator may have


def _fmt(v: float) -> str:
    return f"{float(v):.10g}"


def _finite(key: str, many: bool = False):
    """The parser of a float-valued key, or with many of a comma-separated list: finite values only.

    It is the argparse type of --key and reads the key's value in a spec file, so nan and inf
    fail before the field is built.
    """

    def parse(text: str):
        values = [float(v) for v in text.split(",") if v.strip() != ""] if many else [float(text)]
        if not all(map(math.isfinite, values)):
            raise argparse.ArgumentTypeError(f"{key} must be finite, got {text}")
        return values if many else values[0]

    parse.__name__ = "float"  # argparse names the type in "invalid float value: 'x'"
    return parse


def _parse_spec_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"cannot parse spec line: {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            out[key] = value
    return out


# verify's keys, each a --key option and a spec-file key read by the same parser; list keys are comma-separated
_KEYS = {
    "family": str, "n": int, "epsilon": int, "mu": float, "pole": list, "r": float, "omega": float,
    "twists": list, "tau": float, "lam": float, "eigenvalues": list, "rr": float, "s": float, "t": float,
    "h": float, "scale": float, "p": float, "q": float,
}
_CHOICES = {
    "family": ["confgrad", "killing", "hopf", "loxodromic", "dipole", "conformal2d", "quadratic"],
    "epsilon": [1, -1],
}
# argparse reads a value such as -1,0 as an option, so a list that starts with '-' needs the = form
_LIST_HELP = "a list that starts with '-' needs the = form, as in --{}=-1,0"


def _parser(key: str):
    kind = _KEYS[key]
    return _finite(key, many=kind is list) if kind in (float, list) else kind


def _collect_spec(args) -> dict:
    """The spec file's keys, each read by its flag's parser, updated by the flags given."""
    doc: dict = {}
    if args.spec:
        for key, text in _parse_spec_file(args.spec).items():
            try:
                doc[key] = _parser(key)(text) if key in _KEYS else text
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ValueError(f"spec key {key}: {exc}") from None
    doc.update({key: getattr(args, key) for key in _KEYS if getattr(args, key) is not None})
    return doc


def cmd_verify(args) -> int:
    doc = _collect_spec(args)  # a bad value fails here, before numpy is loaded
    p, q = doc.pop("p", None), doc.pop("q", None)
    if p is None or q is None:
        raise ValueError("metric parameters --p and --q are required")
    from .fields import build_field
    from .tension import verify

    field = build_field(doc)
    mp = MetricParams(p, q)
    report = verify(
        field,
        mp,
        count=args.points,
        seed=args.seed,
        tol=args.tol,
        fd=args.fd,
    )
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
            fh.write("\n")
    print(
        f"family={report.family} n={report.n} epsilon={report.epsilon:+d} "
        f"(p, q)=({_fmt(report.p)}, {_fmt(report.q)})"
    )
    print(f"points={report.count} seed={report.seed} derivatives={report.derivative_source}")
    print(f"max relative tension residual = {report.max_rel_residual:.3e}")
    print(
        f"verdicts: harmonic={report.harmonic} preharmonic={report.preharmonic} "
        f"q_riemannian={report.q_riemannian}"
    )
    return 0 if report.harmonic else 1


def _print_classification(cl) -> None:
    from .solvers import bounds_report

    print(f"family={cl.family} n={cl.n} epsilon={cl.epsilon:+d}")
    if not cl.exists:
        print(f"no solution: {cl.reason}")
        return
    if cl.q_free:
        print("constant length: (2, q)-harmonic for every q; no preferred pair")
        return
    for name in ("mu", "omega0_sq", "lambda0_sq"):
        val = getattr(cl, name)
        if val is not None:
            exact = cl.exact.get(name)
            suffix = f"  [= {exact}]" if exact is not None and not exact.is_rational() else ""
            print(f"{name} = {_fmt(val)}{suffix}")
    q_exact = cl.exact.get("q")  # only the one-pair records carry it
    suffix = f"  [q = {q_exact}]" if q_exact is not None and not q_exact.is_rational() else ""
    for mp in cl.metric_params:
        print(f"(p, q) = ({_fmt(mp.p)}, {_fmt(mp.q)}){suffix}")
    print(f"metrically unique: {cl.metrically_unique}")
    for check in bounds_report(cl):
        flag = "ok" if check.holds else "VIOLATED"
        print(f"bound {check.name}: {check.statement}  [{flag}, margin {check.margin:.3e}]")


def cmd_solve(args) -> int:
    from . import solvers

    family, eps = args.family, args.epsilon
    # quadratic gradients are classified on S^n only, the loxodromic loop on H^2 only
    if family == "quadratic" and eps == -1:
        raise ValueError("--epsilon: quadratic gradient fields are defined on spheres only")
    if family == "loxodromic" and (args.n != 2 or eps == 1):
        option = "--n" if args.n != 2 else "--epsilon"
        raise ValueError(f"{option}: the loxodromic classification is defined on H^2 only")
    if eps is None:
        eps = -1 if family == "loxodromic" else 1
    if family == "killing":
        if args.r is None:
            raise ValueError("killing classification needs --r")
        cl = solvers.killing_classification(args.n, args.r, eps)
    elif family == "confgrad":
        mu_sign = {"+": 1, "0": 0, "-": -1}[args.mu_sign or ("-" if eps == -1 else "+")]
        cl = solvers.conformal_gradient_classification(args.n, eps, mu_sign)
    elif family == "quadratic":
        cl = solvers.quadratic_classification(args.n)
    else:
        cl = solvers.loxodromic_classification()
    _print_classification(cl)
    return 0 if cl.exists else 3


def cmd_table(args) -> int:
    from . import solvers

    ns = [n for n in range(5, args.max_n + 1, 2)]
    rows = solvers.table7(ns)
    if args.csv:
        import csv

        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "r", "p", "q", "lambda0_sq_over_4"])
            for row in rows:
                writer.writerow(
                    [row["n"], row["r"], row["p"], _fmt(row["q"]), _fmt(row["lambda0_sq_over_4"])]
                )
    print("n  r  p  q               lambda0^2/4")
    for row in rows:
        print(
            f"{row['n']:<2} {row['r']:<2} {row['p']:<2} "
            f"{_fmt(row['q']):<15} {_fmt(row['lambda0_sq_over_4']):<15} "
            f"[q = {row['q_exact']}, lambda0^2/4 = {row['lambda0_sq_over_4_exact']}]"
        )
    return 0


def _exact_value(name: str, text: str):
    """Fraction(text), refused when its numerator or denominator would have more than EXACT_BITS bits.

    Decimal reads a literal's digits and exponent without expanding 10^exp, so a too large exponent is
    refused first.  The refusal is an ArgumentTypeError, which the caller's ValueError handler lets through.
    """
    from decimal import Decimal
    from fractions import Fraction

    _, digits, exp = Decimal(text.partition("/")[0]).as_tuple()  # the numerator of an a/b literal has exponent 0
    if not any(digits):
        return Fraction(0)
    # 10^exp, or 10^-exp over its gcd with the digits, which has fewer digits than they do
    f = Fraction(text) if max(exp, -exp - len(digits)) * math.log2(10) <= EXACT_BITS else None
    if f is None or max(f.numerator.bit_length(), f.denominator.bit_length()) > EXACT_BITS:
        raise argparse.ArgumentTypeError(f"--{name}: {text!r} needs more than {EXACT_BITS} bits as an exact fraction")
    return f


def cmd_scan2d(args) -> int:
    from fractions import Fraction
    from itertools import product

    from . import polyreduce

    def value(name, text):
        text = text.strip()
        try:
            try:
                v = float(text)  # overflow gives inf at once, before a large exponent is expanded exactly
            except ValueError:
                v = float(Fraction(text))  # the a/b form, whose parts are plain integers
            if math.isfinite(v):
                return _exact_value(name, text)
        except (ValueError, ArithmeticError):
            pass
        raise ValueError(f"--{name}: {text!r} is not a finite number")

    def grid(name):
        return [value(name, v) for v in str(getattr(args, name)).split(",") if v.strip() != ""]

    omegas, taus, rrs, hs, ps, qs = (grid(k) for k in ("omega", "tau", "rr", "h", "p", "q"))
    s, t = value("s", str(args.s)), value("t", str(args.t))
    rows, lines = [], []
    hits = 0
    for om, ta, rr, h in product(omegas, taus, rrs, hs):
        if not (om or ta or rr or h):
            continue  # the zero field: harmonic for all (p, q), no quartic to test
        field = (args.epsilon, om, ta, rr, s, t, h)
        # the field's remainder x + q y + pq z, one (degree, x, y, z) per monomial, highest first
        parts = polyreduce.harmonicity_remainders(*field)
        monomials = sorted({m for R in parts for m in R.terms}, key=sum, reverse=True)
        remainder = [(sum(m), *(R.coeff(m) for R in parts)) for m in monomials]
        for p, q in product(ps, qs):
            if not q:
                # q = 0 is never harmonic for a non-trivial conformal field
                res = polyreduce.ReductionResult(False, None, None, "q = 0", False)
            elif (grade := next((d for d, x, y, z in remainder if x + q * (y + p * z)), None)) is not None:
                res = polyreduce.ReductionResult(False, None, grade, f"remainder of degree {grade}", False)
            else:
                # a zero remainder: the case's own division finds the witness and re-checks it
                res = polyreduce.vanishes_mod_quadric(polyreduce.build_harmonicity_poly(*field, p, q), args.epsilon)
            hits += bool(res.divisible)
            point = dict(zip(("omega", "tau", "rr", "h", "p", "q"), map(float, (om, ta, rr, h, p, q))))
            rows.append({**point, "harmonic": res.divisible, "failing_grade": res.failing_grade, "approximate": res.approximate})
            tag = "HIT" if res.divisible else f"no ({res.detail})" if res.failing_grade is None else f"no (grade {res.failing_grade})"
            lines.append(" ".join(f"{k}={_fmt(v)}" for k, v in point.items()) + f": {tag}")
    lines.append(f"{len(rows)} grid points, {hits} harmonic hits")
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump({"epsilon": args.epsilon, "hits": hits, "rows": rows}, fh, sort_keys=True, indent=2)
            fh.write("\n")
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hvf",
        description="Construct and verify harmonic vector fields on spheres and hyperbolic spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="test a field for (p, q)-harmonicity")
    pv.add_argument("--spec", help="key=value file describing the field")
    for key in _KEYS:
        pv.add_argument(f"--{key}", type=_parser(key), choices=_CHOICES.get(key),
                        help="comma-separated; " + _LIST_HELP.format(key) if _KEYS[key] is list else None)
    pv.add_argument("--points", type=int, default=200)
    pv.add_argument("--seed", type=int, default=42)
    pv.add_argument("--tol", type=float, default=HARMONIC_TOL,
                    help="harmonic verdict threshold (default %(default)g, with or without --fd)")
    pv.add_argument(
        "--fd", action="store_true", help="take the tension residual from the finite-difference oracle; other checks stay closed-form"
    )
    pv.add_argument("--json", help="write the full report as JSON")
    pv.set_defaults(fn=cmd_verify)

    ps = sub.add_parser("solve", help="closed-form classification")
    ps.add_argument("--family", required=True, choices=["killing", "confgrad", "quadratic", "loxodromic"])
    ps.add_argument("--n", type=int, default=2)
    ps.add_argument("--r", type=int)
    ps.add_argument("--epsilon", type=int, choices=[1, -1],
                    help="the space: 1 for S^n, -1 for H^n (default: S^n, or H^2 for loxodromic)")
    ps.add_argument("--mu-sign", dest="mu_sign", choices=["+", "0", "-"])
    ps.set_defaults(fn=cmd_solve)

    pt = sub.add_parser("table", help="quadratic-gradient classification table")
    pt.add_argument("--max-n", dest="max_n", type=int, default=9)
    pt.add_argument("--csv", help="write the table as CSV")
    pt.set_defaults(fn=cmd_table)

    pc = sub.add_parser("scan2d", help="mod-quadric sweep over conformal fields on M^2")
    pc.add_argument("--epsilon", type=int, choices=[1, -1], required=True)
    for key, grid in (("omega", "0.5,1,2"), ("tau", "0"), ("rr", "0.5,1,2"), ("h", "0.5,1,2"), ("s", "0"),
                      ("t", "1"), ("p", "2,3,4,5"), ("q", "-2,-1,-0.5,-0.1")):
        pc.add_argument(f"--{key}", default=grid, help="comma-separated grid (default %(default)s); " + _LIST_HELP.format(key))
    pc.add_argument("--json", help="write results as JSON")
    pc.set_defaults(fn=cmd_scan2d)
    return parser


def main(argv=None) -> int:
    # hvf's BLAS products have at most ~25 columns, so OpenBLAS's per-core thread pool gains nothing; starting
    # it cost ~70 ms of CPU per process on 2 vCPUs. A caller that has already loaded numpy keeps its own pool.
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except Exception as exc:  # every failure of a subcommand is an input error, never a verdict
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
