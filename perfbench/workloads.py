"""The four benchmark workloads, each a fixed list of operations with known answers.

An operation is one verdict: a call into hvf (or one ``hvf`` process) whose
outcome is checked against an answer the benchmark knows independently:
catalogue membership, refutation by construction, exact surds recomputed
here with ``decimal``, membership of the planar loop omega^2 + h^2 = 1, and
exit codes.  The seed picks the sample points, the random isometries and
circle angles, and the signs of the planar field parameters; it never
changes the amount of work or the known answer.

hvf is imported inside the builders, after ``run.py`` has put the checkout's
``src`` first on ``sys.path``.  Operations look hvf functions up on their
module at call time, so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

HARMONIC_TOL = 1e-7  # closed-form verdict threshold pinned by the acceptance suite
REFUTE_MARGIN = 1e-4  # refutations must miss harmonicity by at least this much
FD_TOL = 1e-5  # above the observed FD noise (<= 1e-6), below the refutation margin
EQUIVARIANCE_TOL = 1e-9
GRID_FLOOR = 1e-7  # translations are never harmonic: the grid minimum stays above this
SURD_TOL = 1e-12

CATALOGUE_POINTS = 200
FD_POINTS = 100
EQUIVARIANCE_POINTS = 10
GRID_POINTS = 60


@dataclass
class Op:
    """One timed operation: `run` produces an outcome, `check` judges it."""

    name: str
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    family: str = ""
    points: int = 0
    known_defect: bool = False  # a documented wrong behaviour, expected to fail today


# ---------------------------------------------------------------------------
# catalogue: closed-form verify of every catalogue entry and its refutations
# ---------------------------------------------------------------------------


def _confirmed(rep) -> bool:
    return rep.harmonic is True and rep.max_rel_residual < HARMONIC_TOL


def _refuted(rep) -> bool:
    return rep.harmonic is False and rep.max_rel_residual > REFUTE_MARGIN


def catalogue(seed: int, small: bool) -> list[Op]:
    T = importlib.import_module("hvf.tension")  # `hvf.tension` the attribute is a function
    from hvf.solvers import harmonic_catalogue

    entries = harmonic_catalogue()
    count = 20 if small else CATALOGUE_POINTS
    if small:
        entries = entries[::4]
    ops = []

    def verify_op(name, field, mp, family, check):
        return Op(
            name, "verify",
            lambda: T.verify(field, mp, count=count, seed=seed),
            check, family, count,
        )

    for e in entries:
        fam = e.field.family
        ops.append(verify_op(f"confirm {e.label}", e.field, e.mp, fam, _confirmed))
        ops.append(verify_op(f"scale x2 {e.label}", e.rescaled(2.0), e.mp, fam, _refuted))
        if not e.constant_length:
            # constant-length (Hopf) fields are (2, q)-harmonic for every q
            for s in (0.05, -0.05):
                mp = T.MetricParams(e.mp.p, e.mp.q + s)
                ops.append(verify_op(f"q{s:+.2f} {e.label}", e.field, mp, fam, _refuted))
    return ops


# ---------------------------------------------------------------------------
# oracle: FD verify, equivariance checks and the metric grid scan
# ---------------------------------------------------------------------------

FD_LABELS = (
    "confgrad S^3", "confgrad H^3 pair a", "sigma_0 on H^2", "killing S^4 r=2",
    "killing H^4 r=2", "Hopf S^3", "loop member t=0.785", "quadratic S^5",
)


def oracle(seed: int, small: bool) -> list[Op]:
    T = importlib.import_module("hvf.tension")  # `hvf.tension` the attribute is a function
    from hvf.fields import Conformal2DField, ConformalGradientField, hyperbolic_translation, scale_field
    from hvf.solvers import build_classified_field, harmonic_catalogue, killing_classification
    from hvf.spaceform import hyperbolic

    fd_points = 10 if small else FD_POINTS
    by_label = {e.label: e for e in harmonic_catalogue()}
    # the 3-4-5 point of the planar loop: harmonic at (3, -1/2) because 0.6^2 + 0.8^2 = 1
    loop = Conformal2DField(hyperbolic(2), 0.6, 0.0, 0.0, 0.0, 1.0, 0.8)
    loop_mp = T.MetricParams(3.0, -0.5)
    fd_cases = [(lbl, by_label[lbl].field, by_label[lbl].mp, by_label[lbl].constant_length) for lbl in FD_LABELS]
    fd_cases.append(("conformal2d 3-4-5 on H^2", loop, loop_mp, False))
    if small:
        fd_cases = fd_cases[::3]
    ops = []
    for label, field, mp, const_len in fd_cases:
        if const_len:
            refuted = (f"fd scale x2 {label}", scale_field(field, 2.0), mp)
        else:
            refuted = (f"fd q+0.05 {label}", field, T.MetricParams(mp.p, mp.q + 0.05))
        for name, f, m, want in ((f"fd {label}", field, mp, True), (*refuted, False)):
            ops.append(Op(
                name, "fd",
                lambda f=f, m=m: T.verify(f, m, count=fd_points, seed=seed, tol=FD_TOL, fd=True),
                lambda rep, want=want: rep.harmonic is want and rep.derivative_source == "finite-difference",
                f.family, fd_points,
            ))

    rng = np.random.default_rng(seed)
    n_iso, n_circle = (2, 2) if small else (10, 8)
    cl = killing_classification(4, 2, 1)
    s4 = build_classified_field(cl)
    H3 = hyperbolic(3)
    cf = ConformalGradientField([0.0, 0.0, 0.0, 1.0], H3)
    # one verdict per group of criterion 9: the largest error over its transformations
    for label, field, mp in (("S^4 killing", s4, cl.metric_params[0]),
                             ("H^3 confgrad", cf, T.MetricParams(4.0, -5.0 / 3.0))):
        pts = field.space.sample_points(EQUIVARIANCE_POINTS, seed)
        gs = [field.space.random_isometry(rng) for _ in range(n_iso)]
        ops.append(Op(
            f"isometry equivariance {label} x{n_iso}", "equivariance",
            lambda field=field, gs=gs, mp=mp, pts=pts: max(
                T.isometry_equivariance_check(field, g, mp, pts) for g in gs),
            lambda err: err < EQUIVARIANCE_TOL, field.family, n_iso * EQUIVARIANCE_POINTS,
        ))
    lpts = loop.space.sample_points(EQUIVARIANCE_POINTS, seed)
    ts = [float(t) for t in rng.uniform(0.3, 6.0, n_circle)]
    ops.append(Op(
        f"circle equivariance x{n_circle}", "equivariance",
        lambda: max(T.circle_equivariance_check(loop, t, loop_mp, lpts) for t in ts),
        lambda err: err < EQUIVARIANCE_TOL, loop.family, n_circle * EQUIVARIANCE_POINTS,
    ))

    tr = hyperbolic_translation(1.0, H3)
    gpts = tr.space.sample_points(GRID_POINTS, seed)
    ps = np.arange(-5.0, 8.0 + 1e-9, 0.25)
    qs = np.arange(-5.0, 2.0 + 1e-9, 0.25)
    ops.append(Op(
        "grid scan translation H^3", "grid",
        lambda: T.metric_grid_scan(tr, ps, qs, gpts),
        lambda grid: grid.shape == (53, 29) and float(grid.min()) > GRID_FLOOR,
        tr.family, GRID_POINTS,
    ))
    return ops


# ---------------------------------------------------------------------------
# exact: mod-quadric sweeps (exact and numeric), classifications, table 7
# ---------------------------------------------------------------------------

S2_VALUES = (Fraction(1, 2), Fraction(1), Fraction(2))
S2_PQ = [(Fraction(p), q) for p in (2, 3, 4, 5)
         for q in (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(-1, 10))]
# (omega, h) on H^2 with rr = tau = 0: on the loop omega^2 + h^2 = 1 (Pythagorean
# points and the endpoints sigma_0, sigma_1), and off it
H2_PAIRS = (
    (Fraction(3, 5), Fraction(4, 5)), (Fraction(4, 5), Fraction(3, 5)),
    (Fraction(5, 13), Fraction(12, 13)), (Fraction(12, 13), Fraction(5, 13)),
    (Fraction(8, 17), Fraction(15, 17)), (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)),
    (Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)), (Fraction(2), Fraction(1)),
    (Fraction(3, 5), Fraction(3, 5)), (Fraction(2), Fraction(0)), (Fraction(0), Fraction(2)),
    (Fraction(1, 2), Fraction(0)),
)
H2_PQ = [(Fraction(p), Fraction(q)) for p in (3, 4, Fraction(5, 2), 5)
         for q in (Fraction(-1, 2), Fraction(-1), Fraction(-3, 10), Fraction(-2))]
LOOP_PQ = (Fraction(3), Fraction(-1, 2))


def grades_examined(res) -> int:
    """Grades 4, 3, ... visited before the verdict (all five plus the re-check on success)."""
    return 5 if res.divisible else 5 - res.failing_grade


def _positive_root(a: int, b: int, c: int) -> Decimal:
    """The unique positive root of a u^2 + b u + c, to 50 digits."""
    with localcontext() as ctx:
        ctx.prec = 50
        disc = Decimal(b * b - 4 * a * c).sqrt()
        roots = [(-b + disc) / (2 * a), (-b - disc) / (2 * a)]
        (root,) = [r for r in roots if r > 0]
        return root


def _close(got, want: Decimal) -> bool:
    want = float(want)
    return abs(float(got) - want) <= SURD_TOL * max(1.0, abs(want))


def _killing_reference(n: int, r: int, eps: int) -> tuple[Decimal, Decimal]:
    """(w0^2, q) from the twist equation 2ck w^4 + eps(2nk - c) w^2 + 1 - n = 0."""
    c, k = n + 1 - 2 * r, r - 1
    w = _positive_root(2 * c * k, eps * (2 * n * k - c), 1 - n)
    with localcontext() as ctx:
        ctx.prec = 50
        return w, 2 * (1 - r) * w / (w + eps)


def _quadratic_reference(n: int) -> tuple[Decimal, Decimal]:
    """(L0^2, q) from (r-2) L^4 + 2(r^2-5) L^2 - 8(r+1) = 0, r = (n+1)/2."""
    r = (n + 1) // 2
    lam = _positive_root(r - 2, 2 * (r * r - 5), -8 * (r + 1))
    with localcontext() as ctx:
        ctx.prec = 50
        return lam, Decimal((2 - r) * (1 + r)) / (2 * (1 + r) + lam / 2)


def exact(seed: int, small: bool) -> list[Op]:
    PR = importlib.import_module("hvf.polyreduce")
    SV = importlib.import_module("hvf.solvers")

    rng = np.random.default_rng(seed)

    def signed(v):
        return -v if rng.random() < 0.5 else v

    cases = []  # (eps, omega, rr, h, p, q, known harmonic)
    for om in S2_VALUES:
        for rr in S2_VALUES:
            for h in S2_VALUES:
                o, r, hh = signed(om), signed(rr), signed(h)
                cases += [(1, o, r, hh, p, q, False) for p, q in S2_PQ]
    for om, h in H2_PAIRS:
        o, hh = signed(om), signed(h)
        on_loop = om * om + h * h == 1
        cases += [(-1, o, Fraction(0), hh, p, q, on_loop and (p, q) == LOOP_PQ) for p, q in H2_PQ]
    if small:
        cases = cases[::37] + [c for c in cases if c[-1]]

    ops = []
    for eps, om, rr, h, p, q, want in cases:
        label = f"eps={eps:+d} omega={om} rr={rr} h={h} p={p} q={q}"

        def exact_case(eps=eps, om=om, rr=rr, h=h, p=p, q=q):
            P = PR.build_harmonicity_poly(eps, om, 0, rr, 0, 1, h, p, q)
            return PR.vanishes_mod_quadric(P, eps)

        def numeric_case(eps=eps, om=om, rr=rr, h=h, p=p, q=q):
            P = PR.build_harmonicity_poly(
                eps, float(om), 0.0, float(rr), 0.0, 1.0, float(h), float(p), float(q), exact=False
            )
            return PR.vanishes_mod_quadric(P, eps, tol=PR.NUMERIC_ZERO_TOL)

        ops.append(Op(f"exact {label}", "poly-exact", exact_case,
                      lambda res, want=want: res.divisible is want and not res.approximate))
        ops.append(Op(f"numeric {label}", "poly-numeric", numeric_case,
                      lambda res, want=want: res.divisible is want and res.approximate))

    def with_bounds(cl):
        return cl, SV.bounds_report(cl)

    def classification_ok(cl, bounds, p, q_ref, key, value_ref) -> bool:
        return (
            cl.exists
            and cl.metric_params[0].p == p
            and _close(cl.metric_params[0].q, q_ref)
            and _close(cl.exact["q"], q_ref)
            and _close(cl.exact[key], value_ref)
            and _close(getattr(cl, key), value_ref)
            and len(bounds) > 0
            and all(b.holds for b in bounds)
        )

    rs = range(2, 51)
    if small:
        rs = (2, 3, 50)
    for r in rs:
        for eps in (1, -1):
            w, q = _killing_reference(2 * r, r, eps)
            ops.append(Op(
                f"killing n={2 * r} r={r} eps={eps:+d}", "classification",
                lambda r=r, eps=eps: with_bounds(SV.killing_classification(2 * r, r, eps)),
                lambda out, r=r, w=w, q=q: classification_ok(*out, 2 * r + 1, q, "omega0_sq", w),
            ))
        if r >= 3:
            n = 2 * r - 1
            lam, q = _quadratic_reference(n)
            ops.append(Op(
                f"quadratic n={n}", "classification",
                lambda n=n: with_bounds(SV.quadratic_classification(n)),
                lambda out, r=r, lam=lam, q=q: classification_ok(*out, r + 1, q, "lambda0_sq", lam),
            ))

    want7 = {  # criterion 2: n -> (r, p, q, lambda0^2 / 4)
        5: (3, 4, 1 / math.sqrt(3) - 1, math.sqrt(3) - 1),
        7: (4, 5, (math.sqrt(201) - 29) / 16, (math.sqrt(201) - 11) / 8),
        9: (5, 6, (math.sqrt(34) - 13) / 5, (math.sqrt(34) - 5) / 3),
    }

    def table_ok(rows) -> bool:
        return [row["n"] for row in rows] == [5, 7, 9] and all(
            (row["r"], row["p"]) == want7[row["n"]][:2]
            and abs(row["q"] - want7[row["n"]][2]) <= SURD_TOL
            and abs(row["lambda0_sq_over_4"] - want7[row["n"]][3]) <= SURD_TOL
            for row in rows
        )

    ops.append(Op("table7", "classification", lambda: SV.table7(), table_ok))
    return ops


# ---------------------------------------------------------------------------
# cli: a fixed script of hvf processes, each from spawn to exit
# ---------------------------------------------------------------------------

VERIFY_CONFGRAD = "verify --family confgrad --n 3 --epsilon 1 --mu 1 --p 4".split()


def _spec_text() -> str:
    """The harmonic rank-2 Killing field on S^4, with reference values from decimal."""
    w, q = _killing_reference(4, 2, 1)
    return (
        "# the unique harmonic Killing field on S^4\n"
        f"family = killing\nn = 4\nepsilon = 1\nr = 2\nomega = {float(w.sqrt())!r}\n"
        f"p = 5\nq = {float(q)!r}\n"
    )


def cli(seed: int, small: bool, workdir: str, src: str, inprocess: bool) -> list[Op]:
    spec = os.path.join(workdir, "killing_s4.spec")
    with open(spec, "w") as fh:
        fh.write(_spec_text())
    json_a, json_b = os.path.join(workdir, "a.json"), os.path.join(workdir, "b.json")
    table_csv = os.path.join(workdir, "table.csv")
    seed_args = ["--seed", str(seed)]

    if inprocess:
        C = importlib.import_module("hvf.cli")

        def hvf_cmd(argv):
            out = io.StringIO()
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                try:
                    code = C.main(argv)
                except Exception:  # an uncaught exception ends `hvf` with status 1
                    code = 1
            return code, out.getvalue()
    else:
        env = dict(os.environ, PYTHONPATH=src)

        def hvf_cmd(argv):
            proc = subprocess.run(
                [sys.executable, "-m", "hvf.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )
            return proc.returncode, proc.stdout

    def step(name, argv, want_code, check_out=None, points=0, clear=(), known_defect=False):
        def run():
            for path in clear:
                Path(path).unlink(missing_ok=True)
            return hvf_cmd(argv)

        def check(outcome):
            code, out = outcome
            return code == want_code and (check_out is None or check_out(out))

        return Op(name, "cli", run, check, "", points, known_defect)

    def json_ok(path):
        with open(path) as fh:
            return json.load(fh)["verdicts"]["harmonic"] is True

    def same_bytes():
        with open(json_a, "rb") as fa, open(json_b, "rb") as fb:
            return fa.read() == fb.read() and json_ok(json_b)

    def table_ok(out):
        with open(table_csv, newline="") as fh:
            rows = list(csv.DictReader(fh))
        return [row["n"] for row in rows] == ["5", "7", "9"] and abs(
            float(rows[0]["q"]) - (1 / math.sqrt(3) - 1)
        ) <= 1e-9

    json_argv = "verify --family killing --n 2 --epsilon -1 --r 1 --omega 1 --p 3 --q -0.5".split()
    ops = [
        step("verify confirmed", VERIFY_CONFGRAD + ["--q", "-1"] + seed_args, 0,
             lambda out: "harmonic=True" in out, 200),
        step("verify refuted", VERIFY_CONFGRAD + ["--q", "-0.9"] + seed_args, 1,
             lambda out: "harmonic=False" in out, 200),
        step("verify --fd", VERIFY_CONFGRAD + ["--q", "-1", "--fd", "--points", "50", "--tol", str(FD_TOL)]
             + seed_args, 0, lambda out: "derivatives=finite-difference" in out, 50),
        step("verify --spec", ["verify", "--spec", spec] + seed_args, 0,
             lambda out: "harmonic=True" in out, 200),
        step("verify --json a", json_argv + seed_args + ["--json", json_a], 0,
             lambda out: json_ok(json_a), 200, clear=(json_a, json_b)),
        step("verify --json b", json_argv + seed_args + ["--json", json_b], 0,
             lambda out: same_bytes(), 200),
        step("solve killing n=4 r=2", "solve --family killing --n 4 --r 2".split(), 0,
             lambda out: "(sqrt(73) - 13)/8" in out),
        step("solve quadratic n=6", "solve --family quadratic --n 6".split(), 3,
             lambda out: "no solution" in out),
        step("table --csv", ["table", "--csv", table_csv], 0, table_ok, clear=(table_csv,)),
        step("scan2d --epsilon 1", "scan2d --epsilon 1".split(), 0,
             lambda out: "432 grid points, 0 harmonic hits" in out),
        # the wrong behaviours listed in ROADMAP: input errors must exit 2
        step("verify --scale inf", VERIFY_CONFGRAD + ["--q", "-1", "--scale", "inf", "--points", "50"], 2,
             known_defect=True),
        step("verify --scale nan", VERIFY_CONFGRAD + ["--q", "-1", "--scale", "nan", "--points", "50"], 2,
             known_defect=True),
        step("verify quadratic --lam 1e200",
             "verify --family quadratic --n 5 --epsilon 1 --r 3 --lam 1e200 --p 4 --q -0.4 --points 50".split(),
             2, known_defect=True),
    ]
    if small:
        ops = [op for i, op in enumerate(ops) if op.known_defect or i in (0, 4, 5, 7)]
    return ops


WORKLOADS = ("catalogue", "oracle", "exact", "cli")


def build(name: str, seed: int, small: bool, workdir: str, src: str, inprocess: bool = False) -> list[Op]:
    """The operations of one pass.  Apart from `cli`, whose script has a fixed
    order (the second --json run compares with the first), the order is a
    seeded shuffle, so a run that stops inside a pass times a fair sample."""
    if name == "cli":
        return cli(seed, small, workdir, src, inprocess)
    builders = {"catalogue": catalogue, "oracle": oracle, "exact": exact}
    if name not in builders:
        raise ValueError(f"unknown workload {name!r}")
    ops = builders[name](seed, small)
    random.Random(seed).shuffle(ops)
    return ops
