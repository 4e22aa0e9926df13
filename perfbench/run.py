"""The hvf benchmark: one closed-loop caller, four workloads, per-layer tracing.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload catalogue --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15     # every workload, both runs
    python3 perfbench/run.py --selfcheck                     # small sizes, asserts the schema

One operation runs at a time and the next starts only after the previous
one returns.  An untraced run (``--trace 0``) measures the end-to-end
metrics, cycling through the workload's operations until ``--seconds``
have elapsed (at least one whole pass); a traced run (``--trace 1``) makes one untraced and one traced
pass and reports the per-layer metrics.  Every outcome is checked against a
known answer (see ``workloads.py``).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
Details (the environment and the metrics that do not go into that line)
are written to ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_PROBES = 5
IMPORTTIME_PROBES = 3
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(BENCH_DIR))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FD_FUNCS = tuple(f"spaceform.SpaceForm.{n}" for n in ("covariant_derivative_fd", "rough_laplacian_fd", "laplacian_fd"))
TRACKED = {
    "sample_points": ("spaceform.SpaceForm.sample_points",),
    "fd": FD_FUNCS,
    "grid": ("tension.metric_grid_scan",),
    "equivariance": ("tension.isometry_equivariance_check", "tension.circle_equivariance_check"),
    "build": ("polyreduce.build_harmonicity_poly",),
    "reduce": ("polyreduce.vanishes_mod_quadric",),
}
GRID_CELLS = 53 * 29


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up and import probes (fresh processes)
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def setup_probe(workload: str, seed: int, small: bool) -> float:
    """Seconds from spawning a fresh process to the point where it could time its first operation."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload,
            "--seed", str(seed)] + (["--small"] if small else [])
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=_child_env()) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {code})")
    return ready - start


@contextmanager
def workspace(workload: str):
    """A private directory for the files a workload writes, removed afterwards."""
    workdir = OUT / f"work-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def build_ops(workload: str, seed: int, small: bool, workdir: Path, inprocess: bool = False):
    import hvf  # noqa: F401  (set-up covers importing the package)

    return workloads.build(workload, seed, small, str(workdir), str(SRC), inprocess)


def import_breakdown() -> tuple[float, float]:
    """(import hvf, the scipy part of it) in seconds, from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import hvf"],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError("import hvf failed under -X importtime")
    entries = []  # (depth, name, cumulative us), children before parents
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:") or "cumulative" in line:
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1])))
    hvf_us = next(cum for _, name, cum in entries if name == "hvf")
    scipy_us = 0
    for i, (depth, name, cum) in enumerate(entries):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            scipy_us += cum
    return hvf_us / 1e6, scipy_us / 1e6


# ---------------------------------------------------------------------------
# running operations
# ---------------------------------------------------------------------------


class Tally:
    """Attempted and failed operations, with known-defect probes kept apart."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.defects_attempted = self.defects_failed = 0
        self.checked = 0
        self.failures: list[str] = []

    def record(self, op, outcome, error) -> None:
        ok = False
        if error is None:
            try:
                ok = bool(op.check(outcome))
            except Exception as exc:  # e.g. an output file that was never written
                error = exc
            self.checked += 1
        if op.known_defect:
            self.defects_attempted += 1
            self.defects_failed += not ok
        else:
            self.attempted += 1
            self.failed += not ok
            if not ok:
                self.failures.append(f"{op.name}: {error!r}" if error else op.name)

    @property
    def failed_frac(self) -> float:
        total = self.attempted + self.defects_attempted
        return (self.failed + self.defects_failed) / total if total else 0.0


def run_op(op, runner=None):
    """(outcome, error, seconds) of one operation; the check is not timed."""
    start = time.perf_counter()
    try:
        outcome = runner(op.run) if runner else op.run()
        error = None
    except Exception as exc:  # a failed operation counts against failed_frac
        outcome, error = None, exc
    return outcome, error, time.perf_counter() - start


def pass_percentile(times: list[float], n_ops: int, q: float) -> float:
    """The q-th percentile of operation times, every operation weighted equally.

    `times` cycles through the `n_ops` operations of a pass.  An operation
    timed k times weighs 1/k per sample, so a run that stops inside a pass
    keeps the mix of a whole pass instead of leaning toward the operations
    the last pass reached.
    """
    full, rest = divmod(len(times), n_ops)
    samples = sorted((t, 1.0 / (full + (i % n_ops < rest))) for i, t in enumerate(times))
    target = q / 100.0 * n_ops - 1e-9
    total = 0.0
    for t, weight in samples:
        total += weight
        if total >= target:
            return t
    return samples[-1][0]


def untraced(workload: str, seed: int, seconds: float, small: bool) -> dict:
    probes = [setup_probe(workload, seed, small) for _ in range(1 if small else SETUP_PROBES)]
    tally = Tally()
    times = []
    with workspace(workload) as workdir:
        ops = build_ops(workload, seed, small, workdir)
        start = time.perf_counter()
        # cycle through the operations until the time is up, but at least once
        while len(times) < len(ops) or time.perf_counter() - start < seconds:
            op = ops[len(times) % len(ops)]
            outcome, error, dt = run_op(op)
            times.append(dt)
            tally.record(op, outcome, error)
            if len(times) % len(ops) == 0:
                whole_passes, whole_end = len(times) // len(ops), time.perf_counter()
        elapsed = time.perf_counter() - start
    # throughput over the whole passes only, so it also keeps the mix of a pass
    whole_s = whole_end - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli":  # the work happens in the hvf processes
        rss_kb = max(rss_kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "verdict_ms_p50": 1e3 * pass_percentile(times, len(ops), 50),
        "verdict_ms_p90": 1e3 * pass_percentile(times, len(ops), 90),
        "verdicts_per_s": whole_passes * len(ops) / whole_s,
        "setup_s": statistics.median(probes),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    extra = {
        "points_per_s": whole_passes * sum(op.points for op in ops) / whole_s,
        "failed_frac": tally.failed_frac,
        "samples": len(times),
        "passes": len(times) / len(ops),
        "timed_s": elapsed,
        "setup_probes_s": probes,
    }
    return {"metrics": metrics, "extra": extra, "tally": tally}


def traced(workload: str, seed: int, small: bool) -> dict:
    import hvf

    tally = Tally()
    with workspace(workload) as workdir:
        ops = build_ops(workload, seed, small, workdir, inprocess=True)
        base_start = time.perf_counter()
        for op in ops:
            outcome, error, _ = run_op(op)
            tally.record(op, outcome, error)
        base_wall = time.perf_counter() - base_start

        tr = tracing.Tracer()
        tr.install(hvf)
        tracked = {key: [i for i, n in enumerate(tr.names) if n in names] for key, names in TRACKED.items()}
        per_op = []  # (op, seconds, layer self deltas, tracked inclusive deltas, outcome)
        try:
            traced_start = time.perf_counter()
            for op_id, op in enumerate(ops):
                self_before = list(tr.layer_self_s)
                inc_before = {k: sum(tr.inclusive_s[i] for i in ids) for k, ids in tracked.items()}
                outcome, error, dt = run_op(op, lambda fn, op_id=op_id: tr.run_op(op_id, fn))
                per_op.append((
                    op, dt,
                    [a - b for a, b in zip(tr.layer_self_s, self_before)],
                    {k: sum(tr.inclusive_s[i] for i in ids) - inc_before[k] for k, ids in tracked.items()},
                    outcome,
                ))
                tally.record(op, outcome, error)
            traced_wall = time.perf_counter() - traced_start
        finally:
            tr.uninstall()
    imports = [import_breakdown() for _ in range(1 if small else IMPORTTIME_PROBES)]
    OUT.mkdir(parents=True, exist_ok=True)
    tr.write_spans(OUT / f"spans-{workload}.bin")
    metrics, extra = layer_metrics(tr, per_op, ops, base_wall, traced_wall, tally)
    metrics["import.hvf_s"] = statistics.median(h for h, _ in imports)
    metrics["import.scipy_s"] = statistics.median(s for _, s in imports)
    return {"metrics": metrics, "extra": extra, "tally": tally}


def layer_metrics(tr, per_op, ops, base_wall, traced_wall, tally):
    def ratio(a, b):
        return a / b if b else 0.0

    points = sum(op.points for op in ops)
    cases = sum(op.kind.startswith("poly") or op.kind == "classification" for op in ops)
    layer_total = sum(tr.layer_self_s)
    metrics = {}
    extra = {}
    for i, layer in enumerate(tracing.LAYERS):
        metrics[f"{layer}.calls"] = tr.layer_calls[i]
        metrics[f"{layer}.calls_per_point"] = ratio(tr.layer_calls[i], points)
        metrics[f"{layer}.self_frac"] = ratio(tr.layer_self_s[i], traced_wall)
        extra[f"{layer}.self_s"] = tr.layer_self_s[i]
    metrics["fields.sigma_evals_per_point"] = ratio(tr.sigma_evals, points)
    metrics["tension.point_eval_ratio"] = ratio(points, tr.sigma_evals)
    poly = [outcome for op, _, _, _, outcome in per_op if op.kind.startswith("poly") and outcome is not None]
    metrics["polyreduce.grades_per_case"] = ratio(sum(map(workloads.grades_examined, poly)), len(poly))
    metrics["exactnum.calls_per_case"] = ratio(tr.layer_calls[tracing.LAYERS.index("exactnum")], cases)
    metrics["trace.overhead_frac"] = traced_wall / base_wall - 1.0
    metrics["trace.unattributed_frac"] = 1.0 - ratio(layer_total - tr.layer_self_s[tracing.ROOT_LAYER], traced_wall)
    metrics["trace.spans"] = len(tr.span_id)
    extra["trace.crossings"] = tr.crossings
    metrics["cli.known_defect_failures"] = tally.defects_failed

    # per operation kind: inclusive seconds of the tracked functions, op seconds, ops, points
    fields_idx = tracing.LAYERS.index("fields")
    family_s, family_points = defaultdict(float), defaultdict(int)
    secs, n_ops, n_points = defaultdict(float), defaultdict(int), defaultdict(int)
    for op, dt, self_d, inc_d, _ in per_op:
        if op.kind in ("verify", "fd"):
            family_s[op.family] += self_d[fields_idx]
            family_points[op.family] += op.points
        for key, val in inc_d.items():
            secs[key, op.kind] += val
        secs["op", op.kind] += dt
        n_ops[op.kind] += 1
        n_points[op.kind] += op.points
    for fam in sorted(family_s):
        extra[f"fields.us_per_point.{fam}"] = 1e6 * ratio(family_s[fam], family_points[fam])
    extra["spaceform.sample_points.us_per_point"] = 1e6 * ratio(
        secs["sample_points", "verify"] + secs["sample_points", "fd"], n_points["verify"] + n_points["fd"])
    extra["spaceform.fd.us_per_point"] = 1e6 * ratio(secs["fd", "fd"], n_points["fd"])
    extra["tension.grid_scan.us_per_cell"] = 1e6 * ratio(secs["grid", "grid"], GRID_CELLS * n_ops["grid"])
    extra["tension.equivariance.us_per_point"] = 1e6 * ratio(
        secs["equivariance", "equivariance"], n_points["equivariance"])
    for mode in ("exact", "numeric"):
        kind = f"poly-{mode}"
        extra[f"polyreduce.build.us_per_case.{mode}"] = 1e6 * ratio(secs["build", kind], n_ops[kind])
        extra[f"polyreduce.reduce.us_per_case.{mode}"] = 1e6 * ratio(secs["reduce", kind], n_ops[kind])
    extra["solvers.us_per_classification"] = 1e6 * ratio(secs["op", "classification"], n_ops["classification"])
    extra["trace.traced_wall_s"] = traced_wall
    extra["trace.untraced_wall_s"] = base_wall
    extra["trace.root_self_s"] = tr.layer_self_s[tracing.ROOT_LAYER]
    return metrics, extra


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them for this kind of run."""
    return {m["name"]: m["unit"] for m in benchmark_spec()["per_layer" if trace else "end_to_end"]}


def run_one(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    env = environment(seed)
    units = declared_metrics(trace)
    result = traced(workload, seed, small) if trace else untraced(workload, seed, seconds, small)
    if set(result["metrics"]) != set(units):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json: {set(result['metrics']) ^ set(units)}")
    tally = result["tally"]
    line = {
        "correct": tally.failed == 0 and tally.checked == tally.attempted + tally.defects_attempted,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": workload,
        "trace": int(trace),
        "env": env,
        "result": line,
        "extra": result["extra"],
        "known_defects": {"attempted": tally.defects_attempted, "failed": tally.defects_failed},
        "failures": tally.failures,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{workload}-trace{int(trace)}-seed{seed}.json", "w") as fh:
        json.dump(detail, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return detail


def _unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if ".us_per_" in name:
        return "us"
    if name.endswith("_frac"):
        return "frac"
    return "count"


def print_detail(detail: dict) -> None:
    line = detail["result"]
    print(f"env {json.dumps(detail['env'], sort_keys=True)}")
    print(f"workload={detail['workload']} trace={detail['trace']} seed={detail['env']['seed']}")
    for name, m in line["metrics"].items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in sorted(detail["extra"].items()):
        if isinstance(value, (int, float)):
            print(f"  {name:40s} {value:>16.6g} {_unit_of(name)}")
    kd = detail["known_defects"]
    total = line["attempted"] + kd["attempted"]
    print(f"  attempted={line['attempted']} failed={line['failed']} "
          f"known-defect probes: {kd['failed']} of {kd['attempted']} still fail; "
          f"failed_frac (all operations) = {line['failed'] + kd['failed']}/{total}")
    for failure in detail["failures"][:20]:
        print(f"  FAILED {failure}")


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    combined = {}
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
            sys.stdout.write("\n".join(proc.stdout.splitlines()[:-1]) + "\n")
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            with open(OUT / f"{workload}-trace{trace}-seed{seed}.json") as fh:
                combined[f"{workload}-trace{trace}"] = json.load(fh)
    with open(OUT / f"results-seed{seed}.json", "w") as fh:
        json.dump(combined, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {OUT / f'results-seed{seed}.json'}")
    return status


def selfcheck() -> int:
    """Each workload at a small size, untraced and traced; checks the output schema.

    Every declared metric is present (run_one refuses a run whose metrics
    differ from BENCHMARK.json), every name matches METRIC_NAME, every
    known-answer check ran and passed, and the cli known-defect probes ran.
    """
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    expect([w["name"] for w in benchmark_spec()["workloads"]] == list(workloads.WORKLOADS), "workload list")
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            detail = run_one(workload, 1, 0, bool(trace), small=True)
            line = detail["result"]
            where = f"{workload} trace={trace}"
            names = set(line["metrics"]) | set(detail["extra"])
            expect(all(METRIC_NAME.fullmatch(n) for n in names), f"{where}: malformed metric names")
            expect(all(isinstance(m["value"], (int, float)) for m in line["metrics"].values()),
                   f"{where}: non-numeric metric")
            expect(line["correct"] and line["attempted"] > 0, f"{where}: {detail['failures']}")
            if workload == "cli":
                expect(detail["known_defects"]["attempted"] == 3 * (2 if trace else 1), f"{where}: probes")
            print(f"selfcheck {where}: {line['attempted']} checked")
    for problem in problems:
        print(f"selfcheck FAILED {problem}")
    print("selfcheck: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--selfcheck", action="store_true", help="small sizes; assert schema and answers")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "hvf" / "__init__.py").is_file():
        print(f"error: no hvf sources under {SRC}; run from an hvf checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = benchmark_spec()["run_seconds"]
    if args.selfcheck:
        return selfcheck()
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        with workspace(args.workload) as workdir:
            build_ops(args.workload, args.seed, args.small, workdir)
            print("ready", flush=True)
        return 0
    detail = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_detail(detail)
    print(json.dumps(detail["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
