"""metsymp benchmark: time to a correct verdict, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload flat-suite --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

* ``flat-suite``: the sixteen-check suite on ``unit-tangent-flat-plane``;
  its time goes into evaluating large expression trees on jets, and it
  runs the non-Sasakian branches (h eigenstructure, kmu curvature).
* ``sasakian7-suite``: the suite on the standard Sasakian R^7; half its
  time is symbolic construction, and its kappa = 1 branches skip the
  eigenstructure, so evaluation-only changes should leave it flat.
* ``rescale-sweep``: the D-homothety law and index invariance on a grid of
  a from 0.01 to 100, on the index-2 curved model and the standard R^5;
  every point builds a fresh structure, so per-structure caches never pay
  off.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
``verdict_s``, the median over units of a unit's mean verdict time, and
``setup_s``, the median set-up time of fresh interpreters, are in reference
seconds: each time is scaled by how fast the host ran a fixed reference loop
meanwhile (see ``reference.py``), and the raw times are printed beside them.
``--trace 1`` prints the per-layer metrics, in wall time, and writes every
span to ``.bench_out/``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit, the run's
metadata and every failed verdict.  The run exits with a non-zero code, printing no result,
when ``src/metsymp`` is missing or a bench-side model fails its self-check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"

# BLAS and OpenMP pools pinned to one thread before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("flat-suite", "sasakian7-suite", "rescale-sweep")
SETUP_PROBES = 9       # fresh interpreters timed for setup_s
POINT_BATCH = 64       # sample points of the per-point evaluation timings
POINT_REPEATS = 5


class BenchError(RuntimeError):
    """The benchmark cannot produce a result in this checkout."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path.name}: {exc}") from None


def prepare_interpreter() -> None:
    """Pin thread pools to one thread and import metsymp from this
    checkout's src/ and nowhere else; setup probes inherit both."""
    if not (SRC / "metsymp" / "__init__.py").is_file():
        raise BenchError("src/metsymp is missing; run from the root of a full checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import metsymp

    if Path(metsymp.__file__).resolve().parent != (SRC / "metsymp").resolve():
        raise BenchError(f"imported metsymp from {metsymp.__file__}, not from src/")


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Seconds of the set-up probes, and the mean reference pass time
    inside each."""
    samples, passes = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
        seconds, pass_mean = map(float, proc.stdout.strip().splitlines()[-1].split())
        samples.append(seconds)
        passes.append(pass_mean)
    return samples, passes


def describe(label: str, values: list[float]) -> None:
    q1 = q3 = values[0]
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    print(f"# {label}: n={len(values)} min={min(values):.6g} q1={q1:.6g} "
          f"median={statistics.median(values):.6g} q3={q3:.6g} max={max(values):.6g}")


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args) -> dict:
    import numpy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((SRC / "metsymp").rglob("*.py"))),
    }


def run_units(step, seconds: float) -> list:
    """Call ``step`` until the next call would end past ``seconds``."""
    start = time.perf_counter()
    done = []
    while True:
        done.append(step())
        elapsed = time.perf_counter() - start
        if elapsed * (len(done) + 1) / len(done) > seconds:
            return done


def gauged_units(wl, seconds: float) -> tuple[list, list[float]]:
    """Units run under a reference gauge, and the mean pass time in each."""
    passes = []
    with reference.Gauge() as gauge:
        def step():
            mark = gauge.mark()
            unit = wl.run_unit(clock=gauge.clock)
            passes.append(gauge.pass_mean(mark))
            return unit

        units = run_units(step, seconds)
    return units, passes


def per_point_us(fn, points) -> float:
    runs = []
    for _ in range(POINT_REPEATS):
        start = time.perf_counter()
        fn(points)
        runs.append(time.perf_counter() - start)
    return statistics.median(runs) / len(points) * 1e6


def static_layer_metrics(S, seed: int) -> dict:
    """Expression sizes and per-point evaluation cost of h and N(J)."""
    import metsymp
    import tracing

    B = metsymp.build_metric_symplectization(S)
    out = {}
    for label, field, chart in (("h", S.h, S.chart),
                                ("nijenhuis_J", metsymp.nijenhuis(B.J), B.chart)):
        tree, shared, unique = tracing.node_counts(field.components.flat)
        out[f"expressions.{label}.tree_nodes"] = tree
        out[f"expressions.{label}.shared_nodes"] = shared
        out[f"expressions.{label}.unique_nodes"] = unique
        pts = chart.samples(POINT_BATCH, seed=seed)
        out[f"fields.{label}.values_us_per_point"] = per_point_us(field.values, pts)
        out[f"fields.{label}.jets_us_per_point"] = per_point_us(field.jet_blocks, pts)
    return out


def check_repeats(units, problems: list) -> None:
    first = units[0].signature
    if any(u.signature != first for u in units[1:]):
        problems.append("verdict outputs differ between repeats of the same unit")


def traced_run(wl, args, problems: list) -> tuple[dict, list]:
    import tracing

    metrics = static_layer_metrics(wl.probe_structure(), args.seed)
    plain, traced, tracers = [], [], []

    def pair():
        plain.append(wl.run_unit())
        tracer = tracing.Tracer()
        with tracing.Instrumentation(tracer):
            traced.append(wl.run_unit(span=lambda: tracer.span("bench.verdict")))
        tracers.append(tracer)

    run_units(pair, args.seconds)
    check_repeats(plain + traced, problems)

    per_unit = [tracing.unit_metrics(t) for t in tracers]
    counts = per_unit[0][1]
    if any(c != counts for _, c in per_unit[1:]):
        problems.append("layer counts differ between traced repeats")
    metrics.update(counts)
    for name in per_unit[0][0]:
        metrics[name] = statistics.median(times[name] for times, _ in per_unit)
    metrics["fields.value_only_share"] = statistics.median(
        t["fields.values_s"] / (t["fields.values_s"] + t["fields.jet_blocks_s"])
        for t, _ in per_unit)
    metrics["suite.trace_overhead"] = (statistics.median(sum(u.times) for u in traced)
                                       / statistics.median(sum(u.times) for u in plain))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "fields": ["name", "start", "end", "parent"],
        "units": [{"counts": dict(t.counts),
                   "spans": [[s.name, s.start, s.end, s.parent] for s in t.spans]}
                  for t in tracers],
    }))
    print(f"# spans: {spans_path.relative_to(ROOT)}")
    return metrics, plain + traced


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        prepare_interpreter()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import models
    import workloads

    try:
        setups = setup_seconds(args.workload) if args.trace == 0 else None
        wl = workloads.make(args.workload)
        wl.prepare(wl.build(), args.seed)
    except (BenchError, models.ModelCheckError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3

    print("# meta " + json.dumps(metadata(args), sort_keys=True))
    problems: list[str] = []
    if args.trace == 0:
        units, passes = gauged_units(wl, args.seconds)
        check_repeats(units, problems)
        setup_wall, setup_passes = setups
        # A unit's mean verdict time: the sweep's grid points differ in cost
        # by a factor of four, and a median over points would jump between them.
        wall = [statistics.fmean(u.times) for u in units]
        times = [reference.calibrate(t, p) for t, p in zip(wall, passes)]
        setup = [reference.calibrate(t, p) for t, p in zip(setup_wall, setup_passes)]
        describe("verdict s per unit before scaling", wall)
        describe("verdict_s per unit", times)
        describe("setup s before scaling", setup_wall)
        describe("setup_s", setup)
        describe("reference pass s in verdicts", passes)
        describe("reference pass s in set-ups", setup_passes)
        metrics = {
            "verdict_s": statistics.median(times),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    else:
        metrics, units = traced_run(wl, args, problems)
        wanted = spec["per_layer"]

    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    verdicts = sum(len(u.times) for u in units)
    for line in dict.fromkeys(f for u in units for f in u.failures):
        print(f"# failed verdict: {line}")
    for line in dict.fromkeys(p for u in units for p in u.problems + problems):
        print(f"# wrong: {line}")
    problems.extend(p for u in units for p in u.problems)
    digest = hashlib.sha256(repr(units[0].signature).encode()).hexdigest()[:16]
    print(f"# outputs sha256 {digest} (one unit; same seed, same digest)")
    print(f"# verdicts={verdicts} units={len(units)} attempted={attempted} "
          f"failed={failed} fail_ratio={failed / attempted:.6g}")

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"bench: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 2
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, entry in result.items():
        print(f"# {name} = {entry['value']!r} {entry['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
