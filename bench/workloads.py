"""The benchmark's workloads, and the correctness gate on every verdict.

A verdict is what a user waits for:

* on a suite workload, one full sixteen-check report: ``run_suite`` plus
  ``report_emit(..., "json")``, the path of ``metsymp check --format json``;
  each of its checks counts as one attempt;
* on ``rescale-sweep``, one grid point: a fresh D-homothety of a base model
  and one nullity fit on a few samples.

A unit is the smallest block of verdicts that a run repeats: one suite
report, or one pass over the whole grid for both sweep models.  Every unit
of a run must reproduce the first unit's outputs bit for bit.  Verdicts are
timed with the ``clock`` that a unit is given.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Callable

import metsymp

import models

SUITE_SAMPLES = 50          # the CLI default
SWEEP_SAMPLES = 6
# Geometric grid from 0.01 to 100, eight points per decade.  At its low end
# the absolute |det g| guard of the curvature layer rejects the well
# conditioned R^5 model; those points are counted as failures, never dropped.
SWEEP_GRID = tuple(10.0 ** (k / 8.0) for k in range(-16, 17))
KNOWN_TOL = 1e-8            # on (kappa, mu, index) of a suite report
LAW_TOL = 1e-6              # relative, on the fitted constants of a grid point


@dataclass
class UnitResult:
    times: list[float] = field(default_factory=list)   # wall time of each verdict
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)  # raising verdicts
    problems: list[str] = field(default_factory=list)  # wrong outputs
    signature: list = field(default_factory=list)      # bit-exact outputs


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _differs(got: float | None, want: float | None, tol: float) -> bool:
    if (got is None) != (want is None):
        return True
    return want is not None and not abs(got - want) <= tol * max(1.0, abs(want))


def judge_suite(report, emitted: bytes, known: tuple) -> list[str]:
    """Everything wrong with one suite verdict; empty when it is correct."""
    problems = [
        f"check {c.id}: residual {c.residual!r} threshold {c.threshold!r}"
        + (f" ({c.error})" if c.error else "")
        for c in report.checks
        if not (c.passed and math.isfinite(c.residual) and c.residual < c.threshold)
    ]
    for label, got, want in zip(("kappa", "mu", "index"),
                                (report.kappa, report.mu, report.index), known):
        if _differs(got, want, KNOWN_TOL):
            problems.append(f"{label} {got!r}, expected {want!r}")
    try:
        doc = json.loads(emitted, parse_constant=_reject_constant)
    except ValueError as exc:
        problems.append(f"report JSON does not parse strictly: {exc}")
    else:
        if [c["residual"] for c in doc["checks"]] != [c.residual for c in report.checks]:
            problems.append("report JSON residuals differ from the report")
    return problems


def law(kappa: float, mu: float | None, a: float) -> tuple[float, float | None]:
    """The D-homothety law ((kappa+a^2-1)/a^2, (mu+2a-2)/a)."""
    return (kappa + a * a - 1.0) / (a * a), None if mu is None else (mu + 2.0 * a - 2.0) / a


def judge_rescale(rep, base: tuple, a: float) -> list[str]:
    """Everything wrong with one rescale verdict on a base with (kappa, mu, index)."""
    kappa, mu, index = base
    want_k, want_m = law(kappa, mu, a)
    problems = []
    if _differs(rep.kappa, want_k, LAW_TOL):
        problems.append(f"kappa {rep.kappa!r}, law gives {want_k!r}")
    if _differs(rep.mu, want_m, LAW_TOL):
        problems.append(f"mu {rep.mu!r}, law gives {want_m!r}")
    if not rep.residual <= LAW_TOL * max(1.0, abs(want_k)):
        problems.append(f"fit residual {rep.residual!r}")
    if index is not None and rep.mu is not None and rep.kappa < 1.0:
        got = (1.0 - rep.mu / 2.0) / math.sqrt(1.0 - rep.kappa)
        if _differs(got, index, LAW_TOL):
            problems.append(f"index {got!r}, expected {index!r}")
    return problems


def _hex(x: float | None) -> str | None:
    return None if x is None else float(x).hex()


class SuiteWorkload:
    """The full suite on one structure with known (kappa, mu, index)."""

    def __init__(self, build: Callable[[], metsymp.CatalogEntry], known: tuple):
        self.build = build
        self.known = known

    def prepare(self, entry: metsymp.CatalogEntry, seed: int) -> None:
        models.checked(entry.structure, *self.known, seed=seed)
        self.entry = entry
        self.config = metsymp.SuiteConfig(samples=SUITE_SAMPLES, seed=seed)

    def probe_structure(self) -> metsymp.ContactMetricStructure:
        return self.entry.structure

    def run_unit(self, span=contextlib.nullcontext, clock=time.perf_counter) -> UnitResult:
        with span():
            start = clock()
            report = metsymp.run_suite(self.entry, self.config)
            emitted = metsymp.report_emit(report, "json")
            elapsed = clock() - start
        problems = judge_suite(report, emitted, self.known)
        return UnitResult(
            times=[elapsed],
            attempted=len(report.checks),
            failed=report.failed,
            failures=[f"check {c.id}: {c.error}" for c in report.checks if c.error],
            problems=problems,
            signature=[_hex(c.residual) for c in report.checks] + [emitted],
        )


@dataclass
class SweepModel:
    name: str
    structure: metsymp.ContactMetricStructure
    known: tuple  # (kappa, mu, index) of the base structure


class SweepWorkload:
    """The rescale law and index invariance over ``SWEEP_GRID``."""

    BASES = (("curved-index-2", (0.0, -2.0, 2.0)), ("sasakian-r5", (1.0, None, None)))

    @staticmethod
    def build() -> tuple:
        return (models.curved_index_two(), models.standard_sasakian(2))

    def prepare(self, built: tuple, seed: int) -> None:
        self.models = [SweepModel(name, models.checked(S, *known, seed=seed), known)
                       for (name, known), S in zip(self.BASES, built)]
        self.seed = seed

    def probe_structure(self) -> metsymp.ContactMetricStructure:
        return self.models[0].structure

    def run_unit(self, span=contextlib.nullcontext, clock=time.perf_counter) -> UnitResult:
        out = UnitResult()
        for model in self.models:
            for a in SWEEP_GRID:
                out.attempted += 1
                error = rep = None
                with span():
                    start = clock()
                    try:
                        rep = metsymp.fit_kappa_mu(metsymp.d_homothety(model.structure, a),
                                                   SWEEP_SAMPLES, seed=self.seed)
                    except Exception as exc:  # noqa: BLE001 - a raising verdict is counted
                        error = f"{type(exc).__name__}: {exc}"
                    out.times.append(clock() - start)
                if error is not None:
                    out.failed += 1
                    out.failures.append(f"{model.name} a={a!r}: {error}")
                    out.signature.append(error)
                    continue
                wrong = judge_rescale(rep, model.known, a)
                if wrong:
                    out.failed += 1
                    out.problems.extend(f"{model.name} a={a!r}: {w}" for w in wrong)
                out.signature.append((_hex(rep.kappa), _hex(rep.mu), _hex(rep.residual)))
        return out


def _flat_entry() -> metsymp.CatalogEntry:
    return metsymp.catalog_load("unit-tangent-flat-plane")


def _sasakian7_entry() -> metsymp.CatalogEntry:
    return metsymp.CatalogEntry(
        name="sasakian-r7", structure=models.standard_sasakian(3),
        expected_kappa=1.0, expected_mu=None,
        description="Standard Sasakian structure on R^7; h = 0, kappa = 1.")


def make(name: str):
    """A fresh workload object by name."""
    if name == "flat-suite":
        return SuiteWorkload(_flat_entry, (0.0, 0.0, 1.0))
    if name == "sasakian7-suite":
        return SuiteWorkload(_sasakian7_entry, (1.0, None, None))
    if name == "rescale-sweep":
        return SweepWorkload()
    raise KeyError(f"unknown workload {name!r}")
