"""The verification suite: one entry in, one structured report out.

``run_suite`` executes sixteen checks against a catalog entry (or any
contact metric structure wrapped in an entry).  The checks live in one
ordered table, ``_TABLE``: each row is a ``Check`` with its id, the anchor
string stating the identity it verifies, its default threshold and the
function that computes its residual.  ``CHECK_ORDER`` and
``default_thresholds`` are views of that table.  A check failure is
recorded, never raised, so a single bad identity cannot hide the rest of
the report.

The checks of one run share a few artifacts through a per-run object: one
sample draw and the records of values there of the structure and of each
``d_homothety(S, a)``, from one order-0 and one order-1 walk of them all,
the (kappa, mu) fit from the structure's record, which is
:func:`metsymp.contact.fit_kappa_mu` at the run's samples and seed bit for
bit, the metric symplectization, the Boeckx index, the
(kappa, mu) refit of each rescale from the first n rows of its record,
and gbar's connection at the product points, a prefix of the draw with a
t column on the t range, which all four curvature checks of the product
read.  Checks read prefixes of these and hand the verifiers values.  Each
artifact is built on first read and at most once.  When a build raises,
every check that reads the artifact records that build's own error, not a
missing key; a rescale's error names its factor and fails no check of the
structure itself.
The commands print a run's artifacts: the D-homothety law at one factor,
``_Run.rescale_defects(a, n)``, is the ``rescale_equivariance`` check at
n = 30 and ``dhomothety --verify`` at n = the run's sample count.

Most checks reduce the named residuals of one library verifier, as
``symplectization_build`` reduces those of
:func:`metsymp.symplectization.verify_symplectization_build`; the rest
compute their defects here.  Every residual is reduced by
:func:`metsymp.fields.sup_norm`: the largest absolute defect over all
samples, with any NaN or infinite defect reported as ``inf``.  A check
passes only when its residual is finite and below its threshold; a check
that raises is recorded with residual ``inf``.

``report_emit`` serializes a report deterministically.  The JSON schema is

    {"entry": ..., "config": {"samples", "seed", "t_range", "thresholds"},
     "checks": [{"id", "anchor", "residual", "threshold", "pass", "error"}, ...],
     "summary": {"passed", "failed", "kappa", "mu", "index"}}

with ``error`` null or the ``"<Type>: message"`` of a check that raised.
The summary's kappa, mu and index are null unless ``compatibility`` passed
and the fit's residual is below ``FIT_TOL``.  The text format prints one
line per check followed by the summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import __version__
from .catalog import CatalogEntry
from .contact import (
    COMPAT_TOL,
    FIT_TOL,
    _nullity_basis,
    _reeb_from_values,
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition_batch,
    kappa_mu_after_rescale,
    kmu_fit,
    structure_records,
    verify_compatibility,
    verify_kmu_curvature,
)
from .curvature import christoffel_batch
from .errors import ConfigError, GeometryError
from .fields import TensorField, sup_norm
from .submersion import (
    fit_symplectization_kmu,
    verify_currel,
    verify_fundamental_tensors,
)
from .symplectization import (
    LIOUVILLE_TOL,
    build_metric_symplectization,
    nijenhuis_norms,
    nijenhuis_values,
    translation_isomorphism_check,
    verify_liouville,
    verify_symplectization_build,
)

# fit_kappa_mu is a re-export: no run calls it, but the benchmark's tracer
# test (bench/test_bench_helpers.py::
# test_instrumentation_wraps_every_binding_and_restores_it) reads this
# binding; it goes when ROADMAP item 1 repoints that span
__all__ = ["SuiteConfig", "CheckRecord", "SuiteReport", "run_suite",
           "report_emit", "default_thresholds", "CHECK_ORDER", "fit_kappa_mu"]


def _naming_factor(a: float, build):
    """``build``, raising its geometry errors with the rescale factor in front."""
    def named():
        try:
            return build()
        except GeometryError as exc:
            raise type(exc)(f"rescale by a={a:.9g}: {exc}") from exc
    return named


# the D-homothety factors of the rescale checks
_RESCALE_FACTORS = (0.5, 2.0, math.e)


def _record_fit(S, v):
    """The (kappa, mu) fit of S from its record ``v`` and g's connection at
    the record's points."""
    return kmu_fit(christoffel_batch(S.g, v.points), v.eta, v.xi, v.h)


class _Run:
    """One suite run: the entry, its config, and the artifacts its checks share.

    ``points`` is the run's one draw on the structure's chart, from
    ``cfg.seed``.  ``factors`` are the D-homothety factors whose records the
    run reads, the suite's by default and none or the one of ``--a`` for a
    command.  The structure's record and those of its rescales come from
    one family walk at ``points`` (:func:`structure_records`), and a
    rescale's record on the first n points is the first n rows of its own.
    Every (kappa, mu) fit of the run, the structure's and each refit, is
    ``kmu_fit`` on a record, so the run draws once on the structure's chart.
    An artifact is built on first read and at most once.  A build that
    raises is remembered, and every read of it raises that same error; a
    rescale that fails to build is left out of the family walk, so its
    error names its factor and reaches no check of the structure itself.
    """

    def __init__(self, entry: CatalogEntry, cfg: SuiteConfig,
                 factors: tuple[float, ...] = _RESCALE_FACTORS):
        self.entry, self.S, self.cfg, self.factors = entry, entry.structure, cfg, factors
        self._built: dict = {}
        self.points = self.S.chart.samples(cfg.samples, seed=cfg.seed)

    def _artifact(self, key, build, *args, **kwargs):
        if key not in self._built:
            try:
                self._built[key] = (build(*args, **kwargs), None)
            except Exception as exc:  # noqa: BLE001 - raised again on every read
                self._built[key] = (None, exc)
        value, error = self._built[key]
        if error is not None:
            raise error
        return value

    def peek(self, key):
        """An artifact already built without error, else None; builds nothing."""
        return self._built.get(key, (None, None))[0]

    def _rescale(self, a: float):
        """``d_homothety(S, a)``, built once."""
        return self._artifact(("rescale", a), d_homothety, self.S, a)

    def _records(self):
        """The family's records on ``points``, keyed by factor, None for the
        structure: one walk per order for the structure and every rescale
        in ``factors`` that builds."""
        def build():
            family = {None: self.S}
            for a in self.factors:
                try:
                    family[a] = self._rescale(a)
                except Exception:  # noqa: BLE001 - kept for the rescale's own reads
                    continue
            return dict(zip(family, structure_records(list(family.values()), self.points)))
        return self._artifact("records", build)

    @property
    def values(self):
        """The structure's values on ``points``."""
        return self._records()[None]

    @property
    def kmu(self):
        """The (kappa, mu) fit of the structure on ``points``, from its record
        and g's connection there: ``fit_kappa_mu(S, cfg.samples, cfg.seed)``
        bit for bit, with no second draw or walk.  A record that fails to
        build is the fit's error."""
        return self._artifact("kmu", lambda: _record_fit(self.S, self.values))

    @property
    def B(self):
        """The metric symplectization over the configured t range."""
        return self._artifact("B", build_metric_symplectization, self.S, self.cfg.t_range)

    @property
    def index(self) -> float | None:
        """The Boeckx index of the fit; None where h = 0 leaves it undefined."""
        rep = self.kmu
        if rep.sasakian_flag:
            return None
        return self._artifact("index", boeckx_index, rep.kappa, rep.mu)

    @property
    def product_points(self):
        """The first n = min(samples, 40) of ``points``, each with a t drawn on B's chart."""
        n = min(self.cfg.samples, 40)
        return self._artifact("product_points", lambda: np.hstack(
            [self.points[:n], self.B.chart.samples(n, seed=self.cfg.seed)[:, -1:]]))

    @property
    def connection(self):
        """gbar's connection data on ``product_points``."""
        return self._artifact("connection", christoffel_batch, self.B.gbar, self.product_points)

    def product_inputs(self):
        """``connection`` and the prefix of ``values`` at its base coordinates."""
        return self.connection, self.values.prefix(len(self.product_points))

    @property
    def currel(self):
        """The three curvature relations, then the six Ricci rows, on ``connection``."""
        return self._artifact("currel", verify_currel, self.B, *self.product_inputs())

    def rescaled(self, a: float, n: int):
        """``d_homothety(S, a)`` and its values on the first n of ``points``,
        the first n rows of its record in the family walk; a factor outside
        ``factors`` has none."""
        def build():
            if a not in self.factors:
                raise ValueError(f"rescale factor {a!r} is not one of the run's {self.factors}")
            return self._rescale(a), self._records()[a].prefix(n)
        return self._artifact(("rescaled", a, n), _naming_factor(a, build))

    def refit(self, a: float, n: int):
        """The (kappa, mu) fit of ``rescaled(a, n)``, from its record."""
        S2, v = self.rescaled(a, n)
        return self._artifact(("refit", a, n), _naming_factor(a, lambda: _record_fit(S2, v)))

    def rescale_defects(self, a: float, n: int) -> list:
        """The defects of the D-homothety law at one factor a, on the first n
        of ``points``: xi' = xi/a, h' = h/a, the rescale is compatible, and
        ``refit(a, n)`` obeys the law applied to ``kmu``."""
        base, rescaled = self.values.prefix(n), self.rescaled(a, n)[1]
        kmu, fit = self.kmu, self.refit(a, n)
        kp, mp = kappa_mu_after_rescale(kmu.kappa, kmu.mu, a)
        return [rescaled.xi - base.xi / a,
                rescaled.h - base.h / a,
                sup_norm(*verify_compatibility(rescaled).values()),
                fit.residual, *_constant_defects(fit.kappa, fit.mu, kp, mp)]


# ---------------------------------------------------------------------------
# individual checks; each reads the run and returns a residual
# ---------------------------------------------------------------------------


def _constant_defects(kappa, mu, want_kappa, want_mu) -> list[float]:
    """Fitted (kappa, mu) minus the expected pair; mu defined on one side only
    is an infinite defect."""
    if (mu is None) != (want_mu is None):
        return [kappa - want_kappa, math.inf]
    return [kappa - want_kappa] + ([] if mu is None else [mu - want_mu])


def _check_compatibility(run):
    return sup_norm(*verify_compatibility(run.values).values())


def _check_reeb(run):
    v, head = run.values, run.values.prefix(10)
    solver = _reeb_from_values(head.deta, head.eta, head.points) - head.xi
    return sup_norm(np.einsum("ni,nij->nj", v.xi, v.deta),
                    np.einsum("ni,ni->n", v.eta, v.xi) - 1.0, solver)


def _check_h_tensor(run):
    hv, pv = run.values.h, run.values.phi
    anti = np.einsum("nia,naj->nij", hv, pv) + np.einsum("nia,naj->nij", pv, hv)
    trace = np.einsum("nii->n", hv)
    return sup_norm(anti, trace)


def _check_nullity_fit(run):
    rep, entry = run.kmu, run.entry
    defects = [rep.residual]
    if entry.expected_kappa is not None:
        defects += _constant_defects(rep.kappa, rep.mu, entry.expected_kappa, entry.expected_mu)
    return sup_norm(*defects)


def _check_h_eigenstructure(run):
    S, rep, values = run.S, run.kmu, run.values.prefix(25)
    h2 = np.einsum("nia,naj->nij", values.h, values.h)
    p2 = np.einsum("nia,naj->nij", values.phi, values.phi)
    defects = [h2 + (1.0 - rep.kappa) * p2]
    if not rep.sasakian_flag:
        lam = math.sqrt(1.0 - rep.kappa)
        target = np.sort(np.concatenate([np.full(S.n, lam), np.full(S.n, -lam), np.zeros(1)]))
        eig = h_eigendecomposition_batch(values.prefix(10))
        defects += [eig.eigenvalues - target, eig.orthonormality_residual,
                    eig.xi_alignment_residual]
    return sup_norm(*defects)


def _check_eigenspace_curvature(run):
    rep, values = run.kmu, run.values.prefix(20)
    data = christoffel_batch(run.S.g, values.points)
    if rep.sasakian_flag:
        # kappa = 1 specialization: R(X, Y) xi = eta(Y) X - eta(X) Y
        lhs = np.einsum("nlkij,nk->nlij", data.riem, values.xi)
        return sup_norm(lhs - _nullity_basis(values.eta))
    return sup_norm(*verify_kmu_curvature(values, data, rep.kappa, rep.mu).values())


def _check_rescale_equivariance(run):
    return sup_norm(*(d for a in _RESCALE_FACTORS for d in run.rescale_defects(a, 30)))


def _check_index_invariance(run):
    index = run.index
    refits = [run.refit(a, 30) for a in _RESCALE_FACTORS]
    if index is None:
        # the index is undefined where h = 0, and h' = h/a keeps it undefined
        # on every rescale
        return 0.0 if all(r.sasakian_flag for r in refits) else math.inf
    return sup_norm([boeckx_index(r.kappa, r.mu) - index for r in refits])


def _check_symplectization_build(run):
    return sup_norm(*verify_symplectization_build(run.B, *run.product_inputs()).values())


def _check_liouville(run):
    B = run.B
    dt_field = TensorField.coordinate_vector(B.chart, B.chart.dim - 1)
    return verify_liouville(B.omega, dt_field, run.product_points)["cartan"]


def _check_fundamental_tensor(run):
    return sup_norm(*verify_fundamental_tensors(run.B, *run.product_inputs()).values())


def _check_curvature_relations(run):
    return sup_norm(*list(run.currel.values())[:3])


def _check_ricci_rows(run):
    return sup_norm(*list(run.currel.values())[3:])


def _check_symplectization_nullity(run):
    kmu = run.kmu
    fit = fit_symplectization_kmu(run.B, *run.product_inputs())
    return [fit.residual, *_constant_defects(fit.kappa, fit.mu, kmu.kappa, kmu.mu)]


def _check_integrability(run):
    B, rep, pts = run.B, run.kmu, run.product_points[:30]
    norms = nijenhuis_norms(nijenhuis_values(B.J, pts), run.connection.g[:30])
    if rep.sasakian_flag:
        return sup_norm(norms)
    # non-Sasakian: the torsion must be bounded away from zero; the residual
    # is how far its smallest norm falls short of the floor
    return sup_norm(np.maximum(1e-2 - norms, 0.0))


def _check_translation_isomorphism(run):
    lo, hi = run.cfg.t_range
    return sup_norm(*translation_isomorphism_check(run.B, 0.15 * (hi - lo),
                                                   run.product_points[:30]).values())


@dataclass(frozen=True)
class Check:
    id: str
    anchor: str
    threshold: float
    run: Callable[[_Run], object]


_TABLE = (
    Check("compatibility", "g(X,xi)=eta(X); phi^2=-I+eta(x)xi; d_eta(X,Y)=g(X,phi Y)",
          COMPAT_TOL, _check_compatibility),
    Check("reeb", "eta(xi)=1 and d_eta(xi,.)=0", 1e-9, _check_reeb),
    Check("h_tensor", "h=(1/2) Lie_xi phi; h phi + phi h = 0; tr h = 0; K-contact iff h=0",
          1e-8, _check_h_tensor),
    Check("nullity_fit", "R(X,Y)xi=(kappa I + mu h)(eta(Y)X - eta(X)Y), kappa and mu constant",
          FIT_TOL, _check_nullity_fit),
    Check("h_eigenstructure", "h^2=-(1-kappa) phi^2; spectrum {0, +sqrt(1-kappa), -sqrt(1-kappa)}",
          1e-6, _check_h_eigenstructure),
    Check("eigenspace_curvature", "curvature determined by (kappa, mu) on the h eigenspaces"
          ", e.g. R(X+,Y+)Z+=[2(1+lam)-mu][g(Y+,Z+)X+-g(X+,Z+)Y+]",
          1e-6, _check_eigenspace_curvature),
    Check("rescale_equivariance", "under eta->a eta, g->a g+a(a-1) eta(x)eta: xi'=xi/a, h'=h/a,"
          " kappa'=(kappa+a^2-1)/a^2, mu'=(mu+2a-2)/a", 1e-6, _check_rescale_equivariance),
    Check("index_invariance", "(1-mu/2)/sqrt(1-kappa) is invariant under the rescaling family",
          1e-6, _check_index_invariance),
    Check("symplectization_build", "unique compatible metric: J=phi on ker(eta_t), J xi_t=d_t,"
          " J d_t=-xi_t, gbar=g_t+dt^2, slice(t)=rescale by exp(2t)",
          1e-10, _check_symplectization_build),
    Check("liouville", "d(i_Y omega) + i_Y(d omega) = omega for Y = d_t on omega=d(exp(2t) eta)",
          LIOUVILLE_TOL, _check_liouville),
    Check("fundamental_tensor",
          "T_X Y=-(gbar(X,Y)+eta_t(X)eta_t(Y)) d_t; T_X d_t=X+eta_t(X)xi_t; A=0",
          1e-7, _check_fundamental_tensor),
    Check("curvature_relations", "V(R(X,Y)Z) and the d_t components against slice data;"
          " gbar(R(d_t,X)d_t,Y)=g_t(X,Y)+3 eta_t(X)eta_t(Y); gbar(R(X,Y)d_t,d_t)=0",
          1e-6, _check_curvature_relations),
    Check("ricci_rows", "Ric(d_t,d_t)=-2n-4; Ric(xi_t,d_t)=0;"
          " Ric(xi_t,xi_t)=Ric_t(xi_t,xi_t)-4n-4; distribution rows", 1e-6, _check_ricci_rows),
    Check("symplectization_nullity",
          "V(R(X,Y)xi_t)=((kappa_t-2) I + mu_t h_t)(eta_t(Y)X-eta_t(X)Y) on every slice",
          1e-5, _check_symplectization_nullity),
    Check("integrability", "Sasakian iff the almost complex structure of the metric"
          " symplectization is integrable",
          1e-8, _check_integrability),
    Check("translation_isomorphism", "(x,t)->(x,t+s) identifies the symplectization data of a"
          " structure with that of its rescale by exp(2s)", 1e-8, _check_translation_isomorphism),
)

CHECK_ORDER = tuple(c.id for c in _TABLE)


def default_thresholds() -> dict[str, float]:
    return {c.id: c.threshold for c in _TABLE}


@dataclass(frozen=True)
class SuiteConfig:
    samples: int = 50
    seed: int = 42
    t_range: tuple[float, float] = (-1.0, 1.0)

    def __post_init__(self):
        if self.samples <= 0:
            raise ConfigError("samples must be a positive integer")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        lo, hi = self.t_range
        if not lo < hi:
            raise ConfigError("t_range must be a nonempty interval")
        if not math.isfinite(hi - lo):
            raise ConfigError(f"t_range must have finite ends and width, got [{lo}, {hi}]")
        object.__setattr__(self, "t_range", (float(lo), float(hi)))


@dataclass(frozen=True)
class CheckRecord:
    id: str
    anchor: str
    residual: float
    threshold: float
    passed: bool
    samples: int
    seed: int
    error: str | None = None


@dataclass(frozen=True)
class SuiteReport:
    version: str
    entry: str
    config: SuiteConfig
    checks: tuple[CheckRecord, ...]
    kappa: float | None
    mu: float | None
    index: float | None
    wall_time: float

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.passed)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.passed)

    @property
    def all_passed(self) -> bool:
        return self.failed == 0


def _float_warnings_off():
    """numpy's floating-point warnings, off: a NaN or infinite defect is already
    an inf residual or an error, so the warnings on the way say nothing more."""
    return np.errstate(all="ignore")


def _run_checks(run: _Run, ids) -> list[CheckRecord]:
    """The records of the table's checks named in ``ids``, in table order."""
    cfg = run.cfg
    records = []
    for check in _TABLE:
        if check.id not in ids:
            continue
        try:
            with _float_warnings_off():
                residual = sup_norm(check.run(run))
            error = None
        except Exception as exc:  # noqa: BLE001 - the contract is never abort
            residual = float("inf")
            error = f"{type(exc).__name__}: {exc}"
        records.append(CheckRecord(
            id=check.id,
            anchor=check.anchor,
            residual=residual,
            threshold=check.threshold,
            passed=bool(residual < check.threshold),
            samples=cfg.samples,
            seed=cfg.seed,
            error=error,
        ))
    return records


def run_suite(entry: CatalogEntry, config: SuiteConfig | None = None) -> SuiteReport:
    """Run every check against one entry; failures are recorded, not raised."""
    cfg = config or SuiteConfig()
    run = _Run(entry, cfg)
    start = time.perf_counter()
    records = _run_checks(run, CHECK_ORDER)
    wall = time.perf_counter() - start
    kmu = run.peek("kmu")
    # no constants from a structure that fails the axioms, nor from a rejected fit
    if not (records[CHECK_ORDER.index("compatibility")].passed
            and kmu is not None and kmu.residual < FIT_TOL):
        kmu = None
    return SuiteReport(
        version=__version__,
        entry=entry.name,
        config=cfg,
        checks=tuple(records),
        kappa=None if kmu is None else kmu.kappa,
        mu=None if kmu is None else kmu.mu,
        index=None if kmu is None else run.peek("index"),
        wall_time=wall,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def report_emit(report: SuiteReport, fmt: str) -> bytes:
    """Serialize a report; deterministic for identical report contents."""
    if fmt == "json":
        payload = {
            "entry": report.entry,
            "config": {
                "samples": report.config.samples,
                "seed": report.config.seed,
                "t_range": list(report.config.t_range),
                "thresholds": default_thresholds(),
            },
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "pass": c.passed,
                    "error": c.error,
                }
                for c in report.checks
            ],
            "summary": {
                "passed": report.passed,
                "failed": report.failed,
                "kappa": report.kappa,
                "mu": report.mu,
                "index": report.index,
            },
        }
        return (json.dumps(payload, indent=2, ensure_ascii=True) + "\n").encode()
    if fmt == "text":
        lines = [f"entry: {report.entry} (tool {report.version})"]
        for c in report.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = (f"[{mark}] {c.id:<26} residual={c.residual:.3e} "
                    f"threshold={c.threshold:.1e} :: {c.anchor}")
            if c.error:
                line += f" [error: {c.error}]"
            lines.append(line)
        kappa = "none" if report.kappa is None else f"{report.kappa:.9g}"
        mu = "undefined" if report.mu is None else f"{report.mu:.9g}"
        index = "undefined" if report.index is None else f"{report.index:.9g}"
        lines.append(
            f"summary: passed={report.passed} failed={report.failed} "
            f"kappa={kappa} mu={mu} index={index} "
            f"wall_time={report.wall_time:.2f}s"
        )
        return ("\n".join(lines) + "\n").encode()
    raise ConfigError(f"unknown report format {fmt!r}; use 'json' or 'text'")
