"""The verification suite: one entry in, one structured report out.

``run_suite`` executes sixteen checks in a fixed order against a catalog
entry (or any contact metric structure wrapped in an entry).  Each check
carries an anchor string stating the identity it verifies, a residual, a
threshold and a pass flag; check failures are recorded, never raised, so a
single bad identity cannot hide the rest of the report.

Every residual is reduced by :func:`metsymp.fields.sup_norm`: the largest
absolute defect over all samples, with any NaN or infinite defect reported
as ``inf``.  A check passes only when its residual is finite and below its
threshold; a check that raises is recorded with residual ``inf``.

``report_emit`` serializes a report deterministically.  The JSON schema is

    {"entry": ..., "config": {"samples", "seed", "t_range", "thresholds"},
     "checks": [{"id", "anchor", "residual", "threshold", "pass"}, ...],
     "summary": {"passed", "failed", "kappa", "mu", "index"}}

and the text format prints one line per check followed by the summary.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .catalog import CatalogEntry
from .contact import (
    _reeb_from_values,
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    h_eigendecomposition_batch,
    is_K_contact,
    kappa_mu_after_rescale,
    verify_compatibility,
    verify_kmu_curvature,
)
from .curvature import christoffel_batch, riemann_components
from .errors import ConfigError, SasakianDegeneracyError
from .fields import TensorField, exterior_derivative, sup_norm
from .submersion import (
    fit_symplectization_kmu,
    verify_currel,
    verify_fundamental_tensors,
    verify_ricci_relations,
)
from .symplectization import (
    acs_table_residuals,
    block_structure_residuals,
    build_metric_symplectization,
    natural_acs,
    nijenhuis,
    nijenhuis_norms,
    slice_structure,
    translation_isomorphism_check,
    unique_acs_witness_residual,
    verify_liouville,
)

__all__ = ["SuiteConfig", "CheckRecord", "SuiteReport", "run_suite",
           "report_emit", "default_thresholds", "CHECK_ORDER"]


def default_thresholds() -> dict[str, float]:
    return {
        "compatibility": 1e-8,
        "reeb": 1e-9,
        "h_tensor": 1e-8,
        "nullity_fit": 1e-6,
        "h_eigenstructure": 1e-6,
        "eigenspace_curvature": 1e-6,
        "rescale_equivariance": 1e-6,
        "index_invariance": 1e-6,
        "symplectization_build": 1e-10,
        "liouville": 1e-9,
        "fundamental_tensor": 1e-7,
        "curvature_relations": 1e-6,
        "ricci_rows": 1e-6,
        "symplectization_nullity": 1e-5,
        "integrability": 1e-8,
        "translation_isomorphism": 1e-8,
    }


CHECK_ORDER = tuple(default_thresholds())


_ANCHORS = {
    "compatibility": "g(X,xi)=eta(X); phi^2=-I+eta(x)xi; d_eta(X,Y)=g(X,phi Y)",
    "reeb": "eta(xi)=1 and d_eta(xi,.)=0",
    "h_tensor": "h=(1/2) Lie_xi phi; h phi + phi h = 0; tr h = 0; K-contact iff h=0",
    "nullity_fit": "R(X,Y)xi=(kappa I + mu h)(eta(Y)X - eta(X)Y), kappa and mu constant",
    "h_eigenstructure": "h^2=-(1-kappa) phi^2; spectrum {0, +sqrt(1-kappa), -sqrt(1-kappa)}",
    "eigenspace_curvature": "curvature determined by (kappa, mu) on the h eigenspaces"
                            ", e.g. R(X+,Y+)Z+=[2(1+lam)-mu][g(Y+,Z+)X+-g(X+,Z+)Y+]",
    "rescale_equivariance": "under eta->a eta, g->a g+a(a-1) eta(x)eta: xi'=xi/a, h'=h/a,"
                            " kappa'=(kappa+a^2-1)/a^2, mu'=(mu+2a-2)/a",
    "index_invariance": "(1-mu/2)/sqrt(1-kappa) is invariant under the rescaling family",
    "symplectization_build": "unique compatible metric: J=phi on ker(eta_t), J xi_t=d_t,"
                             " J d_t=-xi_t, gbar=g_t+dt^2, slice(t)=rescale by exp(2t)",
    "liouville": "d(i_Y omega) + i_Y(d omega) = omega for Y = d_t on omega=d(exp(2t) eta)",
    "fundamental_tensor": "T_X Y=-(gbar(X,Y)+eta_t(X)eta_t(Y)) d_t; T_X d_t=X+eta_t(X)xi_t;"
                          " A=0",
    "curvature_relations": "V(R(X,Y)Z) and the d_t components against slice data;"
                           " gbar(R(d_t,X)d_t,Y)=g_t(X,Y)+3 eta_t(X)eta_t(Y);"
                           " gbar(R(X,Y)d_t,d_t)=0",
    "ricci_rows": "Ric(d_t,d_t)=-2n-4; Ric(xi_t,d_t)=0;"
                  " Ric(xi_t,xi_t)=Ric_t(xi_t,xi_t)-4n-4; distribution rows",
    "symplectization_nullity": "V(R(X,Y)xi_t)=((kappa_t-2) I + mu_t h_t)"
                               "(eta_t(Y)X-eta_t(X)Y) on every slice",
    "integrability": "Sasakian iff the almost complex structure of the symplectization"
                     " is integrable, for the classical and the metric construction",
    "translation_isomorphism": "(x,t)->(x,t+s) identifies the symplectization data of a"
                               " structure with that of its rescale by exp(2s)",
}


@dataclass(frozen=True)
class SuiteConfig:
    samples: int = 50
    seed: int = 42
    t_range: tuple[float, float] = (-1.0, 1.0)
    thresholds: dict = field(default_factory=default_thresholds)

    def __post_init__(self):
        if self.samples <= 0:
            raise ConfigError("samples must be a positive integer")
        lo, hi = self.t_range
        if not lo < hi:
            raise ConfigError("t_range must be a nonempty interval")
        merged = default_thresholds()
        merged.update(self.thresholds)
        object.__setattr__(self, "thresholds", merged)
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


# ---------------------------------------------------------------------------
# individual checks; each returns a residual
# ---------------------------------------------------------------------------


def _constant_defects(kappa, mu, want_kappa, want_mu) -> list[float]:
    """Fitted (kappa, mu) minus the expected pair; mu defined on one side only
    is an infinite defect."""
    if (mu is None) != (want_mu is None):
        return [kappa - want_kappa, math.inf]
    return [kappa - want_kappa] + ([] if mu is None else [mu - want_mu])


def _check_compatibility(S, cfg, ctx):
    return verify_compatibility(S, cfg.samples, seed=cfg.seed).max_residual


def _check_reeb(S, cfg, ctx):
    pts = S.chart.samples(cfg.samples, seed=cfg.seed + 1)
    deta = exterior_derivative(S.eta)
    dv = deta.values(pts)
    ev = S.eta.values(pts)
    xv = S.xi.values(pts)
    n = min(10, len(pts))
    solver = _reeb_from_values(dv[:n], ev[:n], pts[:n]) - xv[:n]
    return sup_norm(np.einsum("ni,nij->nj", xv, dv), np.einsum("ni,ni->n", ev, xv) - 1.0,
                    solver)


def _check_h_tensor(S, cfg, ctx):
    pts = S.chart.samples(cfg.samples, seed=cfg.seed + 2)
    hv = S.h.values(pts)
    pv = S.phi.values(pts)
    anti = np.einsum("nia,naj->nij", hv, pv) + np.einsum("nia,naj->nij", pv, hv)
    trace = np.einsum("nii->n", hv)
    ctx["k_contact"] = bool(is_K_contact(S, cfg.samples, seed=cfg.seed + 2).is_k_contact)
    return sup_norm(anti, trace)


def _check_nullity_fit(S, cfg, ctx):
    rep = fit_kappa_mu(S, cfg.samples, seed=cfg.seed + 3)
    ctx["kmu"] = rep
    defects = [rep.residual]
    entry = ctx.get("entry")
    if entry is not None and entry.expected_kappa is not None:
        defects += _constant_defects(rep.kappa, rep.mu, entry.expected_kappa, entry.expected_mu)
    return sup_norm(*defects)


def _check_h_eigenstructure(S, cfg, ctx):
    rep = ctx["kmu"]
    pts = S.chart.samples(min(cfg.samples, 25), seed=cfg.seed + 4)
    hv = S.h.values(pts)
    pv = S.phi.values(pts)
    h2 = np.einsum("nia,naj->nij", hv, hv)
    p2 = np.einsum("nia,naj->nij", pv, pv)
    defects = [h2 + (1.0 - rep.kappa) * p2]
    if not rep.sasakian_flag:
        lam = math.sqrt(1.0 - rep.kappa)
        target = np.sort(np.concatenate([np.full(S.n, lam), np.full(S.n, -lam), np.zeros(1)]))
        for eig in h_eigendecomposition_batch(S, pts[: min(10, len(pts))]):
            defects += [np.sort(eig.eigenvalues) - target,
                        eig.orthonormality_residual, eig.xi_alignment_residual]
    return sup_norm(*defects)


def _check_eigenspace_curvature(S, cfg, ctx):
    rep = ctx["kmu"]
    n_pts = min(cfg.samples, 20)
    if rep.sasakian_flag:
        # kappa = 1 specialization: R(X, Y) xi = eta(Y) X - eta(X) Y
        pts = S.chart.samples(n_pts, seed=cfg.seed + 5)
        data = christoffel_batch(S.g, pts)
        riem = riemann_components(data)
        xv = S.xi.values(pts)
        ev = S.eta.values(pts)
        lhs = np.einsum("nlkij,nk->nlij", riem, xv)
        eye = np.eye(S.chart.dim)
        rhs = np.einsum("nj,li->nlij", ev, eye) - np.einsum("ni,lj->nlij", ev, eye)
        return sup_norm(lhs - rhs)
    rep6 = verify_kmu_curvature(S, rep.kappa, rep.mu, n_pts, seed=cfg.seed + 5)
    return rep6.max_residual


_RESCALE_FACTORS = (0.5, 2.0, math.e)


def _rescaled(S, ctx, a):
    """d_homothety(S, a), built at most once per run and shared by the checks."""
    built = ctx.setdefault("rescaled", {})
    if a not in built:
        built[a] = d_homothety(S, a)
    return built[a]


def _check_rescale_equivariance(S, cfg, ctx):
    rep = ctx["kmu"]
    defects = []
    n_pts = min(cfg.samples, 30)
    for a in _RESCALE_FACTORS:
        S2 = _rescaled(S, ctx, a)
        pts = S.chart.samples(n_pts, seed=cfg.seed + 6)
        defects += [S2.xi.values(pts) - S.xi.values(pts) / a,
                    S2.h.values(pts) - S.h.values(pts) / a,
                    verify_compatibility(S2, n_pts, seed=cfg.seed + 6).max_residual]
        rep2 = fit_kappa_mu(S2, n_pts, seed=cfg.seed + 6)
        kp, mp = kappa_mu_after_rescale(rep.kappa, rep.mu, a)
        defects += [rep2.residual, *_constant_defects(rep2.kappa, rep2.mu, kp, mp)]
    return sup_norm(*defects)


def _check_index_invariance(S, cfg, ctx):
    rep = ctx["kmu"]
    if rep.sasakian_flag:
        # the index is undefined when h vanishes; nothing to compare, but
        # the guard of the index function must hold at the exact boundary
        ctx["index"] = None
        try:
            boeckx_index(1.0, 0.0)
        except SasakianDegeneracyError:
            return 0.0
        return float("inf")
    base = boeckx_index(rep.kappa, rep.mu)
    ctx["index"] = base
    n_pts = min(cfg.samples, 30)
    refits = [fit_kappa_mu(_rescaled(S, ctx, a), n_pts, seed=cfg.seed + 7)
              for a in _RESCALE_FACTORS]
    return sup_norm([boeckx_index(r.kappa, r.mu) - base for r in refits])


def _check_symplectization_build(S, cfg, ctx):
    B = build_metric_symplectization(S, cfg.t_range)
    ctx["B"] = B
    n_pts = min(cfg.samples, 40)
    defects = [*acs_table_residuals(B, n_pts, seed=cfg.seed + 8).values(),
               *block_structure_residuals(B, n_pts, seed=cfg.seed + 8).values(),
               unique_acs_witness_residual(B, min(n_pts, 15), seed=cfg.seed + 8)]
    pts = S.chart.samples(n_pts, seed=cfg.seed + 8)
    for t0 in (-0.5, 0.3):
        sl = slice_structure(B, t0).structure
        dh = d_homothety(S, math.exp(2.0 * t0))
        for f1, f2 in ((sl.eta, dh.eta), (sl.g, dh.g), (sl.phi, dh.phi)):
            defects.append(f1.values(pts) - f2.values(pts))
    return sup_norm(*defects)


def _check_liouville(S, cfg, ctx):
    B = ctx["B"]
    dt_field = TensorField.coordinate_vector(B.chart, B.chart.dim - 1)
    rep = verify_liouville(B, dt_field, min(cfg.samples, 40), seed=cfg.seed + 9)
    ctx["liouville_lie_constant"] = rep.lie_constant
    return rep.cartan_residual


def _check_fundamental_tensor(S, cfg, ctx):
    return verify_fundamental_tensors(ctx["B"], min(cfg.samples, 30), seed=cfg.seed + 10).max_residual


def _check_curvature_relations(S, cfg, ctx):
    return verify_currel(ctx["B"], min(cfg.samples, 40), seed=cfg.seed + 11).max_residual


def _check_ricci_rows(S, cfg, ctx):
    return verify_ricci_relations(ctx["B"], min(cfg.samples, 30), seed=cfg.seed + 12).max_residual


def _check_symplectization_nullity(S, cfg, ctx):
    B = ctx["B"]
    rep = ctx["kmu"]
    defects = []
    n_pts = min(cfg.samples, 30)
    for t in (-0.5, 0.0, 0.5):
        fit = fit_symplectization_kmu(B, t, n_pts, seed=cfg.seed + 13)
        kt, mt = kappa_mu_after_rescale(rep.kappa, rep.mu, math.exp(2.0 * t))
        defects += [fit.residual, *_constant_defects(fit.kappa_tilde, fit.mu_tilde, kt - 2.0, mt)]
    return sup_norm(*defects)


def _check_integrability(S, cfg, ctx):
    B = ctx["B"]
    rep = ctx["kmu"]
    n_pts = min(cfg.samples, 30)
    pts = B.chart.samples(n_pts, seed=cfg.seed + 14)
    norms_metric = nijenhuis_norms(nijenhuis(B.J), B.gbar, pts)
    Jn = natural_acs(S, cfg.t_range)
    norms_natural = nijenhuis_norms(nijenhuis(Jn), B.gbar, pts)
    if rep.sasakian_flag:
        return sup_norm(norms_metric, norms_natural)
    # non-Sasakian: both torsions must be bounded away from zero; the
    # residual is how far the smallest norm falls short of the floor
    floor = 1e-2
    return sup_norm(np.maximum(floor - norms_metric, 0.0),
                    np.maximum(floor - norms_natural, 0.0))


def _check_translation_isomorphism(S, cfg, ctx):
    rep = translation_isomorphism_check(S, 0.3, min(cfg.samples, 30),
                                        seed=cfg.seed + 15, t_range=cfg.t_range)
    return rep.max_residual


_CHECKS = {
    "compatibility": _check_compatibility,
    "reeb": _check_reeb,
    "h_tensor": _check_h_tensor,
    "nullity_fit": _check_nullity_fit,
    "h_eigenstructure": _check_h_eigenstructure,
    "eigenspace_curvature": _check_eigenspace_curvature,
    "rescale_equivariance": _check_rescale_equivariance,
    "index_invariance": _check_index_invariance,
    "symplectization_build": _check_symplectization_build,
    "liouville": _check_liouville,
    "fundamental_tensor": _check_fundamental_tensor,
    "curvature_relations": _check_curvature_relations,
    "ricci_rows": _check_ricci_rows,
    "symplectization_nullity": _check_symplectization_nullity,
    "integrability": _check_integrability,
    "translation_isomorphism": _check_translation_isomorphism,
}


def run_suite(entry: CatalogEntry, config: SuiteConfig | None = None) -> SuiteReport:
    """Run every check against one entry; failures are recorded, not raised."""
    cfg = config or SuiteConfig()
    S = entry.structure
    ctx: dict = {"entry": entry}
    records = []
    start = time.perf_counter()
    for check_id in CHECK_ORDER:
        threshold = cfg.thresholds[check_id]
        try:
            residual = sup_norm(_CHECKS[check_id](S, cfg, ctx))
            error = None
        except Exception as exc:  # noqa: BLE001 - the contract is never abort
            residual = float("inf")
            error = f"{type(exc).__name__}: {exc}"
        records.append(CheckRecord(
            id=check_id,
            anchor=_ANCHORS[check_id],
            residual=residual,
            threshold=threshold,
            passed=bool(residual < threshold),
            samples=cfg.samples,
            seed=cfg.seed,
            error=error,
        ))
    wall = time.perf_counter() - start
    kmu = ctx.get("kmu")
    return SuiteReport(
        version=__version__,
        entry=entry.name,
        config=cfg,
        checks=tuple(records),
        kappa=None if kmu is None else kmu.kappa,
        mu=None if kmu is None else kmu.mu,
        index=ctx.get("index"),
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
                "thresholds": {k: report.config.thresholds[k] for k in CHECK_ORDER},
            },
            "checks": [
                {
                    "id": c.id,
                    "anchor": c.anchor,
                    "residual": c.residual,
                    "threshold": c.threshold,
                    "pass": c.passed,
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
