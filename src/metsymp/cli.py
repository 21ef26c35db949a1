"""Command line interface.

Subcommands:

    metsymp list
    metsymp check <entry> [--samples N] [--seed S] [--t-range a,b]
                          [--format json|text] [--out FILE]
    metsymp fit-kmu <entry-or-file>
    metsymp symplectize <entry> [--verify]
    metsymp dhomothety <entry> --a X [--verify]

Exit codes: 0 when everything requested passed, 1 when a verification
failed, 2 on bad input (unknown entry, parse error, bad options).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .catalog import catalog_load, catalog_names
from .contact import (
    boeckx_index,
    d_homothety,
    fit_kappa_mu,
    kappa_mu_after_rescale,
    verify_compatibility,
)
from .errors import ConfigError, GeometryError, SasakianDegeneracyError, UnknownEntryError
from .fields import sup_norm
from .structfile import StructureFileError, load_structure_file
from .suite import SuiteConfig, _constant_defects, report_emit, run_suite

__all__ = ["main"]


def _parse_t_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError("t-range must look like 'a,b'")
    try:
        lo, hi = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"bad t-range {text!r}") from None
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metsymp",
        description="Verify contact metric structures and their metric symplectizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in catalog entries")

    p_check = sub.add_parser("check", help="run the full verification suite on an entry")
    p_check.add_argument("entry")
    p_check.add_argument("--samples", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=42)
    p_check.add_argument("--t-range", default="-1,1")
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit-kmu", help="fit the nullity constants of an entry or file")
    p_fit.add_argument("entry_or_file")
    p_fit.add_argument("--samples", type=int, default=50)
    p_fit.add_argument("--seed", type=int, default=42)

    p_symp = sub.add_parser("symplectize", help="build the metric symplectization")
    p_symp.add_argument("entry")
    p_symp.add_argument("--verify", action="store_true")
    p_symp.add_argument("--samples", type=int, default=50)
    p_symp.add_argument("--seed", type=int, default=42)
    p_symp.add_argument("--t-range", default="-1,1")

    p_dh = sub.add_parser("dhomothety", help="rescale an entry and refit")
    p_dh.add_argument("entry")
    p_dh.add_argument("--a", type=float, required=True)
    p_dh.add_argument("--verify", action="store_true")
    p_dh.add_argument("--samples", type=int, default=50)
    p_dh.add_argument("--seed", type=int, default=42)
    return parser


def _load_entry_or_file(name: str) -> tuple[str, object]:
    try:
        entry = catalog_load(name)
        return entry.name, entry.structure
    except UnknownEntryError:
        if os.path.exists(name):
            return name, load_structure_file(name)
        raise


def _cmd_list() -> int:
    for name in catalog_names():
        entry = catalog_load(name)
        print(f"{name}: {entry.description}")
    return 0


def _cmd_check(args) -> int:
    entry = catalog_load(args.entry)
    cfg = SuiteConfig(samples=args.samples, seed=args.seed,
                      t_range=_parse_t_range(args.t_range))
    report = run_suite(entry, cfg)
    payload = report_emit(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
    return 0 if report.all_passed else 1


def _print_fit(name: str, S, samples: int, seed: int) -> int:
    compat = verify_compatibility(S, samples, seed=seed)
    if not compat.passed:
        print(f"{name}: structure fails the compatibility axioms "
              f"(residual {compat.max_residual:.3e}); refusing to fit")
        return 1
    rep = fit_kappa_mu(S, samples, seed=seed)
    mu = "undefined" if rep.mu is None else f"{rep.mu:.9g}"
    lam = "undefined" if rep.lam is None else f"{rep.lam:.9g}"
    print(f"{name}: kappa={rep.kappa:.9g} mu={mu} lambda={lam} "
          f"residual={rep.residual:.3e} sasakian={rep.sasakian_flag}")
    if not rep.sasakian_flag:
        idx = boeckx_index(rep.kappa, rep.mu)
        print(f"{name}: index={idx:.9g}")
    ok = rep.residual < 1e-6
    if not ok:
        print(f"{name}: fit residual above 1e-6; the structure does not satisfy "
              "the nullity condition with constant coefficients")
    return 0 if ok else 1


def _cmd_fit(args) -> int:
    name, S = _load_entry_or_file(args.entry_or_file)
    return _print_fit(name, S, args.samples, args.seed)


def _cmd_symplectize(args) -> int:
    from .fields import TensorField
    from .submersion import verify_currel, verify_fundamental_tensors, verify_ricci_relations
    from .symplectization import (
        acs_table_residuals,
        block_structure_residuals,
        build_metric_symplectization,
        verify_liouville,
        verify_symplectic,
    )

    entry = catalog_load(args.entry)
    t_range = _parse_t_range(args.t_range)
    B = build_metric_symplectization(entry.structure, t_range)
    names = ", ".join(B.chart.coord_names)
    print(f"{entry.name}: product chart ({names}), t in [{t_range[0]}, {t_range[1]}]")
    if not args.verify:
        print("built; run with --verify for the residual checks")
        return 0
    n = args.samples
    failures = 0

    def show(label, residual, threshold):
        nonlocal failures
        residual = sup_norm(residual)
        ok = residual < threshold
        failures += 0 if ok else 1
        print(f"[{'PASS' if ok else 'FAIL'}] {label:<24} residual={residual:.3e} "
              f"threshold={threshold:.1e}")

    symp = verify_symplectic(B, n, seed=args.seed)
    show("closed", symp.closed_residual, 1e-10)
    # the top coefficient must clear the floor; NaN propagates and fails
    show("nondegenerate", np.maximum(1e-10 - symp.min_top_coefficient, 0.0), 1e-10)
    show("acs_table", sup_norm(*acs_table_residuals(B, n, seed=args.seed).values()), 1e-10)
    show("metric_blocks", sup_norm(*block_structure_residuals(B, n, seed=args.seed).values()),
         1e-10)
    dt_field = TensorField.coordinate_vector(B.chart, B.chart.dim - 1)
    show("liouville", verify_liouville(B, dt_field, n, seed=args.seed).cartan_residual, 1e-9)
    show("fundamental_tensor", verify_fundamental_tensors(B, min(n, 30), seed=args.seed).max_residual, 1e-7)
    show("curvature_relations", verify_currel(B, min(n, 40), seed=args.seed).max_residual, 1e-6)
    show("ricci_rows", verify_ricci_relations(B, min(n, 30), seed=args.seed).max_residual, 1e-6)
    return 0 if failures == 0 else 1


def _cmd_dhomothety(args) -> int:
    entry = catalog_load(args.entry)
    if args.a <= 0:
        raise ConfigError("--a must be positive")
    S = entry.structure
    before = fit_kappa_mu(S, args.samples, seed=args.seed)
    S2 = d_homothety(S, args.a)
    after = fit_kappa_mu(S2, args.samples, seed=args.seed)
    kp, mp = kappa_mu_after_rescale(before.kappa, before.mu, args.a)
    mu_b = "undefined" if before.mu is None else f"{before.mu:.9g}"
    mu_a = "undefined" if after.mu is None else f"{after.mu:.9g}"
    mu_e = "undefined" if mp is None else f"{mp:.9g}"
    print(f"{entry.name}: (kappa, mu) = ({before.kappa:.9g}, {mu_b})")
    print(f"rescaled by a={args.a:.9g}: fitted ({after.kappa:.9g}, {mu_a}), "
          f"law predicts ({kp:.9g}, {mu_e})")
    if not args.verify:
        return 0
    compat = verify_compatibility(S2, args.samples, seed=args.seed)
    residual = sup_norm(compat.max_residual, after.residual,
                        *_constant_defects(after.kappa, after.mu, kp, mp))
    ok = residual < 1e-6
    print(f"[{'PASS' if ok else 'FAIL'}] rescale verification residual={residual:.3e} "
          f"threshold=1.0e-06")
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "fit-kmu":
            return _cmd_fit(args)
        if args.command == "symplectize":
            return _cmd_symplectize(args)
        if args.command == "dhomothety":
            return _cmd_dhomothety(args)
        parser.error(f"unknown command {args.command!r}")
    except (UnknownEntryError, StructureFileError, ConfigError, FileNotFoundError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (GeometryError, SasakianDegeneracyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
