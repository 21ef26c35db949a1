"""Command line interface.

Subcommands:

    metsymp list
    metsymp check <entry-or-file> [--samples N] [--seed S] [--t-range a,b]
                                  [--format json|text] [--out FILE]
    metsymp fit-kmu <entry-or-file>
    metsymp symplectize <entry-or-file> [--verify]
    metsymp dhomothety <entry-or-file> --a X [--verify]

A structure file stands for an entry with no expected constants.  Each
command prints what one suite run from ``--samples`` and ``--seed`` holds:
``fit-kmu`` its fit and index, ``dhomothety`` its fit, refit at ``--a`` and,
with ``--verify``, rescale law there, and ``symplectize --verify`` the
symplectic residuals at its product points and its symplectization checks.
``fit-kmu`` and ``dhomothety`` refuse, with exit code 1, a structure that
fails the suite's compatibility check.  numpy's floating-point warnings
are off, as in the suite's checks.

Exit codes: 0 when everything requested passed, 1 when a verification
failed, 2 on bad input (unknown entry, parse error, bad options, a path
that cannot be read or written).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .catalog import CatalogEntry, catalog_load, catalog_names
from .contact import FIT_TOL, kappa_mu_after_rescale
from .errors import ConfigError, GeometryError, SasakianDegeneracyError, UnknownEntryError
from .fields import sup_norm
from .structfile import StructureFileError, load_structure_file
from .suite import (
    SuiteConfig,
    _float_warnings_off,
    _Run,
    _run_checks,
    default_thresholds,
    report_emit,
    run_suite,
)
from .symplectization import SYMPLECTIC_TOL, verify_symplectic

__all__ = ["main"]

_SYMPLECTIZE_IDS = ("symplectization_build", "liouville", "fundamental_tensor",
                       "curvature_relations", "ricci_rows")
_T_RANGE_HELP = "t interval 'a,b' of the product points; write --t-range=a,b when a < 0"


def _parse_t_range(text: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, text.split(","))
    except ValueError:
        raise ConfigError(f"bad t-range {text!r}; it must look like 'a,b'") from None
    return lo, hi


def _or_undefined(x: float | None) -> str:
    return "undefined" if x is None else f"{x:.9g}"


def _verdict(label: str, residual: float, threshold: float, error: str | None = None) -> bool:
    """Print one verification line; True when it passed."""
    ok = bool(residual < threshold)
    print(f"[{'PASS' if ok else 'FAIL'}] {label} residual={residual:.3e} threshold={threshold:.1e}"
          + (f" [error: {error}]" if error else ""))
    return ok


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metsymp",
        description="Verify contact metric structures and their metric symplectizations.",
    )
    sampled = argparse.ArgumentParser(add_help=False)
    sampled.add_argument("--samples", type=int, default=50)
    sampled.add_argument("--seed", type=int, default=42)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in catalog entries")

    p_check = sub.add_parser("check", parents=[sampled],
                             help="run the full verification suite on an entry")
    p_check.add_argument("entry")
    p_check.add_argument("--t-range", default="-1,1", help=_T_RANGE_HELP)
    p_check.add_argument("--format", choices=("json", "text"), default="text")
    p_check.add_argument("--out", default=None)

    p_fit = sub.add_parser("fit-kmu", parents=[sampled],
                           help="fit the nullity constants of an entry or file")
    p_fit.add_argument("entry_or_file")

    p_symp = sub.add_parser("symplectize", parents=[sampled],
                            help="build the metric symplectization")
    p_symp.add_argument("entry")
    p_symp.add_argument("--verify", action="store_true")
    p_symp.add_argument("--t-range", default="-1,1", help=_T_RANGE_HELP)

    p_dh = sub.add_parser("dhomothety", parents=[sampled], help="rescale an entry and refit")
    p_dh.add_argument("entry")
    p_dh.add_argument("--a", type=float, required=True)
    p_dh.add_argument("--verify", action="store_true")
    return parser


def _load_entry_or_file(name: str) -> CatalogEntry:
    """A catalog entry, or else a structure file as an entry with no expected constants."""
    try:
        return catalog_load(name)
    except UnknownEntryError:
        if os.path.exists(name):
            return CatalogEntry(name=name, structure=load_structure_file(name),
                                expected_kappa=None, expected_mu=None,
                                description=f"structure file {name}")
        raise


def _cmd_list(args) -> int:
    for name in catalog_names():
        entry = catalog_load(name)
        print(f"{name}: {entry.description}")
    return 0


def _cmd_check(args) -> int:
    entry = _load_entry_or_file(args.entry)
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


def _compatible(run: _Run) -> bool:
    """Whether the structure passes the suite's compatibility check on the
    run's points; else prints the refusal."""
    (record,) = _run_checks(run, ("compatibility",))
    if not record.passed:
        print(f"{run.entry.name}: structure fails the compatibility axioms "
              f"(residual {record.residual:.3e}); refusing to fit")
    return record.passed


def _cmd_fit(args) -> int:
    run = _Run(_load_entry_or_file(args.entry_or_file),
               SuiteConfig(samples=args.samples, seed=args.seed), factors=())
    if not _compatible(run):
        return 1
    name, rep = run.entry.name, run.kmu
    mu, lam = _or_undefined(rep.mu), _or_undefined(rep.lam)
    print(f"{name}: kappa={rep.kappa:.9g} mu={mu} lambda={lam} "
          f"residual={rep.residual:.3e} sasakian={rep.sasakian_flag}")
    if run.index is not None:
        print(f"{name}: index={run.index:.9g}")
    ok = rep.residual < FIT_TOL
    if not ok:
        print(f"{name}: fit residual above {FIT_TOL:.1e}; the structure does not satisfy "
              "the nullity condition with constant coefficients")
    return 0 if ok else 1


def _cmd_symplectize(args) -> int:
    t_range = _parse_t_range(args.t_range)
    run = _Run(_load_entry_or_file(args.entry),
               SuiteConfig(samples=args.samples, seed=args.seed, t_range=t_range), factors=())
    B = run.B
    names = ", ".join(B.chart.coord_names)
    print(f"{run.entry.name}: product chart ({names}), "
          f"{B.chart.coord_names[-1]} in [{t_range[0]}, {t_range[1]}]")
    if not args.verify:
        print("built; run with --verify for the residual checks")
        return 0
    oks = [_verdict(f"{key:<24}", residual, SYMPLECTIC_TOL)
           for key, residual in verify_symplectic(B.omega, run.product_points).items()]
    oks += [_verdict(f"{r.id:<24}", r.residual, r.threshold, r.error)
            for r in _run_checks(run, _SYMPLECTIZE_IDS)]
    return 0 if all(oks) else 1


def _cmd_dhomothety(args) -> int:
    a = args.a
    if not (math.isfinite(a) and a > 0):
        raise ConfigError(f"--a must be finite and positive, got {a!r}")
    run = _Run(_load_entry_or_file(args.entry),
               SuiteConfig(samples=args.samples, seed=args.seed), factors=(a,))
    if not _compatible(run):
        return 1
    n = run.cfg.samples
    before, after = run.kmu, run.refit(a, n)
    kp, mp = kappa_mu_after_rescale(before.kappa, before.mu, a)
    print(f"{run.entry.name}: (kappa, mu) = ({before.kappa:.9g}, {_or_undefined(before.mu)})")
    print(f"rescaled by a={a:.9g}: fitted ({after.kappa:.9g}, {_or_undefined(after.mu)}), "
          f"law predicts ({kp:.9g}, {_or_undefined(mp)})")
    if not args.verify:
        return 0
    ok = _verdict("rescale verification", sup_norm(*run.rescale_defects(a, n)),
                  default_thresholds()["rescale_equivariance"])
    return 0 if ok else 1


_COMMANDS = {"list": _cmd_list, "check": _cmd_check, "fit-kmu": _cmd_fit,
             "symplectize": _cmd_symplectize, "dhomothety": _cmd_dhomothety}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with _float_warnings_off():
            return _COMMANDS[args.command](args)
    except (UnknownEntryError, StructureFileError, ConfigError, OSError,
            GeometryError, SasakianDegeneracyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
