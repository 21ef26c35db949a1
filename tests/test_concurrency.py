"""Concurrent read access: evaluations are pure and share no mutable state."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from metsymp.contact import fit_kappa_mu, verify_compatibility


def test_parallel_sweeps_are_bit_identical(flat_bundle):
    S = flat_bundle
    pts = S.chart.samples(40, seed=2)
    reference = S.g.values(pts)

    def sweep(_):
        return S.g.values(pts)

    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(sweep, range(8)))
    for r in results:
        assert np.array_equal(r, reference)


def test_parallel_verifiers_agree(sasakian):
    with ThreadPoolExecutor(max_workers=4) as pool:
        compat = list(pool.map(lambda _: verify_compatibility(sasakian, 20), range(4)))
        fits = list(pool.map(lambda _: fit_kappa_mu(sasakian, 20), range(4)))
    assert len({rep.max_residual for rep in compat}) == 1
    assert len({rep.kappa for rep in fits}) == 1


def test_threads_differentiating_one_tree_agree():
    """The per-node partial caches are filled by whichever thread gets there
    first; a lost cache entry may cost a rebuild but never a wrong partial."""
    import sys

    from metsymp.expressions import Const, Coord, evaluate, exp, sin

    x, y = Coord(0, "x"), Coord(1, "y")
    pts = np.random.default_rng(3).uniform(-1, 1, size=(7, 2))

    def build():
        shared = sin(x * y) * exp(x)
        total = Const(0.0)
        for k in range(1, 60):
            total = total + Const(float(k)) * shared * (y + Const(float(k))) ** 2
        return total

    reference = evaluate([build().diff(0).diff(1)], pts)[0]
    expr = build()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: evaluate([expr.diff(0).diff(1)], pts)[0])
                       for _ in range(16)]
            results = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(switch)
    for r in results:
        assert np.array_equal(r, reference)
    assert expr.diff(0).diff(1) is expr.diff(0).diff(1)
