"""Per-index reference formulas for the batched curvature code.

The library computes the Christoffel symbols, the Riemann tensor and the
curvature verifiers with batched matrix products over whole arrays.  The
functions here are direct transcriptions: the Christoffel symbols by one
einsum; the connection derivative through the derivative of the inverse
metric d g^{-1} = -g^{-1} (d g) g^{-1} with three einsums, and the
four-einsum Riemann tensor built from it, a route the library, which reads
the metric's second partials directly, never takes; and verifiers that loop
over index triples and eigenvector triples one at a time.  Tests compare
the two to roundoff.

The symmetrization the tensor fields used before they stored one expression
per index orbit, the top coefficient of omega^n by repeated wedge
products, and the Reeb field through the adjugate of
d eta + eta (x) eta, are kept here for the same purpose.  So is the
expression evaluator from before constants evaluated as floats: every
``Const`` leaf there becomes a full array or a jet of zero derivatives, and
every operation with a constant operand is a full array or jet operation.

The Nijenhuis tensor, Lie derivative, bracket and interior product are kept
as the loops that built them one ``total = total + x * y`` at a time,
before every contraction went through ``expressions.sum_of_products``;
``node_counts`` counts their trees the way the benchmark does.  The
library has no bracket of its own (``fields.lie_derivative`` of a vector
field is one), so tests take [X, Y] from ``lie_bracket_loop``.

The classical almost complex structure J(X, f d_t) = (phi X - f xi,
eta(X) d_t) of the symplectization is kept here as an oracle; the library
builds the metric J only.  The classical J does not read its line
coordinate, so F(x, t) = (x, -exp(-2t)/2) carries it onto the metric J and
its torsion onto the metric J's: the suite's integrability check reads one
torsion, and the tests pin the identity.

The symplectization's metric is kept as it was built before it came from
the slice law g_t + dt^2: the symmetrized omega(J ., .), the oracle for
``build_metric_symplectization`` and the metric of the classical J.  So
is the slice connection from its own order-2 walk of g_t, which the
verifiers now restrict from gbar's connection data; the curvature
references read it.  The general-hypersurface route to the slice claim,
the structure that omega, gbar and J induce on a hypersurface orthogonal
to a unit field by symbolic pullback, is the oracle for
``slice_structure``; and the translation check is kept as it was written
before it evaluated at shifted points, through symbolic pullbacks along
the shift.

The two nullity fits are kept as they were written before they shared
``contact.nullity_fit``: each builds its own least-squares columns, and the
slice fit reads eta_t and xi_t from freshly lifted product-chart fields.
The slice fit is also the per-slice formula that the library's one fit
over every slice replaced: it reads (kappa_t - 2, mu_t) on one slice, and
the library's base (kappa, mu) must give these through the D-homothety law.
The eta-Einstein fit Ric = alpha g + beta eta (x) eta has no library
route; tests fit it here.  So have two more references: the Ricci tensor
as a trace over an orthonormal frame at each sample, against the library's
direct contraction, and the closed form of the fundamental tensor T as a
(1,2) field, built from the symbolic lift xi_t = exp(-2t) xi, against the
library's T from its definition.

The library builds its orthonormal frames, the g-norm of h and the g-norm
of the Nijenhuis tensor with batched products over the sample axis.  Kept
here: Gram-Schmidt one point, one candidate and one projection at a time,
and both norms as the single einsum of their definition.  So is the
sectional curvature of one plane at one point, which pins the library's
Riemann tensor to the closed-form curvatures of the sphere and of the
symplectization's line planes.
"""

import itertools
import math

import numpy as np

from metsymp import contact
from metsymp.curvature import (
    _FRAME_TOL,
    christoffel_batch,
    christoffel_from_blocks,
    ricci_components,
    riemann_components,
)
from metsymp import expressions as E
from metsymp.errors import DegenerateMetricError, GeometryError
from metsymp.expressions import ZERO, Const, Coord
from metsymp.jets import coordinate_jets
from metsymp.fields import (
    SmoothMap,
    TensorField,
    _expr_array,
    _fill,
    exterior_derivative,
    interior_product,
    inverse_matrix_exprs,
    pullback,
    sup_norm,
    wedge,
)
from metsymp.symplectization import (
    SymplecticMetricStructure,
    _exp_t,
    build_metric_symplectization,
    extend_to_product,
    extended_slice_form,
    slice_metric_field,
)


def natural_acs_reference(S, t_range=(-1.0, 1.0)):
    """The classical J(X, f d_t) = (phi X - f xi, eta(X) d_t) as a (1,1)
    field on the chart of ``build_metric_symplectization(S, t_range)``."""
    chart = build_metric_symplectization(S, t_range).chart
    d = S.chart.dim
    J = np.full((d + 1, d + 1), ZERO, dtype=object)
    J[:d, :d] = S.phi.components
    J[d, :d] = S.eta.components
    J[:d, d] = -S.xi.components
    return TensorField(chart, 1, 1, J)


def compatible_metric_reference(S, J):
    """The symplectization with omega = d(exp(2t) eta) on J's chart and
    gbar(X, Y) = omega(J X, Y), symmetrized, the way the library built gbar
    before it took it from the slice law g_t + dt^2."""
    omega = exterior_derivative(extended_slice_form(S, J.chart))
    D = J.chart.dim

    def entry(ab):
        a, b = ab
        return Const(0.5) * E.sum_of_products(term for c in range(D) for term in (
            (1, J.components[c, a], omega.components[c, b]),
            (1, J.components[c, b], omega.components[c, a])))

    gbar = TensorField(J.chart, 0, 2, _fill((D, D), "symmetric", entry), "symmetric")
    return SymplecticMetricStructure(chart=J.chart, omega=omega, gbar=gbar, J=J, base=S)


def slice_christoffel_reference(B, pts):
    """Connection data of g_t from its own order-2 walk of
    ``slice_metric_field``, restricted to the base slots."""
    d = B.base.chart.dim
    vals, grads, hesses = slice_metric_field(B.base, B.chart).jet_blocks(pts)
    return christoffel_from_blocks(pts, vals[:, :d, :d], grads[:, :d, :d, :d],
                                   hesses[:, :d, :d, :d, :d])


def extended_slice_reeb(S, chart):
    """exp(-2t) xi as a vector field on the product chart."""
    return extend_to_product(S.xi, chart).scale(_exp_t(chart, -2.0))


def slice_embedding(B, t0):
    """The embedding x -> (x, t0) of the base chart into the product."""
    src = B.base.chart
    exprs = [Coord(i, src.coord_names[i]) for i in range(src.dim)]
    exprs.append(Const(float(t0)))
    return SmoothMap(src, B.chart, tuple(exprs))


def induced_contact_on_hypersurface(B, Y, embedding, n_samples=25, tol=1e-8):
    """Contact metric structure induced on a hypersurface orthogonal to Y.

    ``Y`` must be a unit field orthogonal to the image of the embedding, to
    ``tol`` at ``n_samples`` samples; violations raise rather than warn
    since the construction is meaningless without them.  The induced data is

        eta = pullback of i_Y omega,
        g   = pullback of gbar,
        phi = the tangential part of J, vanishing on the induced Reeb
              direction,

    all assembled symbolically on the source chart.
    """
    if embedding.target != B.chart:
        raise GeometryError("embedding does not land in the structure's chart")
    if (Y.r, Y.s) != (1, 0) or Y.chart != B.chart:
        raise GeometryError("Y must be a vector field on the ambient chart")
    src = embedding.source
    d = src.dim
    D = B.chart.dim

    pts = src.samples(n_samples)
    img = embedding(pts)
    gv = B.gbar.values(img)
    yv = Y.values(img)
    unit_res = sup_norm(np.einsum("nij,ni,nj->n", gv, yv, yv) - 1.0)
    if unit_res > tol:
        raise GeometryError(f"Y is not unit along the hypersurface (residual {unit_res:.3e})")
    jac_exprs = [[embedding.exprs[c].diff(i) for c in range(D)] for i in range(d)]
    jac_vals = np.stack(E.evaluate([e for row in jac_exprs for e in row], pts),
                        axis=-1).reshape(len(pts), d, D)
    orth = np.einsum("nic,ncb,nb->ni", jac_vals, gv, yv)
    orth_res = sup_norm(orth)
    if orth_res > tol:
        raise GeometryError(
            f"Y is not orthogonal to the hypersurface (residual {orth_res:.3e})"
        )

    eta_ind = pullback(embedding, interior_product(Y, B.omega))
    g_ind_raw = pullback(embedding, B.gbar)
    g_ind = TensorField(src, 0, 2, g_ind_raw.components, "symmetric")
    xi_ind = contact.reeb_field(eta_ind)

    # phi = tangential part of J applied to the contact component.
    # Solve the tangency through the embedding's symbolic pseudo-inverse.
    gram = [[E.sum_of_products((1, jac_exprs[i][c], jac_exprs[j][c]) for c in range(D))
             for j in range(d)] for i in range(d)]
    gram_inv = inverse_matrix_exprs(gram)

    J_src = [[B.J.components[c, b].subs(embedding.exprs) for b in range(D)]
             for c in range(D)]
    gbar_src = [[B.gbar.components[c, b].subs(embedding.exprs) for b in range(D)]
                for c in range(D)]
    Y_src = [Y.components[c].subs(embedding.exprs) for c in range(D)]

    # the induced Reeb field, pushed forward
    xi_push = [E.sum_of_products((1, jac_exprs[i][c], xi_ind.components[i]) for i in range(d))
               for c in range(D)]

    phi_comps = np.empty((d, d), dtype=object)
    for j in range(d):
        # contact component of the pushed-forward frame vector
        v = [jac_exprs[j][c] for c in range(D)]
        w = [v[c] - eta_ind.components[j] * xi_push[c] for c in range(D)]
        jw = [E.sum_of_products((1, J_src[c][b], w[b]) for b in range(D)) for c in range(D)]
        # remove the Y component, then pull tangential part back to the source
        yc = E.sum_of_products((1, gbar_src[c][b] * jw[c], Y_src[b])
                               for c in range(D) for b in range(D))
        jw_tan = [jw[c] - yc * Y_src[c] for c in range(D)]
        dots = [E.sum_of_products((1, jac_exprs[k][c], jw_tan[c]) for c in range(D))
                for k in range(d)]
        for i in range(d):
            phi_comps[i, j] = E.sum_of_products((1, gram_inv[i][k], dots[k]) for k in range(d))
    phi_ind = TensorField(src, 1, 1, phi_comps)
    return contact.ContactMetricStructure.build(src, eta_ind, g_ind, phi_ind)


def translation_isomorphism_reference(B, t_shift, points):
    """The translation check through symbolic pullbacks along the shift
    (x, t) -> (x, t + t_shift), at the library check's points: ``points`` on
    B's chart with the t column mapped affinely onto the overlap."""
    lo, hi = B.chart.domain[B.t_index]
    B2 = build_metric_symplectization(contact.d_homothety(B.base, math.exp(2.0 * t_shift)),
                                      (lo, hi))
    chart = B2.chart
    coords = [Coord(i, name) for i, name in enumerate(chart.coord_names)]
    shift = SmoothMap(chart, B.chart, tuple(coords[:-1] + [coords[-1] + Const(float(t_shift))]))
    t_lo, t_hi = max(lo, lo - t_shift), min(hi, hi - t_shift)
    pts = np.array(points, dtype=float)
    pts[:, -1] = t_lo + (pts[:, -1] - lo) * ((t_hi - t_lo) / (hi - lo))
    return {"omega": sup_norm(pullback(shift, B.omega).values(pts) - B2.omega.values(pts)),
            "metric": sup_norm(pullback(shift, B.gbar).values(pts) - B2.gbar.values(pts))}


def gram_schmidt_frame_reference(gmat, seeds=None):
    """A g-orthonormal frame at one point, one candidate and one projection
    at a time: the seeds (if any), then the coordinate basis, skipping a
    candidate whose remainder has g-norm^2 at most ``_FRAME_TOL`` times its
    own.  Returns rows of shape (dim, dim)."""
    d = gmat.shape[-1]
    candidates = [] if seeds is None else [np.asarray(v, dtype=float) for v in seeds]
    candidates.extend(np.eye(d))
    frame = []
    for v in candidates:
        w = v.copy()
        for u in frame:
            w = w - (u @ gmat @ w) * u
        norm2 = float(w @ gmat @ w)
        if not norm2 > _FRAME_TOL * float(v @ gmat @ v):
            continue
        frame.append(w / np.sqrt(norm2))
        if len(frame) == d:
            break
    if len(frame) < d:
        raise DegenerateMetricError("could not complete an orthonormal frame")
    return np.stack(frame)


def h_norms_reference(gv, hv):
    """The g-norm of h as one four-operand einsum over the batch."""
    ginv = np.linalg.inv(gv)
    sq = np.einsum("nik,nij,nkl,njl->n", gv, hv, hv, ginv)
    return np.sqrt(np.maximum(sq, 0.0))


def nijenhuis_norms_reference(nv, gv):
    """The g-norm of a (1,2) tensor as one five-operand einsum over the batch."""
    ginv = np.linalg.inv(gv)
    sq = np.einsum("nkc,nia,njb,nkij,ncab->n", gv, ginv, ginv, nv, nv)
    return np.sqrt(np.maximum(sq, 0.0))


def ricci_frame_trace(data):
    """Ric[n, p, q] by an explicit orthonormal-frame trace at each sample."""
    riem = riemann_components(data)
    d = data.g.shape[-1]
    ric = np.zeros(data.g.shape)
    for n, gmat in enumerate(data.g):
        frame = gram_schmidt_frame_reference(gmat)
        for p in range(d):
            for q in range(d):
                total = 0.0
                for a in range(d):
                    Ea = frame[a]
                    # R(E_a, d_p) d_q
                    vec = np.einsum("lkij,i->lkj", riem[n], Ea)[:, q, p]
                    total += float(Ea @ gmat @ vec)
                ric[n, p, q] = total
    return ric


def sectional(g, X, Y, point):
    """sec(X, Y) at one point, from the connection data of a batch of one;
    the oracle for the library's Riemann tensor on planes whose curvature is
    known in closed form."""
    data = christoffel_batch(g, np.asarray(point, dtype=float)[None, :])
    gmat = data.g[0]
    X = np.asarray(X, float)
    Y = np.asarray(Y, float)
    num = float(X @ gmat @ np.einsum("lkij,k,i,j->l", riemann_components(data)[0], Y, X, Y))
    xx, yy = float(X @ gmat @ X), float(Y @ gmat @ Y)
    gram = xx * yy - float(X @ gmat @ Y) ** 2
    # relative to |X|^2 |Y|^2, so the test ignores the scale of X and Y; NaN fails it
    if not gram > 1e-12 * xx * yy:
        raise GeometryError("sectional curvature needs linearly independent arguments")
    return num / gram


def fundamental_T_field(B):
    """The closed form of T as a (1,2) field on the product chart.

    Components: T(d_a, d_b) = -(gbar_ab + etat_a etat_b) d_t for slice
    indices a, b, and T(d_a, d_t) = d_a + etat_a xi_t; horizontal first
    slot gives zero.
    """
    S = B.base
    chart = B.chart
    D = chart.dim
    ti = B.t_index
    etat = extended_slice_form(S, chart)
    xit = extended_slice_reeb(S, chart)
    comps = np.empty((D, D, D), dtype=object)
    comps[...] = Const(0.0)
    for a in range(D - 1):
        for b in range(D - 1):
            comps[ti, a, b] = -(B.gbar.components[a, b]
                                + etat.components[a] * etat.components[b])
        for k in range(D):
            term = etat.components[a] * xit.components[k]
            if k == a:
                term = term + Const(1.0)
            comps[k, a, ti] = term
    return TensorField(chart, 1, 2, comps)


def _combo(grads):
    """combo[n, i, j, l] = d_i g_jl + d_j g_il - d_l g_ij."""
    return (np.einsum("njli->nijl", grads) + np.einsum("nilj->nijl", grads)
            - np.einsum("nijl->nijl", grads))


def gamma_reference(ginv, grads):
    """Gamma^k_ij = g^{kl} combo_ijl / 2 by one einsum."""
    return 0.5 * np.einsum("nkl,nijl->nkij", ginv, _combo(grads))


def dgamma_reference(ginv, grads, hesses):
    """d_m Gamma^k_ij from d g^{-1} and the partials of the Christoffel combination."""
    combo = _combo(grads)
    dginv = -np.einsum("nka,nabm,nbl->nklm", ginv, grads, ginv)
    dcombo = (np.einsum("njlmi->nijlm", hesses) + np.einsum("nilmj->nijlm", hesses)
              - np.einsum("nijml->nijlm", hesses))
    return 0.5 * (np.einsum("nklm,nijl->nkijm", dginv, combo)
                  + np.einsum("nkl,nijlm->nkijm", ginv, dcombo))


def riemann_reference(gamma, dgamma):
    """riem[..., l, k, i, j] with both quadratic terms contracted separately."""
    t1 = np.einsum("...ljki->...lkij", dgamma)
    t2 = np.einsum("...likj->...lkij", dgamma)
    q1 = np.einsum("...lia,...ajk->...lkij", gamma, gamma)
    q2 = np.einsum("...lja,...aik->...lkij", gamma, gamma)
    return t1 - t2 + q1 - q2


def assert_connection_matches_reference(g, pts):
    """Gamma and the Riemann tensor against the einsum formulas, relative to their size."""
    data = christoffel_batch(g, pts)
    _, grads, hesses = g.jet_blocks(pts)
    want = gamma_reference(data.ginv, grads)
    assert np.max(np.abs(data.gamma - want)) <= 1e-13 * np.max(np.abs(want))
    want = riemann_reference(data.gamma, dgamma_reference(data.ginv, grads, hesses))
    assert np.max(np.abs(riemann_components(data) - want)) <= 1e-13 * np.max(np.abs(want))


def fit_kappa_mu_reference(S, n_samples, seed):
    """(kappa, mu, residual) of ``contact.fit_kappa_mu``, with its own
    columns; h is the library's, from first partials of xi and phi."""
    pts = S.chart.samples(n_samples, seed=seed)
    d = S.chart.dim
    data = christoffel_batch(S.g, pts)
    riem = riemann_components(data)
    xv = S.xi.values(pts)
    ev = S.eta.values(pts)
    hv = contact.structure_values(S, pts).h

    lhs = np.einsum("nlkij,nk->nlij", riem, xv)
    eye = np.eye(d)
    colA = np.einsum("nj,li->nlij", ev, eye) - np.einsum("ni,lj->nlij", ev, eye)
    colB = np.einsum("nj,nli->nlij", ev, hv) - np.einsum("ni,nlj->nlij", ev, hv)

    h_max = sup_norm(contact._h_norms(data.g, hv))
    b = lhs.ravel()
    if h_max < contact.H_VANISH_TOL:
        sol, *_ = np.linalg.lstsq(colA.ravel()[:, None], b, rcond=None)
        kappa = float(sol[0])
        return kappa, None, sup_norm(lhs - kappa * colA)
    a = np.stack([colA.ravel(), colB.ravel()], axis=1)
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    kappa, mu = float(sol[0]), float(sol[1])
    return kappa, mu, sup_norm(lhs - (kappa * colA + mu * colB))


def fit_symplectization_kmu_reference(B, t, n_samples, seed):
    """(kappa_t - 2, mu_t, residual) of the nullity condition
    V(R(X, Y) xi_t) = ((kappa_t - 2) I + mu_t h_t)(eta_t(Y) X - eta_t(X) Y)
    fitted on the slice at t alone, at a draw of base points."""
    S = B.base
    d = S.chart.dim
    base_pts = S.chart.samples(n_samples, seed=seed)
    pts = np.concatenate([base_pts, np.full((len(base_pts), 1), float(t))], axis=1)
    riem = riemann_components(christoffel_batch(B.gbar, pts))
    xit = extended_slice_reeb(S, B.chart).values(pts)
    etat = extended_slice_form(S, B.chart).values(pts)[:, :d]
    h_base = S.h.values(base_pts)
    hv = h_base / math.exp(2.0 * t)

    lhs = np.einsum("nlkab,nk->nlab", riem[:, :d, :, :d, :d], xit)
    eye = np.eye(d)
    colA = np.einsum("nb,la->nlab", etat, eye) - np.einsum("na,lb->nlab", etat, eye)
    colB = np.einsum("nb,nla->nlab", etat, hv) - np.einsum("na,nlb->nlab", etat, hv)

    h_max = sup_norm(contact._h_norms(S.g.values(base_pts), h_base))
    bvec = lhs.ravel()
    if h_max < contact.H_VANISH_TOL:
        sol, *_ = np.linalg.lstsq(colA.ravel()[:, None], bvec, rcond=None)
        kt = float(sol[0])
        return kt, None, sup_norm(lhs - kt * colA)
    amat = np.stack([colA.ravel(), colB.ravel()], axis=1)
    sol, *_ = np.linalg.lstsq(amat, bvec, rcond=None)
    kt, mt = float(sol[0]), float(sol[1])
    return kt, mt, sup_norm(lhs - kt * colA - mt * colB)


def eta_einstein_fit_reference(S, n_samples, seed=None):
    """Least-squares (alpha, beta) in Ric = alpha g + beta eta (x) eta over
    samples and coordinate pairs, with the sup norm of the defect."""
    pts = S.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(S.g, pts)
    ric = ricci_components(riemann_components(data))
    ev = S.eta.values(pts)
    outer = np.einsum("ni,nj->nij", ev, ev)
    sol, *_ = np.linalg.lstsq(np.stack([data.g.ravel(), outer.ravel()], axis=1), ric.ravel(),
                              rcond=None)
    alpha, beta = float(sol[0]), float(sol[1])
    return alpha, beta, sup_norm(ric - alpha * data.g - beta * outer)


def _unit(B, n):
    et = np.zeros((n, B.chart.dim))
    et[:, B.t_index] = 1.0
    return et


def currel_reference(B, n_samples, seed):
    """verify_currel's three relations key by key: (vertical, horizontal, radial)."""
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    d = S.chart.dim
    ti = B.t_index
    riem = riemann_components(data)
    rlow = np.einsum("nel,nlkij->nekij", data.g, riem)
    sl = slice_christoffel_reference(B, pts)
    riem_t = riemann_components(sl)
    gt = sl.g
    etat = extended_slice_form(S, B.chart).values(pts)[:, :d]
    xit = extended_slice_reeb(S, B.chart).values(pts)[:, :d]
    phiv = extend_to_product(S.phi, B.chart).values(pts)[:, :d, :d]
    e2t = np.exp(2.0 * pts[:, ti])
    hv = extend_to_product(S.h, B.chart).values(pts)[:, :d, :d] / e2t[:, None, None]
    P = gt + np.einsum("na,nb->nab", etat, etat)

    d1, d2, d3 = [], [], []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                rhs = riem_t[:, :, c, a, b].copy()
                rhs[:, b] += P[:, a, c]
                rhs[:, a] -= P[:, b, c]
                coeff = etat[:, b] * gt[:, a, c] - etat[:, a] * gt[:, b, c]
                rhs += coeff[:, None] * xit
                d1.append(riem[:, :d, c, a, b] - rhs)
    for a in range(d):
        for b in range(d):
            for c in range(d):
                w = np.zeros_like(xit)
                w[:, a] += etat[:, b]
                w[:, b] -= etat[:, a]
                w += etat[:, b, None] * hv[:, :, a] - etat[:, a, None] * hv[:, :, b]
                rhs = -np.einsum("ni,nij,nj->n", phiv[:, :, c], gt, w)
                rhs += 2.0 * etat[:, c] * np.einsum("nj,nj->n", gt[:, b, :], phiv[:, :, a])
                d2.append(rlow[:, ti, c, a, b] - rhs)
    for a in range(d):
        for b in range(d):
            lhs = rlow[:, b, ti, ti, a]
            rhs = gt[:, a, b] + 3.0 * etat[:, a] * etat[:, b]
            d3.append(lhs - rhs)
    return (sup_norm(*d1), sup_norm(*d2), sup_norm(*d3))


def _frame(B, gmat, xit):
    return gram_schmidt_frame_reference(gmat, seeds=np.stack([xit, _unit(B, 1)[0]]))


def ricci_rows_reference(B, n_samples, seed):
    """verify_currel's six Ricci rows key by key, one frame product at a time."""
    S = B.base
    pts = B.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(B.gbar, pts)
    d = S.chart.dim
    nn = S.n
    ric_bar = ricci_components(riemann_components(data))
    ric_t = ricci_components(riemann_components(slice_christoffel_reference(B, pts)))
    xit_full = extended_slice_reeb(S, B.chart).values(pts)

    block, dreeb, dline, rline, rr, ll = ([] for _ in range(6))
    for k in range(len(pts)):
        frame = _frame(B, data.g[k], xit_full[k])
        xi_hat, e_t, es = frame[0], frame[1], frame[2:]
        rb, rt = ric_bar[k], ric_t[k]

        def ric_slice(u, v):
            return float(u[:d] @ rt @ v[:d])

        for i, ei in enumerate(es):
            for j, ej in enumerate(es):
                block.append(float(ei @ rb @ ej) - ric_slice(ei, ej)
                             + (2.0 * nn + 2.0) * (1.0 if i == j else 0.0))
            dreeb.append(float(ei @ rb @ xi_hat) - ric_slice(ei, xi_hat))
            dline.append(float(ei @ rb @ e_t))
        rline.append(float(xi_hat @ rb @ e_t))
        rr.append(float(xi_hat @ rb @ xi_hat) - ric_slice(xi_hat, xi_hat) + 4.0 * nn + 4.0)
        ll.append(float(e_t @ rb @ e_t) + 2.0 * nn + 4.0)
    return (sup_norm(block), sup_norm(dreeb), sup_norm(dline), sup_norm(rline),
            sup_norm(rr), sup_norm(ll))


def kmu_curvature_reference(S, kappa, mu, n_samples, seed):
    """The six eigenspace identity residuals, one eigenvector triple at a time."""
    pts = S.chart.samples(n_samples, seed=seed)
    data = christoffel_batch(S.g, pts)
    riem_all = riemann_components(data)
    lam = math.sqrt(max(1.0 - kappa, 0.0))
    phi_all = S.phi.values(pts)
    defects = ([], [], [], [], [], [])
    eig = contact.h_eigendecomposition_batch(contact.structure_values(S, pts))
    for idx, vectors in enumerate(eig.vectors):
        Ps = list(vectors[eig.plus[idx]])
        Ms = list(vectors[eig.minus[idx]])
        gmat, phimat, riem = data.g[idx], phi_all[idx], riem_all[idx]

        def R(X, Y, Z):
            return np.einsum("lkij,k,i,j->l", riem, Z, X, Y)

        def gp(X, Y):
            return float(X @ gmat @ Y)

        def ph(X):
            return phimat @ X

        for P1 in Ps:
            for P2 in Ps:
                for M in Ms:
                    rhs = (kappa - mu) * (gp(ph(P2), M) * ph(P1) - gp(ph(P1), M) * ph(P2))
                    defects[0].append(R(P1, P2, M) - rhs)
        for M1 in Ms:
            for M2 in Ms:
                for P in Ps:
                    rhs = (kappa - mu) * (gp(ph(M2), P) * ph(M1) - gp(ph(M1), P) * ph(M2))
                    defects[1].append(R(M1, M2, P) - rhs)
        for P in Ps:
            for M1 in Ms:
                for M2 in Ms:
                    rhs = kappa * gp(ph(P), M2) * ph(M1) + mu * gp(ph(P), M1) * ph(M2)
                    defects[2].append(R(P, M1, M2) - rhs)
        for P1 in Ps:
            for M in Ms:
                for P2 in Ps:
                    rhs = -kappa * gp(ph(M), P2) * ph(P1) - mu * gp(ph(M), P1) * ph(P2)
                    defects[3].append(R(P1, M, P2) - rhs)
        c5 = 2.0 * (1.0 + lam) - mu
        for P1 in Ps:
            for P2 in Ps:
                for P3 in Ps:
                    defects[4].append(R(P1, P2, P3) - c5 * (gp(P2, P3) * P1 - gp(P1, P3) * P2))
        c6 = 2.0 * (1.0 - lam) - mu
        for M1 in Ms:
            for M2 in Ms:
                for M3 in Ms:
                    defects[5].append(R(M1, M2, M3) - c6 * (gp(M2, M3) * M1 - gp(M1, M3) * M2))
    return tuple(sup_norm(*parts) for parts in defects)


def _perm_sign(perm):
    sign = 1.0
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def symmetrize_reference(arr, sign):
    """Every entry averaged over all k! slot permutations, one node per index."""
    k = arr.ndim
    if k < 2:
        return arr
    out = np.empty(arr.shape, dtype=object)
    perms = list(itertools.permutations(range(k)))
    factor = Const(1.0 / math.factorial(k))
    for idx in np.ndindex(arr.shape):
        total = ZERO
        for perm in perms:
            s = 1.0
            if sign < 0:
                s = _perm_sign(perm)
            term = arr[tuple(idx[p] for p in perm)]
            total = total + Const(s) * term if s != 1.0 else total + term
        out[idx] = factor * total
    return out


def symplectic_top_reference(omega, pts):
    """The coefficient of omega^n on dx^0 ^ ... ^ dx^(2n-1), by repeated wedges."""
    top = omega
    for _ in range(omega.chart.dim // 2 - 1):
        top = wedge(top, omega)
    return top.values(pts)[(Ellipsis,) + tuple(range(omega.chart.dim))]


def reeb_field_adjugate(eta):
    """The Reeb field solving (d eta + eta (x) eta) xi = eta through the
    symbolic adjugate of the combined matrix, invertible where eta is contact."""
    d = eta.chart.dim
    deta = exterior_derivative(eta)
    mat = [[deta.components[i, j] + eta.components[i] * eta.components[j] for j in range(d)]
           for i in range(d)]
    inv = inverse_matrix_exprs(mat)
    comps = []
    for i in range(d):
        total = ZERO
        for j in range(d):
            total = total + inv[i][j] * eta.components[j]
        comps.append(total)
    return TensorField.vector(eta.chart, comps)


_REFERENCE_VALUE_RULES = {
    E.Add: lambda e, a, b: a + b,
    E.Sub: lambda e, a, b: a - b,
    E.Mul: lambda e, a, b: a * b,
    E.Neg: lambda e, a: -a,
    E.Div: lambda e, a, b: a * (1.0 / b),
    E.Pow: lambda e, a: E._value_power(a, e.exponent),
    E.Exp: lambda e, a: np.exp(a),
    E.Sin: lambda e, a: np.sin(a),
    E.Cos: lambda e, a: np.cos(a),
    E.Sqrt: lambda e, a: np.sqrt(a),
}

_REFERENCE_JET_RULES = {
    E.Add: lambda e, a, b: a + b,
    E.Sub: lambda e, a, b: a - b,
    E.Mul: lambda e, a, b: a * b,
    E.Neg: lambda e, a: -a,
    E.Div: lambda e, a, b: a / b,
    E.Pow: lambda e, a: a.power(e.exponent),
    E.Exp: lambda e, a: a.exp(),
    E.Sin: lambda e, a: a.sin(),
    E.Cos: lambda e, a: a.cos(),
    E.Sqrt: lambda e, a: a.sqrt(),
}


def evaluate_reference(roots, points, order=0):
    """``expressions.evaluate`` with every constant a full array (order 0)
    or a jet of zero gradient and Hessian (order 2), in the shape of the
    batch, so no operation ever sees a float operand."""
    pts = np.asarray(points, dtype=float)
    if order == 0:
        seeds = [pts[..., k] for k in range(pts.shape[-1])]
        const, rules = (lambda c: np.full_like(seeds[0], c)), _REFERENCE_VALUE_RULES
    else:
        seeds = coordinate_jets(pts)
        const, rules = seeds[0].constant_like, _REFERENCE_JET_RULES
    done = E._walk(roots, lambda e: seeds[e.index] if isinstance(e, Coord) else const(e.value),
                   rules)
    return [done[root] for root in roots]


def nijenhuis_loop(J):
    """N^k_ij summed one term at a time, four partials taken per term."""
    d = J.chart.dim
    comps = J.components
    out = np.empty((d, d, d), dtype=object)
    out[...] = Const(0.0)
    for k in range(d):
        for i in range(d):
            for j in range(i + 1, d):
                total = Const(0.0)
                for a in range(d):
                    total = total + comps[a, i] * comps[k, j].diff(a)
                    total = total - comps[a, j] * comps[k, i].diff(a)
                    total = total + comps[k, a] * comps[a, i].diff(j)
                    total = total - comps[k, a] * comps[a, j].diff(i)
                out[k, i, j] = total
                out[k, j, i] = -total
    return TensorField(J.chart, 1, 2, out)


def lie_derivative_loop(X, T):
    """L_X T with every term built, its partial taken, before it is summed."""
    d = T.chart.dim

    def entry(idx):
        total = ZERO
        for a in range(d):
            total = total + X.components[a] * T.components[idx].diff(a)
        for p in range(T.r):
            for a in range(d):
                swapped = idx[:p] + (a,) + idx[p + 1:]
                total = total - X.components[idx[p]].diff(a) * T.components[swapped]
        for q in range(T.s):
            slot = T.r + q
            for a in range(d):
                swapped = idx[:slot] + (a,) + idx[slot + 1:]
                total = total + X.components[a].diff(idx[slot]) * T.components[swapped]
        return total

    return TensorField(T.chart, T.r, T.s, _fill(T.components.shape, T.sym, entry), T.sym)


def lie_bracket_loop(X, Y):
    d = X.chart.dim
    out = _expr_array((d,))
    for k in range(d):
        total = ZERO
        for i in range(d):
            total = total + X.components[i] * Y.components[k].diff(i)
            total = total - Y.components[i] * X.components[k].diff(i)
        out[k] = total
    return TensorField(X.chart, 1, 0, out)


def interior_product_loop(X, alpha):
    d = alpha.chart.dim
    k = alpha.s

    def entry(idx):
        total = ZERO
        for a in range(d):
            total = total + X.components[a] * alpha.components[(a,) + idx]
        return total

    sym = "antisymmetric" if k - 1 >= 2 else "none"
    return TensorField(alpha.chart, 0, k - 1, _fill((d,) * (k - 1), sym, entry), sym)


def node_counts(roots):
    """(tree, unique) node counts of a set of roots, as the benchmark's
    tracing counts them: tree expands every root as a tree; unique counts
    structurally distinct nodes (same type, leaf data and children)."""
    size, key, interned = {}, {}, {}
    stack = list(roots)
    while stack:
        expr = stack[-1]
        if id(expr) in size:
            stack.pop()
            continue
        kids = [c for c in (getattr(expr, "a", None), getattr(expr, "b", None))
                if isinstance(c, E.Expr)]
        todo = [c for c in kids if id(c) not in size]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        leaf = (expr.value if isinstance(expr, Const) else
                expr.index if isinstance(expr, Coord) else getattr(expr, "exponent", None))
        size[id(expr)] = 1 + sum(size[id(c)] for c in kids)
        signature = (type(expr).__name__, leaf) + tuple(key[id(c)] for c in kids)
        key[id(expr)] = interned.setdefault(signature, len(interned))
    return sum(size[id(root)] for root in roots), len(interned)
