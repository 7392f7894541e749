"""Differential geometry on metric fields: Christoffel symbols, geodesic
shooting, arc lengths, reparametrization, Jacobi fields and curvature.

Geodesics solve  d2x^k = -Gamma^k_ij dx^i dx^j  with the classical fixed-step
fourth-order Runge-Kutta scheme.  Two parametrizations are supported:

    riemannian   |dx|_g = 1   (the affine geodesic equation above)
    euclidean    |dx|   = 1   (same curve, unit Euclidean speed; the
                              right-hand side projects out the tangential
                              component of the acceleration)

For a conformal metric g = c e^{2 phi} I the Christoffel symbols are
Gamma^k_ij = delta^k_i d_j phi + delta^k_j d_i phi - delta_ij d_k phi, so the
acceleration is the closed form  |V|^2 grad phi - 2 (V . grad phi) V  and the
right-hand side needs only grad phi, read through
conformal_exponent_batch(X, order=1).  It is used for every field with
``conformal`` set (fields.py decides which those are); every other field
contracts the general Christoffel tensor.

Index conventions follow fields.py: grad[i, a, b] = d_i g_ab.  The Riemann
tensor is assembled as

    R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms
              + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms

with (R(X, Y) Z)^r = R^r_smn Z^s X^m Y^n, so the Jacobi equation along a
unit-speed geodesic reads  D2 J + R(J, dx) dx = 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.integrate import simpson
from scipy.interpolate import CubicHermiteSpline, CubicSpline
from scipy.optimize import brentq

from .fields import RegionError

SPEED_TOL = 1e-6           # per-sample speed drift allowance, times (1 + t)
CONJUGATE_REFINE = 1e-6    # bisection width for conjugate-time brackets


class GeometryError(ValueError):
    pass


class DegeneratePathError(GeometryError):
    """Zero-speed samples make a parametrization change ill-defined."""


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------

def christoffel_from_derivatives(val, grad):
    """Batched Gamma^k_ij = 1/2 g^km (d_i g_mj + d_j g_im - d_m g_ij).

    val (B,d,d), grad (B,d,d,d) with grad[:,i,a,b] = d_i g_ab.
    """
    _, _, gamma = _christoffel_parts(val, grad)
    return 0.5 * (gamma + np.swapaxes(gamma, 2, 3))   # enforce exact symmetry


def _christoffel_parts(val, grad):
    """(g^-1, term, Gamma) with term[:,m,i,j] = d_i g_mj + d_j g_im - d_m g_ij
    and Gamma = g^-1 term / 2, not symmetrised."""
    ginv = np.linalg.inv(val)
    term = (np.einsum("bimj->bmij", grad)
            + np.einsum("bjim->bmij", grad)
            - grad)
    return ginv, term, 0.5 * np.einsum("bkm,bmij->bkij", ginv, term)


def christoffel(field, x, condition_limit=1e12):
    """Gamma^k_ij (d, d, d) at a point, from analytic metric derivatives;
    exactly symmetric in the lower indices."""
    x = np.asarray(x, dtype=float)
    val, grad, _ = field.evaluate_batch(x[None, :], order=1)
    if np.linalg.cond(val[0]) > condition_limit:
        raise GeometryError("metric nearly singular at the requested point")
    return christoffel_from_derivatives(val, grad)[0]


def _christoffel_and_partials(val, grad, hess):
    """Gamma and its coordinate partials d_l Gamma^k_ij (batched)."""
    ginv, term, gamma = _christoffel_parts(val, grad)
    dginv = -np.einsum("Xka,Xlab,Xbm->Xlkm", ginv, grad, ginv)
    # hess[:, l, i, a, b] = d_l d_i g_ab
    dterm = (np.einsum("blimj->blmij", hess)
             + np.einsum("bljim->blmij", hess)
             - np.einsum("blmij->blmij", hess))
    dgamma = (0.5 * np.einsum("blkm,bmij->blkij", dginv, term)
              + 0.5 * np.einsum("bkm,blmij->blkij", ginv, dterm))
    return gamma, dgamma


def riemann_tensor(val, grad, hess):
    """Batched R^r_smn from analytic first and second metric derivatives."""
    gamma, dgamma = _christoffel_and_partials(val, grad, hess)
    curv = (np.einsum("bmrns->brsmn", dgamma)
            - np.einsum("bnrms->brsmn", dgamma)
            + np.einsum("brml,blns->brsmn", gamma, gamma)
            - np.einsum("brnl,blms->brsmn", gamma, gamma))
    return curv


def curvature_at(field, x, plane=None, condition_limit=1e12):
    """Gauss curvature (d = 2) or sectional curvature of a plane (d = 3).

    ``plane`` is a pair of spanning vectors, required when d = 3.
    """
    x = np.asarray(x, dtype=float)
    val, grad, hess = field.evaluate_batch(x[None, :])
    g = val[0]
    if np.linalg.cond(g) > condition_limit:
        raise GeometryError("metric nearly singular at the requested point")
    R = riemann_tensor(val, grad, hess)[0]
    d = g.shape[0]
    if d == 2:
        u = np.array([1.0, 0.0])
        v = np.array([0.0, 1.0])
    else:
        if plane is None:
            raise GeometryError("sectional curvature in d = 3 needs a plane")
        u, v = (np.asarray(w, dtype=float) for w in plane)
    ruv = np.einsum("rsmn,s,m,n->r", R, v, u, v)      # R(u, v) v
    num = np.einsum("r,rs,s->", ruv, g, u)            # <R(u,v)v, u>_g
    uu = u @ g @ u
    vv = v @ g @ v
    uv = u @ g @ v
    return float(num / (uu * vv - uv * uv))


# ---------------------------------------------------------------------------
# geodesic paths
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Discretized geodesic trajectory.

    samples are (times[i], positions[i], velocities[i]); velocities are with
    respect to the stated parametrization (unit Riemannian or unit Euclidean
    speed).  ``termination`` is "completed", "left_region" or "numerical".
    """
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    parametrization: str
    step: float
    field_ref: str = ""
    termination: str = "completed"
    speed_drift_max: float = 0.0
    drift_flagged: bool = False

    def __post_init__(self):
        if len(self.times) >= 2 and np.any(np.diff(self.times) <= 0):
            raise GeometryError("sample times must be strictly increasing")

    @property
    def duration(self):
        return float(self.times[-1] - self.times[0])

    def position_spline(self):
        return CubicHermiteSpline(self.times, self.positions, self.velocities, axis=0)

    def csv_text(self):
        d = self.positions.shape[1]
        lines = [f"# parametrization: {self.parametrization}",
                 f"# step: {float(self.step)!r}",
                 f"# termination: {self.termination}",
                 ",".join(["t"] + [f"x{i + 1}" for i in range(d)]
                          + [f"v{i + 1}" for i in range(d)])]
        rows = np.column_stack([self.times, self.positions, self.velocities])
        lines += [",".join(repr(float(v)) for v in row) for row in rows]
        return "\n".join(lines) + "\n"


def riemannian_speeds(field, positions, velocities):
    g = field.values_batch(positions)
    return np.sqrt(np.einsum("bi,bij,bj->b", velocities, g, velocities))


def _normalize(field, x0, v0, parametrization):
    if parametrization == "euclidean":
        n = np.linalg.norm(v0, axis=-1, keepdims=True)
    else:
        g = field.values_batch(np.atleast_2d(x0))
        if g.shape[0] == 1 and v0.ndim == 2:
            g = np.broadcast_to(g, (v0.shape[0],) + g.shape[1:])
        n = np.sqrt(np.einsum("bi,bij,bj->b", v0, g, v0))[:, None]
    if np.any(n == 0):
        raise GeometryError("zero initial velocity")
    return v0 / n


def _geodesic_rhs(field, X, V, parametrization):
    """(dx/dt, dv/dt) of the geodesic system at a batch of states.

    For a field with ``conformal`` set, g = c e^{2 phi} I and
    Gamma^k_ij V^i V^j = 2 (V . dphi) V^k - |V|^2 d_k phi, so the
    acceleration needs dphi alone; every other field contracts the general
    Christoffel tensor.  The euclidean parametrization then projects out the
    tangential component.
    """
    if field.conformal:
        _, dphi, _ = field.conformal_exponent_batch(X, order=1)
        acc = (np.einsum("bi,bi->b", V, V)[:, None] * dphi
               - 2.0 * np.einsum("bi,bi->b", V, dphi)[:, None] * V)
    else:
        val, grad, _ = field.evaluate_batch(X, order=1)
        gamma = christoffel_from_derivatives(val, grad)
        acc = -np.einsum("bkij,bi,bj->bk", gamma, V, V)
    if parametrization == "euclidean":
        acc = acc - np.einsum("bk,bk->b", acc, V)[:, None] * V
    return V, acc


def _inside_with_margin(field, X, margins):
    region = field.region
    if region is None:
        return np.isfinite(X).all(axis=1)
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    ok = np.all((X >= lo + margins[:, None]) & (X <= hi - margins[:, None]), axis=1)
    return ok & np.isfinite(X).all(axis=1)


def _rk4_step(field, X, V, step, parametrization):
    """One classical RK4 step of the geodesic system for every row."""
    k1x, k1v = _geodesic_rhs(field, X, V, parametrization)
    k2x, k2v = _geodesic_rhs(field, X + 0.5 * step * k1x,
                             V + 0.5 * step * k1v, parametrization)
    k3x, k3v = _geodesic_rhs(field, X + 0.5 * step * k2x,
                             V + 0.5 * step * k2v, parametrization)
    k4x, k4v = _geodesic_rhs(field, X + step * k3x,
                             V + step * k3v, parametrization)
    return (X + (step / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x),
            V + (step / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v))


def _rows_field(field, idx):
    """The field that evaluates batch rows idx: a stack is cut down to the
    rows' own fields, any other field serves every row."""
    if hasattr(field, "for_rows"):
        return field.for_rows(idx)
    return field


def _rk4_rows(field, idx, X, V, step, parametrization):
    """RK4 step one row at a time, after the batched step raised
    RegionError.  Returns (Xn, Vn, out): rows flagged in ``out`` had a stage
    leave the region (their Xn, Vn are NaN); the others advanced exactly as
    in the batched step."""
    Xn = np.full_like(X, np.nan)
    Vn = np.full_like(V, np.nan)
    out = np.zeros(len(idx), dtype=bool)
    for j in range(len(idx)):
        row = slice(j, j + 1)
        try:
            Xn[row], Vn[row] = _rk4_step(_rows_field(field, idx[row]), X[row],
                                         V[row], step, parametrization)
        except RegionError:
            out[j] = True
    return Xn, Vn, out


def geodesic_shoot_batch(field, x0, v0, T, step=None, parametrization="riemannian"):
    """Shoot a batch of geodesics from x0 (point or (B,d)) with directions
    v0 (B,d).  Returns a list of GeodesicPath, one per direction; trajectories
    that leave the field region terminate early with reason "left_region",
    trajectories whose state stops being finite with reason "numerical".
    Rows terminate independently: the others keep integrating.
    """
    if parametrization not in ("riemannian", "euclidean"):
        raise GeometryError(f"unknown parametrization {parametrization!r}")
    v0 = np.atleast_2d(np.asarray(v0, dtype=float))
    B, d = v0.shape
    x0 = np.asarray(x0, dtype=float)
    X = np.broadcast_to(x0, (B, d)).astype(float).copy()
    if step is None:
        step = 1e-3 * field.correlation_length
    step = float(step)
    if not np.all(field.contains(X)):
        raise RegionError("start point outside field region")
    V = _normalize(field, X, v0, parametrization)

    # histories are written in place; row b's samples are the first
    # n_samples[b] entries of its column
    n_steps = int(np.ceil(T / step - 1e-12))
    times = np.empty(n_steps + 1)
    pos_hist = np.empty((n_steps + 1, B, d))
    vel_hist = np.empty((n_steps + 1, B, d))
    times[0] = 0.0
    pos_hist[0] = X
    vel_hist[0] = V
    n_samples = np.ones(B, dtype=np.int64)
    termination = np.array(["completed"] * B, dtype=object)

    idx = np.arange(B)
    field_a = field
    t = 0.0
    for n in range(n_steps):
        Xa, Va = pos_hist[n, idx], vel_hist[n, idx]
        margins = 1.5 * step * np.max(np.abs(Va), axis=1)
        inside = _inside_with_margin(field, Xa, margins)
        if not np.all(inside):
            termination[idx[~inside]] = "left_region"
            idx, Xa, Va = idx[inside], Xa[inside], Va[inside]
            if idx.size == 0:
                break
            field_a = _rows_field(field, idx)
        try:
            Xn, Vn = _rk4_step(field_a, Xa, Va, step, parametrization)
            out = np.zeros(idx.size, dtype=bool)
        except RegionError:
            Xn, Vn, out = _rk4_rows(field, idx, Xa, Va, step, parametrization)
        bad = ~out & ~(np.isfinite(Xn).all(axis=1) & np.isfinite(Vn).all(axis=1))
        if np.any(out | bad):
            termination[idx[out]] = "left_region"
            termination[idx[bad]] = "numerical"
            keep = ~(out | bad)
            idx, Xn, Vn = idx[keep], Xn[keep], Vn[keep]
            if idx.size == 0:
                break
            field_a = _rows_field(field, idx)
        t += step
        times[n + 1] = t
        pos_hist[n + 1, idx] = Xn
        vel_hist[n + 1, idx] = Vn
        n_samples[idx] = n + 2

    paths = []
    for b in range(B):
        field_b = field.field_at(b) if hasattr(field, "field_at") else field
        n_b = n_samples[b]
        path = GeodesicPath(times=times[:n_b], positions=pos_hist[:n_b, b],
                            velocities=vel_hist[:n_b, b],
                            parametrization=parametrization, step=step,
                            field_ref=repr(getattr(field_b, "seed",
                                                   type(field_b).__name__)),
                            termination=str(termination[b]))
        _attach_drift(field_b, path)
        paths.append(path)
    return paths


def _attach_drift(field, path):
    if path.parametrization == "riemannian":
        speeds = riemannian_speeds(field, path.positions, path.velocities)
    else:
        speeds = np.linalg.norm(path.velocities, axis=1)
    tol = SPEED_TOL * (1.0 + path.times)
    drift = np.abs(speeds - 1.0)
    path.speed_drift_max = float(np.max(drift)) if drift.size else 0.0
    path.drift_flagged = bool(np.any(drift > 10.0 * tol))
    if path.drift_flagged:
        warnings.warn(
            f"geodesic speed drift {path.speed_drift_max:.3e} exceeds ten "
            f"times the tolerance; the integration step is likely too large",
            RuntimeWarning, stacklevel=3)


def geodesic_shoot(field, x0, v0, T, step=None, parametrization="riemannian"):
    """Shoot a single geodesic; see geodesic_shoot_batch."""
    return geodesic_shoot_batch(field, x0, np.asarray(v0, dtype=float)[None, :],
                                T, step=step, parametrization=parametrization)[0]


# ---------------------------------------------------------------------------
# lengths and reparametrization
# ---------------------------------------------------------------------------

def lengths(path, field):
    """(Riemannian length, Euclidean length) by composite Simpson quadrature
    over the stored samples."""
    if len(path.times) < 2:
        raise GeometryError("need at least two samples")
    r_speeds = riemannian_speeds(field, path.positions, path.velocities)
    e_speeds = np.linalg.norm(path.velocities, axis=1)
    R = float(simpson(r_speeds, x=path.times))
    L = float(simpson(e_speeds, x=path.times))
    return R, L


def cumulative_lengths(path, field, kind="riemannian"):
    """Cumulative arc length at each sample (trapezoid on sample speeds)."""
    if kind == "riemannian":
        speeds = riemannian_speeds(field, path.positions, path.velocities)
    else:
        speeds = np.linalg.norm(path.velocities, axis=1)
    dt = np.diff(path.times)
    inc = 0.5 * (speeds[1:] + speeds[:-1]) * dt
    return np.concatenate([[0.0], np.cumsum(inc)])


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)


def _speed_function(field, pos_spline, vel_spline, target):
    if target == "euclidean":
        def speed(ts):
            return np.linalg.norm(vel_spline(np.asarray(ts)), axis=-1)
    else:
        def speed(ts):
            ts = np.asarray(ts)
            pos = np.atleast_2d(pos_spline(ts))
            vel = np.atleast_2d(vel_spline(ts))
            g = field.values_batch(pos)
            return np.sqrt(np.einsum("bi,bij,bj->b", vel, g, vel)).reshape(np.shape(ts))
    return speed


def _gauss_increments(speed, t_lo, t_hi):
    """Integral of speed over [t_lo_i, t_hi_i], 5-point Gauss-Legendre each."""
    t_lo = np.asarray(t_lo, dtype=float)
    t_hi = np.asarray(t_hi, dtype=float)
    half = 0.5 * (t_hi - t_lo)
    mid = 0.5 * (t_hi + t_lo)
    nodes = mid[:, None] + half[:, None] * _GAUSS_NODES[None, :]
    vals = speed(nodes.ravel()).reshape(nodes.shape)
    return half * (vals @ _GAUSS_WEIGHTS)


def reparametrize(path, target, field):
    """Monotone time change to the target parametrization.

    Positions and velocities are resampled on a uniform grid of the new
    parameter via cubic Hermite interpolation; the cumulative time change is
    computed by per-interval Gauss-Legendre quadrature and inverted with
    Newton iterations, so round trips return samples to within 1e-8.
    """
    if target not in ("riemannian", "euclidean"):
        raise GeometryError(f"unknown parametrization {target!r}")
    if len(path.times) < 2:
        raise GeometryError("need at least two samples")
    pos_spline = path.position_spline()
    vel_spline = pos_spline.derivative()
    speed = _speed_function(field, pos_spline, vel_spline, target)
    sample_speeds = speed(path.times)
    if np.min(sample_speeds) <= 1e-12:
        raise DegeneratePathError("zero-speed sample in reparametrization")

    inc = _gauss_increments(speed, path.times[:-1], path.times[1:])
    S = np.concatenate([[0.0], np.cumsum(inc)])
    total = S[-1]
    n = len(path.times)
    tau = np.linspace(0.0, total, n)

    # invert S(t) = tau by bracketed Newton within each source interval
    k = np.clip(np.searchsorted(S, tau, side="right") - 1, 0, n - 2)
    t = path.times[k] + (tau - S[k]) / np.maximum(sample_speeds[k], 1e-300)
    t = np.clip(t, path.times[k], path.times[k + 1])
    for _ in range(6):
        F = S[k] + _gauss_increments(speed, path.times[k], t) - tau
        t = np.clip(t - F / speed(t), path.times[0], path.times[-1])
    t[0] = path.times[0]
    t[-1] = path.times[-1]

    new_pos = pos_spline(t)
    raw_vel = vel_spline(t)
    new_vel = raw_vel / speed(t)[:, None]
    out = GeodesicPath(times=tau, positions=new_pos, velocities=new_vel,
                       parametrization=target,
                       step=float(total / (n - 1)) if n > 1 else path.step,
                       field_ref=path.field_ref, termination=path.termination)
    _attach_drift(field, out)
    return out


# ---------------------------------------------------------------------------
# Jacobi fields and conjugate points
# ---------------------------------------------------------------------------

@dataclass
class JacobiRecord:
    """Transverse Jacobi determinant history along a geodesic.

    det_history[i] is the Riemannian volume of the frame
    (velocity, J_1, ..., J_{d-1}) at times[i]; with the initial covariant
    derivatives forming a g-orthonormal transverse frame this normalizes to
    t^{d-1} on a flat field.  conjugate_times are bracketed sign changes
    refined to 1e-6; vanishings without a sign change are listed as suspect.
    """
    times: np.ndarray
    det_history: np.ndarray
    conjugate_times: list
    suspect_times: list = dc_field(default_factory=list)


def _transverse_frame(field, x0, v0):
    """g-orthonormal frame (v0, e_2, .., e_d), oriented positively."""
    g = field.values_batch(np.atleast_2d(x0))[0]
    d = len(v0)
    vecs = [v0 / np.sqrt(v0 @ g @ v0)]
    for seed_idx in range(d):
        if len(vecs) == d:
            break
        cand = np.zeros(d)
        cand[seed_idx] = 1.0
        for e in vecs:
            cand = cand - (cand @ g @ e) * e
        nrm = np.sqrt(cand @ g @ cand)
        if nrm > 1e-10:
            vecs.append(cand / nrm)
    if len(vecs) != d:
        raise GeometryError("failed to build a transverse frame")
    frame = np.column_stack(vecs)
    if np.linalg.det(frame) < 0:
        frame[:, -1] = -frame[:, -1]
    return frame


def _hermite_midpoints(times, positions, velocities):
    """Positions and velocities at interval midpoints from Hermite cubics."""
    h = np.diff(times)[:, None]
    x0, x1 = positions[:-1], positions[1:]
    v0, v1 = velocities[:-1], velocities[1:]
    xm = 0.5 * (x0 + x1) + 0.125 * h * (v0 - v1)
    vm = 1.5 * (x1 - x0) / h - 0.25 * (v0 + v1)
    return xm, vm


def jacobi_integrate(field, path):
    """Integrate the matrix Jacobi equation J'' + R(J, dx) dx = 0 along a
    unit-Riemannian-speed geodesic, J(0) = 0, DJ(0) = transverse identity."""
    return jacobi_integrate_batch(field, [path])[0]


def _jacobi_coefficients(field, X, V, chunk=20000):
    """Per-point linear operators of the Jacobi system.

    gv[k, j]   = Gamma^k_ij V^i              (connection drag)
    cv[r, m]   = R^r_smn V^s V^n             (tidal operator)
    voldet     = sqrt(det g)                 (for the volume determinant)
    """
    n = X.shape[0]
    d = X.shape[1]
    gv = np.empty((n, d, d))
    cv = np.empty((n, d, d))
    voldet = np.empty(n)
    for s in range(0, n, chunk):
        sl = slice(s, min(n, s + chunk))
        val, grad, hess = field.evaluate_batch(X[sl])
        gamma = christoffel_from_derivatives(val, grad)
        R = riemann_tensor(val, grad, hess)
        gv[sl] = np.einsum("bkij,bi->bkj", gamma, V[sl])
        cv[sl] = np.einsum("brsmn,bs,bn->brm", R, V[sl], V[sl])
        voldet[sl] = np.sqrt(np.linalg.det(val))
    return gv, cv, voldet


def jacobi_integrate_batch(field, paths):
    """Jacobi records for several paths sharing the same sample times.

    Field data (connection and curvature contracted with the velocity) is
    precomputed in bulk at all samples and Hermite midpoints, so the RK4 loop
    is pure linear algebra.
    """
    if not paths:
        return []
    d = paths[0].positions.shape[1]
    if d not in (2, 3):
        raise GeometryError("Jacobi integration supports d = 2 or 3")
    for p in paths:
        if p.parametrization != "riemannian":
            raise GeometryError("Jacobi integration needs riemannian parametrization")
        if len(p.times) < 3:
            raise GeometryError("path too coarse for curvature sampling")
        if len(p.times) != len(paths[0].times) or not np.allclose(p.times, paths[0].times):
            raise GeometryError("batched paths must share sample times")
    B = len(paths)
    times = paths[0].times
    N = len(times)
    pos = np.stack([p.positions for p in paths], axis=1)   # (N, B, d)
    vel = np.stack([p.velocities for p in paths], axis=1)

    xm = np.empty((N - 1, B, d))
    vm = np.empty((N - 1, B, d))
    for b in range(B):
        xm[:, b], vm[:, b] = _hermite_midpoints(times, pos[:, b], vel[:, b])

    gv_s, cv_s, vol_s = _jacobi_coefficients(
        field, pos.reshape(N * B, d), vel.reshape(N * B, d))
    gv_s = gv_s.reshape(N, B, d, d)
    cv_s = cv_s.reshape(N, B, d, d)
    vol_s = vol_s.reshape(N, B)
    gv_m, cv_m, _ = _jacobi_coefficients(
        field, xm.reshape((N - 1) * B, d), vm.reshape((N - 1) * B, d))
    gv_m = gv_m.reshape(N - 1, B, d, d)
    cv_m = cv_m.reshape(N - 1, B, d, d)

    J = np.zeros((B, d, d - 1))
    W = np.empty((B, d, d - 1))
    dets = np.empty((N, B))
    for b in range(B):
        frame = _transverse_frame(field, pos[0, b], vel[0, b])
        W[b] = frame[:, 1:]
    dets[0] = 0.0

    def rhs(gv, cv, Jc, Wc):
        dJ = Wc - gv @ Jc
        dW = -(cv @ Jc) - gv @ Wc
        return dJ, dW

    for i in range(N - 1):
        h = times[i + 1] - times[i]
        k1J, k1W = rhs(gv_s[i], cv_s[i], J, W)
        k2J, k2W = rhs(gv_m[i], cv_m[i], J + 0.5 * h * k1J, W + 0.5 * h * k1W)
        k3J, k3W = rhs(gv_m[i], cv_m[i], J + 0.5 * h * k2J, W + 0.5 * h * k2W)
        k4J, k4W = rhs(gv_s[i + 1], cv_s[i + 1], J + h * k3J, W + h * k3W)
        J = J + (h / 6.0) * (k1J + 2 * k2J + 2 * k3J + k4J)
        W = W + (h / 6.0) * (k1W + 2 * k2W + 2 * k3W + k4W)
        frame = np.concatenate([vel[i + 1][:, :, None], J], axis=2)
        dets[i + 1] = vol_s[i + 1] * np.linalg.det(frame)

    return [_detect_conjugates(times, dets[:, b]) for b in range(B)]


def _detect_conjugates(times, det):
    conjugate = []
    suspect = []
    scale = np.max(np.abs(det)) or 1.0
    spline = CubicSpline(times, det)
    sign = np.sign(det)
    for i in range(1, len(times) - 1):
        if sign[i] != 0 and sign[i + 1] != 0 and sign[i] != sign[i + 1]:
            t_star = brentq(spline, times[i], times[i + 1],
                            xtol=CONJUGATE_REFINE)
            conjugate.append(float(t_star))
        elif (0 < i < len(times) - 1
              and abs(det[i]) < 1e-9 * scale
              and abs(det[i]) <= abs(det[i - 1])
              and abs(det[i]) <= abs(det[i + 1])
              and sign[i - 1] == sign[i + 1]
              and times[i] > times[1]):
            suspect.append(float(times[i]))
    return JacobiRecord(times=times, det_history=det,
                        conjugate_times=conjugate, suspect_times=suspect)
