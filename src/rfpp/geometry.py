"""Differential geometry on metric fields of the plane: Christoffel
symbols, geodesic shooting, arc lengths, reparametrization, Jacobi fields
and Gauss curvature.

Geodesics solve  d2x^k = -Gamma^k_ij dx^i dx^j  with the embedded
Dormand-Prince 5(4) pair.  ``step`` is the output sample spacing and the
accuracy request: every row of a batch controls its own step against a local
error target proportional to step^4 (at step 1e-3 on a unit-correlation-length
field the global error matches classical RK4 at that step; coarser requests
come out less accurate than RK4 would be), and the samples on the grid k step
come from a quintic Hermite interpolant through position, velocity and
acceleration at both ends of each step.  Two parametrizations are supported:

    riemannian   |dx|_g = 1   (the affine geodesic equation above)
    euclidean    |dx|   = 1   (same curve, unit Euclidean speed; the
                              right-hand side projects out the tangential
                              component of the acceleration)

For a conformal metric g = e^{2 phi} I (phi is the exponent of g itself,
so a constant factor c of the metric is the constant (log c) / 2 in phi) the
Christoffel symbols are
Gamma^k_ij = delta^k_i d_j phi + delta^k_j d_i phi - delta_ij d_k phi, so the
acceleration is the closed form  |V|^2 grad phi - 2 (V . grad phi) V  and the
right-hand side needs only grad phi, read through
conformal_exponent_batch(X, order=1).  Its Gauss curvature is the closed
form  K = -e^{-2 phi} Lap phi  (do Carmo, Riemannian Geometry, ch. 5), read
through conformal_laplacian_batch(X): phi and its Laplacian alone, which a
sampled field sums per kernel node without forming the Hessian tensor and an
analytic field takes from its closed forms.  Both closed forms are used for
every field with ``conformal`` set (fields.py decides which those are).

For g = e^A with A symmetric (``sym_exp`` set), the right-hand side reads
the channels of A and its partials through log_metric_batch(X, order=1)
and forms the acceleration from the closed-form exponential of fields.py:
with A = m I + N, the factor e^m of g and of its derivatives cancels
against the e^-m of g^-1 (see _sym_exp_acceleration).  Its Gauss curvature
comes from the Riemann tensor below.  Every other field contracts the
general Christoffel tensor and takes K from the Riemann tensor.

Index conventions follow fields.py: grad[i, a, b] = d_i g_ab.  The Riemann
tensor is assembled as

    R^r_smn = d_m Gamma^r_ns - d_n Gamma^r_ms
              + Gamma^r_ml Gamma^l_ns - Gamma^r_nl Gamma^l_ms

with (R(X, Y) Z)^r = R^r_smn Z^s X^m Y^n.  The Gauss curvature of a field
that is not conformal is K = R_1212 / det g, R_1212 = <R(e_1, e_2) e_2,
e_1>_g; riemann_tensor stays the oracle the conformal closed form is tested
against.  Along a unit-speed geodesic a Jacobi field normal to it is J = j n,
n the parallel unit normal, with the scalar Jacobi equation
j'' + K(gamma(t)) j = 0  (do Carmo, Riemannian Geometry, ch. 5).

At module level only numpy and fields are imported, since every rfpp call
that shoots a geodesic imports this module.  SciPy routines load on first
use: CubicSpline and brentq when a Jacobi field j changes sign (to
refine the conjugate time), CubicHermiteSpline in
GeodesicPath.position_spline.  Arc lengths use _simpson, which repeats
scipy.integrate.simpson bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .fields import (_TO_BASIS, RegionError, _exp_coordinates,
                     _exp_derivative_map, csv_table)

SPEED_TOL = 1e-6           # per-sample speed drift allowance, times (1 + t)
CONJUGATE_REFINE = 1e-6    # bisection width for conjugate-time brackets
CONDITION_LIMIT = 1e12     # metric condition number treated as singular
DP_TOLERANCE = 6.0         # geodesic local error target, times step^4
MIN_STEP = 1e-3            # smallest geodesic step, as a fraction of step

# Dormand-Prince 5(4) (Dormand and Prince, 1980) in Nystrom form for
# x'' = a(x, x'): rows 2..7 of the autonomous tableau (the last holds the
# fifth-order weights; its stage is the acceleration at the new state, the
# next step's first), their nodes, and the weights of the embedded error
# estimate (fifth minus fourth order).  Stage velocities are V + h sum_j
# a_ij a_j and stage positions X + c_i h V + h^2 sum_j (A^2)_ij a_j, so where
# the acceleration vanishes the velocity stays exactly constant.
_DP_A = ((1 / 5,),
         (3 / 40, 9 / 40),
         (44 / 45, -56 / 15, 32 / 9),
         (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
         (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
         (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525,
         -1 / 40)


def _times_stage_matrix(x):
    """sum_k x_k a_kj for stage weights x, where row k of the strictly lower
    triangular stage matrix is _DP_A[k - 1]."""
    return tuple(sum(x[k] * _DP_A[k - 1][j] for k in range(j + 1, len(x)))
                 for j in range(len(x) - 1))


_DP_AA = tuple(_times_stage_matrix(row) for row in _DP_A)   # rows of A^2
_DP_EA = _times_stage_matrix(_DP_E)


class GeometryError(ValueError):
    pass


class DegeneratePathError(GeometryError):
    """Zero-speed samples make a parametrization change ill-defined."""


# ---------------------------------------------------------------------------
# Christoffel symbols and curvature
# ---------------------------------------------------------------------------

# the adjugate of a 2 x 2 matrix g: entry (i, j) is (-1)^(i+j) g[1-j, 1-i]
_ADJUGATE_ROWS = np.array([[1, 0], [1, 0]])
_ADJUGATE_COLUMNS = np.array([[1, 1], [0, 0]])
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def christoffel_from_derivatives(val, grad):
    """Batched Gamma^k_ij = 1/2 g^km (d_i g_mj + d_j g_im - d_m g_ij).

    val (B,2,2), grad (B,2,2,2) with grad[:,i,a,b] = d_i g_ab.
    """
    _, _, gamma = _christoffel_parts(val, grad)
    return 0.5 * (gamma + np.swapaxes(gamma, 2, 3))   # enforce exact symmetry


def _christoffel_parts(val, grad):
    """(g^-1, term, Gamma) with term[:,m,i,j] = d_i g_mj + d_j g_im - d_m g_ij
    and Gamma = g^-1 term / 2, not symmetrised; g^-1 is the adjugate over
    the determinant."""
    det = val[:, 0, 0] * val[:, 1, 1] - val[:, 0, 1] * val[:, 1, 0]
    ginv = val[:, _ADJUGATE_ROWS, _ADJUGATE_COLUMNS] * _ADJUGATE_SIGNS
    ginv /= det[:, None, None]
    term = (np.einsum("bimj->bmij", grad)
            + np.einsum("bjim->bmij", grad)
            - grad)
    return ginv, term, 0.5 * np.einsum("bkm,bmij->bkij", ginv, term)


def christoffel(field, x):
    """Gamma^k_ij (d, d, d) at a point, from analytic metric derivatives;
    exactly symmetric in the lower indices."""
    x = np.asarray(x, dtype=float)
    val, grad, _ = field.evaluate_batch(x[None, :], order=1)
    if np.linalg.cond(val[0]) > CONDITION_LIMIT:
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
    return _riemann_from_christoffel(*_christoffel_and_partials(val, grad, hess))


def _riemann_from_christoffel(gamma, dgamma):
    """Batched R^r_smn from Gamma and its partials dgamma[:, l] = d_l Gamma."""
    return (np.einsum("bmrns->brsmn", dgamma)
            - np.einsum("bnrms->brsmn", dgamma)
            + np.einsum("brml,blns->brsmn", gamma, gamma)
            - np.einsum("brnl,blms->brsmn", gamma, gamma))


def _gauss_curvature(field, X):
    """Gauss curvature at the points X (..., 2).

    For a field with ``conformal`` set, g = e^{2 phi} I and K = -e^{-2 phi}
    Lap phi, from conformal_laplacian_batch; every other field gives
    K = R_1212 / det g from one evaluate_batch call at order 2.
    """
    X2 = X.reshape(-1, 2)
    if field.conformal:
        phi, lap = field.conformal_laplacian_batch(X2)
        K = -np.exp(-2.0 * phi) * lap
    else:
        g, grad, hess = field.evaluate_batch(X2)
        R = _riemann_from_christoffel(*_christoffel_and_partials(g, grad, hess))
        # R_1212 = g_r1 R^r_212
        num = R[:, 0, 1, 0, 1] * g[:, 0, 0] + R[:, 1, 1, 0, 1] * g[:, 1, 0]
        K = num / (g[:, 0, 0] * g[:, 1, 1] - g[:, 0, 1] * g[:, 0, 1])
    return K.reshape(X.shape[:-1])


def curvature_at(field, x):
    """Gauss curvature at the point x."""
    return float(_gauss_curvature(field, np.asarray(x, dtype=float)[None, :])[0])


# ---------------------------------------------------------------------------
# geodesic paths
# ---------------------------------------------------------------------------

@dataclass
class GeodesicPath:
    """Discretized geodesic trajectory.

    samples are (times[i], positions[i], velocities[i]) on the grid
    times[i] = i step; velocities are with respect to the stated
    parametrization (unit Riemannian or unit Euclidean speed).  ``step`` is
    the sample spacing and the accuracy request the path was integrated to;
    ``steps`` and ``rejected`` count the integrator's accepted and rejected
    steps (zero for a path not shot by geodesic_shoot_batch).
    ``termination`` is "completed", "left_region" or "numerical".
    ``speeds`` keeps the Riemannian speeds at the samples, evaluated on
    ``speeds_field`` after shooting a riemannian path (None otherwise);
    lengths and cumulative_lengths reuse them for that field object only.
    """
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    parametrization: str
    step: float
    termination: str = "completed"
    steps: int = 0
    rejected: int = 0
    speed_drift_max: float = 0.0
    drift_flagged: bool = False
    speeds: np.ndarray = dc_field(default=None, repr=False)
    speeds_field: object = dc_field(default=None, repr=False)

    def __post_init__(self):
        if len(self.times) >= 2 and np.any(np.diff(self.times) <= 0):
            raise GeometryError("sample times must be strictly increasing")

    def position_spline(self):
        from scipy.interpolate import CubicHermiteSpline
        return CubicHermiteSpline(self.times, self.positions, self.velocities, axis=0)

    def csv_text(self):
        d = self.positions.shape[1]
        return csv_table(
            [f"# parametrization: {self.parametrization}",
             f"# step: {float(self.step)!r}",
             f"# termination: {self.termination}",
             ",".join(["t"] + [f"x{i + 1}" for i in range(d)]
                      + [f"v{i + 1}" for i in range(d)])],
            [self.times, *self.positions.T, *self.velocities.T])


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

    For a field with ``conformal`` set, g = e^{2 phi} I and
    Gamma^k_ij V^i V^j = 2 (V . dphi) V^k - |V|^2 d_k phi, so the
    acceleration needs dphi alone.  A field with ``sym_exp`` set, g = e^A,
    gives the channels of A and its partials, from which
    _sym_exp_acceleration forms the acceleration in closed form.  Every
    other field contracts the general Christoffel tensor.  The euclidean
    parametrization then projects out the tangential component.
    """
    if field.conformal:
        _, dphi, _ = field.conformal_exponent_batch(X, order=1)
        acc = (np.einsum("bi,bi->b", V, V)[:, None] * dphi
               - 2.0 * np.einsum("bi,bi->b", V, dphi)[:, None] * V)
    elif field.sym_exp:
        A, dA, _ = field.log_metric_batch(X, order=1)
        acc = _sym_exp_acceleration(A, dA, V)
    else:
        val, grad, _ = field.evaluate_batch(X, order=1)
        gamma = christoffel_from_derivatives(val, grad)
        acc = -np.einsum("bkij,bi,bj->bk", gamma, V, V)
    if parametrization == "euclidean":
        acc = acc - np.einsum("bk,bk->b", acc, V)[:, None] * V
    return V, acc


# L(V) = V[:, _L_INDEX] * _L_SIGNS (B,2,3) has the columns V, Z V and X V
# for the basis (I, Z, X) of fields.py: X V = L(V) x^T for a symmetric X of
# coordinates x (a row vector)
_L_INDEX = np.array([[0, 0, 1], [1, 1, 0]])
_L_SIGNS = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0]])
# -(C I - S N) = -C I + S nu_0 Z + S nu_1 X, flattened row-major, is (C,
# S nu) times this
_NEG_INVERSE_TERMS = np.array([[-1.0, 0.0, 0.0, -1.0], [1.0, 0.0, 0.0, -1.0],
                               [0.0, 1.0, 1.0, 0.0]])


def _sym_exp_acceleration(A, dA, V):
    """-Gamma^k_ij V^i V^j of g = e^A from the channels (A_00, A_11, A_01)
    of A (B,3) and of its partials dA (B,2,3) (see fields.py, sym_exp).

    d_k g = e^m D_k, where D_k has the coordinates E_k M for the
    coordinates E_k of d_k A and the symmetric derivative map M of
    fields.py, so D_k V = L(V) M E_k^T is column k of H = L(V) M E^T.  Then
    D_V V = H V and (V^T D_k V)_k = H^T V, and with g^-1 = e^-m (C I - S N)
    the acceleration -g^-1 (D_V g V - (V^T d_k g V)_k / 2) is -(C I - S N)
    (H - H^T / 2) V: e^m, and with it the mean level, cancels, and no
    metric, inverse or Christoffel tensor is formed.  Every product is a
    stacked matmul or elementwise, the cheapest calls on the geodesic's
    one-row batches."""
    M = _exp_derivative_map(*_exp_coordinates(A))
    L = V[:, _L_INDEX] * _L_SIGNS
    H = np.matmul(np.matmul(np.matmul(L, M), _TO_BASIS),
                  np.swapaxes(dA, 1, 2))
    w = np.matmul(H - 0.5 * np.swapaxes(H, 1, 2), V[:, :, None])
    # M's first row is (C, S nu)
    G = np.matmul(M[:, :1], _NEG_INVERSE_TERMS).reshape(-1, 2, 2)
    return np.matmul(G, w)[:, :, 0]


def _weights(coefs):
    """(stages, column) of a row of stage weights: the stages of its nonzero
    weights (a slice where they are consecutive) and those weights as a
    (n, 1, 1) column; None for a row of zeros."""
    stages = [j for j, c in enumerate(coefs) if c != 0.0]
    if not stages:
        return None
    column = np.array([coefs[j] for j in stages])[:, None, None]
    if stages == list(range(stages[0], stages[-1] + 1)):
        return slice(stages[0], stages[-1] + 1), column
    return np.array(stages), column


_DP_STAGES = tuple(zip(map(_weights, _DP_A), map(_weights, _DP_AA)))
_DP_ERR = (_weights(_DP_EA), _weights(_DP_E))
_DP_NODES = np.array(_DP_C)[:, None, None]


def _combine(weights, ks):
    """sum_j w_j ks[j] over the nonzero weights of a _weights row, None for
    a row of zeros.  add.reduce along the stage axis adds the products in
    stage order element by element, starting from -0.0, the identity that
    leaves a lone product's sign alone, so a row's result never depends on
    the other rows of the batch."""
    if weights is None:
        return None
    stages, column = weights
    return np.add.reduce(column * ks[stages], axis=0, initial=-0.0)


def _dp5_step(field, X, V, A, h, parametrization):
    """One Dormand-Prince 5(4) step of the geodesic system for every row.

    (X, V) is the state, A its acceleration and h (B,) the per-row steps.
    Returns (Xn, Vn, An, W, err): the fifth-order state, its acceleration
    (the last stage, reused as the next step's first), W with
    Xn = X + h V + h^2 W, and the max-norm of the embedded error estimate
    over the position and velocity components.
    """
    hc = h[:, None]
    hh = hc * hc
    kv = np.empty((len(_DP_STAGES) + 1,) + A.shape)
    kv[0] = A
    # X + c_i h V of every stage at once
    XC = X + (_DP_NODES * hc) * V
    for j, (a, aa) in enumerate(_DP_STAGES, start=1):
        Vs = V + hc * _combine(a, kv)
        W = _combine(aa, kv)
        Xs = XC[j - 1] if W is None else XC[j - 1] + hh * W
        _, kv[j] = _geodesic_rhs(field, Xs, Vs, parametrization)
    err_x, err_v = _DP_ERR
    err = np.abs(np.concatenate([hh * _combine(err_x, kv),
                                 hc * _combine(err_v, kv)], axis=1)).max(axis=1)
    return Xs, Vs, kv[-1], W, err


def _dp5_rows(field, idx, X, V, A, h, parametrization):
    """The step one row at a time, after the batched step raised RegionError.
    Returns _dp5_step's results and ``out``: rows flagged in it had a stage
    leave the region (their results are NaN); the others advanced exactly as
    in the batched step."""
    Xn, Vn, An, W = (np.full_like(X, np.nan) for _ in range(4))
    err = np.full(len(idx), np.nan)
    out = np.zeros(len(idx), dtype=bool)
    for j in range(len(idx)):
        row = slice(j, j + 1)
        try:
            Xn[row], Vn[row], An[row], W[row], err[row] = _dp5_step(
                field.for_rows(idx[row]), X[row], V[row], A[row], h[row],
                parametrization)
        except RegionError:
            out[j] = True
    return Xn, Vn, An, W, err, out


def _hermite_samples(theta, h, x0, v0, a0, v1, a1, W):
    """Positions and velocities at fractions theta of steps of length h from
    the quintic Hermite interpolant through (x, v, a) at both ends, with the
    end position x1 = x0 + h v0 + h^2 W; a step without acceleration
    interpolates its constant velocity exactly."""
    s = theta[:, None]
    r = 1.0 - s
    hc = h[:, None]
    # x(s) = x0 + s h v0 + h b4 (v1 - v0) + h^2 (b5 W + b2 a0 + b3 a1) in the
    # quintic Hermite basis b_i; d_i = db_i/ds
    b2, b3 = 0.5 * s ** 2 * r ** 3, 0.5 * s ** 3 * r ** 2
    b4 = -s ** 3 * r * (4.0 - 3.0 * s)
    b5 = s ** 3 * (10.0 + s * (-15.0 + 6.0 * s))
    d2, d3 = 0.5 * s * r ** 2 * (2.0 - 5.0 * s), 0.5 * s ** 2 * r * (3.0 - 5.0 * s)
    d4 = s ** 2 * (-12.0 + s * (28.0 - 15.0 * s))
    d5 = 30.0 * s ** 2 * r ** 2
    pos = (x0 + (s * hc) * v0 + (hc * b4) * (v1 - v0)
           + (hc * hc) * (b5 * W + b2 * a0 + b3 * a1))
    vel = v0 + d4 * (v1 - v0) + hc * (d5 * W + d2 * a0 + d3 * a1)
    return pos, vel


def _dense_output(times, pos_hist, vel_hist, attempts):
    """Write the grid samples in (t0, t1] of every accepted step into the
    histories, from each step's Hermite interpolant in one vectorized call.
    ``attempts`` lists the steps the integration loop attempted, as (idx,
    accept, t0, t1, h, X, V, A, Vn, An, W) over the rows idx it advanced.
    Returns the number of samples, accepted steps and rejected steps per
    row."""
    B = pos_hist.shape[1]
    n_samples = np.ones(B, dtype=np.int64)
    if not attempts:
        return n_samples, np.zeros(B, dtype=np.int64), np.zeros(B, dtype=np.int64)
    columns = [np.concatenate(parts) for parts in zip(*attempts)]
    accept = columns.pop(1)
    tried = np.bincount(columns[0], minlength=B)
    rows, t0, t1, h, X, V, A, Vn, An, W = (c[accept] for c in columns)
    steps = np.bincount(rows, minlength=B)
    k_lo = np.searchsorted(times, t0, side="right")
    k_hi = np.searchsorted(times, t1, side="right")
    counts = k_hi - k_lo
    sel = np.arange(len(counts)).repeat(counts)
    ks = (np.arange(sel.size)
          + (k_lo - (np.cumsum(counts) - counts)).repeat(counts))
    pos_hist[ks, rows[sel]], vel_hist[ks, rows[sel]] = _hermite_samples(
        (times[ks] - t0[sel]) / h[sel], h[sel], X[sel], V[sel], A[sel],
        Vn[sel], An[sel], W[sel])
    np.maximum.at(n_samples, rows, k_hi)
    return n_samples, steps, tried - steps


def geodesic_shoot_batch(field, x0, v0, T, step=None, parametrization="riemannian"):
    """Shoot a batch of geodesics from x0 (point or (B,d)) with directions
    v0 (B,d).  Returns a list of GeodesicPath, one per direction.

    ``step`` (default 1e-3 correlation lengths) is both the output sample
    spacing and the accuracy request: samples lie on the grid k step up to
    the first grid time >= T, and every row integrates with its own
    error-controlled Dormand-Prince 5(4) steps against the local error
    target DP_TOLERANCE step^4 (max-norm over position and velocity; at
    step 1e-3 the global error matches classical RK4 at that step).  Samples
    between step ends come from the quintic Hermite interpolant.

    A row ends "left_region" when the margin 1.5 h |V|_max leaves the region
    box even at h = step, or when a stage of a step no longer than ``step``
    raises RegionError; it ends "numerical" when its step would fall below
    MIN_STEP step (non-finite stages or an unreachable error target).  Rows
    terminate independently, at their last accepted sample: each row's path
    is bit-identical to the same row shot alone.
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
    _, A = _geodesic_rhs(field, X, V, parametrization)

    # histories are written in place; row b's samples are the first
    # n_samples[b] entries of its column
    n_out = int(np.ceil(T / step - 1e-12))
    times = np.concatenate([[0.0], np.cumsum(np.full(n_out, step))])
    t_end = times[-1]
    pos_hist = np.empty((n_out + 1, B, d))
    vel_hist = np.empty((n_out + 1, B, d))
    pos_hist[0] = X
    vel_hist[0] = V
    termination = np.array(["completed"] * B, dtype=object)
    tol = DP_TOLERANCE * step ** 4
    region = field.region
    if region is not None:
        lo, hi = np.asarray(region.lo), np.asarray(region.hi)

    # state of the rows still integrating: row index, position, velocity,
    # acceleration, time, proposed step and last accepted error ratio; every
    # attempted step is kept for the dense output after the loop
    idx = np.arange(B if n_out else 0)
    t, h, last = np.zeros(B), np.full(B, step), np.ones(B)
    field_a = field
    attempts = []
    while idx.size:
        # per row, the largest step whose margin 1.5 h |V|_max still
        # fits between X and the boundary of the region box
        if region is None:
            fit = np.full(idx.size, np.inf)
        else:
            fit = (np.minimum(X - lo, hi - X).min(axis=1)
                   / (1.5 * np.abs(V).max(axis=1)))
        cramped = fit < step
        if cramped.any():
            termination[idx[cramped]] = "left_region"
            idx, X, V, A, t, h, last, fit = (
                a[~cramped] for a in (idx, X, V, A, t, h, last, fit))
            if idx.size == 0:
                break
            field_a = field.for_rows(idx)
        rest = t_end - t
        ha = np.minimum(np.minimum(h, fit), rest)
        try:
            Xn, Vn, An, W, err = _dp5_step(field_a, X, V, A, ha,
                                           parametrization)
            out = None
        except RegionError:
            Xn, Vn, An, W, err, out = _dp5_rows(field, idx, X, V, A, ha,
                                                parametrization)
        # the rows that left the region have NaN results
        finite = np.isfinite(np.concatenate(
            [Xn, Vn, An, err[:, None]], axis=1)).all(axis=1)
        ratio = err / tol
        accept = finite & (ratio <= 1.0)
        # PI step control (Gustafsson 1991, with the constants of Hairer
        # and Wanner's DOPRI5): an accepted step also weighs the previous
        # ratio.  A step that left the region is retried at a quarter of
        # its length, but not below the sample spacing.  A zero error
        # estimate takes ratio ** -0.17 to inf, which the clip bounds.
        with np.errstate(divide="ignore"):
            grow = np.where(finite, 0.9 * ratio ** -0.17, 0.0)
        grow = np.where(accept, grow * last ** 0.04, grow)
        last = np.where(accept, np.maximum(ratio, 1e-4), last)
        h = ha * np.clip(grow, 0.2, 5.0)
        if out is not None:
            h = np.where(out, np.maximum(0.25 * ha, step), h)

        t1 = np.where(ha == rest, t_end, t + ha)
        attempts.append((idx, accept, t, t1, ha, X, V, A, Vn, An, W))
        t = np.where(accept, t1, t)
        X, V, A = (np.where(accept[:, None], new, old)
                   for new, old in ((Xn, X), (Vn, V), (An, A)))

        # a row retried after leaving the region has h >= step, so it
        # never counts as failed
        done = accept & (t >= t_end)
        failed = ~done & (h < MIN_STEP * step)
        going = ~(done | failed)
        if out is not None:
            left = out & (ha <= step)
            termination[idx[left]] = "left_region"
            going &= ~left
        if not going.all():
            termination[idx[failed]] = "numerical"
            idx, X, V, A, t, h, last = (
                a[going] for a in (idx, X, V, A, t, h, last))
            if idx.size:
                field_a = field.for_rows(idx)

    n_samples, steps, rejected = _dense_output(times, pos_hist, vel_hist,
                                               attempts)
    paths = []
    for b in range(B):
        field_b = field.field_at(b)
        n_b = n_samples[b]
        path = GeodesicPath(times=times[:n_b], positions=pos_hist[:n_b, b],
                            velocities=vel_hist[:n_b, b],
                            parametrization=parametrization, step=step,
                            termination=str(termination[b]),
                            steps=int(steps[b]), rejected=int(rejected[b]))
        _attach_drift(field_b, path)
        paths.append(path)
    return paths


def _attach_drift(field, path):
    if path.parametrization == "riemannian":
        speeds = riemannian_speeds(field, path.positions, path.velocities)
        path.speeds, path.speeds_field = speeds, field
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

def _path_speeds(path, field):
    """Riemannian speeds at the samples of path: the ones it keeps when
    field is the object that evaluated them, else evaluated now."""
    if path.speeds_field is field:
        return path.speeds
    return riemannian_speeds(field, path.positions, path.velocities)


def _simpson(y, x):
    """scipy.integrate.simpson(y, x=x) for 1-D samples y at strictly
    increasing x, with SciPy's arithmetic step for step, so the two agree bit
    for bit.  SciPy's guards against zero spacings are left out: GeodesicPath
    refuses times that do not increase."""
    n = len(y)
    h = np.diff(x)
    if n == 2:
        return 0.5 * h[0] * (y[1] + y[0])
    m = n - 2 if n % 2 else n - 3
    h0, h1 = h[0:m:2], h[1:m + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    total = np.sum(hsum / 6.0 * (y[0:m:2] * (2.0 - 1.0 / ratio)
                                 + y[1:m + 1:2] * (hsum * (hsum / (h0 * h1)))
                                 + y[2:m + 2:2] * (2.0 - ratio)))
    if n % 2:
        return total
    # 0-d arrays, as in SciPy: b ** 3 then runs numpy's power loop, which
    # need not round like a scalar pow
    a, b = h[-2, ...], h[-1, ...]
    alpha = (2 * (b * b) + 3 * a * b) / (6 * (b + a))
    beta = (b * b + 3.0 * a * b) / (6 * a)
    eta = b ** 3 / (6 * a * (a + b))
    return total + (alpha * y[-1] + beta * y[-2] - eta * y[-3])


def lengths(path, field):
    """(Riemannian length, Euclidean length) of the stored samples by SciPy's
    composite Simpson rule (scipy.integrate.simpson, repeated bit for bit by
    _simpson): a parabola through each pair of intervals, uneven spacing
    allowed; for an even sample count, Cartwright's correction over the last
    interval; for two samples, the trapezoid."""
    if len(path.times) < 2:
        raise GeometryError("need at least two samples")
    r_speeds = _path_speeds(path, field)
    e_speeds = np.linalg.norm(path.velocities, axis=1)
    R = float(_simpson(r_speeds, path.times))
    L = float(_simpson(e_speeds, path.times))
    return R, L


def cumulative_lengths(path, field):
    """Cumulative Riemannian arc length at each sample (trapezoid on sample
    speeds)."""
    speeds = _path_speeds(path, field)
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
                       termination=path.termination)
    _attach_drift(field, out)
    return out


# ---------------------------------------------------------------------------
# Jacobi fields and conjugate points
# ---------------------------------------------------------------------------

@dataclass
class JacobiRecord:
    """Normal Jacobi field along a geodesic.

    det_history[i] is j(times[i]), where J = j n is the Jacobi field along
    the geodesic with J(0) = 0 and DJ(0) = n, n the positively oriented
    unit normal: the Riemannian area sqrt(det g) det(velocity, J) of the
    frame (velocity, J), which is t on a flat field.  conjugate_times are
    the sign changes of det_history after t = 0: a change between two
    samples is refined to CONJUGATE_REFINE on j's cubic spline, and a
    sample where j is exactly 0 between samples of opposite sign gives its
    own time.  j(t0) = j'(t0) = 0 would force j = 0, so every zero of j is
    simple and the sign changes count the conjugate points with their
    multiplicity.
    """
    times: np.ndarray
    det_history: np.ndarray
    conjugate_times: list


def _hermite_midpoints(times, positions, velocities):
    """Positions at interval midpoints from Hermite cubics; the sample axis
    is the first, so (N, 2) and (N, B, 2) histories both work."""
    h = np.diff(times).reshape((-1,) + (1,) * (positions.ndim - 1))
    return (0.5 * (positions[:-1] + positions[1:])
            + 0.125 * h * (velocities[:-1] - velocities[1:]))


def jacobi_integrate(field, path):
    """Integrate the scalar Jacobi equation j'' + K j = 0 along a
    unit-Riemannian-speed geodesic, j(0) = 0, j'(0) = 1."""
    return jacobi_integrate_batch(field, [path])[0]


def _scalar_generators(K):
    """Generators M = [[0, 1], [-K, 0]] of (j, j')' = M (j, j') for the
    Gauss curvatures K (any shape)."""
    M = np.zeros(K.shape + (2, 2))
    M[..., 0, 1] = 1.0
    M[..., 1, 0] = -K
    return M


def _rk4_propagators(Ms, Mm, h):
    """P with Y[i + 1] = P[i] Y[i], the classical RK4 step of Y' = M(t) Y
    as one matrix per step (formula in jacobi_integrate_batch), from M at
    the samples, Ms (N, ...), and at the step midpoints, Mm (N - 1, ...),
    for the step lengths h (N - 1,).  The products are formed for every
    step at once, in place, with two temporaries; Mm is overwritten."""
    M1, M4 = Ms[:-1], Ms[1:]
    hc = h.reshape((-1,) + (1,) * (Ms.ndim - 1))
    K2 = np.matmul(Mm, M1)
    K2 *= 0.5 * hc
    K2 += Mm
    K3 = np.matmul(Mm, K2)
    K3 *= 0.5 * hc
    K3 += Mm
    S = K2                              # becomes M1 + 2 K2 + 2 K3 + K4
    S *= 2.0
    S += M1
    S += K3
    S += K3
    S += M4
    K4_M4 = np.matmul(M4, K3, out=Mm)   # K4 - M4 = h M4 K3
    K4_M4 *= hc
    S += K4_M4
    S *= hc / 6.0
    S += np.eye(S.shape[-1])
    return S


def jacobi_integrate_batch(field, paths):
    """Jacobi records for several paths sharing the same sample times.

    The scalar Jacobi equation is linear, Y' = M(t) Y with Y = (j, j') and
    M = [[0, 1], [-K, 0]], so a classical RK4 step on the sample grid
    (midpoints from the Hermite cubics through the samples) is one matrix
    P_i = I + h/6 (M1 + 2 K2 + 2 K3 + K4), K2 = M2 (I + h/2 M1),
    K3 = M2 (I + h/2 K2), K4 = M4 (I + h K3), with M1, M4 at the samples
    and M2 at the midpoint.  The Gauss curvature K at the samples and at the
    midpoints, and every P_i, are formed in bulk; the only loop left
    applies Y[i + 1] = P_i Y[i] from Y[0] = (0, 1).  Every path must have
    exactly the sample times of the first; each row's record is
    bit-identical to the same path integrated alone.
    """
    if not paths:
        return []
    times = paths[0].times
    for p in paths:
        if p.parametrization != "riemannian":
            raise GeometryError("Jacobi integration needs riemannian parametrization")
        if len(p.times) < 3:
            raise GeometryError("path too coarse for curvature sampling")
        if not np.array_equal(p.times, times):
            raise GeometryError("batched paths must share sample times")
    pos = np.stack([p.positions for p in paths], axis=1)   # (N, B, 2)
    vel = np.stack([p.velocities for p in paths], axis=1)

    Ms = _scalar_generators(_gauss_curvature(field, pos))
    Mm = _scalar_generators(_gauss_curvature(
        field, _hermite_midpoints(times, pos, vel)))
    P = _rk4_propagators(Ms, Mm, np.diff(times))
    Y = np.zeros(pos.shape[:2] + (2, 1))
    Y[0, :, 1] = 1.0
    for i in range(len(times) - 1):
        np.matmul(P[i], Y[i], out=Y[i + 1])
    return [_detect_conjugates(times, Y[:, b, 0, 0]) for b in range(len(paths))]


def _detect_conjugates(times, det):
    """JacobiRecord of a determinant history; see JacobiRecord for which
    times count as conjugate."""
    nonzero = np.flatnonzero(det[1:]) + 1
    sign = np.sign(det[nonzero])
    change = np.flatnonzero(sign[:-1] != sign[1:])
    conjugate = []
    if change.size:
        from scipy.interpolate import CubicSpline
        from scipy.optimize import brentq
        spline = CubicSpline(times, det)
    for a, b in zip(nonzero[change], nonzero[change + 1]):
        if b == a + 1:
            conjugate.append(float(brentq(spline, times[a], times[b],
                                          xtol=CONJUGATE_REFINE)))
        else:
            conjugate.append(float(times[a + 1]))
    return JacobiRecord(times=times, det_history=det,
                        conjugate_times=conjugate)
