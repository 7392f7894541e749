"""Geodesic experiments: frontier times, local regularity, the bump metric
and its destabilization sweep, and the minimizing-direction scan.

Conventions here mirror the geometric picture used throughout the package:
geodesics in euclidean parametrization track r(l) = |gamma(l)| and its
derivative r'(l) = <gamma, gamma'> / |gamma|; a time l is a frontier time
when r'(l) > beta and r(l) is the running maximum.  At such times the angle
between position and velocity is at most arccos(beta), and the set of
frontier times has density at least 1 / (2 D - 1) along minimizing geodesics
with Euclidean-to-straight length ratio at most D.

The bump construction overlays a constant-positive-curvature conformal cap
(stereographic sphere patch of curvature kappa) ahead of a point, blended
into the base metric with a C^2 quintic ramp in the distance from the apex.
The cap center sits one sphere radius ahead of the apex, where the cap's
conformal factor equals one, so the overlay is mild at the glue; every
geodesic entering the cap core crosses enough positive curvature to develop
a conjugate point near the apex antipode, which lies on the cone axis at
twice the sphere radius regardless of the entry angle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng as _rng
from .fields import (Box, ConformalAnalyticField, FieldError, KernelSpec,
                     MetricField, RegionError, SpherePatchField, csv_table,
                     grid_points)
from .geometry import GeodesicPath, geodesic_shoot_batch, jacobi_integrate_batch
from .distance import _unit_directions, is_minimizing


HOLDER_ALPHA = 0.5                 # Holder exponent of local_regularity
HOLDER_SCALES = (2e-3, 1e-3)       # its divided-difference step sizes


class ExperimentError(ValueError):
    pass


# ---------------------------------------------------------------------------
# frontier machinery
# ---------------------------------------------------------------------------

@dataclass
class FrontierRecord:
    l: float                   # euclidean arc-length time
    r: float                   # |gamma(l)|
    r_dot: float               # radial speed
    cone_angle: float          # angle between gamma and gamma'
    is_frontier: bool
    local_norm: float = float("nan")   # filled at interval starts


@dataclass
class FrontierScan:
    records: list
    intervals: list            # (l_start, l_end) right-open runs
    beta: float
    density: np.ndarray        # running frontier density at each sample

    def csv_text(self):
        cells = [(rec.l, rec.r, rec.r_dot, rec.cone_angle, rec.local_norm)
                 for rec in self.records]
        floats = np.array(cells, dtype=float).reshape(-1, 5).T
        flags = np.array([rec.is_frontier for rec in self.records],
                         dtype=np.int64)
        return csv_table(
            [f"# beta: {float(self.beta)!r}",
             "l,r,r_dot,cone_angle,is_frontier,local_norm,density"],
            [*floats[:4], flags, floats[4], self.density])


def frontier_scan(path, field, beta, rho, regularity=True):
    """Frontier records along a euclidean-parametrized path, radii measured
    from the origin.

    A sample is flagged when the radial speed exceeds beta and the radius
    attains its running maximum; flagged runs form right-open intervals.
    density[i] is the running density delta_hat(l) = Leb(frontier times in
    [0, l]) / l at sample i, a flagged sample contributing its forward step.
    local_norm (the regularity estimate over the rho-ball) is evaluated at
    each interval start when ``regularity`` is set.
    """
    if path.parametrization != "euclidean":
        raise ExperimentError("frontier scan needs euclidean parametrization")
    if not 0 < beta < 1:
        raise ExperimentError("beta must lie in (0, 1)")
    pos = path.positions
    r = np.linalg.norm(pos, axis=1)
    start = 1 if r[0] == 0 else 0
    speed = np.linalg.norm(path.velocities, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        r_dot = np.einsum("bi,bi->b", pos, path.velocities) / np.where(r > 0, r, np.inf)
        cosang = np.clip(r_dot / np.where(speed > 0, speed, np.inf), -1.0, 1.0)
    angle = np.arccos(cosang)
    run_max = np.maximum.accumulate(r)
    at_max = r >= run_max - 1e-12 * (1.0 + run_max)
    flags = (r_dot > beta) & at_max
    flags[:start] = False

    records = [FrontierRecord(l=float(path.times[i]), r=float(r[i]),
                              r_dot=float(r_dot[i]), cone_angle=float(angle[i]),
                              is_frontier=bool(flags[i]))
               for i in range(len(path.times))]
    intervals = []
    i = start
    n = len(flags)
    while i < n:
        if flags[i]:
            j = i
            while j + 1 < n and flags[j + 1]:
                j += 1
            l_end = path.times[j + 1] if j + 1 < n else path.times[j] + (
                path.times[j] - path.times[j - 1] if j > 0 else 0.0)
            intervals.append((float(path.times[i]), float(l_end)))
            if regularity:
                try:
                    records[i].local_norm = local_regularity(
                        field, path.positions[i], rho)
                except (RegionError, FieldError):
                    pass
            i = j + 1
        else:
            i += 1
    dt = np.diff(path.times)
    measure = np.concatenate([[0.0], np.cumsum(np.where(flags[:-1], dt, 0.0))])
    with np.errstate(invalid="ignore", divide="ignore"):
        density = np.where(path.times > 0, measure / path.times, 1.0)
    return FrontierScan(records=records, intervals=intervals,
                        beta=float(beta), density=density)


def frontier_density(path, beta):
    """Sample times and running frontier density (FrontierScan.density)."""
    scan = frontier_scan(path, field=None, beta=beta, rho=0.0,
                         regularity=False)
    return path.times, scan.density


def local_regularity(field, center, rho, subgrid=9):
    """Estimate of sup|g| + sup|dg| + sup|d2g| + Holder(d2g, alpha) + 1/lambda
    over the Euclidean rho-ball at ``center``, alpha = HOLDER_ALPHA.

    Suprema are over a subgrid x subgrid mesh of the bounding cube clipped to
    the ball (use 2^k + 1 points for nested refinements).  The Holder
    seminorm is a divided-difference quotient of the analytic second
    derivatives at the HOLDER_SCALES step sizes.
    """
    center = np.asarray(center, dtype=float)
    d = len(center)
    if rho <= 0:
        pts = center[None, :]
    else:
        pts = grid_points([np.linspace(center[i] - rho, center[i] + rho, subgrid)
                           for i in range(d)])
        pts = pts[np.linalg.norm(pts - center, axis=1) <= rho + 1e-12]
    if not np.all(field.contains(pts)):
        raise RegionError("regularity ball exceeds field region")
    val, grad, hess = field.evaluate_batch(pts)
    sup_g = float(np.max(np.linalg.norm(val, ord=2, axis=(1, 2))))
    sup_dg = float(np.max(np.abs(grad)))
    sup_d2g = float(np.max(np.abs(hess)))
    lam_min = float(np.min(np.linalg.eigvalsh(val)))
    if lam_min <= 0:
        raise ExperimentError("metric not positive on the regularity ball")

    holder = 0.0
    for h in HOLDER_SCALES:
        for axis in range(d):
            shift = np.zeros(d)
            shift[axis] = h
            inside = field.contains(pts + shift)
            sub = pts[inside]
            if len(sub) == 0:
                continue
            h2 = field.evaluate_batch(sub + shift)[2]
            h0 = hess[inside]
            quot = np.max(np.abs(h2 - h0)) / h ** HOLDER_ALPHA
            holder = max(holder, float(quot))
    return sup_g + sup_dg + sup_d2g + holder + 1.0 / lam_min


# ---------------------------------------------------------------------------
# bump metric
# ---------------------------------------------------------------------------

class BumpError(ExperimentError):
    pass


@dataclass(frozen=True)
class BumpSpec:
    """Cone-with-cap overlay ahead of a point.

    The cone half-angle phi satisfies cos(phi) = beta / 2 for the radial
    speed floor beta, so it strictly exceeds the entry spread
    theta = arccos(beta).  The spherical cap has curvature ``cap_curvature``
    (radius R = 1 / sqrt(kappa)) and its center sits R ahead of the apex
    along ``orientation``; ``glue_width`` is the C^2 blend distance from the
    apex.
    """
    center: tuple
    cone_half_angle: float
    cap_curvature: float = 1.0
    glue_width: float = 0.2
    orientation: tuple = (1.0, 0.0)
    cone_length: float = None

    def __post_init__(self):
        if not 0 < self.cone_half_angle < np.pi / 2:
            raise BumpError("cone half-angle must be in (0, pi/2)")
        beta = self.entry_beta
        if not 0 < beta < 1:
            raise BumpError("cos(cone angle) must lie in (0, 1/2)")
        if self.cap_curvature <= 0:
            raise BumpError("cap curvature must be > 0")
        R = 1.0 / np.sqrt(self.cap_curvature)
        if self.glue_width < 0.01 * R:
            raise BumpError("glue width too small for a C^2 blend at this curvature")
        if self.glue_width > R:
            raise BumpError("glue width must not exceed the cap radius")
        if self.cone_length is None:
            object.__setattr__(self, "cone_length", 4.0 * R)
        u = np.asarray(self.orientation, dtype=float)
        object.__setattr__(self, "orientation",
                           tuple(u / np.linalg.norm(u)))

    @property
    def entry_beta(self):
        """beta with cos(cone half-angle) = beta / 2."""
        return 2.0 * np.cos(self.cone_half_angle)

    @property
    def entry_half_angle(self):
        """theta = arccos(beta), the admissible entry spread."""
        return float(np.arccos(self.entry_beta))

    @property
    def cap_radius(self):
        return 1.0 / np.sqrt(self.cap_curvature)

    def contains_cone(self, points):
        """Membership of points in the open cone ahead of the apex."""
        pts = np.atleast_2d(points) - np.asarray(self.center)
        u = np.asarray(self.orientation)
        axial = pts @ u
        trans = np.linalg.norm(pts - axial[:, None] * u, axis=1)
        slope = np.tan(self.cone_half_angle)
        return (axial >= 0) & (axial <= self.cone_length) & (trans <= slope * axial + 1e-12)


def _quintic_blend(t):
    """C^2 smoothstep: 0 for t <= 0, 1 for t >= 1, with chi', chi'' = 0 at ends."""
    t = np.clip(t, 0.0, 1.0)
    chi = t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2)
    d1 = 30.0 * t ** 2 * (1.0 - t) ** 2
    d2 = 60.0 * t * (1.0 - 3.0 * t + 2.0 * t ** 2)
    return chi, d1, d2


class BumpField(ConformalAnalyticField):
    """Conformal metric blending a base field into a spherical cap.

    phi(x) = (1 - chi) phi_base + chi phi_cap with chi a quintic ramp in
    |x - apex| / glue_width; beyond the glue the metric is exactly the
    stereographic cap of curvature kappa centered one cap radius ahead.
    """

    def __init__(self, spec, base):
        if not base.conformal:
            raise BumpError("bump overlays need a conformal or flat base field")
        self.spec = spec
        self.base = base
        self.region = base.region
        self.correlation_length = base.correlation_length
        self.apex = np.asarray(spec.center, dtype=float)
        u = np.asarray(spec.orientation, dtype=float)
        self.cap = SpherePatchField(radius=spec.cap_radius,
                                    center=self.apex + spec.cap_radius * u)

    def _ramp(self, X, order):
        """(chi, dchi, d2chi) of the ramp chi(|x - apex| / glue_width),
        dchi None below order 1 and d2chi None below order 2."""
        w = self.spec.glue_width
        y = X - self.apex
        s = np.linalg.norm(y, axis=1)
        t = s / w
        chi, c1, c2 = _quintic_blend(t)
        if order < 1:
            return chi, None, None
        # derivatives of chi(|y| / w); chi', chi'' vanish at the apex
        with np.errstate(invalid="ignore", divide="ignore"):
            shat = np.where(s > 0, s, np.inf)
            dt = y / (w * shat[:, None])
        dchi = c1[:, None] * dt
        zero = (s == 0) | (t >= 1.0)
        dchi[zero] = 0.0
        if order < 2:
            return chi, dchi, None
        with np.errstate(invalid="ignore", divide="ignore"):
            d2t = (np.eye(2)[None]
                   - y[:, :, None] * y[:, None, :] / (shat ** 2)[:, None, None]) \
                / (w * shat[:, None, None])
        d2chi = (c2[:, None, None] * dt[:, :, None] * dt[:, None, :]
                 + c1[:, None, None] * d2t)
        d2chi[zero] = 0.0
        return chi, dchi, d2chi

    def phi_batch(self, X, order=2):
        chi, dchi, d2chi = self._ramp(X, order)
        pb, dpb, d2pb = self.base.conformal_exponent_batch(X, order)
        pc, dpc, d2pc = self.cap.phi_batch(X, order)
        delta = pc - pb
        phi = pb + chi * delta
        if order < 1:
            return phi, None, None
        ddelta = dpc - dpb
        dphi = dpb + dchi * delta[:, None] + chi[:, None] * ddelta
        if order < 2:
            return phi, dphi, None
        d2delta = d2pc - d2pb
        d2phi = (d2pb + d2chi * delta[:, None, None]
                 + dchi[:, :, None] * ddelta[:, None, :]
                 + dchi[:, None, :] * ddelta[:, :, None]
                 + chi[:, None, None] * d2delta)
        return phi, dphi, d2phi

    def phi_laplacian_batch(self, X):
        """Lap phi = Lap pb + Lap chi delta + 2 grad chi . grad delta
        + chi Lap delta, delta = pc - pb.  The cap is evaluated once: its
        curvature is kappa = -e^{-2 pc} Lap pc, so Lap pc = -kappa e^{2 pc}.
        The base gives phi and Lap phi everywhere and its gradient only on
        the glue ring 0 < |x - apex| < glue_width, the one place grad chi is
        not zero."""
        chi, dchi, d2chi = self._ramp(X, 2)
        pb, lpb = self.base.conformal_laplacian_batch(X)
        pc, dpc, _ = self.cap.phi_batch(X, 1)
        lpc = np.exp(2.0 * pc) * -self.spec.cap_curvature
        delta = pc - pb
        lap = (lpb + (d2chi[:, 0, 0] + d2chi[:, 1, 1]) * delta
               + chi * (lpc - lpb))
        ring = np.flatnonzero(dchi.any(axis=1))
        if ring.size:
            _, dpb, _ = self.base.conformal_exponent_batch(X[ring], 1)
            lap[ring] += 2.0 * np.einsum("bi,bi->b", dchi[ring],
                                         dpc[ring] - dpb)
        return pb + chi * delta, lap


def make_bump(spec, base):
    """Deterministic constant-curvature overlay ahead of spec.center."""
    field = BumpField(spec, base)
    corner = (np.asarray(spec.center)
              + np.asarray(spec.orientation) * spec.cone_length)
    if not np.all(field.contains(np.array([spec.center, corner]))):
        raise BumpError("cone does not fit inside the base field region")
    return field


class PerturbedConformalField(ConformalAnalyticField):
    """Conformal field plus a small sampled conformal exponent overlay,
    valid where both are."""

    def __init__(self, base, noise_field, amplitude):
        self.base = base
        self.noise_field = noise_field
        self.amplitude = float(amplitude)
        self.region = (noise_field.region if base.region is None
                       else noise_field.region.intersection(base.region))
        self.correlation_length = base.correlation_length

    def phi_batch(self, X, order=2):
        phi, dphi, d2phi = self.base.conformal_exponent_batch(X, order)
        q, dq, d2q = self.noise_field.conformal_exponent_batch(X, order)
        a = self.amplitude
        return (phi + a * q, None if dphi is None else dphi + a * dq,
                None if d2phi is None else d2phi + a * d2q)

    def phi_laplacian_batch(self, X):
        phi, lap = self.base.conformal_laplacian_batch(X)
        q, lq = self.noise_field.conformal_laplacian_batch(X)
        a = self.amplitude
        return phi + a * q, lap + a * lq


def _perturbation_scale(bump, overlay, probe_points, eps):
    """Amplitude so the overlay moves g and its derivatives by at most eps
    in sup norm over the probe points."""
    if eps == 0:
        return 0.0
    base_v, base_g, base_h = bump.evaluate_batch(probe_points)
    trial = PerturbedConformalField(bump, overlay, 1.0)
    v, g, h = trial.evaluate_batch(probe_points)
    denom = max(np.max(np.abs(v - base_v)), np.max(np.abs(g - base_g)),
                np.max(np.abs(h - base_h)))
    if denom == 0:
        return 0.0
    return float(eps / denom)


@dataclass
class BumpExperimentReport:
    entry_angles: np.ndarray
    perturbations: int
    eps: float
    conjugate_fraction: float        # conjugate point inside the cone
    nonminimizing_fraction: float    # subsequently fails is_minimizing
    conjugate_times: np.ndarray      # (entries, perturbations), nan if none

    def as_dict(self):
        return {"eps": self.eps,
                "entries": len(self.entry_angles),
                "perturbations": self.perturbations,
                "conjugate_fraction": self.conjugate_fraction,
                "nonminimizing_fraction": self.nonminimizing_fraction,
                "conjugate_times": self.conjugate_times.tolist()}


def bump_experiment(base, spec, eps, entries=50, perturbations=1, seed=0,
                    check_minimizing=True):
    """Sweep of entry directions within theta across perturbed bump fields.

    For each perturbation an independent small conformal overlay (scaled so
    metric value and derivatives move by at most eps) is added to the bump
    field; geodesics start at the apex with directions spread over
    [-theta, theta] and their Jacobi determinants are tracked through the
    cap.  Reports the fraction developing a conjugate point inside the cone
    and, if requested, the fraction subsequently failing is_minimizing on a
    passage graph over the cone region.  Geodesics use the step 5e-3 R and
    the graph the spacing 0.12 R, R the cap radius.
    """
    if eps < 0:
        raise BumpError("perturbation size must be >= 0")
    bump = make_bump(spec, base)
    theta = spec.entry_half_angle
    R = spec.cap_radius
    apex = np.asarray(spec.center, dtype=float)
    u = np.asarray(spec.orientation, dtype=float)
    base_angle = np.arctan2(u[1], u[0])
    angles = base_angle + (np.linspace(-theta, theta, entries) if entries > 1
                           else np.zeros(1))
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    step = 5e-3 * R
    # conjugate time from the apex is at most glue + pi R (pre-cap growth of
    # the Jacobi field only shortens the in-cap requirement); stop before the
    # axial geodesic reaches the cap chart's far pole
    horizon = spec.glue_width + np.pi * R + 0.6 * R

    # probe points for perturbation calibration: cone region sample
    ax = np.linspace(0.1 * R, spec.cone_length, 8)
    tr = np.linspace(-R, R, 5)
    probe = apex + ax[:, None, None] * u + tr[None, :, None] * np.array([-u[1], u[0]])
    probe = probe.reshape(-1, 2)

    conj_times = np.full((entries, max(perturbations, 1)), np.nan)
    nonmin = np.zeros((entries, max(perturbations, 1)), dtype=bool)
    for p in range(max(perturbations, 1)):
        if eps > 0:
            noise_region = base.region if base.region is not None else Box.cube(
                float(spec.cone_length + 4.0), 2)
            overlay = MetricField(
                "conformal", seed=_rng.derive_seed(seed, p), region=noise_region,
                kernel=KernelSpec(range=max(R, spec.glue_width), amplitude=1.0))
            amp = _perturbation_scale(bump, overlay, probe, eps)
            field = PerturbedConformalField(bump, overlay, amp)
        else:
            field = bump
        paths = geodesic_shoot_batch(field, apex, dirs, horizon, step=step)
        n_min = min(len(pp.times) for pp in paths)
        clipped = []
        for pp in paths:
            clipped.append(GeodesicPath(
                times=pp.times[:n_min], positions=pp.positions[:n_min],
                velocities=pp.velocities[:n_min], parametrization="riemannian",
                step=pp.step, termination=pp.termination))
        records = jacobi_integrate_batch(field, clipped)
        graph = None
        if check_minimizing:
            from .distance import build_graph
            # cover the cap skirt (cheap detours run at |x - c| ~ 2-3 R)
            greg = Box(tuple(apex - 2.5 * R),
                       tuple(apex + max(spec.cone_length, 3.0 * R) + R))
            graph = build_graph(field, greg, 0.12 * R, stencil=16)
        for e in range(entries):
            rec = records[e]
            spline = clipped[e].position_spline()
            for t_star in rec.conjugate_times:
                x_star = spline(t_star)
                if spec.contains_cone(x_star[None, :])[0]:
                    conj_times[e, p] = t_star
                    break
            if graph is not None and not np.isnan(conj_times[e, p]):
                verdict = is_minimizing(field, clipped[e], graph)
                nonmin[e, p] = not verdict.minimizing
        del graph
    found = ~np.isnan(conj_times)
    return BumpExperimentReport(
        entry_angles=angles - base_angle,
        perturbations=max(perturbations, 1), eps=float(eps),
        conjugate_fraction=float(np.mean(found)),
        nonminimizing_fraction=float(np.mean(nonmin[found])) if np.any(found) else 0.0,
        conjugate_times=conj_times)


# ---------------------------------------------------------------------------
# minimizing-direction scan
# ---------------------------------------------------------------------------

@dataclass
class DirectionScan:
    radii: np.ndarray
    verdicts: np.ndarray            # (k, len(radii)); non-min is absorbing
    fractions: np.ndarray           # |V_hat_n| / k per radius
    final_directions: np.ndarray    # observed gamma(T)/|gamma(T)| per direction
    trapped: np.ndarray             # never exited the largest radius

    def as_dict(self):
        return {"radii": self.radii.tolist(),
                "fractions": self.fractions.tolist(),
                "verdicts": self.verdicts.astype(int).tolist(),
                "trapped": self.trapped.astype(int).tolist(),
                "final_directions": self.final_directions.tolist()}


def direction_scan(field, graph, radii, k=64, base=None, step=None):
    """Minimizing verdicts per (initial direction, radius).

    Each of k directions is shot until it exits the largest radius (or a
    transience-bound time budget); the geodesic segment up to its first exit
    of each ball is judged by is_minimizing.  Once non-minimizing, a
    direction stays non-minimizing at all larger radii (checkpoint sets are
    nested, and the verdicts are additionally forced monotone).
    """
    radii = np.sort(np.asarray(radii, dtype=float))
    base = np.zeros(2) if base is None else np.asarray(base, dtype=float)
    _, dirs = _unit_directions(k)
    # transience bound: a minimizing geodesic still inside the radius-R ball
    # at Riemannian time > R sqrt(Lambda(ball)) cannot be minimizing, so the
    # horizon only needs to slightly exceed the largest such bound
    corr = field.correlation_length
    subgrid = max(17, int(np.ceil(4.0 * radii[-1] / corr)) + 1)
    lam_hat = _ball_lambda_max_at(field, base, radii[-1], subgrid=subgrid)
    bounds = radii * np.sqrt(lam_hat)
    horizon = 1.05 * bounds[-1] + 1.0
    paths = geodesic_shoot_batch(field, base, dirs, horizon, step=step)

    verdicts = np.ones((k, len(radii)), dtype=bool)
    trapped = np.zeros(k, dtype=bool)
    finals = np.zeros((k, 2))
    for i, p in enumerate(paths):
        r_t = np.linalg.norm(p.positions - base, axis=1)
        finals[i] = (p.positions[-1] - base) / max(r_t[-1], 1e-300)
        verdict = is_minimizing(field, p, graph)
        times = verdict.checkpoint_times
        ok = verdict.verdicts
        for j, R in enumerate(radii):
            beyond = np.where(r_t > R)[0]
            if len(beyond) == 0:
                trapped[i] = True
                # inside past the transience bound: not minimizing; an early
                # numerical/region termination before the bound stays benign
                verdicts[i, j] = bool(p.times[-1] < bounds[j])
                continue
            t_exit = p.times[beyond[0]]
            mask = times <= t_exit
            verdicts[i, j] = bool(np.all(ok[mask]))
        # enforce absorbing non-minimizing verdicts across radii
        verdicts[i] = np.logical_and.accumulate(verdicts[i])
    fractions = verdicts.mean(axis=0)
    return DirectionScan(radii=radii, verdicts=verdicts,
                         fractions=fractions, final_directions=finals,
                         trapped=trapped)


def _ball_lambda_max_at(field, center, radius, subgrid=17):
    pts = grid_points([np.linspace(center[i] - radius, center[i] + radius, subgrid)
                       for i in range(field.dim)])
    pts = pts[np.linalg.norm(pts - center, axis=1) <= radius]
    pts = pts[field.contains(pts)]
    if len(pts) == 0:
        raise ExperimentError("no valid points in the scan ball")
    g = field.values_batch(pts)
    return float(np.max(np.linalg.eigvalsh(g)))
