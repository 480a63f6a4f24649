"""Analysis machinery: prediction-error decomposition, frequency response of
the prediction error, Poincare stability maps, and prediction-fidelity
metrics.

The recurring object is the momentum about the CoM, L_c: both reduced models
drop it, and everything here quantifies what that costs.  Working from the
exact centroidal identities,

    dx_c/dt = L/(m H) - L_c/(m H),        dL/dt = m g x_c   (constant height),

the end-of-interval prediction error of the momentum-based model splits into
three pieces (e1 = total in velocity units, e2 = in-flow contamination,
e3 = endpoint difference), with e1 = e2 + e3 an exact integration-by-parts
identity.  In the frequency domain the same bookkeeping says the momentum
model low-passes L_c disturbances while the velocity model high-passes them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FixedPointError, NumericalError, ValidationError
from .pendulum import PendulumParams
from .simlab import _rk4

__all__ = [
    "ErrorDecomp",
    "PoincareResult",
    "error_terms",
    "error_transfer_magnitude",
    "alip_closed_loop_poincare",
    "alip_closed_loop_step_map",
    "find_fixed_point",
    "numeric_poincare_jacobian",
    "prediction_fidelity",
    "varying_height_prediction",
]


@dataclass(frozen=True)
class ErrorDecomp:
    """Prediction-error pieces, all in velocity units [m/s]:

    e1: total end-of-interval CoM-velocity prediction error of the
        momentum-free model, -(1/mH) int cosh(ell (t2 - tau)) dL_c dtau.
    e2: error contributed through the flow, -(1/mH) int ell sinh(ell (t2 -
        tau)) L_c dtau.
    e3: endpoint term, -(1/mH) (L_c(t2) - cosh(ell (t2 - t1)) L_c(t1)).
    Identity: e1 = e2 + e3.
    """

    e1: float
    e2: float
    e3: float


@dataclass(frozen=True)
class PoincareResult:
    """Fixed point, return-map Jacobian, its eigenvalues (sorted by
    descending modulus), and how many steps one return spans."""

    fixed_point: np.ndarray
    jacobian: np.ndarray
    eigenvalues: np.ndarray
    steps_per_return: int


def _as_trace(name: str, trace) -> tuple[np.ndarray, np.ndarray]:
    try:
        t = np.asarray(trace[0], dtype=float)
        v = np.asarray(trace[1], dtype=float)
    except (TypeError, IndexError) as exc:
        raise ValidationError(f"{name}: expected a (times, values) pair") from exc
    if t.ndim != 1 or t.shape != v.shape or t.size < 2:
        raise ValidationError(
            f"{name}: times and values must be equal-length 1-D arrays with >= 2 samples"
        )
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValidationError(f"{name}: non-finite entries")
    if np.any(np.diff(t) <= 0):
        raise ValidationError(f"{name}: times must be strictly increasing")
    return t, v


def error_terms(
    Lc_trace, dLc_trace, params: PendulumParams, t1: float, t2: float
) -> ErrorDecomp:
    """Decompose the momentum-model prediction error over [t1, t2].

    Both traces are (times, values) pairs covering [t1, t2]; integration is
    composite trapezoid on a uniform grid at the trace's own resolution
    (sub-1e-6 identity checks therefore need traces sampled around 1e-4 s).
    """
    tL, vL = _as_trace("Lc_trace", Lc_trace)
    tdL, vdL = _as_trace("dLc_trace", dLc_trace)
    if not (math.isfinite(t1) and math.isfinite(t2)) or t2 <= t1:
        raise ValidationError(f"error_terms: need finite t1 < t2 (got {t1}, {t2})")
    eps = 1e-12 * max(1.0, abs(t1), abs(t2))
    for name, t in (("Lc_trace", tL), ("dLc_trace", tdL)):
        if t1 < t[0] - eps or t2 > t[-1] + eps:
            raise ValidationError(
                f"error_terms: insufficient trace coverage in {name} "
                f"(trace spans [{t[0]}, {t[-1]}], requested [{t1}, {t2}])"
            )
    h = float(np.median(np.diff(tL)))
    n = max(2, int(round((t2 - t1) / h)) + 1)
    grid = np.linspace(t1, t2, n)
    Lc = np.interp(grid, tL, vL)
    dLc = np.interp(grid, tdL, vdL)
    ell = params.ell
    mH = params.m * params.H
    delta = t2 - grid
    e1 = -np.trapezoid(np.cosh(ell * delta) * dLc, grid) / mH
    e2 = -np.trapezoid(ell * np.sinh(ell * delta) * Lc, grid) / mH
    e3 = -(Lc[-1] - math.cosh(ell * (t2 - t1)) * Lc[0]) / mH
    return ErrorDecomp(e1=float(e1), e2=float(e2), e3=float(e3))


def error_transfer_magnitude(model_kind: str, omega, params: PendulumParams):
    """Magnitude of the L_c -> prediction-error transfer at frequency omega.

    Momentum model ("ALIP"):  |G| = ell^2 / (omega^2 + ell^2)   (low-pass)
    Velocity model ("LIP"):   |G| = omega^2 / (omega^2 + ell^2) (high-pass)

    Both come from G(s) = -ell^2/(s^2 - ell^2) resp. -s^2/(s^2 - ell^2) with
    L_c normalized to velocity units; the poles are real (at +/-ell), so the
    magnitude is finite for every real omega -- the two curves cross at
    omega = ell at exactly 1/2.  Scalar or array omega.
    """
    kind = str(model_kind).upper()
    if kind not in ("LIP", "ALIP"):
        raise ValidationError(
            f"error_transfer_magnitude: model_kind must be 'LIP' or 'ALIP' (got {model_kind})"
        )
    w = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(w)):
        raise ValidationError("error_transfer_magnitude: non-finite omega")
    ell2 = params.ell * params.ell
    den = w * w + ell2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(den == 0.0, np.inf, (ell2 if kind == "ALIP" else w * w) / den)
    return float(out) if np.isscalar(omega) or np.ndim(omega) == 0 else out


def _alip_step_matrices(
    params: PendulumParams, T: float, alpha: float, L_des: float
) -> tuple[np.ndarray, np.ndarray]:
    """One-step affine return map x_{k+1} = M x_k + c on the section just
    after foot exchange, state (x_c, L), momentum-contraction placement."""
    if not T > 0:
        raise ValidationError(f"alip_closed_loop_poincare: T must be > 0 (got {T})")
    if not 0.0 <= alpha < 1.0:
        raise ValidationError(
            f"alip_closed_loop_poincare: alpha must be in [0, 1) (got {alpha})"
        )
    if not math.isfinite(L_des):
        raise ValidationError(f"alip_closed_loop_poincare: L_des must be finite (got {L_des})")
    ell = params.ell
    try:
        ch = math.cosh(ell * T)
        b = params.m * params.H * ell * math.sinh(ell * T)
        M = np.array([[alpha - ch, (alpha - ch) * ch / b], [b, ch]])
        c = np.array([(1.0 - alpha) * L_des / b, 0.0])
    except (OverflowError, ZeroDivisionError):
        M = c = np.array([math.nan])
    if not (np.all(np.isfinite(M)) and np.all(np.isfinite(c))):
        raise NumericalError(
            f"alip_closed_loop_poincare: step map not finite (ell T = {ell * T:.6g}, "
            f"L_des = {L_des:g})"
        )
    return M, c


def alip_closed_loop_step_map(
    params: PendulumParams, T: float, alpha: float, L_des: float
) -> Callable[[np.ndarray], np.ndarray]:
    """The closed-loop one-step map as a plain callable (for feeding the
    numeric Jacobian machinery its own exactly-known test case).  It maps one
    state (2,), or each row of a (k, 2) stack."""
    M, c = _alip_step_matrices(params, T, alpha, L_des)

    def step(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ M.T + c

    return step


def alip_closed_loop_poincare(
    params: PendulumParams,
    T: float,
    alpha: float,
    L_des: float,
    steps_per_return: int = 2,
) -> PoincareResult:
    """Exact Poincare analysis of the momentum-placement-controlled ALIP.

    The one-step map has trace alpha and determinant 0, so its eigenvalues
    are exactly {alpha, 0}; the two-step return reports {alpha^2, 0}.  The
    fixed point (x* = (1 - cosh(ell T)) L_des / (m H ell sinh(ell T)),
    L* = L_des) does not depend on alpha.
    """
    if steps_per_return not in (1, 2):
        raise ValidationError(
            f"alip_closed_loop_poincare: steps_per_return must be 1 or 2 "
            f"(got {steps_per_return})"
        )
    M, c = _alip_step_matrices(params, T, alpha, L_des)
    ch, b = float(M[1, 1]), float(M[1, 0])  # cosh(ell T), m H ell sinh(ell T)
    x_star = np.array([(1.0 - ch) * L_des / b, L_des])
    with np.errstate(over="ignore", invalid="ignore"):
        J = M if steps_per_return == 1 else M @ M
    if not (np.all(np.isfinite(J)) and np.all(np.isfinite(x_star))):
        raise NumericalError(
            f"alip_closed_loop_poincare: return map not finite (ell T = {params.ell * T:.6g}, "
            f"L_des = {L_des:g})"
        )
    # Closed-form spectrum, not np.linalg.eigvals: the one-step map has
    # trace alpha and determinant 0, and at alpha = 0 it is defective
    # (nilpotent), where a numeric eigensolver only manages ~sqrt(eps).
    lam = alpha if steps_per_return == 1 else alpha * alpha
    eig = np.array([lam, 0.0], dtype=complex)
    return PoincareResult(
        fixed_point=x_star, jacobian=J, eigenvalues=eig, steps_per_return=steps_per_return
    )


# Anderson history depth: how many past (x, F(x)) differences one update mixes.
_ANDERSON_DEPTH = 5


def find_fixed_point(
    step_map: Callable[[np.ndarray], np.ndarray],
    x0,
    tol: float = 1e-8,
    max_iter: int = 200,
    damping: float = 0.8,
) -> np.ndarray:
    """Fixed point of F by Anderson acceleration (Walker & Ni, SIAM J. Numer.
    Anal. 49(4), 2011), one map call per iteration.

    With g_k = F(x_k) - x_k and the columns dX, dF of the last m <= 5
    differences of the iterates and of their images, gamma minimizes
    ||g_k - (dF - dX) gamma||_2 and

        x_{k+1} = (1 - beta) (x_k - dX gamma) + beta (F(x_k) - dF gamma),

    where beta = damping is the mixing weight.  With an empty history this is
    damped Picard iteration x <- (1 - beta) x + beta F(x).  Whenever the
    residual grows, the history is dropped and the step is a plain damped
    one, so a map whose residual keeps growing runs as Picard iteration.  A
    difference whose residual change is below 1e-8 of its step is not kept:
    along it F is the identity to rounding, and a fit to it would jump by
    the inverse of that rounding (a map x + c with no fixed point would then
    appear to converge once x is large enough to absorb c).

    Converges when ||F(x_k) - x_k||_inf <= tol and returns F(x_k) of that
    iterate; otherwise raises FixedPointError carrying the last residual,
    after max_iter map calls or at once on a non-finite residual.
    """
    if not 0.0 < damping <= 1.0:
        raise ValidationError(f"find_fixed_point: damping must be in (0, 1] (got {damping})")
    if not (math.isfinite(tol) and tol > 0):
        raise ValidationError(f"find_fixed_point: tol must be finite and > 0 (got {tol})")
    if not max_iter >= 1:
        raise ValidationError(f"find_fixed_point: max_iter must be >= 1 (got {max_iter})")
    x = np.asarray(x0, dtype=float).copy()
    dX: list[np.ndarray] = []
    dF: list[np.ndarray] = []
    x_prev = f_prev = None
    prev_residual = math.inf
    for _ in range(max_iter):
        fx = np.asarray(step_map(x), dtype=float)
        residual = float(np.max(np.abs(fx - x)))
        if not math.isfinite(residual):
            raise FixedPointError("find_fixed_point: non-finite residual", residual=residual)
        if residual <= tol:
            return fx
        if residual > prev_residual:
            dX.clear()
            dF.clear()
        elif x_prev is not None:
            dx, df = x - x_prev, fx - f_prev
            if np.linalg.norm(df - dx) > 1e-8 * np.linalg.norm(dx):
                dX.append(dx)
                dF.append(df)
                if len(dX) > _ANDERSON_DEPTH:
                    del dX[0], dF[0]
        x_prev, f_prev, prev_residual = x, fx, residual
        if dX:
            DX, DF = np.column_stack(dX), np.column_stack(dF)
            gamma = np.linalg.lstsq(DF - DX, fx - x, rcond=None)[0]
            x = (1.0 - damping) * (x - DX @ gamma) + damping * (fx - DF @ gamma)
        else:
            x = (1.0 - damping) * x + damping * fx
    raise FixedPointError("find_fixed_point: no convergence", residual=residual)


def _check_delta_resolves(owner: str, name: str, x: np.ndarray, d: float) -> None:
    """Raise ValidationError unless each x_i + d and x_i - d lie 2 d apart,
    to a relative 1e-8: a symmetric difference divides by 2 d, so otherwise
    rounding, not the map, scales its column."""
    unresolved = np.flatnonzero(np.abs((x + d) - (x - d) - 2.0 * d) > 2e-8 * d)
    if unresolved.size:
        i = int(unresolved[0])
        raise ValidationError(
            f"{owner}: delta = {d:g} is below the resolution of "
            f"{name}[{i}] = {float(x[i])!r}: {name}[{i}] +- delta do not lie 2 delta apart"
        )


def numeric_poincare_jacobian(
    step_map: Callable[[np.ndarray], np.ndarray],
    x_star,
    deltas,
    steps_per_return: int = 1,
    residual_tol: float = 1e-6,
):
    """Return-map Jacobian at x_star by symmetric differences.

    Column i is (F(x* + delta e_i) - F(x* - delta e_i)) / (2 delta).  deltas
    may be a scalar (one PoincareResult) or a sequence (list of results, one
    per perturbation size -- the insensitivity of the dominant eigenvalue
    across that list is the practical check that the linearization is
    trustworthy).  ||F(x*) - x*||_inf is checked against residual_tol before
    any column is formed, and a FixedPointError (with the residual) raised
    when x_star is not actually on a periodic orbit.  A delta that some
    x*_i +- delta does not resolve (the two lie other than 2 delta apart, to
    a relative 1e-8) raises ValidationError before the map is called.

    Stack contract: step_map maps a (k, n) stack of states to the (k, n)
    stack of their images, row by row.  x* and every x* +- delta e_i, for all
    deltas, go to the map as one stack of 1 + 2 n len(deltas) rows, so a map
    that integrates its rows together pays for all of them at once.  A map
    that returns any other shape for the stack raises ValidationError.
    """
    x_star = np.asarray(x_star, dtype=float)
    if x_star.ndim != 1:
        raise ValidationError("numeric_poincare_jacobian: x_star must be a 1-D state")
    single = np.ndim(deltas) == 0
    delta_list = [float(deltas)] if single else [float(d) for d in deltas]
    for d in delta_list:
        if not (math.isfinite(d) and d > 0):
            raise ValidationError(
                f"numeric_poincare_jacobian: delta must be finite and > 0 (got {d})"
            )
        _check_delta_resolves("numeric_poincare_jacobian", "x*", x_star, d)
    n = x_star.size
    eye = np.eye(n)
    # Rows: x*, then x* + d e_i for i < n, then x* - d e_i, for each d in turn.
    points = np.vstack([x_star] + [x_star + sign * d * eye for d in delta_list for sign in (1, -1)])
    images = np.asarray(step_map(points), dtype=float)
    if images.shape != points.shape:
        raise ValidationError(
            f"numeric_poincare_jacobian: the map must return one image per row of a "
            f"(k, n) stack of states; it returned shape {images.shape} for a stack "
            f"of shape {points.shape}"
        )
    res = float(np.max(np.abs(images[0] - x_star)))
    if not res <= residual_tol:
        raise FixedPointError(
            "numeric_poincare_jacobian: x_star is not a fixed point", residual=res
        )
    results = []
    for d, (fp, fm) in zip(delta_list, images[1:].reshape(-1, 2, n, n)):
        J = ((fp - fm) / (2.0 * d)).T
        eig = np.linalg.eigvals(J)
        eig = eig[np.argsort(-np.abs(eig))]
        results.append(
            PoincareResult(
                fixed_point=x_star.copy(),
                jacobian=J,
                eigenvalues=eig,
                steps_per_return=steps_per_return,
            )
        )
    return results[0] if single else results


# ---------------------------------------------------------------------------
# prediction fidelity
# ---------------------------------------------------------------------------


def _step_slices(trace, T: float):
    """Yield (i0, i1) index ranges of trace samples per step.

    The left boundary is exclusive: the sample AT a step's start time is the
    previous step's pre-switch state (traces keep strictly increasing
    timestamps across the jump), so each step's samples run from the first
    interior grid point through the switch-time sample.  The very first trace
    sample is genuinely post-initialization and is kept.
    """
    t = trace.samples["t"]
    if getattr(trace, "per_step", None):
        for rec in trace.per_step:
            if rec.t_start <= t[0] + 1e-12:
                i0 = 0
            else:
                i0 = int(np.searchsorted(t, rec.t_start + 1e-12))
            i1 = int(np.searchsorted(t, rec.t_end + 1e-12))
            yield i0, i1
    else:
        if T <= 0:
            raise ValidationError("prediction_fidelity: T must be > 0 for unsegmented traces")
        n_steps = int(math.floor((t[-1] - t[0]) / T + 1e-9))
        for k in range(max(n_steps, 1)):
            i0 = int(np.searchsorted(t, t[0] + k * T - 1e-12))
            i1 = int(np.searchsorted(t, min(t[0] + (k + 1) * T, t[-1]) + 1e-12))
            yield i0, i1


def _fidelity_segments(trace, params: PendulumParams, T: float):
    """Per-step (times, predicted-L in velocity units, predicted-v) arrays.

    Each prediction propagates the sample to its own step's end: (x_c, L)
    with the momentum model, (x_c, v_c) with the velocity model.
    """
    s = trace.samples
    t = np.asarray(s["t"], dtype=float)
    if t.size < 3:
        raise ValidationError("prediction_fidelity: trace too short")
    x_c = np.asarray(s["x_c"], dtype=float)
    L = np.asarray(s["L"], dtype=float)
    v_x = np.asarray(s["vx_c"], dtype=float)
    ell = params.ell
    mH = params.m * params.H
    for i0, i1 in _step_slices(trace, T):
        if i1 - i0 < 3:
            continue
        tt = t[i0:i1]
        delta = tt[-1] - tt
        sh, ch = np.sinh(ell * delta), np.cosh(ell * delta)
        L_hat = mH * ell * sh * x_c[i0:i1] + ch * L[i0:i1]
        v_hat = ell * sh * x_c[i0:i1] + ch * v_x[i0:i1]
        yield tt, L_hat / mH, v_hat


def prediction_fidelity(trace, params: PendulumParams, T: float) -> tuple[float, float]:
    """Flatness of the predicted-at-step-end traces, (momentum, velocity).

    For each in-step sample, propagate (x_c, L) with the momentum model and
    (x_c, v_c) with the velocity model to the step's end; a perfect model
    yields a constant ("flat") predicted trace.  Flatness is the pooled RMS
    deviation of each predicted trace from its own end-of-step value, with
    the momentum branch normalized by m H into velocity units.  Smaller is
    better; the interesting quantity is the ratio.
    """
    dev_L: list[np.ndarray] = []
    dev_v: list[np.ndarray] = []
    for _tt, L_hat, v_hat in _fidelity_segments(trace, params, T):
        dev_L.append(L_hat - L_hat[-1])
        dev_v.append(v_hat - v_hat[-1])
    if not dev_L:
        raise ValidationError("prediction_fidelity: no step with enough samples")
    all_L = np.concatenate(dev_L)
    all_v = np.concatenate(dev_v)
    return float(np.sqrt(np.mean(all_L**2))), float(np.sqrt(np.mean(all_v**2)))


def varying_height_prediction(
    trace, params: PendulumParams, z_profile: Callable[[float], Sequence[float]]
) -> float:
    """Momentum-branch flatness when the commanded CoM height varies in-step.

    z_profile(tau) returns (z, dz/dt[, ...]) at time tau since step start.
    The prediction propagates the time-varying point-mass pair

        dx_c/dt = L/(m z) + (dz/z) x_c,      dL/dt = m g x_c

    to the step end via one backward RK4 pass of the 2x2 fundamental matrix
    per step (so the per-sample predictions cost one integration, not one
    each).  A constant profile (amplitude -> 0) recovers the fixed-height
    momentum flatness of prediction_fidelity.
    """
    s = trace.samples
    t = np.asarray(s["t"], dtype=float)
    x_c = np.asarray(s["x_c"], dtype=float)
    L = np.asarray(s["L"], dtype=float)
    m, g = params.m, params.g
    mH = params.m * params.H

    def A_of(tau: float) -> np.ndarray:
        out = z_profile(tau)
        z, dz = float(out[0]), float(out[1])
        if z <= 0:
            raise ValidationError(f"varying_height_prediction: profile height {z} <= 0")
        return np.array([[dz / z, 1.0 / (m * z)], [m * g, 0.0]])

    dev: list[np.ndarray] = []
    for i0, i1 in _step_slices(trace, T=0.0):  # varying-height traces carry step records
        if i1 - i0 < 3:
            continue
        tt = t[i0:i1]
        t0 = tt[0]
        n = tt.size
        # March Psi_i = Phi(t_end, t_i) backward: dPsi/dt = -Psi A(t).
        Psi = np.empty((n, 2, 2))
        Psi[-1] = np.eye(2)
        for i in range(n - 1, 0, -1):
            h = tt[i] - tt[i - 1]
            tau_hi = tt[i] - t0

            Psi[i - 1] = _rk4(lambda tau, Pm: -Pm @ A_of(tau), tau_hi, Psi[i], -h)
        states = np.stack([x_c[i0:i1], L[i0:i1]], axis=1)
        L_hat = np.einsum("nj,nj->n", Psi[:, 1, :], states)
        dev.append((L_hat - L_hat[-1]) / mH)
    if not dev:
        raise ValidationError("varying_height_prediction: no step with enough samples")
    all_dev = np.concatenate(dev)
    return float(np.sqrt(np.mean(all_dev**2)))
