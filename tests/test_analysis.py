"""Error decomposition against closed forms and independently integrated
error ODEs; transfer magnitudes against their algebra; the closed-loop
Poincare analysis (analytic and numeric) against hand-computable eigenpairs;
prediction-fidelity flatness on traces whose right answer is forced.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stridelab as sl
from stridelab import (
    FixedPointError,
    GaitCommand,
    IntegratorConfig,
    PendulumParams,
    ScenarioConfig,
    ValidationError,
    VirtualConstraintSpec,
)
from stridelab.analysis import (
    alip_closed_loop_poincare,
    alip_closed_loop_step_map,
    error_terms,
    error_transfer_magnitude,
    find_fixed_point,
    numeric_poincare_jacobian,
    prediction_fidelity,
    varying_height_prediction,
)
from stridelab.simlab import SineHeightProfile, run_scenario

PARAMS = PendulumParams(m=32.0, H=0.6)
MH = PARAMS.m * PARAMS.H


# ---------------------------------------------------------------------------
# error terms
# ---------------------------------------------------------------------------


def sinusoid_trace(A=2.0, w=7.0, phi=0.4, h=1e-3, t_end=0.4):
    t = np.arange(0.0, t_end + h / 2, h)
    return (t, A * np.sin(w * t + phi)), (t, A * w * np.cos(w * t + phi))


def test_error_terms_zero_forcing_is_zero():
    t = np.linspace(0.0, 0.4, 401)
    d = error_terms((t, np.zeros_like(t)), (t, np.zeros_like(t)), PARAMS, 0.05, 0.35)
    assert d.e1 == 0.0 and d.e2 == 0.0 and d.e3 == 0.0


def test_error_terms_constant_forcing_closed_form():
    c = 5.0
    t = np.linspace(0.0, 0.4, 401)
    t1, t2 = 0.05, 0.35
    d = error_terms((t, np.full_like(t, c)), (t, np.zeros_like(t)), PARAMS, t1, t2)
    e2_exact = -(c / MH) * (math.cosh(PARAMS.ell * (t2 - t1)) - 1.0)
    assert d.e1 == 0.0
    assert abs(d.e2 - e2_exact) < 1e-5
    assert abs(d.e3 + e2_exact) < 1e-12  # pointwise formula: no quadrature error
    assert abs(d.e1 - (d.e2 + d.e3)) < 1e-5


def test_error_terms_match_error_ode_integration():
    # Independently integrate the two forced error systems with RK4 at a far
    # finer step; the velocity-model term is the forced system's velocity
    # at t2, the momentum-model term its momentum (scaled to velocity units).
    (tr_L, tr_dL) = sinusoid_trace(h=1e-3)
    t1, t2 = 0.05, 0.35
    d = error_terms(tr_L, tr_dL, PARAMS, t1, t2)

    A, w, phi = 2.0, 7.0, 0.4
    L_c = lambda tau: A * math.sin(w * tau + phi)
    dL_c = lambda tau: A * w * math.cos(w * tau + phi)
    g, H = PARAMS.g, PARAMS.H

    def rk4(f, y0, ta, tb, h):
        y = np.asarray(y0, dtype=float)
        n = int(round((tb - ta) / h))
        tau = ta
        for i in range(n):
            k1 = f(tau, y)
            k2 = f(tau + h / 2, y + h / 2 * k1)
            k3 = f(tau + h / 2, y + h / 2 * k2)
            k4 = f(tau + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            tau = ta + (i + 1) * h
        return y

    # momentum model driven by -L_c in its position row
    x_e, L_e = rk4(
        lambda tau, y: np.array([y[1] / MH - L_c(tau) / MH, PARAMS.m * g * y[0]]),
        [0.0, 0.0], t1, t2, 1e-5,
    )
    assert abs(L_e / MH - d.e2) < 1e-5
    # velocity model driven by -dL_c/dt in its velocity row
    x_e2, v_e = rk4(
        lambda tau, y: np.array([y[1], (g / H) * y[0] - dL_c(tau) / MH]),
        [0.0, 0.0], t1, t2, 1e-5,
    )
    assert abs(v_e - d.e1) < 1e-5


def test_error_terms_identity_on_fine_synthetic_trace():
    (tr_L, tr_dL) = sinusoid_trace(h=1e-4)
    d = error_terms(tr_L, tr_dL, PARAMS, 0.05, 0.35)
    scale = max(abs(d.e1), abs(d.e2), abs(d.e3))
    assert abs(d.e1 - (d.e2 + d.e3)) <= 1e-7 * scale


def test_error_terms_validation():
    t = np.linspace(0.0, 0.4, 401)
    z = np.zeros_like(t)
    with pytest.raises(ValidationError):
        error_terms((t, z), (t, z), PARAMS, 0.1, 0.5)  # t2 beyond the trace
    with pytest.raises(ValidationError):
        error_terms((t, z), (t, z), PARAMS, 0.3, 0.1)  # reversed window
    bad_t = t.copy()
    bad_t[5] = bad_t[4]
    with pytest.raises(ValidationError):
        error_terms((bad_t, z), (t, z), PARAMS, 0.05, 0.35)


# ---------------------------------------------------------------------------
# steady-state transfer magnitudes
# ---------------------------------------------------------------------------


def test_transfer_magnitude_formulas():
    ell = PARAMS.ell
    for w in (0.5, 2.0, 10.0, 123.0):
        a = error_transfer_magnitude("ALIP", w, PARAMS)
        l_ = error_transfer_magnitude("LIP", w, PARAMS)
        assert abs(a - ell * ell / (w * w + ell * ell)) < 1e-15
        assert abs(l_ - w * w / (w * w + ell * ell)) < 1e-15
        assert abs(a + l_ - 1.0) < 1e-15


def test_transfer_magnitude_limits_and_crossover():
    ell = PARAMS.ell
    assert error_transfer_magnitude("ALIP", 0.0, PARAMS) == 1.0
    assert error_transfer_magnitude("LIP", 0.0, PARAMS) == 0.0
    assert error_transfer_magnitude("ALIP", 1e8, PARAMS) < 1e-14
    assert error_transfer_magnitude("LIP", 1e8, PARAMS) > 1.0 - 1e-14
    assert error_transfer_magnitude("ALIP", ell, PARAMS) == pytest.approx(0.5, abs=1e-15)
    assert error_transfer_magnitude("LIP", ell, PARAMS) == pytest.approx(0.5, abs=1e-15)


def test_transfer_magnitude_frequency_split():
    # fast forcing passes to the momentum model attenuated, to the velocity
    # model nearly whole; slow forcing reverses the roles
    ell = PARAMS.ell
    assert error_transfer_magnitude("ALIP", 100.0 * ell, PARAMS) <= 2e-4
    assert error_transfer_magnitude("LIP", 100.0 * ell, PARAMS) >= 0.999
    assert error_transfer_magnitude("LIP", ell / 100.0, PARAMS) <= 2e-4
    assert error_transfer_magnitude("ALIP", ell / 100.0, PARAMS) >= 0.999


def test_transfer_magnitude_array_input():
    w = np.array([0.0, PARAMS.ell, 50.0])
    a = error_transfer_magnitude("ALIP", w, PARAMS)
    assert a.shape == (3,)
    assert a[0] == 1.0 and abs(a[1] - 0.5) < 1e-15


def test_transfer_magnitude_bad_kind():
    with pytest.raises(ValidationError):
        error_transfer_magnitude("IP", 1.0, PARAMS)


# ---------------------------------------------------------------------------
# closed-loop Poincare analysis
# ---------------------------------------------------------------------------


def test_analytic_poincare_eigenvalues_are_alpha_and_zero():
    T, L_des = 0.3, 14.4
    for alpha in np.arange(0.0, 0.95, 0.1):
        res = alip_closed_loop_poincare(PARAMS, T, float(alpha), L_des, steps_per_return=1)
        lam = sorted(np.abs(res.eigenvalues), reverse=True)
        assert abs(lam[0] - alpha) <= 1e-12
        assert lam[1] <= 1e-12


def test_analytic_poincare_two_step_dominant_is_alpha_squared():
    T, L_des = 0.3, 14.4
    for alpha in np.arange(0.0, 0.95, 0.1):
        res = alip_closed_loop_poincare(PARAMS, T, float(alpha), L_des, steps_per_return=2)
        lam = np.max(np.abs(res.eigenvalues))
        assert abs(lam - alpha * alpha) <= 1e-12


def test_analytic_poincare_fixed_point():
    T, L_des = 0.3, 14.4
    ell = PARAMS.ell
    b = MH * ell * math.sinh(ell * T)
    x_star = (1.0 - math.cosh(ell * T)) * L_des / b
    ref = None
    for alpha in (0.0, 0.3, 0.6, 0.9):
        res = alip_closed_loop_poincare(PARAMS, T, alpha, L_des, steps_per_return=1)
        assert abs(res.fixed_point[0] - x_star) <= 1e-12
        assert abs(res.fixed_point[1] - L_des) <= 1e-12
        if ref is None:
            ref = res.fixed_point
        assert np.max(np.abs(res.fixed_point - ref)) <= 1e-12  # alpha-independent
        # and it really is fixed under the step map
        step = alip_closed_loop_step_map(PARAMS, T, alpha, L_des)
        assert np.max(np.abs(step(res.fixed_point) - res.fixed_point)) <= 1e-12


def test_numeric_jacobian_recovers_analytic_eigenvalues():
    T, L_des, alpha = 0.3, 14.4, 0.6
    step = alip_closed_loop_step_map(PARAMS, T, alpha, L_des)
    ana_res = alip_closed_loop_poincare(PARAMS, T, alpha, L_des, steps_per_return=1)
    num = numeric_poincare_jacobian(step, ana_res.fixed_point, 1e-4)
    lam_num = sorted(np.abs(num.eigenvalues), reverse=True)
    assert abs(lam_num[0] - alpha) < 1e-6
    assert lam_num[1] < 1e-6
    assert num.steps_per_return == 1


def test_numeric_jacobian_delta_sequence_returns_list():
    T, L_des, alpha = 0.3, 14.4, 0.5
    step = alip_closed_loop_step_map(PARAMS, T, alpha, L_des)
    x_star = alip_closed_loop_poincare(PARAMS, T, alpha, L_des).fixed_point
    out = numeric_poincare_jacobian(step, x_star, [1e-3, 1e-4, 1e-5])
    assert isinstance(out, list) and len(out) == 3
    doms = [max(np.abs(r.eigenvalues)) for r in out]
    assert max(doms) - min(doms) < 1e-6  # the map is affine: delta-independent


def test_alip_step_map_maps_each_row_of_a_stack():
    step = alip_closed_loop_step_map(PARAMS, 0.3, 0.5, 14.4)
    X = np.array([[0.1, 14.0], [-0.2, 15.5], [0.0, 0.0]])
    images = step(X)
    assert images.shape == X.shape
    for x, image in zip(X, images):
        assert np.max(np.abs(image - step(x))) <= 1e-12 * max(1.0, np.max(np.abs(image)))


def test_numeric_jacobian_makes_one_stacked_call_with_the_fixed_point_first():
    T, L_des, alpha = 0.3, 14.4, 0.5
    step = alip_closed_loop_step_map(PARAMS, T, alpha, L_des)
    x_star = alip_closed_loop_poincare(PARAMS, T, alpha, L_des).fixed_point
    calls = []

    def counted(x):
        calls.append(np.array(x))
        return step(x)

    numeric_poincare_jacobian(counted, x_star, [1e-3, 1e-4])
    assert [x.shape for x in calls] == [(9, 2)]  # x*, then x* +- d e_i for both deltas
    assert np.array_equal(calls[0][0], x_star)


def test_numeric_jacobian_rejects_a_map_that_only_maps_one_state():
    # x -> x / 2 + (1, 0), written on the entries of one state: handed the
    # stack of perturbed states it returns two rows, not one per row.
    def one_state_only(x):
        return np.array([0.5 * x[0] + 1.0, 0.5 * x[1]])

    x_star = np.array([2.0, 0.0])
    assert np.array_equal(one_state_only(x_star), x_star)
    with pytest.raises(ValidationError, match="one image per row"):
        numeric_poincare_jacobian(one_state_only, x_star, 1e-4)


def test_numeric_jacobian_rejects_non_fixed_point():
    step = alip_closed_loop_step_map(PARAMS, 0.3, 0.5, 14.4)
    x = np.array([0.5, -3.0])
    residual = float(np.max(np.abs(step(x) - x)))
    with pytest.raises(FixedPointError) as exc:
        numeric_poincare_jacobian(step, x, 1e-4)
    assert exc.value.residual == residual and f"{residual:.3e}" in str(exc.value)
    # the check is against residual_tol: at the residual itself x passes
    numeric_poincare_jacobian(step, x, 1e-4, residual_tol=residual)


def test_find_fixed_point_on_affine_contraction():
    M = np.array([[0.2, 0.1], [-0.3, 0.4]])
    c = np.array([1.0, -2.0])
    x_star = np.linalg.solve(np.eye(2) - M, c)
    got = find_fixed_point(lambda x: M @ x + c, np.zeros(2), tol=1e-12)
    assert np.max(np.abs(got - x_star)) < 1e-10


def test_find_fixed_point_matches_analytic_on_alip_map():
    alpha, T, L_des = 0.4, 0.3, 14.4
    step = alip_closed_loop_step_map(PARAMS, T, alpha, L_des)
    ref = alip_closed_loop_poincare(PARAMS, T, alpha, L_des).fixed_point
    got = find_fixed_point(step, np.array([0.0, 0.0]), tol=1e-12)
    assert np.max(np.abs(got - ref)) < 1e-10


def test_find_fixed_point_divergent_map_raises():
    with pytest.raises(FixedPointError):
        find_fixed_point(lambda x: 3.0 * x + 1.0, np.array([1.0]), max_iter=50)


def unit_floats(size):
    return st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    n=st.integers(1, 10),
    entries=unit_floats(100),
    norm=st.floats(0.0, 0.95),
    c=unit_floats(10),
    x0=unit_floats(10),
    damping=st.floats(0.3, 1.0),
)
def test_find_fixed_point_solves_contractive_affine_maps(n, entries, norm, c, x0, damping):
    A = np.reshape(entries[: n * n], (n, n))
    sigma = np.linalg.norm(A, 2)
    M = A * (norm / sigma) if sigma > 0 else A  # spectral norm <= 0.95
    c = 10.0 * np.array(c[:n])
    c[0] = math.copysign(max(abs(c[0]), 1.0), c[0])  # ||x*||_2 >= ||c||_2 / 1.95 >= 0.51
    x_star = np.linalg.solve(np.eye(n) - M, c)
    x0 = 10.0 * np.array(x0[:n])
    got = find_fixed_point(lambda x: M @ x + c, x0, tol=1e-12, damping=damping)
    assert np.max(np.abs(got - x_star)) <= 1e-9 * np.max(np.abs(x_star))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 10),
    c=st.lists(st.floats(1e-3, 10.0), min_size=10, max_size=10),
    signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=10, max_size=10),
    x0=unit_floats(10),
    scale=st.sampled_from([1.0, 1e3, 1e6, 1e8]),
    damping=st.floats(0.3, 1.0),
)
def test_find_fixed_point_translation_has_no_fixed_point(n, c, signs, x0, scale, damping):
    # Far from the origin the secant differences are mostly rounding; the
    # solver must not read a fixed point into them.
    c = np.array(c[:n]) * np.array(signs[:n])
    with pytest.raises(FixedPointError):
        find_fixed_point(lambda x: x + c, scale * np.array(x0[:n]), damping=damping)


def test_find_fixed_point_stops_on_nan_after_one_call():
    calls = []

    def nan_map(x):
        calls.append(x)
        return np.full_like(x, math.nan)

    with pytest.raises(FixedPointError) as exc:
        find_fixed_point(nan_map, np.zeros(3))
    assert len(calls) == 1
    assert math.isnan(exc.value.residual)


def test_find_fixed_point_call_count_on_slow_linear_map():
    # Two-step return map at alpha = 0.9: dominant eigenvalue 0.81.  Damped
    # Picard iteration at damping 0.85 contracts by 1 - 0.85 (1 - 0.81) per
    # call and needs about 100 calls to reach 1e-9 from here.
    V = np.random.default_rng(5).standard_normal((10, 10))
    M = V @ np.diag([0.81, 0.3] + [0.0] * 8) @ np.linalg.inv(V)
    c = np.arange(1.0, 11.0)
    calls = []

    def step(x):
        calls.append(x)
        return M @ x + c

    got = find_fixed_point(step, np.zeros(10), tol=1e-9, damping=0.85)
    assert len(calls) < 20
    assert np.max(np.abs(got - np.linalg.solve(np.eye(10) - M, c))) < 1e-7


@pytest.mark.parametrize(
    "kwargs, text",
    [
        ({"tol": -1.0}, "tol"),
        ({"tol": 0.0}, "tol"),
        ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"max_iter": 0}, "max_iter"),
        ({"damping": 0.0}, "damping"),
    ],
)
def test_find_fixed_point_rejects_bad_settings_before_any_call(kwargs, text):
    def never(x):
        raise AssertionError("the map was called")

    with pytest.raises(ValidationError, match=text):
        find_fixed_point(never, np.zeros(2), **kwargs)


def test_numeric_jacobian_rejects_nan_residual():
    with pytest.raises(FixedPointError):
        numeric_poincare_jacobian(lambda x: np.full_like(x, math.nan), np.zeros(2), 1e-4)


@pytest.mark.parametrize("delta", [0.0, -1e-4, math.nan, math.inf, [1e-4, math.nan]])
def test_numeric_jacobian_rejects_bad_delta_before_any_call(delta):
    def never(x):
        raise AssertionError("the map was called")

    with pytest.raises(ValidationError, match="delta"):
        numeric_poincare_jacobian(never, np.zeros(2), delta)


@pytest.mark.parametrize("delta", [1e-300, 1e-15, [1e-4, 1e-15]])
def test_numeric_jacobian_rejects_a_delta_below_the_resolution_of_x_star(delta):
    # At x* = (-0.1005, 14.4), 1e-300 leaves every entry where it was (J = 0)
    # and 1e-15 moves 14.4 by one ulp, 1.8e-15, on each side: neither
    # difference is 2 delta wide, so the columns would be rounding.
    step = alip_closed_loop_step_map(PARAMS, 0.3, 0.5, 14.4)
    x_star = alip_closed_loop_poincare(PARAMS, 0.3, 0.5, 14.4).fixed_point

    def never(x):
        raise AssertionError("the map was called")

    with pytest.raises(ValidationError, match="delta = 1e-(300|15) is below the resolution of x"):
        numeric_poincare_jacobian(never, x_star, delta)
    res = numeric_poincare_jacobian(step, x_star, 1e-4)
    assert abs(np.max(np.abs(res.eigenvalues)) - 0.5) < 1e-6


# ---------------------------------------------------------------------------
# prediction fidelity
# ---------------------------------------------------------------------------


def reduced_trace(plant="ALIP", duration=6, L_des=14.4, alpha=0.4, step=1e-3):
    cfg = ScenarioConfig(
        plant=plant,
        gait=GaitCommand(L_des=L_des, T=0.3, alpha=alpha),
        constraints=VirtualConstraintSpec(H=0.6, z_cl=0.07),
        duration=duration,
        integrator=IntegratorConfig(step_size=step),
    )
    return run_scenario(cfg)


def test_fidelity_exact_on_its_own_plant():
    # on a point-mass momentum-model trace whose velocity column is L/(m H),
    # both predictions propagate the truth: flatness collapses to the
    # integrator floor
    tr = reduced_trace()
    fL, fv = prediction_fidelity(tr, PARAMS, 0.3)
    assert fL <= 1e-9
    assert fv <= 1e-9


def test_fidelity_rejects_too_short_trace():
    class Bare:
        samples = {
            "t": np.array([0.0, 1e-3]),
            "x_c": np.zeros(2),
            "L": np.zeros(2),
            "vx_c": np.zeros(2),
        }
        per_step = None

    with pytest.raises(ValidationError):
        prediction_fidelity(Bare(), PARAMS, 0.3)


@pytest.fixture(scope="module")
def varying_height_five_link_trace():
    cfg = ScenarioConfig(
        plant="FIVE_LINK",
        gait=GaitCommand(L_des=44.5, T=0.3, alpha=0.4),
        constraints=VirtualConstraintSpec(H=0.6, z_cl=0.07),
        duration=14,
        integrator=IntegratorConfig(step_size=1e-3),
        initial_velocity=2.0,
        z_amplitude=0.05,
    )
    return run_scenario(cfg)


def test_varying_height_beats_fixed_height_model(varying_height_five_link_trace):
    # walking with an in-step height oscillation: the height-aware momentum
    # prediction stays flat while the velocity prediction wanders
    tr = varying_height_five_link_trace
    profile = SineHeightProfile(H=0.6, amplitude=0.05, T=0.3)
    fL_var = varying_height_prediction(tr, PARAMS, profile)
    _, fv = prediction_fidelity(tr, PARAMS, 0.3)
    assert fL_var < 0.5 * fv
    assert fL_var < 0.05  # absolute sanity on the frozen protocol (~0.013)


def test_varying_height_zero_amplitude_recovers_fixed_branch(varying_height_five_link_trace):
    tr = varying_height_five_link_trace
    flat_profile = SineHeightProfile(H=0.6, amplitude=0.0, T=0.3)
    fL_flat = varying_height_prediction(tr, PARAMS, flat_profile)
    fL_ref, _ = prediction_fidelity(tr, PARAMS, 0.3)
    assert abs(fL_flat - fL_ref) <= 1e-6 * max(fL_ref, 1e-12)


def test_varying_height_rejects_nonpositive_height():
    tr = reduced_trace(duration=2)
    with pytest.raises(ValidationError):
        varying_height_prediction(tr, PARAMS, lambda tau: (0.0, 0.0, 0.0))
