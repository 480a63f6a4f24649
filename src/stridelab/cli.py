"""Command-line front end for the walking workbench.

Subcommands map one-to-one onto the library's top-level operations:

  simulate          run a scenario config, write trace/per-step/event CSVs
  poincare          closed-loop return-map eigenvalues over an alpha grid
  predict-fidelity  flatness of predicted momentum vs velocity on a rollout
  error-decomp      per-step momentum-error decomposition of a rollout
  bode              error-transfer magnitudes over a frequency grid
  kalman-demo       scalar momentum filter on a noisy walking trajectory
  compare-lip-alip  twin-rollout foot-placement comparison

Every subcommand accepts `--out DIR` (write CSV artifacts there; metrics are
always printed to stdout); `simulate` and `kalman-demo` also take `--seed N`
(overrides the config/demo seed).  A flag must be spelled in full: no
abbreviation is accepted.  Exit codes: 0 success, 2 validation failure (bad
flags, malformed config), 3 numerical failure (singular matrix, infeasible
impact, gait breakdown or overflow, non-convergent fixed point).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import (
    alip_closed_loop_poincare,
    error_terms,
    error_transfer_magnitude,
    find_fixed_point,
    numeric_poincare_jacobian,
    prediction_fidelity,
)
from .biped import PlanarBiped
from .control import GaitCommand, VirtualConstraintSpec
from .errors import NumericalError, ValidationError
from .estimate import kalman_demo_columns, riccati_steady_state
from .pendulum import PendulumParams
from .simlab import (
    MAX_RK4_STEPS,
    IntegratorConfig,
    ScenarioConfig,
    lip_vs_alip_comparison,
    make_five_link_return_map,
    run_scenario,
    _max_duration,
    write_csv,
)

# Defaults shared by the analysis subcommands: the gait every metric here was
# calibrated on (0.30 s steps at 0.6 m CoM height, 0.07 m clearance,
# alpha = 0.4 momentum contraction).
_T = 0.30
_H = 0.6
_Z_CL = 0.07
_ALPHA = 0.4
# Caps on the flags that set an amount of work, so that none asks for unbounded work.
MAX_BODE_POINTS = 100_000
MAX_ALPHA_POINTS = 1_000
MAX_KALMAN_SAMPLES = 1_000_000
# Flag bounds: finite and > 0, and a step count's cap of MAX_RK4_STEPS at --T and --step-size.
_POSITIVE = (math.ulp(0.0), sys.float_info.max)
_STEP_CAP = f"MAX_RK4_STEPS = {MAX_RK4_STEPS}"


def _check_flags(args) -> None:
    """Test each flag of the subcommand against the bound it was added with,
    naming the subcommand, the flag and the value, before any work runs."""
    for flag, dest, lo, hi in args.bounds:
        value, where = getattr(args, dest), ""
        if hi is _STEP_CAP:
            hi = math.inf
            plant = getattr(args, "plant", "FIVE_LINK")
            if not (args.command == "poincare" and plant == "ALIP"):  # its map is closed-form
                IntegratorConfig(step_size=args.step_size)  # a positive step first
                hi = math.floor(_max_duration(plant, args.T, args.step_size))
                where = f" at --T {args.T:g} and --step-size {args.step_size:g}, within {_STEP_CAP}"
        if value is not None and not lo <= value <= hi:
            raise ValidationError(f"{args.command}: {flag} {value} must be in [{lo}, {hi}]{where}")


def _scenario(args, plant: str = "FIVE_LINK", **extras) -> ScenarioConfig:
    """The rollout the predict-fidelity, error-decomp and compare-lip-alip
    subcommands run: the gait flags, --steps, --step-size and
    --initial-velocity, plus each command's own config fields."""
    return ScenarioConfig(
        plant=plant,
        gait=GaitCommand(L_des=args.l_des, T=args.T, alpha=args.alpha),
        constraints=VirtualConstraintSpec(H=args.H, z_cl=args.z_cl),
        duration=args.steps,
        integrator=IntegratorConfig(step_size=args.step_size),
        initial_velocity=args.initial_velocity,
        **extras,
    )


def _pendulum(args) -> PendulumParams:
    """Point-mass model of the default five-link biped at height --H."""
    return PendulumParams(m=PlanarBiped.default().m_total, H=args.H)


# ---------------------------------------------------------------------------
# subcommand handlers: each prints its metrics and returns {csv name: columns}
# ---------------------------------------------------------------------------


def _cmd_simulate(args) -> dict:
    cfg = ScenarioConfig.from_json(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    trace = run_scenario(cfg, out_dir=args.out)
    n_samples = len(trace.samples["t"])
    print(f"plant={cfg.plant} steps={len(trace.per_step)} samples={n_samples}")
    for rec in trace.per_step[-3:]:
        print(
            f"step {rec.step}: t=[{rec.t_start:.4f}, {rec.t_end:.4f}] "
            f"placement={rec.placement:+.6f} L_end={rec.L_end_minus:+.6f} "
            f"mean_vx={rec.mean_vx:+.6f}"
        )
    if args.out:
        print(f"artifacts written to {args.out}")
    return {}


def _parse_alpha_grid(spec: str) -> list[float]:
    """Accept '0,0.1,0.2' or 'start:stop:count' (inclusive linspace)."""
    try:
        if ":" in spec:
            lo, hi, n = spec.split(":")
            if int(n) > MAX_ALPHA_POINTS:
                raise ValidationError(
                    f"poincare: --alpha-grid count must be at most {MAX_ALPHA_POINTS} (got {n})"
                )
            values = np.linspace(float(lo), float(hi), int(n)).tolist()
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"poincare: bad --alpha-grid {spec!r}: {exc}") from None
    if not values:
        raise ValidationError("poincare: empty --alpha-grid")
    for a in values:
        if not 0.0 <= a < 1.0:
            raise ValidationError(f"poincare: alpha must be in [0, 1) (got {a})")
    return values


def _cmd_poincare(args) -> dict:
    alphas = _parse_alpha_grid(args.alpha_grid)
    params = _pendulum(args)
    dominant = []
    if args.plant == "ALIP":
        results = []
        for a in alphas:
            try:
                res = alip_closed_loop_poincare(
                    params, args.T, a, args.l_des, steps_per_return=args.steps_per_return
                )
            except NumericalError as exc:
                raise NumericalError(f"{exc}: --T, --H or --l-des out of range") from None
            lam = res.eigenvalues
            dom = float(np.abs(lam[0]))
            print(
                f"alpha={a:.3f} dominant={dom:.12g} "
                f"eigs=({lam[0].real:.12g}, {lam[1].real:.12g}) "
                f"x*={res.fixed_point[0]:.6g} L*={res.fixed_point[1]:.6g}"
            )
            dominant.append(dom)
            results.append(res)
        return {"poincare.csv": {
            "alpha": alphas,
            "dominant": dominant,
            "lambda1": [r.eigenvalues[0].real for r in results],
            "lambda2": [r.eigenvalues[1].real for r in results],
            "x_star": [r.fixed_point[0] for r in results],
            "L_star": [r.fixed_point[1] for r in results],
        }}
    # FIVE_LINK: warm up a rollout onto the orbit, polish the fixed point,
    # then take symmetric differences of the two-step return map.
    if args.steps_per_return != 2:
        raise ValidationError(f"poincare: --steps-per-return {args.steps_per_return} applies "
                              "to --plant ALIP only (the five-link return map takes 2 steps)")
    model = PlanarBiped.default()
    integ = IntegratorConfig(step_size=args.step_size)
    for a in alphas:
        gait = GaitCommand(L_des=args.l_des, T=args.T, alpha=a)
        constraints = VirtualConstraintSpec(H=args.H, z_cl=args.z_cl)
        warm_cfg = ScenarioConfig(
            plant="FIVE_LINK",
            gait=gait,
            constraints=constraints,
            duration=args.warmup,
            integrator=integ,
        )
        warm = run_scenario(warm_cfg)
        x0 = np.concatenate(
            [warm.events[-1].state_plus.q, warm.events[-1].state_plus.dq]
        )
        # x* lies near x0: a --delta that x0 does not resolve fails before the search.
        analysis._check_delta_resolves("poincare", "x0", x0, args.delta)
        ret = make_five_link_return_map(
            model, gait, constraints, integ, steps_per_return=2
        )
        fp_calls = 0

        def counted(x):
            nonlocal fp_calls
            fp_calls += 1
            return ret(x)

        x_star = find_fixed_point(counted, x0, tol=args.fp_tol, damping=0.85)
        res = numeric_poincare_jacobian(
            ret, x_star, args.delta, steps_per_return=2, residual_tol=10 * args.fp_tol
        )
        dom = float(np.abs(res.eigenvalues[0]))
        print(
            f"alpha={a:.3f} dominant={dom:.6f} (target alpha^2 = {a * a:.6f}) "
            f"fp_calls={fp_calls}"
        )
        dominant.append(dom)
    return {"poincare.csv": {
        "alpha": alphas, "dominant": dominant, "alpha_squared": [a * a for a in alphas]
    }}


def _cmd_fidelity(args) -> dict:
    cfg = _scenario(args, z_amplitude=args.z_amplitude)
    trace = run_scenario(cfg)
    params = _pendulum(args)
    f_L, f_v = prediction_fidelity(trace, params, args.T)
    print(f"flatness_L={f_L:.6f} flatness_v={f_v:.6f} ratio={f_L / f_v:.4f}")
    segments = list(analysis._fidelity_segments(trace, params, args.T))
    t, pred_L, pred_v = (np.concatenate(parts) for parts in zip(*segments))
    step = np.concatenate([np.full(len(tt), k) for k, (tt, _, _) in enumerate(segments)])
    return {"fidelity.csv": {
        "t": t, "step": step, "predicted_L_over_mH": pred_L, "predicted_v": pred_v
    }}


def _cmd_error_decomp(args) -> dict:
    cfg = _scenario(args, ankle_amplitude=args.ankle_amplitude)
    trace = run_scenario(cfg)
    params = _pendulum(args)
    t = trace.samples["t"]
    L_c = trace.samples["L_c"]
    dL_c = trace.samples["dL_c"]
    terms, residuals = [], []
    for (i0, i1), rec in zip(analysis._step_slices(trace, args.T), trace.per_step):
        seg_t = t[i0:i1]
        d = error_terms(
            (seg_t, L_c[i0:i1]), (seg_t, dL_c[i0:i1]), params, seg_t[0], seg_t[-1]
        )
        scale = max(abs(d.e1), abs(d.e2), abs(d.e3))
        rel = abs(d.e1 - (d.e2 + d.e3)) / scale if scale > 0 else 0.0
        print(
            f"step {rec.step}: e1={d.e1:+.6f} e2={d.e2:+.6f} e3={d.e3:+.6f} "
            f"identity_residual={rel:.2e}"
        )
        terms.append(d)
        residuals.append(rel)
    print(f"worst |e1-(e2+e3)|/max_magnitude = {max([0.0, *residuals]):.3e}")
    return {"error_decomp.csv": {
        "step": [rec.step for rec in trace.per_step],
        **{e: [getattr(d, e) for d in terms] for e in ("e1", "e2", "e3")},
        "identity_residual": residuals,
    }}


def _cmd_bode(args) -> dict:
    params = _pendulum(args)
    ell = params.ell
    lo, hi = ell * args.omega_min, ell * args.omega_max
    if not (0 < lo < math.inf and 0 < hi < math.inf):
        raise ValidationError(
            f"bode: ell * --omega-min and ell * --omega-max must be positive and finite "
            f"(got {lo:g}, {hi:g}; ell = {ell:g} from --H)"
        )
    omega = np.logspace(np.log10(lo), np.log10(hi), args.points)
    marks = {"ell/100": ell / 100.0, "ell": ell, "100 ell": 100.0 * ell}
    # (omega * ell)^2 may overflow: checked below instead of warned about
    with np.errstate(over="ignore", invalid="ignore"):
        g_alip = error_transfer_magnitude("ALIP", omega, params)
        g_lip = error_transfer_magnitude("LIP", omega, params)
        at_marks = [
            (label, *(error_transfer_magnitude(kind, w, params) for kind in ("ALIP", "LIP")))
            for label, w in marks.items()
        ]
    if not all(np.all(np.isfinite(g)) for g in (g_alip, g_lip, [m[1:] for m in at_marks])):
        raise NumericalError(
            f"bode: transfer magnitude overflows (omega up to {max(lo, hi, 100.0 * ell):g}): "
            f"--omega-min, --omega-max or --H out of range"
        )
    for label, a, l in at_marks:
        print(f"omega = {label:>7}: ALIP gain = {a:.6g}  LIP gain = {l:.6g}")
    return {"bode.csv": {"omega": omega, "alip_gain": g_alip, "lip_gain": g_lip}}


def _cmd_kalman(args) -> dict:
    # The demo samples within each walking step; a longer interval would also
    # let the sample times and the ALIP state overflow.
    if not 0.0 < args.dt <= args.T:
        raise ValidationError(f"kalman-demo: --dt must be in (0, --T] (got {args.dt:g})")
    params = _pendulum(args)
    # The deadbeat placement cancels cosh(ell T) L against L_des; once cosh(ell T)
    # reaches 1/eps that cancellation is lost and the demo's state grows until it
    # overflows.
    max_ell_T = math.acosh(1.0 / sys.float_info.epsilon)
    if not params.ell * args.T < max_ell_T:
        raise ValidationError(
            f"kalman-demo: --T must be below {max_ell_T / params.ell:.6g} s at --H {args.H:g} "
            f"(got {args.T:g}): cosh(ell T) must stay below 1/eps"
        )
    cols = kalman_demo_columns(
        params,
        L_des=args.l_des,
        T=args.T,
        sigma=args.sigma,
        n_samples=args.samples,
        seed=args.seed or 0,
        dt=args.dt,
        Q=args.Q,
    )
    err = cols["L_hat"] - cols["L_true"]
    tail = err[len(err) // 2 :]
    var = float(np.mean(tail**2))
    p_star = riccati_steady_state(args.Q, args.sigma**2)
    print(
        f"sigma={args.sigma} measurement variance={args.sigma ** 2:.6g} "
        f"steady error variance={var:.6g} (ratio {var / args.sigma ** 2:.4f})"
    )
    print(f"Riccati steady P = {p_star:.10g}")
    return {"kalman.csv": cols}


def _cmd_compare(args) -> dict:
    res = lip_vs_alip_comparison(_scenario(args, args.plant))
    m_L = abs(res["summary"]["L"]["mean_vx"][-1])
    m_v = abs(res["summary"]["v"]["mean_vx"][-1])
    print(
        f"plant={args.plant} |mean v_c| over final step: "
        f"momentum placement = {m_L:.6f}, velocity placement = {m_v:.6f}"
    )
    print(f"mean placement gap (same-state law disagreement) = {res['mean_gap']:.6g}")
    L, v = res["summary"]["L"], res["summary"]["v"]
    return {"comparison.csv": {
        "step": range(len(res["gap"])),
        "placement_L": L["placements"],
        "placement_v": v["placements"],
        "mean_vx_L": L["mean_vx"],
        "mean_vx_v": v["mean_vx"],
        "gap": res["gap"],
    }}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Flag errors, abbreviated flags included, are one stderr line and exit 2.
    A flag's `bound=(lo, hi)` goes to the namespace's `bounds`, parents' included."""

    def __init__(self, *args, parents=(), **kwargs):
        self.bounds = [b for parent in parents for b in parent.bounds]
        super().__init__(*args, parents=parents, allow_abbrev=False, **kwargs)
        self.set_defaults(bounds=self.bounds)

    def add_argument(self, *names, bound=None, **kwargs):
        action = super().add_argument(*names, **kwargs)
        if bound is not None:
            self.bounds.append((names[0], action.dest, *bound))
        return action

    def parse_known_args(self, args=None, namespace=None):
        self.tokens = sys.argv[1:] if args is None else args
        return super().parse_known_args(args, namespace)

    def error(self, message):
        # argparse checks required flags before it reports unknown ones
        unknown = [t for t in self.tokens if len(t) > 2 and t[:2] == "--"
                   and t.split("=")[0] not in self._option_string_actions]
        if unknown and message.startswith("the following arguments are required"):
            message = f"unrecognized arguments: {' '.join(unknown)}; {message}"
        self.exit(2, f"validation error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stridelab", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--out", metavar="DIR", help="directory for CSV artifacts")

    gaitish = _Parser(add_help=False)
    gaitish.add_argument("--T", type=float, default=_T, help="step duration [s]")
    gaitish.add_argument("--H", type=float, default=_H, help="CoM height [m]")
    gaitish.add_argument("--z-cl", dest="z_cl", type=float, default=_Z_CL,
                         help="swing clearance [m]")
    # poincare walks --alpha-grid instead of --alpha
    rollout = _Parser(add_help=False, parents=[gaitish])
    rollout.add_argument("--alpha", type=float, default=_ALPHA,
                         help="per-step momentum-error contraction")

    seeded = _Parser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=None, bound=(0, math.inf),
                        help="RNG/config seed override")

    def add_step_size(p, default=1e-3):
        # One action per subparser: a default shared through `gaitish` would
        # be changed for every subcommand by one subparser's set_defaults.
        p.add_argument("--step-size", dest="step_size", type=float, default=default,
                       help=f"integrator step [s] (default {default:g})")

    p = sub.add_parser("simulate", parents=[seeded], help="run a scenario config")
    p.add_argument("config", help="path to a scenario JSON file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("poincare", parents=[common, gaitish],
                       help="return-map eigenvalues over an alpha grid")
    p.add_argument("--alpha-grid", required=True,
                   help="comma list '0,0.1,...' or inclusive 'start:stop:count'")
    p.add_argument("--plant", choices=("ALIP", "FIVE_LINK"), default="ALIP")
    p.add_argument("--l-des", dest="l_des", type=float, default=0.0,
                   help="momentum target at step end")
    p.add_argument("--steps-per-return", type=int, choices=(1, 2), default=2,
                   help="ALIP: steps per return map (--plant FIVE_LINK takes only 2)")
    p.add_argument("--warmup", type=int, default=14, bound=(1, _STEP_CAP),
                   help="five-link: steps walked before polishing the fixed point")
    p.add_argument("--fp-tol", dest="fp_tol", type=float, default=1e-9, bound=_POSITIVE,
                   help="five-link: fixed-point residual tolerance")
    p.add_argument("--delta", type=float, default=0.1, bound=(math.ulp(0.0), 1.0),
                   help="five-link: symmetric-difference size, at most 1 rad or rad/s")
    add_step_size(p)
    p.set_defaults(func=_cmd_poincare)

    p = sub.add_parser("predict-fidelity", parents=[common, rollout],
                       help="flatness of predicted momentum vs predicted velocity")
    p.add_argument("--l-des", dest="l_des", type=float, default=44.5)
    p.add_argument("--steps", type=int, default=14, bound=(1, _STEP_CAP))
    p.add_argument("--initial-velocity", type=float, default=2.0)
    p.add_argument("--z-amplitude", dest="z_amplitude", type=float, default=0.0,
                   help="in-step CoM height modulation amplitude [m]")
    add_step_size(p)
    p.set_defaults(func=_cmd_fidelity)

    p = sub.add_parser("error-decomp", parents=[common, rollout],
                       help="per-step momentum-error decomposition e1 = e2 + e3")
    p.add_argument("--l-des", dest="l_des", type=float, default=15.36)
    p.add_argument("--steps", type=int, default=3, bound=(1, _STEP_CAP))
    p.add_argument("--initial-velocity", type=float, default=0.8)
    p.add_argument("--ankle-amplitude", type=float, default=0.0,
                   help="stance ankle torque amplitude [N m]")
    add_step_size(p, 5e-5)
    p.set_defaults(func=_cmd_error_decomp)

    p = sub.add_parser("bode", parents=[common],
                       help="error-transfer magnitudes over a log frequency grid")
    p.add_argument("--H", type=float, default=_H)
    p.add_argument("--omega-min", type=float, default=1e-3,
                   help="lowest frequency, in units of the pendulum rate ell")
    p.add_argument("--omega-max", type=float, default=1e3,
                   help="highest frequency, in units of ell")
    p.add_argument("--points", type=int, default=121, bound=(1, MAX_BODE_POINTS))
    p.set_defaults(func=_cmd_bode)

    p = sub.add_parser("kalman-demo", parents=[seeded],
                       help="scalar momentum filter on a noisy walking trajectory")
    p.add_argument("--H", type=float, default=_H)
    p.add_argument("--T", type=float, default=_T)
    p.add_argument("--l-des", dest="l_des", type=float, default=9.6,
                   help="walking momentum target (0.5 m/s at the defaults)")
    p.add_argument("--sigma", type=float, default=0.5, help="measurement noise std")
    p.add_argument("--samples", type=int, default=10000, bound=(1, MAX_KALMAN_SAMPLES))
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--Q", type=float, default=1e-4, help="process noise variance")
    p.set_defaults(func=_cmd_kalman)

    p = sub.add_parser("compare-lip-alip", parents=[common, rollout],
                       help="twin rollouts: momentum vs velocity foot placement")
    p.add_argument("--plant", choices=("FIVE_LINK", "ALIP", "LIP"), default="FIVE_LINK")
    p.add_argument("--l-des", dest="l_des", type=float, default=0.0)
    p.add_argument("--steps", type=int, default=10, bound=(1, _STEP_CAP))
    p.add_argument("--initial-velocity", type=float, default=0.5)
    add_step_size(p)
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        tables = args.func(args)
        if args.out:
            for name, columns in tables.items():
                path = Path(args.out) / name
                write_csv(path, columns)
                print(f"wrote {path}")
        return 0
    except (ValidationError, FileNotFoundError, IsADirectoryError, NotADirectoryError,
            FileExistsError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    # OverflowError: a math.cosh/sinh/exp of an out-of-range argument.
    except (NumericalError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
