"""The twelve acceptance gates, one test and one PASS/FAIL line each.

Every gate prints its measured numbers, so ``pytest -v -s`` doubles as
the acceptance report.  The heavy runs here mirror the checked-in
configs under ``configs/``; tolerances are pinned in the assertions.
"""

import hashlib
import json
import math
import pathlib

import numpy as np
from scipy.special import jv

from eulerlab import euler2d as e2
from eulerlab import ipm, models1d, operators as ops, presets
from eulerlab import lagrangian as lag
from eulerlab import selfsim as ss
from eulerlab.cli import EXIT_BLOWUP, main as cli_main
from eulerlab.fields import SpectralField1
from eulerlab.grids import Grid1, Grid2

TWO_PI = 2.0 * np.pi
CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs"


def gate(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"gate {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


def envelope_exponent(ts, series, lo=10.0, hi=80.0, nbin=7):
    """Log-log slope of per-bin peak magnitudes (envelope, not zeros)."""
    mask = (ts >= lo) & (ts <= hi)
    t, s = ts[mask], np.abs(series[mask])
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), nbin + 1))
    tc, pk = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        sel = (t >= a) & (t <= b)
        if np.any(sel):
            tc.append(np.sqrt(a * b))
            pk.append(np.max(s[sel]))
    return np.polyfit(np.log(tc), np.log(pk), 1)[0]


def test_gate_01_spectral_identities():
    g = Grid2(64, 64)
    w = presets.random_bandlimited(g, seed=3, kmax=8, rms=1.0)
    curl_err = float(np.max(np.abs(ops.curl(ops.biot_savart(w)).values - w.values)))

    g1 = Grid1(256)
    v = np.random.default_rng(5).normal(size=256)
    f = SpectralField1.from_values(g1, v - v.mean())
    hh = ops.hilbert_transform(ops.hilbert_transform(f))
    hil_err = float(np.max(np.abs(hh.values + f.values)))

    gate(1, "spectral identities",
         curl_err < 1e-12 and hil_err < 1e-12,
         f"curl(biot_savart) dev {curl_err:.2e}, H^2+id dev {hil_err:.2e}, tol 1e-12")


def test_gate_02_euler_conservation():
    g = Grid2(256, 256)
    w0 = presets.random_bandlimited(g, seed=7, kmax=4, rms=0.2)
    res = e2.run(w0, 10.0, cfl=0.4, diag_every=0.5, casimirs=(4,))

    def drift(get):
        v0 = get(res.diagnostics[0])
        return max(abs(get(r) - v0) for r in res.diagnostics) / abs(v0)

    de = drift(lambda r: r.energy)
    dz = drift(lambda r: r.enstrophy)
    dq = drift(lambda r: r.casimirs["omega^4"])
    gate(2, "euler conservation",
         de <= 1e-6 and dz <= 1e-6 and dq <= 1e-6,
         f"relative drifts over T=10 at 256^2: energy {de:.2e}, "
         f"enstrophy {dz:.2e}, quartic {dq:.2e}, tol 1e-6")


def test_gate_03_steady_state_preservation():
    g = Grid2(256, 256)
    w0 = presets.taylor_green(g)
    res = e2.run(w0, 10.0, cfl=0.4, diag_every=5.0, casimirs=())
    dev = float(np.max(np.abs(res.final.omega.values - w0.values)))
    gate(3, "steady state preservation", dev <= 1e-8,
         f"cellular sup drift over T=10 at 256^2: {dev:.2e}, tol 1e-8")


def test_gate_04_inviscid_damping_rates():
    ts = np.linspace(0.0, 100.0, 201)
    out = e2.couette_linear_evolve([(1, 0.0, 1.0)], ts)
    ratio = out["u2_l2"] / out["u2_l2"][0]
    ratio_err = float(np.max(np.abs(ratio - 1.0 / (1.0 + ts**2))))

    tf = np.linspace(10.0, 100.0, 181)
    multi = e2.couette_linear_evolve(
        [(1, 0.3, 1.0), (2, -0.7, 0.6), (3, 1.1, 0.25), (1, -1.4, 0.4)], tf)
    s1 = np.polyfit(np.log(tf), np.log(multi["u1_l2"]), 1)[0]
    s2 = np.polyfit(np.log(tf), np.log(multi["u2_l2"]), 1)[0]
    gate(4, "inviscid damping rates",
         ratio_err <= 1e-10 and abs(s1 + 1.0) <= 0.1 and abs(s2 + 2.0) <= 0.1,
         f"u2 ratio dev {ratio_err:.2e} (tol 1e-10); fitted exponents "
         f"u1 {s1:+.3f} (target -1+-0.1), u2 {s2:+.3f} (target -2+-0.1)")


def test_gate_05_phase_mixing():
    g = Grid2(16, 512)
    f0 = presets.cos_x_scalar(g)
    phi = presets.bessel_pair_test_function(g)
    sheared = lag.passive_scalar_evolve(presets.shear_sin(g), f0, 80.0,
                                        test_functions=[phi],
                                        cfl=0.4, diag_every=1.0)
    expo = envelope_exponent(sheared.times, sheared.pairings[0])
    bessel_dev = float(np.max(np.abs(
        sheared.pairings[0]
        - 2 * np.pi**2 * (jv(1, sheared.times) + jv(3, sheared.times)))))

    flat = lag.passive_scalar_evolve(presets.uniform_flow(g), f0, 80.0,
                                     test_functions=[phi],
                                     cfl=0.4, diag_every=1.0)
    expo_flat = envelope_exponent(flat.times, flat.pairings[0])
    p = np.abs(flat.pairings[0])
    undamped = np.max(p[flat.times >= 70.0]) > 0.5 * np.max(p[flat.times <= 10.0])
    gate(5, "phase mixing",
         expo <= -0.8 and bessel_dev < 5e-4 and expo_flat > -0.1 and undamped,
         f"shear pairing exponent {expo:+.3f} (tol <= -0.8, closed-form dev "
         f"{bessel_dev:.1e}); constant-period exponent {expo_flat:+.3f}, "
         f"late/early undamped {undamped}")


def test_gate_06_weber_invariant():
    g = Grid2(256, 256)
    w0 = presets.taylor_green_perturbed(g, eps=0.3)
    u0 = e2.EulerState(w0, 0.0).velocity()
    resid = {}
    for m in (128, 192):
        res = e2.run(w0, 2.0, cfl=0.4, diag_every=0.5, casimirs=(),
                     marker_lattice=m)
        resid[m] = e2.weber_residual(res.final, res.marker_snapshots[-1], u0)
    gate(6, "weber invariant",
         resid[128] <= 1e-4 and resid[192] < resid[128],
         f"residual {resid[128]:.2e} at 128^2 markers (tol 1e-4), "
         f"{resid[192]:.2e} at 192^2 (must decrease)")


def test_gate_07_twisting():
    def u_cou(t, pts):
        y = pts[..., 1]
        return np.stack([y, np.zeros_like(y)], axis=-1)

    m, T = 32, 100.0 * np.pi
    p = lag.advect(lag.ParticleSet.lattice(m), u_cou, T / 64, n_steps=64)
    spread = lag.winding(p).spread
    target = T * (TWO_PI * (m - 1) / m) / TWO_PI
    exact_err = abs(spread - target) / target

    g = Grid2(96, 96)
    w0 = presets.shear_plus_band(g, seed=11, kmax=3, rms=0.02)
    res = e2.run(w0, T, cfl=0.4, diag_every=10.0 * np.pi, casimirs=(),
                 marker_lattice=64)
    ts, spreads = lag.twisting_series(res)
    ratios = spreads[1:] / (ts[1:] * 2.0 / TWO_PI)
    gate(7, "twisting",
         exact_err <= 1e-12 and float(np.min(ratios)) >= 0.5
         and float(np.max(ratios)) <= 2.0,
         f"couette spread relerr {exact_err:.1e} at t=100pi (tol 1e-12); "
         f"perturbed-shear spread ratios in "
         f"[{np.min(ratios):.3f}, {np.max(ratios):.3f}] (must sit in [0.5, 2])")


def test_gate_08_clm_oracle_equivalence():
    amp, n = 20.0, 1024
    grid = Grid1(n)
    res = models1d.model_run(presets.clm_cosine(grid, amp), "clm", t_end=0.2,
                             cfl=0.0125, omega_cap=100.0, store_states=True)
    x = grid.x
    w0, h0 = amp * np.cos(x), amp * np.sin(x)
    sup_err = 0.0
    for st, sup in zip(res.states, res.report.omega_max_series):
        if sup > 100.0:
            continue
        exact = 4 * w0 / ((2 - st.t * h0) ** 2 + (st.t * w0) ** 2)
        sup_err = max(sup_err, float(np.max(np.abs(st.omega.values - exact))))

    det = models1d.model_run(presets.clm_cosine(Grid1(8192), 1.0), "clm",
                             t_end=2.5, cfl=0.1, omega_cap=50.0)
    t_star_err = abs(det.report.t_star_estimate - 2.0)

    deep = models1d.model_run(presets.clm_cosine(Grid1(65536), amp), "clm",
                              t_end=0.2, cfl=0.2, omega_cap=1.05e4)
    s, b = deep.report.omega_max_series, deep.report.bkm_series
    at_cap = []
    for cap in (1e2, 1e3, 1e4):
        i = int(np.searchsorted(s, cap))
        f = (math.log(cap) - math.log(s[i - 1])) / (math.log(s[i]) - math.log(s[i - 1]))
        at_cap.append(b[i - 1] + f * (b[i] - b[i - 1]))
    inc1, inc2 = at_cap[1] - at_cap[0], at_cap[2] - at_cap[1]
    gate(8, "clm oracle equivalence",
         sup_err <= 1e-6 and det.report.detected and t_star_err <= 0.02
         and inc1 >= math.log(10.0) and inc2 >= math.log(10.0),
         f"sup gap to closed form {sup_err:.2e} (tol 1e-6); |t*-2| = "
         f"{t_star_err:.2e} (tol 0.02); sup-norm integral per decade "
         f"{inc1:.4f}, {inc2:.4f} (must be >= ln 10 = {math.log(10.0):.4f})")


def test_gate_09_self_similar_recovery():
    problem = ss.ProfileProblem(n=1024, L=20.0)
    X = problem.x
    exact = ss.closed_form_profile(X)
    sol = ss.newton_solve(problem, exact * (1.0 + 0.05 * np.exp(-X**2 / 10.0)),
                          lam0=1.1, tol=1e-10)
    lam_err = abs(sol.lam - 1.0)

    a, col, _ = ss.linearized_operator(exact, 1.0, problem)
    scaling_dir = X * (problem.deriv_matrix @ exact)
    kernel_defect = float(np.max(np.abs(a @ scaling_dir))
                          / np.max(np.abs(scaling_dir)))

    v = X * np.exp(-X**2 / 9.0)
    base = ss.profile_residual(exact, 1.0, problem)
    rems = {}
    for eps in (1e-3, 1e-4):
        pert = ss.profile_residual(exact + eps * v, 1.0, problem)
        rems[eps] = float(np.max(np.abs(pert - base - eps * (a @ v))))
    order_ratio = rems[1e-3] / rems[1e-4]
    gate(9, "self-similar recovery",
         sol.converged and sol.residual < 1e-8 and lam_err < 1e-6
         and kernel_defect < 5e-7 and 50.0 < order_ratio < 200.0,
         f"newton: resid {sol.residual:.2e} (tol 1e-8), |lam-1| {lam_err:.2e} "
         f"(tol 1e-6); scaling-direction kernel defect {kernel_defect:.1e}; "
         f"linearization remainder ratio {order_ratio:.1f} for eps 1e-3/1e-4 "
         f"(second order => ~100)")


def test_gate_10_lemma_certification():
    params = ss.WeightedSpaceParams(N=8, delta=0.1)
    dec = ss.lemma_decomposition_check(lambda t: t * (1.0 - t),
                                       lambda t: 1.0, params)
    rejected = 0
    try:  # transport coefficient must vanish at both endpoints
        ss.lemma_decomposition_check(lambda t: 1.0 + t, lambda t: 1.0, params)
    except ValueError:
        rejected += 1
    try:  # the multiplier must stay positive
        ss.lemma_decomposition_check(lambda t: t * (1.0 - t),
                                     lambda t: -1.0, params)
    except ValueError:
        rejected += 1
    gate(10, "lemma certification",
         dec.certified and dec.c_inner > 0.0 and dec.c_coercive > 0.0
         and rejected == 2,
         f"certified={dec.certified}, c_inner {dec.c_inner:.3f} > 0, coercive "
         f"constant {dec.c_coercive:.4f}, rank {dec.rank}; "
         f"{rejected}/2 bad inputs rejected")


def test_gate_11_ipm_stratification():
    g_rest = Grid2(64, 64)
    rho0 = presets.stratified_rest(g_rest)
    rest = ipm.ipm_run(rho0, 10.0, cfl=0.4, diag_every=1.0)
    rest_dev = float(np.max(np.abs(rest.final.rho.values - rho0.values)))

    g = Grid2(128, 128)
    res = ipm.ipm_run(presets.heavy_over_light(g, eps=1e-2), 10.0, cfl=0.4,
                      diag_every=0.5)
    grads = np.array([r.grad_sup for r in res.diagnostics])
    e_pot = np.array([r.e_pot for r in res.diagnostics])
    monotone = bool(np.all(np.diff(grads) > 0.0))
    ep_trend = float(np.max(np.diff(e_pot)))
    gate(11, "ipm stratification",
         rest_dev <= 1e-10 and monotone and ep_trend <= 0.0
         and not res.under_resolved,
         f"rest-state sup drift {rest_dev:.1e} over T=10 (tol 1e-10); "
         f"heavy-over-light grad growth monotone={monotone} "
         f"(x{grads[-1] / grads[0]:.2f}), max potential-energy step "
         f"{ep_trend:+.1e} (must be <= 0), resolved={not res.under_resolved}")


def test_gate_12_determinism(tmp_path):
    codes, digests = [], []
    for tag in ("a", "b"):
        out = tmp_path / tag
        codes.append(cli_main(["run", "--config",
                               str(CONFIG_DIR / "clm_blowup_time.cfg"),
                               "--output-dir", str(out)]))
        with open(out / "manifest.json") as fh:
            man = json.load(fh)
        digests.append(man["files"])
        raw = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
        assert raw == man["files"]["series.csv"]
        assert man["status"] == "completed: blow-up detected"
    gate(12, "determinism",
         codes == [EXIT_BLOWUP, EXIT_BLOWUP] and digests[0] == digests[1],
         f"repeated blow-up run: exit codes {codes} (4 = completed, blow-up "
         f"detected), CSV sha256 match={digests[0] == digests[1]}")
