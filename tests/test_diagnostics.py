import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sslalm import diagnostics
from sslalm.core import NonFiniteError, OracleError, ProblemInstance
from sslalm.diagnostics import (
    MetricsRecord,
    assemble_record,
    estimate_regularity,
    kkt_residual,
    lyapunov_adam,
    lyapunov_momentum,
    u_adam,
    u_momentum,
)
from sslalm.geometry import Ball, Box, WholeSpace
from sslalm.lagrangian import SolverConfig, StepSchedule, _Driver, run
from sslalm.methods import MethodConfig, split_adam_state
from sslalm.problems import make_affine_l1, make_exactness_1d, make_recipe
from helpers import step_sizes


def line_problem():
    """f = |x|, c = x - 1 on the real line."""
    return ProblemInstance(
        dim_primal=1,
        dim_constraint=1,
        objective=lambda x: float(np.abs(x[0])),
        objective_subgradient=lambda x: np.sign(x),
        constraint=lambda x: x - 1.0,
        constraint_jacobian=lambda x: np.array([[1.0]]),
        feasible_set=WholeSpace(1),
    )


def record_at(prob, x, lam=(0.0,), beta=1.0, rho=0.0):
    """The metrics record at ``x``, where the penalty and merit values live."""
    x = np.asarray(x, dtype=float)
    return assemble_record(prob, 0, x, np.asarray(lam, dtype=float), prob.constraint(x),
                           beta, rho, kkt_probe=None)


class TestPenaltyAndMerit:
    def test_penalty_arithmetic(self):
        assert record_at(line_problem(), [0.0], beta=2.0, rho=1.0).g_val == pytest.approx(2.5)

    def test_penalty_collapses_on_feasible_point(self):
        prob = line_problem()
        assert record_at(prob, [1.0], beta=3.0, rho=2.0).g_val == pytest.approx(1.0)

    def test_penalty_reduces_to_objective(self):
        # without the quadratic term and the multiplier, L is the objective
        # and g adds only beta*||c||
        r = record_at(line_problem(), [-0.4], beta=2.0, rho=0.0)
        assert r.L_val == r.f_val == pytest.approx(0.4)
        assert r.g_val == pytest.approx(0.4 + 2.0 * 1.4)

    def test_merits_coincide_at_zero_multiplier(self):
        r = record_at(line_problem(), [0.3], [0.0], beta=2.0, rho=1.5)
        assert r.L_val == pytest.approx(r.H_val)
        assert r.L_val == pytest.approx(0.3 + 0.75 * 0.49)

    def test_merits_coincide_on_feasible_point(self):
        r = record_at(line_problem(), [1.0], [0.7], beta=2.0, rho=1.5)
        assert r.L_val == r.H_val == pytest.approx(1.0)

    def test_merit_identity_everywhere(self):
        prob = line_problem()
        rng = np.random.default_rng(0)
        beta = 2.0
        for _ in range(100):
            x = rng.uniform(-2, 2, 1)
            lam = rng.uniform(-3, 3, 1)
            rho = float(rng.uniform(0, 2))
            c = prob.constraint(x)
            r = record_at(prob, x, lam, beta, rho)
            L = abs(x[0]) + lam @ c + 0.5 * rho * (c @ c)
            assert r.L_val == pytest.approx(L, abs=1e-12)
            expected = L - np.linalg.norm(c) * (lam @ lam) / (2 * beta)
            assert r.H_val == pytest.approx(expected, abs=1e-12)

    def test_dual_maximizer_by_grid_search(self):
        # at fixed infeasible x the concave-in-lambda merit peaks at beta*c/|c|
        prob = line_problem()
        x = [0.2]  # c = -0.8
        beta = 2.0
        lams = np.linspace(-3 * beta, 3 * beta, 120001)
        vals = [record_at(prob, x, [l], beta, rho=1.0).H_val for l in lams]
        best = lams[int(np.argmax(vals))]
        assert best == pytest.approx(-beta, abs=1e-3)


class TestKktResidual:
    def test_matches_gradient_norm_unconstrained(self):
        # quadratic objective on the whole space: residual equals the
        # Lagrangian gradient norm regardless of the probe size
        Q = np.diag([2.0, 0.5])
        prob = ProblemInstance(
            dim_primal=2,
            dim_constraint=1,
            objective=lambda x: 0.5 * float(x @ Q @ x),
            objective_subgradient=lambda x: Q @ x,
            constraint=lambda x: np.array([x[0] + x[1]]),
            constraint_jacobian=lambda x: np.array([[1.0], [1.0]]),
            feasible_set=WholeSpace(2),
        )
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(2)
            lam = rng.standard_normal(1)
            grad = Q @ x + np.array([1.0, 1.0]) * lam[0]
            r = kkt_residual(prob, x, lam, eta_probe=1e-6)
            assert r == pytest.approx(np.linalg.norm(grad), abs=1e-6)

    def test_zero_at_certified_point(self):
        # 1-d affine instance whose fixed selection certifies the optimum
        rec = None
        for seed in range(20):
            cand = make_affine_l1(n=2, p=1, seed=seed)
            if cand.oracle_solution.multipliers is not None:
                rec = cand
                break
        assert rec is not None, "no instance with certified multipliers found"
        sol = rec.oracle_solution
        r = kkt_residual(rec.instance, sol.x, sol.multipliers, eta_probe=1e-4)
        assert r <= 1e-6

    def test_zero_with_arbitrary_multiplier_when_jacobian_annihilates(self):
        # J*lam = 0 and interior stationary point of f
        prob = ProblemInstance(
            dim_primal=1,
            dim_constraint=1,
            objective=lambda x: float(x[0] ** 2),
            objective_subgradient=lambda x: 2.0 * x,
            constraint=lambda x: np.zeros(1),
            constraint_jacobian=lambda x: np.zeros((1, 1)),
            feasible_set=Box(np.array([-1.0]), np.array([1.0])),
        )
        assert kkt_residual(prob, [0.0], [123.0]) == 0.0

    def test_scale_consistency(self):
        # halving the probe changes the residual by at most a factor of two
        rec = make_affine_l1(n=4, p=2, seed=6)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-0.9, 0.9, 4)
            lam = rng.standard_normal(2)
            for eta in [1e-1, 1e-2, 1e-3]:
                r1 = kkt_residual(rec.instance, x, lam, eta)
                r2 = kkt_residual(rec.instance, x, lam, eta / 2)
                assert r1 <= r2 * (1 + 1e-9)
                assert r2 <= 2 * r1 + 1e-12


class TestAuxMomentum:
    def test_unconstrained_value(self):
        assert u_momentum(WholeSpace(1), [0.0], [1.0], alpha=1.0) == pytest.approx(-0.5)

    def test_zero_direction(self):
        assert u_momentum(Box(np.array([-1.0]), np.array([1.0])), [0.3], [0.0], 1.0) == 0.0

    def test_matches_dense_grid(self):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        rng = np.random.default_rng(3)
        grid = np.linspace(-1.0, 1.0, 2000001)
        for _ in range(10):
            x = rng.uniform(-1, 1)
            y = rng.uniform(-2, 2)
            alpha = rng.uniform(0.3, 2.0)
            vals = (grid - x) * y + 0.5 * alpha * (grid - x) ** 2
            expected = vals.min()
            assert u_momentum(fset, [x], [y], alpha) == pytest.approx(expected, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(-1, 1), st.floats(-5, 5), st.floats(0.1, 3.0)
    )
    def test_never_positive_on_feasible_points(self, x, y, alpha):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        assert u_momentum(fset, [x], [y], alpha) <= 1e-15


class TestAuxAdam:
    def test_stationary_zero_state(self):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        value, gx, gy, gv = u_adam(fset, [0.0], [0.0], [0.0], alpha=1.0, eps=1.0)
        assert value == 0.0
        assert np.array_equal(gx, np.zeros(1))
        assert np.array_equal(gy, np.zeros(1))
        assert np.array_equal(gv, np.zeros(1))

    def test_grad_y_matches_prox_displacement_bitwise(self):
        from sslalm.geometry import prox_preconditioned

        fset = Ball(np.zeros(3), 1.0)
        rng = np.random.default_rng(4)
        for _ in range(20):
            x = fset.sample(rng)
            y = rng.uniform(-2, 2, 3)
            v = rng.uniform(0, 2, 3)
            alpha, eps = 0.8, 0.6
            _, _, gy, _ = u_adam(fset, x, y, v, alpha, eps)
            z = prox_preconditioned(fset, x, y, np.sqrt(v + eps) / alpha)
            assert np.array_equal(gy, z - x)

    @pytest.mark.parametrize("set_kind", ["box", "ball"])
    def test_gradients_match_central_differences(self, set_kind):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(2, 5))
            if set_kind == "box":
                fset = Box(-np.ones(n), np.ones(n))
            else:
                fset = Ball(rng.uniform(-0.3, 0.3, n), float(rng.uniform(0.5, 2.0)))
            x = fset.sample(rng)
            y = rng.uniform(-2, 2, n)
            v = rng.uniform(0.0, 2.0, n)
            alpha = float(rng.uniform(0.3, 1.5))
            eps = float(rng.uniform(0.3, 1.0))
            _, gx, gy, gv = u_adam(fset, x, y, v, alpha, eps)
            h = 1e-6
            for which, grad in [("x", gx), ("y", gy), ("v", gv)]:
                fd = np.zeros(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = h
                    args = {"x": (x + e, y, v), "y": (x, y + e, v), "v": (x, y, v + e)}[which]
                    up = u_adam(fset, *args, alpha, eps)[0]
                    args = {"x": (x - e, y, v), "y": (x, y - e, v), "v": (x, y, v - e)}[which]
                    dn = u_adam(fset, *args, alpha, eps)[0]
                    fd[i] = (up - dn) / (2 * h)
                rel = np.linalg.norm(fd - grad) / max(1.0, np.linalg.norm(grad))
                worst = max(worst, rel)
        assert worst <= 1e-5

    def test_directional_derivative_consistency(self):
        # joint directional derivative across (x, y, v) against the gradient
        fset = Box(-np.ones(2), np.ones(2))
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = rng.uniform(-0.8, 0.8, 2)
            y = rng.uniform(-1, 1, 2)
            v = rng.uniform(0.5, 2.0, 2)
            alpha, eps = 1.0, 0.5
            _, gx, gy, gv = u_adam(fset, x, y, v, alpha, eps)
            d = rng.standard_normal(6)
            d /= np.linalg.norm(d)
            h = 1e-6
            up = u_adam(fset, x + h * d[:2], y + h * d[2:4], v + h * d[4:], alpha, eps)[0]
            dn = u_adam(fset, x - h * d[:2], y - h * d[2:4], v - h * d[4:], alpha, eps)[0]
            fd = (up - dn) / (2 * h)
            inner = float(gx @ d[:2] + gy @ d[2:4] + gv @ d[4:])
            assert fd == pytest.approx(inner, abs=1e-5)


class TestLyapunov:
    def test_reduces_to_objective_when_u_zero(self):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        h_x = 0.5**2
        assert lyapunov_momentum(h_x, fset, [0.5], [0.0], tau=2.0, alpha=1.0) == pytest.approx(0.25)
        assert lyapunov_adam(h_x, fset, [0.5], [0.0], [0.0], 2.0, 1.0, 0.5) == pytest.approx(0.25)

    def test_dominates_objective(self):
        fset = Box(np.array([-1.0]), np.array([1.0]))
        h = lambda z: float(np.abs(z[0]))
        rng = np.random.default_rng(7)
        for _ in range(200):
            x = rng.uniform(-1, 1, 1)
            y = rng.uniform(-3, 3, 1)
            v = rng.uniform(0, 2, 1)
            assert lyapunov_momentum(h(x), fset, x, y, 0.7, 1.2) >= h(x) - 1e-12
            assert lyapunov_adam(h(x), fset, x, y, v, 0.7, 1.2, 0.3) >= h(x) - 1e-12


class TestEstimateRegularity:
    def test_identity_constraint_gives_one(self):
        prob = ProblemInstance(
            dim_primal=2,
            dim_constraint=2,
            objective=lambda x: 0.0,
            objective_subgradient=lambda x: np.zeros(2),
            constraint=lambda x: x.copy(),
            constraint_jacobian=lambda x: np.eye(2),
            feasible_set=WholeSpace(2),
        )
        rng = np.random.default_rng(8)
        pts = [rng.uniform(-2, 2, 2) for _ in range(50)]
        assert estimate_regularity(prob, pts) == pytest.approx(1.0)

    def test_orthonormal_rows_on_interior(self):
        rec = make_affine_l1(n=4, p=2, seed=9)
        rng = np.random.default_rng(9)
        pts = [rng.uniform(-0.95, 0.95, 4) for _ in range(1000)]
        assert estimate_regularity(rec.instance, pts) >= 0.99

    def test_matches_exhaustive_grid_on_interior(self):
        rec = make_affine_l1(n=2, p=1, seed=10)
        prob = rec.instance
        A, b = rec.metadata["A"], rec.metadata["b"]
        rng = np.random.default_rng(10)
        pts = [rng.uniform(-0.95, 0.95, 2) for _ in range(1000)]
        est = estimate_regularity(prob, pts)
        axis = np.linspace(-0.95, 0.95, 41)
        best = np.inf
        for u in axis:
            for w in axis:
                x = np.array([u, w])
                c = A @ x - b
                nrm = np.linalg.norm(c)
                if nrm <= 1e-12:
                    continue
                best = min(best, np.linalg.norm(A.T @ c) / nrm)
        assert abs(est - best) <= 0.05 * best

    def test_all_feasible_raises(self):
        rec = make_affine_l1(n=3, p=1, seed=11)
        sol = rec.oracle_solution
        with pytest.raises(ValueError):
            estimate_regularity(rec.instance, [sol.x])


def test_exact_penalty_threshold_demonstration():
    # the penalty minimizer is infeasible below the threshold weight and
    # snaps to the feasible point above it
    rec = make_exactness_1d(slope=2.0)
    prob = rec.instance
    grid = np.linspace(-1.0, 1.0, 40001)
    for beta, expected in [(1.0, 1.0), (1.5, 0.5), (1.9, 0.1), (2.1, 0.0), (2.5, 0.0)]:
        vals = -2.0 * grid + beta * np.abs(grid) + 0.5 * grid**2
        xmin = grid[int(np.argmin(vals))]
        assert xmin == pytest.approx(expected, abs=1e-4)
        g_val = record_at(prob, [xmin], beta=beta, rho=1.0).g_val
        assert g_val == pytest.approx(vals.min(), abs=1e-12)


class TestMetricsRecord:
    def test_penalty_identity_exact(self):
        rec = make_affine_l1(n=3, p=1, seed=12)
        rng = np.random.default_rng(12)
        for _ in range(50):
            x = rng.uniform(-1, 1, 3)
            lam = rng.standard_normal(1)
            w = rng.standard_normal(1)
            r = assemble_record(rec.instance, 0, x, lam, w, beta=2.0, rho=0.7, kkt_probe=1e-3)
            assert r.g_val == r.f_val + 2.0 * r.feas + 0.5 * 0.7 * r.feas * r.feas
            assert r.H_val == pytest.approx(
                r.L_val - r.feas * r.lambda_norm**2 / 4.0, abs=1e-12
            )
            assert r.feas >= 0.0

    def test_json_roundtrip_is_exact(self):
        r = MetricsRecord(
            k=7, f_val=0.1 + 0.2, feas=1.0 / 3.0, g_val=np.pi, L_val=-1.5, H_val=-1.6,
            lambda_norm=2.0**-30, kkt_residual=float("nan"), tracker_err=0.0, lyapunov=None,
        )
        line = r.to_json_line()
        back = MetricsRecord.from_json_line(line)
        assert back.f_val == r.f_val
        assert back.feas == r.feas
        assert back.lambda_norm == r.lambda_norm
        assert back.lyapunov is None
        assert np.isnan(back.kkt_residual)
        assert json.loads(line)["k"] == 7

    def test_nonfinite_values_written_null_and_read_back_nan(self):
        # an aborting record's overflow: strict JSON, every non-finite value
        # null, read back as NaN; a null lyapunov stays unset
        r = MetricsRecord(
            k=3, f_val=1.25, feas=float("inf"), g_val=float("inf"), L_val=float("-inf"),
            H_val=float("nan"), lambda_norm=0.5, kkt_residual=0.125, tracker_err=0.0,
            lyapunov=None,
        )
        line = r.to_json_line()
        table = json.loads(line, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))
        assert [k for k, v in table.items() if v is None] == [
            "feas", "g_val", "L_val", "H_val", "lyapunov"
        ]
        back = MetricsRecord.from_json_line(line)
        assert all(np.isnan(v) for v in (back.feas, back.g_val, back.L_val, back.H_val))
        assert (back.f_val, back.lambda_norm, back.kkt_residual) == (1.25, 0.5, 0.125)
        assert back.lyapunov is None
        # a non-finite lyapunov is written null too, and reads back unset
        r = replace(r, feas=1.0, g_val=2.0, L_val=1.0, H_val=1.0, lyapunov=float("inf"))
        assert MetricsRecord.from_json_line(r.to_json_line()).lyapunov is None


class TestExactPenaltyMargin:
    def test_positive_margin_when_weight_exceeds_threshold(self):
        from sslalm.diagnostics import exact_penalty_margin

        rec = make_exactness_1d(slope=2.0)
        assert exact_penalty_margin(rec.instance, beta=3.0) == pytest.approx(1.0)
        assert exact_penalty_margin(rec.instance, beta=1.5) == pytest.approx(-0.5)

    def test_none_without_constants(self):
        from sslalm.diagnostics import exact_penalty_margin

        assert exact_penalty_margin(line_problem(), beta=2.0) is None


def _record_chain(recipe_name, method, steps=25):
    """(mean problem, config, [(state, record)]) over ``steps`` steps of one driver."""
    if recipe_name == "affine_l1":
        rec = make_recipe("affine_l1", n=6, p=2, seed=3)
    else:
        rec = make_recipe("slack_l1_net", n_train=32, n_test=8, batch_size=8)
    cfg = SolverConfig(
        method=MethodConfig(kind=method, alpha=0.2, tau2=0.1),
        rho=0.5, beta=2.0,
        theta=StepSchedule("constant", 0.5),
        eta=StepSchedule("inv_sqrt_epoch", 0.3),
        seed=5,
    )
    driver = _Driver(rec.instance, cfg)
    obj_gen, con_gen = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    state = driver.initial_state(rec.start, con_gen)
    out = []
    for tokens in driver.draw_tokens(obj_gen, con_gen, steps):
        state, err = driver.step(state, tokens, None, *step_sizes(cfg, state.k))
        assert err is None
        out.append((state, *driver.metrics([state], kkt_probe=1e-3)))
    return driver.mean, cfg, out


class TestRecordPathMatchesPublicFunctions:
    """The records the driver builds equal the public diagnostics bitwise."""

    @pytest.mark.parametrize("recipe_name", ["affine_l1", "slack_l1_net"])
    @pytest.mark.parametrize("method", ["prox_sgdm", "prox_adam"])
    def test_kkt_and_lyapunov_bitwise(self, recipe_name, method):
        mean, cfg, chain = _record_chain(recipe_name, method)
        mc = cfg.method
        for state, rec in chain:
            x, y = state.x, state.y
            kkt = kkt_residual(mean, x, state.lam, 1e-3)
            assert np.float64(rec.kkt_residual).tobytes() == np.float64(kkt).tobytes()
            if method == "prox_sgdm":
                lyap = lyapunov_momentum(rec.g_val, mean.feasible_set, x, y, mc.tau, mc.alpha)
            else:
                m, v = split_adam_state(y)
                lyap = lyapunov_adam(rec.g_val, mean.feasible_set, x, m, v, mc.tau1, mc.alpha,
                                     mc.eps)
            assert np.float64(rec.lyapunov).tobytes() == np.float64(lyap).tobytes()
            assert np.isfinite(rec.kkt_residual) and np.isfinite(rec.lyapunov)

    @pytest.mark.parametrize("probe, stacks", [(1e-3, [1, 5, 1]), (None, [])])
    def test_records_take_the_public_kkt_residual(self, monkeypatch, probe, stacks):
        # 300 steps recorded every 50: the k = 0 record, then one stack per block
        # of NOISE_CHUNK steps, 50-250 and 300
        seen = []
        public = diagnostics.kkt_residual

        def counting(*args, **kwargs):
            seen.append(len(args[1]))
            return public(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "kkt_residual", counting)
        rec = make_recipe("affine_l1", n=6, p=2, seed=3)
        cfg = SolverConfig(method=MethodConfig(kind="prox_sgd"), max_iters=300, seed=1)
        result = run(rec.instance, cfg, rec.start, record_every=50, kkt_probe=probe)
        assert len(result.records) == 7
        assert seen == stacks

    def test_lyapunov_adam_is_u_adam_value(self):
        rng = np.random.default_rng(8)
        fset = Box(np.full(4, -1.0), np.full(4, 1.0))
        for _ in range(20):
            x, y = rng.uniform(-1, 1, 4), rng.standard_normal(4)
            v = rng.uniform(0, 2, 4)
            value = u_adam(fset, x, y, v, 0.3, 1e-8)[0]
            assert lyapunov_adam(1.5, fset, x, y, v, 2.0, 0.3, 1e-8) == 1.5 - value / 2.0


class TestPublicChecks:
    """Each public diagnostic still rejects bad inputs and bad oracle outputs."""

    @staticmethod
    def problem(subgrad=None, jacobian=None):
        return ProblemInstance(
            dim_primal=2,
            dim_constraint=1,
            objective=lambda x: float(x.sum()),
            objective_subgradient=subgrad or (lambda x: np.ones(2)),
            constraint=lambda x: x[:1] - 1.0,
            constraint_jacobian=jacobian or (lambda x: np.array([[1.0], [0.0]])),
            feasible_set=Box(np.full(2, -1.0), np.full(2, 1.0)),
        )

    @pytest.mark.parametrize("name", ["kkt_residual", "u_momentum", "u_adam",
                                      "lyapunov_momentum", "lyapunov_adam", "assemble_record"])
    def test_large_finite_entries_raise_no_warning(self, name):
        # entries near 1e200 are finite, but the finiteness check's v.dot(v) overflows
        prob = self.problem()
        fset = prob.feasible_set
        x, y, v = np.array([1e200, -1e200]), np.array([-2e200, 3e200]), np.full(2, 1e200)
        calls = {
            "kkt_residual": lambda: kkt_residual(prob, x, [1e200]),
            "u_momentum": lambda: u_momentum(fset, x, y, 1.0),
            "u_adam": lambda: u_adam(fset, x, y, v, 1.0, 1e-8),
            "lyapunov_momentum": lambda: lyapunov_momentum(0.0, fset, x, y, 1.0, 1.0),
            "lyapunov_adam": lambda: lyapunov_adam(0.0, fset, x, y, v, 1.0, 1.0, 1e-8),
            "assemble_record": lambda: assemble_record(prob, 0, x, [1e200], [0.0], 1.0, 1.0,
                                                       1e-3),
        }
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            calls[name]()

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((2, 1)), np.array([0.0, np.inf]),
                                     np.array([np.nan, 0.0])])
    def test_bad_x(self, bad):
        prob = self.problem()
        fset = prob.feasible_set
        err = OracleError if bad.shape == (2,) else ValueError
        with pytest.raises(err):
            kkt_residual(prob, bad, np.zeros(1))
        with pytest.raises(err):
            lyapunov_momentum(0.0, fset, bad, np.zeros(2), 1.0, 1.0)
        with pytest.raises(err):
            lyapunov_adam(0.0, fset, bad, np.zeros(2), np.ones(2), 1.0, 1.0, 1e-8)
        with pytest.raises(err):
            assemble_record(prob, 0, bad, np.zeros(1), np.zeros(1), 1.0, 0.0, None)

    @pytest.mark.parametrize("bad", [np.zeros(2), np.array([np.inf])])
    def test_bad_lam(self, bad):
        with pytest.raises(ValueError if bad.size != 1 else OracleError):
            kkt_residual(self.problem(), np.zeros(2), bad)

    @pytest.mark.parametrize("name", ["y", "v"])
    @pytest.mark.parametrize("bad", [np.zeros(3), np.array([1.0, np.nan])])
    def test_bad_moments(self, name, bad):
        fset = self.problem().feasible_set
        args = {"y": np.zeros(2), "v": np.ones(2)}
        args[name] = bad
        err = ValueError if bad.size != 2 else OracleError
        with pytest.raises(err, match=f"^{name} "):
            lyapunov_adam(0.0, fset, np.zeros(2), args["y"], args["v"], 1.0, 1.0, 1e-8)
        with pytest.raises(err, match=f"^{name} "):
            u_adam(fset, np.zeros(2), args["y"], args["v"], 1.0, 1e-8)
        if name == "y":
            with pytest.raises(err, match="^y "):
                lyapunov_momentum(0.0, fset, np.zeros(2), bad, 1.0, 1.0)

    def test_negative_second_moment(self):
        fset = self.problem().feasible_set
        v = np.array([1.0, -1e-300])
        with pytest.raises(ValueError, match="nonnegative"):
            lyapunov_adam(0.0, fset, np.zeros(2), np.zeros(2), v, 1.0, 1.0, 1e-8)
        with pytest.raises(ValueError, match="nonnegative"):
            u_adam(fset, np.zeros(2), np.zeros(2), v, 1.0, 1e-8)

    @pytest.mark.parametrize("alpha", [-1.0, np.inf, -np.inf])
    def test_nonpositive_prox_weights(self, alpha):
        fset = self.problem().feasible_set
        with pytest.raises(ValueError, match="weights must be positive"):
            lyapunov_adam(0.0, fset, np.zeros(2), np.zeros(2), np.ones(2), 1.0, alpha, 1e-8)

    @pytest.mark.parametrize("alpha", [0.0, -0.0, -1.0, np.nan])
    def test_nonpositive_alpha(self, alpha):
        # alpha = 0 used to raise ZeroDivisionError in the ADAM functions and
        # give a silent finite value in u_momentum
        fset = self.problem().feasible_set
        x, y, v = np.zeros(2), np.ones(2), np.ones(2)
        with pytest.raises(ValueError, match="alpha must be positive"):
            u_momentum(Box(np.zeros(1), np.ones(1)), [0.5], [1.0], alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            lyapunov_momentum(0.0, fset, x, y, 1.0, alpha)
        with pytest.raises(ValueError, match="alpha must be positive"):
            u_adam(fset, x, y, v, alpha, 1e-8)
        with pytest.raises(ValueError, match="alpha must be positive"):
            lyapunov_adam(0.0, fset, x, y, v, 1.0, alpha, 1e-8)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan])
    def test_nonpositive_probe_and_eps(self, value):
        prob = self.problem()
        x, y, v = np.zeros(2), np.ones(2), np.ones(2)
        with pytest.raises(ValueError, match="^eta_probe must be positive$"):
            kkt_residual(prob, x, np.zeros(1), eta_probe=value)
        with pytest.raises(ValueError, match="^eta_probe must be positive$"):
            assemble_record(prob, 0, x, np.zeros(1), np.zeros(1), 1.0, 0.0, value)
        with pytest.raises(ValueError, match="^eps must be positive$"):
            u_adam(prob.feasible_set, x, y, v, 1.0, value)

    @pytest.mark.parametrize("probe", [math.inf, np.float64(np.inf)])
    def test_infinite_probe_rejected(self, probe):
        # an infinite probe would read a residual of 0 at every point
        rec = make_affine_l1(n=4, p=2, seed=0)
        prob, x, lam = rec.instance, rec.start, np.zeros(2)
        with pytest.raises(ValueError, match="^eta_probe must be finite$"):
            kkt_residual(prob, x, lam, probe)
        with pytest.raises(ValueError, match="^eta_probe must be finite$"):
            assemble_record(prob, 0, x, lam, np.zeros(2), 1.0, 0.0, probe)
        with pytest.raises(ValueError, match="^eta_probe must be finite$"):
            run(prob, SolverConfig(max_iters=5), x0=x, kkt_probe=probe)

    @pytest.mark.parametrize("subgrad, err", [
        (lambda x: np.array([1.0, np.inf]), "non-finite"),
        (lambda x: np.array([np.nan, 1.0]), "non-finite"),
        (lambda x: np.ones(3), "dimension 3"),
    ])
    def test_bad_subgradient(self, subgrad, err):
        with pytest.raises((ValueError, RuntimeError), match=err):
            kkt_residual(self.problem(subgrad=subgrad), np.zeros(2), np.zeros(1))

    @pytest.mark.parametrize("jacobian, err", [
        (lambda x: np.array([[1.0], [np.inf]]), "non-finite"),
        (lambda x: np.array([[np.nan], [0.0]]), "non-finite"),
        (lambda x: np.array([[1.0, 0.0]]), "shape"),
        (lambda x: np.ones(2), "shape"),
    ])
    def test_bad_jacobian(self, jacobian, err):
        expected = NonFiniteError if err == "non-finite" else OracleError
        with pytest.raises(expected, match=err):
            kkt_residual(self.problem(jacobian=jacobian), np.zeros(2), np.zeros(1))

    def test_nonfinite_objective(self):
        prob = replace(self.problem(), objective=lambda x: float("inf"))
        with pytest.raises(NonFiniteError, match="objective"):
            assemble_record(prob, 0, np.zeros(2), np.zeros(1), np.zeros(1), 1.0, 0.0, None)


def _bits(values):
    """Each value's float64 bytes: the bitwise comparison of scalars and rows."""
    return [np.float64(v).tobytes() if v is not None else None for v in values]


def _stack_chain(set_kind, method, tracker, steps=7):
    """(driver, states) of ``steps`` steps of a sampled affine problem over a box
    or a ball, every state distinct."""
    rec = make_recipe("stochastic_affine", n=5, p=2, noise_scale=0.3, seed=4)
    inst = rec.instance
    if set_kind == "ball":
        ball = Ball(np.full(5, 0.1), 0.8)
        inst = replace(inst, mean=replace(inst.mean, feasible_set=ball))
    cfg = SolverConfig(
        method=MethodConfig(kind=method, alpha=0.3, tau2=0.2), rho=0.5, beta=2.0,
        theta=StepSchedule("constant", 0.5), eta=StepSchedule("inv_sqrt_epoch", 0.4),
        tracker=tracker, seed=6,
    )
    driver = _Driver(inst, cfg)
    obj_gen, con_gen = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(2))
    states = [driver.initial_state(rec.start, con_gen)]
    for tokens in driver.draw_tokens(obj_gen, con_gen, steps - 1):
        state, err = driver.step(states[-1], tokens, None, *step_sizes(cfg, states[-1].k))
        assert err is None
        states.append(state)
    return driver, states


class TestStackedPath:
    """Each diagnostic on a stack of points equals, bit for bit, the same
    diagnostic called on each point of the stack."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    @pytest.mark.parametrize("probe", [1e-3, None])
    @pytest.mark.parametrize("tracker", ["exact", "correction"])
    @pytest.mark.parametrize("method", ["prox_sgd", "prox_sgdm", "prox_adam"])
    @pytest.mark.parametrize("set_kind", ["box", "ball"])
    def test_stack_matches_points_bitwise(self, set_kind, method, tracker, probe, size):
        driver, states = _stack_chain(set_kind, method, tracker)
        states = states[-size:]
        mean, cfg, mc = driver.mean, driver.config, driver.config.method
        fset = mean.feasible_set
        X, Y = np.stack([s.x for s in states]), np.stack([s.y for s in states])
        LAM, W = np.stack([s.lam for s in states]), np.stack([s.w for s in states])
        c = W if tracker == "exact" else None
        ks = [s.k for s in states]

        stacked = assemble_record(mean, ks, X, LAM, W, cfg.beta, cfg.rho, probe, c=c)
        points = [assemble_record(mean, s.k, s.x, s.lam, s.w, cfg.beta, cfg.rho, probe,
                                  c=None if c is None else s.w) for s in states]
        assert isinstance(stacked, list) and all(isinstance(r, MetricsRecord) for r in points)
        assert [_bits(vars(r).values()) for r in stacked] == [_bits(vars(r).values())
                                                               for r in points]
        # the driver's records are the stacked ones, with their Lyapunov values
        assert [_bits(vars(r).values())[:-1] for r in driver.metrics(states, probe)] == [
            _bits(vars(r).values())[:-1] for r in stacked]

        if probe is not None:
            kkt = kkt_residual(mean, X, LAM, probe)
            assert isinstance(kkt, np.ndarray) and kkt.shape == (size,)
            one = [kkt_residual(mean, s.x, s.lam, probe) for s in states]
            assert all(type(v) is float for v in one)
            assert _bits(kkt) == _bits(one)

        g = np.array([r.g_val for r in stacked])
        if method == "prox_sgdm":
            lyap = lyapunov_momentum(g, fset, X, Y, mc.tau, mc.alpha)
            one = [lyapunov_momentum(h, fset, s.x, s.y, mc.tau, mc.alpha)
                   for h, s in zip(g, states)]
        elif method == "prox_adam":
            M, V = split_adam_state(Y)
            lyap = lyapunov_adam(g, fset, X, M, V, mc.tau1, mc.alpha, mc.eps)
            one = [lyapunov_adam(h, fset, s.x, *split_adam_state(s.y), mc.tau1, mc.alpha,
                                 mc.eps) for h, s in zip(g, states)]
        else:
            return
        assert all(type(v) is float for v in one)
        assert _bits(lyap) == _bits(one)
        assert _bits(r.lyapunov for r in driver.metrics(states, probe)) == _bits(one)

    @pytest.mark.parametrize("size", [1, 5])
    def test_set_maps_a_stack_in_one_call(self, size):
        # the auxiliary values and the KKT probe hand the set the whole stack
        calls = []

        class CountingBox(Box):
            def project(self, x):
                calls.append(("project", np.shape(x)))
                return super().project(x)

            def prox_weighted(self, x, y, v):
                calls.append(("prox_weighted", np.shape(x)))
                return super().prox_weighted(x, y, v)

        fset = CountingBox(np.full(2, -1.0), np.full(2, 1.0))
        prob = replace(TestPublicChecks.problem(), feasible_set=fset)
        rng = np.random.default_rng(3)
        X, Y = rng.uniform(-1.0, 1.0, (size, 2)), rng.standard_normal((size, 2))
        kkt_residual(prob, X, np.ones((size, 1)), 1e-3)
        u_momentum(fset, X, Y, 2.0)
        u_adam(fset, X, Y, np.abs(Y), 0.5, 1e-8)
        assert calls == [("project", (size, 2)), ("project", (size, 2)),
                         ("prox_weighted", (size, 2))]

    def test_point_record_restates_the_scalar_formulas(self):
        # the point path keeps the one-point formulas' floats: norms as
        # sqrt(v.dot(v)) and every scalar step a Python float
        driver, states = _stack_chain("box", "prox_sgdm", "correction")
        mean, cfg = driver.mean, driver.config
        for s in states:
            rec = assemble_record(mean, s.k, s.x, s.lam, s.w, cfg.beta, cfg.rho, None)
            c = mean.constraint(s.x)
            feas = math.sqrt(c.dot(c))
            quad = 0.5 * cfg.rho * feas * feas
            f = float(mean.objective(s.x))
            L = f + float(s.lam @ c) + quad
            want = [f, feas, f + cfg.beta * feas + quad, L,
                    L - feas * float(s.lam @ s.lam) / (2.0 * cfg.beta),
                    math.sqrt(s.lam.dot(s.lam)), math.sqrt((s.w - c).dot(s.w - c))]
            got = [rec.f_val, rec.feas, rec.g_val, rec.L_val, rec.H_val, rec.lambda_norm,
                   rec.tracker_err]
            assert _bits(got) == _bits(want)
            assert all(type(v) is float for v in got)

    def test_misshaped_and_nonfinite_stacks_raise_the_point_errors(self):
        prob = TestPublicChecks.problem()
        fset = prob.feasible_set
        X, LAM = np.zeros((3, 2)), np.zeros((3, 1))
        Y, V = np.zeros((3, 2)), np.ones((3, 2))
        nan_row = X.copy()
        nan_row[1, 0] = np.nan
        calls = [
            (ValueError, "^x has dimension 3, expected 2", lambda x: kkt_residual(prob, x, LAM),
             np.zeros((3, 3))),
            (ValueError, "^x must be 1-d, or 2-d", lambda x: kkt_residual(prob, x, LAM),
             np.zeros((3, 2, 1))),
            (NonFiniteError, "^x contains non-finite", lambda x: kkt_residual(prob, x, LAM),
             nan_row),
            (NonFiniteError, "^x contains non-finite",
             lambda x: assemble_record(prob, range(3), x, LAM, LAM, 1.0, 0.0, None), nan_row),
            # the KKT probe checks lam; without it lam is only a factor
            (NonFiniteError, "^lam contains non-finite",
             lambda lam: assemble_record(prob, range(3), X, lam, LAM, 1.0, 0.0, 1e-3),
             nan_row[:, :1]),
            (ValueError, "^lam holds 2 points, x holds 3",
             lambda lam: assemble_record(prob, range(3), X, lam, LAM, 1.0, 0.0, 1e-3),
             np.zeros((2, 1))),
            (ValueError, "^x has dimension 1",
             lambda x: lyapunov_momentum(np.zeros(3), fset, x, Y, 1.0, 1.0), np.zeros((3, 1))),
            (NonFiniteError, "^y contains non-finite",
             lambda y: lyapunov_momentum(np.zeros(3), fset, X, y, 1.0, 1.0), nan_row),
            (NonFiniteError, "^v contains non-finite",
             lambda v: lyapunov_adam(np.zeros(3), fset, X, Y, v, 1.0, 1.0, 1e-8), nan_row),
            (ValueError, "^y has dimension 3",
             lambda y: lyapunov_adam(np.zeros(3), fset, X, y, V, 1.0, 1.0, 1e-8),
             np.zeros((3, 3))),
            (ValueError, "^lam holds 2 points, x holds 3",
             lambda lam: kkt_residual(prob, X, lam), np.zeros((2, 1))),
            (ValueError, "nonnegative",
             lambda v: lyapunov_adam(np.zeros(3), fset, X, Y, v, 1.0, 1.0, 1e-8), -V),
            # the penalty values: one per point, a scalar for one point
            (ValueError, r"^h_x has shape \(1,\), expected \(3,\)",
             lambda h: lyapunov_momentum(h, fset, X, Y, 1.0, 1.0), np.zeros(1)),
            (ValueError, r"^h_x has shape \(\), expected \(3,\)",
             lambda h: lyapunov_adam(h, fset, X, Y, V, 1.0, 1.0, 1e-8), 0.0),
            (ValueError, r"^h_x has shape \(4,\), expected \(3,\)",
             lambda h: lyapunov_adam(h, fset, X, Y, V, 1.0, 1.0, 1e-8), np.zeros(4)),
            (ValueError, r"^h_x has shape \(1,\), expected \(\)",
             lambda h: lyapunov_momentum(h, fset, X[0], Y[0], 1.0, 1.0), np.zeros(1)),
        ]
        # w, c and, without the KKT probe, lam are checked for their shape only:
        # one p-vector per point
        aff = make_affine_l1(n=4, p=2, seed=0).instance
        X2, W2 = np.zeros((2, 4)), np.ones((2, 2))
        calls += [
            (ValueError, r"^w has shape \(2,\), expected \(2, 2\)",
             lambda w: assemble_record(aff, range(2), X2, W2, w, 1.0, 0.5, None), np.zeros(2)),
            (ValueError, r"^lam has shape \(4,\), expected \(2, 2\)",
             lambda lam: assemble_record(aff, range(2), X2, lam, W2, 1.0, 0.5, None),
             np.zeros(4)),
            (ValueError, r"^lam has dimension 4, expected 2",
             lambda lam: assemble_record(aff, range(2), X2, lam, W2, 1.0, 0.5, 1e-3),
             np.zeros(4)),
            (ValueError, r"^c has shape \(2, 1\), expected \(2, 2\)",
             lambda c: assemble_record(aff, range(2), X2, W2, W2, 1.0, 0.5, None, c=c),
             np.zeros((2, 1))),
            (ValueError, r"^w has shape \(1, 2\), expected \(2,\)",
             lambda w: assemble_record(aff, 0, X2[0], W2[0], w, 1.0, 0.5, None),
             np.zeros((1, 2))),
        ]
        for err, match, call, bad in calls:
            with pytest.raises(err, match=match):
                call(bad)
        # the values are not checked: a diverging run's records carry non-finite ones
        recs = assemble_record(aff, range(2), X2, np.full((2, 2), np.inf), W2 * np.inf,
                               1.0, 0.5, None)
        assert all(math.isinf(r.tracker_err) and math.isinf(r.lambda_norm) for r in recs)

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_failing_point_raises_its_error(self, failing):
        # an oracle or a projection failing at one point of a stack raises that
        # point's error
        base = TestPublicChecks.problem()
        bad_x = float(failing)

        def objective(x):
            return float("inf") if x[1] == bad_x else float(x.sum())

        prob = replace(base, objective=objective)
        X = np.column_stack([np.full(6, 0.5), np.arange(6.0)])
        LAM, W = np.ones((6, 1)), np.zeros((6, 1))
        with pytest.raises(NonFiniteError, match="objective"):
            assemble_record(prob, range(6), X, LAM, W, 1.0, 0.5, 1e-3)

        class FailingBox(Box):
            def project(self, x):
                # the set maps the whole stack: fail if any row is the failing point
                if (np.abs(np.asarray(x)[..., 1] - bad_x) < 0.5).any():
                    raise ArithmeticError("projection failed")
                return super().project(x)

        fset = FailingBox(np.full(2, -10.0), np.full(2, 10.0))
        prob = replace(base, feasible_set=fset)
        with pytest.raises(ArithmeticError, match="projection failed"):
            kkt_residual(prob, X, LAM, 1e-3)
        with pytest.raises(ArithmeticError, match="projection failed"):
            lyapunov_momentum(np.zeros(6), fset, X, np.zeros((6, 2)), 1.0, 1.0)
