import numpy as np
import pytest
from scipy.optimize import linprog

from sslalm.core import eval_constraints, eval_objective
from sslalm.diagnostics import estimate_regularity
from sslalm.problems import (
    l1_affine_oracle,
    make_affine_l1,
    make_exactness_1d,
    make_recipe,
    make_slack_l1_net,
    make_stochastic_affine,
)


def lp_reference(A, b, anchor, lower, upper):
    """Independent check through scipy: minimize sum(t), |x - anchor| <= t."""
    p, n = A.shape
    c = np.concatenate([np.zeros(n), np.ones(n)])
    A_ub = np.block(
        [[np.eye(n), -np.eye(n)], [-np.eye(n), -np.eye(n)]]
    )
    b_ub = np.concatenate([anchor, -anchor])
    A_eq = np.hstack([A, np.zeros((p, n))])
    bounds = [(lower[i], upper[i]) for i in range(n)] + [(0, None)] * n
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b, bounds=bounds, method="highs")
    assert res.success
    return res.fun


class TestL1AffineOracle:
    def test_single_equation(self):
        x, f = l1_affine_oracle(
            np.array([[1.0]]), np.array([0.5]), np.zeros(1), np.array([-1.0]), np.array([1.0])
        )
        assert x == pytest.approx([0.5])
        assert f == pytest.approx(0.5)

    def test_segment_instance(self):
        # minimizers form the segment {x1 + x2 = 1, x >= 0} with value 1
        x, f = l1_affine_oracle(
            np.array([[1.0, 1.0]]), np.array([1.0]), np.zeros(2),
            np.full(2, -1.0), np.full(2, 1.0),
        )
        assert f == pytest.approx(1.0)
        assert x.sum() == pytest.approx(1.0)
        assert np.all(x >= -1e-12)

    def test_matches_scipy_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            p = int(rng.integers(1, n))
            G = rng.standard_normal((p, n))
            x_feas = rng.uniform(-0.5, 0.5, n)
            b = G @ x_feas
            anchor = rng.uniform(-1, 1, n)
            lower, upper = np.full(n, -1.0), np.full(n, 1.0)
            _, f = l1_affine_oracle(G, b, anchor, lower, upper)
            assert f == pytest.approx(lp_reference(G, b, anchor, lower, upper), abs=1e-8)

    def test_size_cap(self):
        with pytest.raises(ValueError):
            l1_affine_oracle(
                np.ones((1, 13)), np.zeros(1), np.zeros(13), np.full(13, -1.0), np.full(13, 1.0)
            )


class TestAffineL1Recipe:
    def test_oracle_solution_roundtrips_through_instance(self):
        for seed in range(8):
            rec = make_affine_l1(n=5, p=2, seed=seed)
            sol = rec.oracle_solution
            assert rec.instance.feasible_set.contains(sol.x)
            assert np.linalg.norm(eval_constraints(rec.instance, sol.x)) <= 1e-9
            assert eval_objective(rec.instance, sol.x) == pytest.approx(sol.f, abs=1e-9)

    def test_orthonormal_rows(self):
        rec = make_affine_l1(n=6, p=3, seed=1)
        A = rec.metadata["A"]
        assert A @ A.T == pytest.approx(np.eye(3), abs=1e-12)

    def test_interior_regularity_estimate_is_one(self):
        rec = make_affine_l1(n=4, p=2, seed=3)
        rng = np.random.default_rng(1)
        pts = [rng.uniform(-0.9, 0.9, 4) for _ in range(200)]
        assert estimate_regularity(rec.instance, pts) >= 0.99

    def test_start_is_feasible_for_the_set(self):
        rec = make_affine_l1(n=4, p=1, seed=2)
        assert rec.instance.feasible_set.contains(rec.start)

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            make_affine_l1(n=3, p=3, seed=0)


class TestSlackL1NetRecipe:
    def test_feasible_when_slack_absorbs_budget(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        n_w = rec.metadata["n_weights"]
        L = rec.metadata["n_layers"]
        x = np.zeros(rec.instance.dim_primal)
        x[n_w:] = 1.0  # s_i = r_i with zero weights
        c = eval_constraints(rec.instance.mean, x)
        assert c == pytest.approx(np.zeros(L))

    def test_jacobian_column_structure(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        inst = rec.instance.mean
        n_w = rec.metadata["n_weights"]
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.9, 0.9, inst.dim_primal)
        J = inst.constraint_jacobian(x)
        sizes = [2 * 3, 3 * 2]
        offset = 0
        for i, size in enumerate(sizes):
            block = J[offset : offset + size, i]
            assert np.array_equal(block, np.sign(x[offset : offset + size]))
            other = J[offset : offset + size, 1 - i]
            assert np.array_equal(other, np.zeros(size))
            offset += size
        assert J[n_w + 0, 0] == 1.0 and J[n_w + 1, 1] == 1.0
        assert J[n_w + 0, 1] == 0.0 and J[n_w + 1, 0] == 0.0

    @pytest.mark.parametrize("widths", [(2, 8, 2), (2, 3, 4, 2)])
    def test_jacobian_equals_per_layer_loop(self, widths):
        rec = make_slack_l1_net(layer_widths=widths, n_train=16, n_test=8, batch_size=8)
        inst = rec.instance
        n, n_w, L = inst.dim_primal, rec.metadata["n_weights"], rec.metadata["n_layers"]
        offsets = np.cumsum([0] + [widths[i] * widths[i + 1] for i in range(L)])
        rng = np.random.default_rng(7)
        for _ in range(20):
            x = rng.uniform(-1, 1, n)
            # exact zero weights (sign 0), of both signs
            x[:n_w][rng.random(n_w) < 0.3] = 0.0
            x[:n_w][rng.random(n_w) < 0.1] = -0.0
            ref = np.zeros((n, L))
            for i in range(L):
                ref[offsets[i] : offsets[i + 1], i] = np.sign(x[offsets[i] : offsets[i + 1]])
                ref[n_w + i, i] = 1.0
            for J in (inst.mean.constraint_jacobian(x), inst.constraint_jacobian_sample(x, None)):
                assert J.shape == ref.shape and J.dtype == ref.dtype
                assert J.tobytes() == ref.tobytes()
                J[:] = 5.0  # each call returns a fresh array
        assert inst.mean.constraint_jacobian(x).tobytes() == ref.tobytes()

    def test_loss_subgradient_matches_finite_differences(self):
        # piecewise-linear in the parameters: central differences agree at
        # randomly drawn differentiable points
        rec = make_slack_l1_net(layer_widths=(2, 4, 2), n_train=32, n_test=8, batch_size=16)
        inst = rec.instance.mean
        rng = np.random.default_rng(3)
        h = 1e-6
        checked = 0
        while checked < 100:
            x = rng.uniform(-0.8, 0.8, inst.dim_primal)
            d = inst.objective_subgradient(x)
            i = int(rng.integers(0, inst.dim_primal))
            e = np.zeros(inst.dim_primal)
            e[i] = h
            fd = (inst.objective(x + e) - inst.objective(x - e)) / (2 * h)
            # kink crossings between the probe points make both selections
            # valid; skip the rare ambiguous draw
            if abs(fd - d[i]) > 1e-6 and abs(fd - inst.objective_subgradient(x + e)[i]) < 1e-6:
                continue
            assert fd == pytest.approx(d[i], abs=1e-6)
            checked += 1

    def test_objective_ignores_slack_block(self):
        rec = make_slack_l1_net(layer_widths=(2, 3, 2), n_train=16, n_test=8, batch_size=8)
        inst = rec.instance.mean
        n_w = rec.metadata["n_weights"]
        rng = np.random.default_rng(4)
        x = rng.uniform(-0.5, 0.5, inst.dim_primal)
        x2 = x.copy()
        x2[n_w:] += 3.0
        assert inst.objective(x) == inst.objective(x2)
        assert np.array_equal(inst.objective_subgradient(x)[n_w:], np.zeros(2))

    def test_minibatch_sampling_deterministic(self):
        rec = make_slack_l1_net(n_train=64, n_test=8, batch_size=16)
        sp = rec.instance
        idx1 = sp.draw_objective_sample(np.random.default_rng(5))
        idx2 = sp.draw_objective_sample(np.random.default_rng(5))
        assert np.array_equal(idx1, idx2)
        x = rec.start
        assert sp.objective_sample(x, idx1) == sp.objective_sample(x, idx2)

    def test_metadata(self):
        rec = make_slack_l1_net(n_train=256, n_test=128, batch_size=128)
        assert rec.metadata["epoch_len"] == 2
        acc = rec.metadata["accuracy"](rec.start)
        assert 0.0 <= acc <= 1.0


class TestStochasticAffineRecipe:
    def test_zero_noise_degenerates_to_mean(self):
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.0, seed=7)
        sp = rec.instance
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 4)
        for _ in range(10):
            tok = sp.draw_constraint_sample(rng)
            assert sp.constraint_sample(x, tok) == pytest.approx(
                eval_constraints(sp.mean, x), abs=1e-15
            )
            u = sp.draw_objective_sample(rng)
            assert sp.objective_sample(x, u) == pytest.approx(sp.mean.objective(x), abs=1e-15)

    def test_subgradient_sample_unbiased(self):
        rec = make_stochastic_affine(n=3, p=1, noise_scale=0.5, seed=8)
        sp = rec.instance
        rng = np.random.default_rng(1)
        x = np.array([0.4, -0.3, 0.2])
        draws = np.array(
            [sp.objective_subgradient_sample(x, sp.draw_objective_sample(rng)) for _ in range(20000)]
        )
        assert draws.mean(axis=0) == pytest.approx(sp.mean.objective_subgradient(x), abs=0.02)

    def test_interior_regularity(self):
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.3, seed=9)
        rng = np.random.default_rng(2)
        pts = [rng.uniform(-0.9, 0.9, 4) for _ in range(200)]
        assert estimate_regularity(rec.instance.mean, pts) >= 0.99


class TestExactness1d:
    def test_analytic_pieces(self):
        rec = make_exactness_1d(slope=2.0)
        inst = rec.instance
        assert inst.lipschitz_bound_f == 2.0
        assert inst.regularity_constant == 1.0
        assert eval_objective(inst, [0.5]) == -1.0
        assert eval_constraints(inst, [0.5]) == pytest.approx([0.5])
        sol = rec.oracle_solution
        assert sol.x == pytest.approx([0.0])
        assert sol.multipliers == pytest.approx([2.0])

    def test_penalty_stationary_point_below_threshold(self):
        # with beta < slope the penalty has an interior stationary point at
        # (slope - beta)/rho
        grid = np.linspace(-1, 1, 100001)
        vals = -2.0 * grid + 1.0 * np.abs(grid) + 0.5 * grid**2
        assert grid[int(np.argmin(vals))] == pytest.approx(1.0, abs=1e-4)


def test_recipe_registry():
    rec = make_recipe("exactness_1d", slope=3.0)
    assert rec.kind == "exactness_1d"
    assert rec.params["slope"] == 3.0
    with pytest.raises(ValueError):
        make_recipe("unknown_kind")
    with pytest.raises(TypeError):
        make_recipe("exactness_1d", bogus=1)


def test_stochastic_affine_samples_uniformly_bounded_on_box():
    # per-sample outputs stay inside explicit bounds over the whole box
    rec = make_stochastic_affine(n=4, p=2, noise_scale=0.5, seed=3)
    sp = rec.instance
    A = rec.metadata["A"]
    rng = np.random.default_rng(0)
    # ||C(x,w)|| <= (||A|| + scale*sqrt(n*p))*||x|| + ||b|| + scale*sqrt(p)
    b_norm = np.linalg.norm(rec.metadata["b"])
    c_bound = (np.linalg.norm(A, 2) + 0.5 * np.sqrt(8)) * 2.0 + b_norm + 0.5 * np.sqrt(2)
    f_bound = 1.5 * (np.abs(np.full(4, 1.0)) + np.abs(rec.metadata["anchor"])).sum()
    for _ in range(1000):
        x = rng.uniform(-1, 1, 4)
        tok = sp.draw_constraint_sample(rng)
        assert np.linalg.norm(sp.constraint_sample(x, tok)) <= c_bound
        assert np.all(np.abs(sp.constraint_jacobian_sample(x, tok)) <= np.abs(A.T) + 0.5)
        u = sp.draw_objective_sample(rng)
        assert abs(sp.objective_sample(x, u)) <= f_bound
        assert np.max(np.abs(sp.objective_subgradient_sample(x, u))) <= 1.5


@pytest.mark.parametrize("params, err", [
    ({"noise_scale": -0.1}, "noise_scale"),
    ({"noise_scale": float("nan")}, "noise_scale"),
    ({"n": 3, "p": 3}, "p < n"),
])
def test_stochastic_affine_validation(params, err):
    with pytest.raises(ValueError, match=err):
        make_stochastic_affine(**params)
