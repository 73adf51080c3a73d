import numpy as np
import pytest

from sslalm.core import (
    NoiseModel,
    OracleError,
    ProblemInstance,
    as_stochastic,
    eval_constraints,
    eval_objective,
    perturbed_instance,
)
from sslalm.geometry import Box, WholeSpace
from sslalm.problems import make_affine_l1, make_slack_l1_net, make_stochastic_affine


def l1_problem(n=2, anchor=None):
    anchor = np.zeros(n) if anchor is None else np.asarray(anchor, dtype=float)
    return ProblemInstance(
        dim_primal=n,
        dim_constraint=1,
        objective=lambda x: float(np.abs(x - anchor).sum()),
        objective_subgradient=lambda x: np.sign(x - anchor),
        constraint=lambda x: np.array([x.sum() - 1.0]),
        constraint_jacobian=lambda x: np.ones((n, 1)),
        feasible_set=WholeSpace(n),
    )


class TestEvalObjective:
    def test_l1_value(self):
        assert eval_objective(l1_problem(), [1.0, -2.0]) == pytest.approx(3.0)

    def test_zero_objective(self):
        prob = ProblemInstance(
            dim_primal=2,
            dim_constraint=1,
            objective=lambda x: 0.0,
            objective_subgradient=lambda x: np.zeros(2),
            constraint=lambda x: np.array([0.0]),
            constraint_jacobian=lambda x: np.zeros((2, 1)),
            feasible_set=WholeSpace(2),
        )
        assert eval_objective(prob, [5.0, -3.0]) == 0.0

    def test_affine_recipe_roundtrip_through_oracle(self):
        rec = make_affine_l1(n=3, p=1, seed=2)
        sol = rec.oracle_solution
        assert eval_objective(rec.instance, sol.x) == pytest.approx(sol.f, abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            eval_objective(l1_problem(), [1.0, 2.0, 3.0])

    def test_nonfinite_rejected(self):
        prob = ProblemInstance(
            dim_primal=1,
            dim_constraint=1,
            objective=lambda x: float("inf"),
            objective_subgradient=lambda x: np.zeros(1),
            constraint=lambda x: np.zeros(1),
            constraint_jacobian=lambda x: np.zeros((1, 1)),
            feasible_set=WholeSpace(1),
        )
        with pytest.raises(OracleError):
            eval_objective(prob, [0.0])


class TestSubgradientOracle:
    def test_sign_selection_off_kinks(self):
        d = l1_problem().objective_subgradient(np.array([2.0, -3.0]))
        assert np.array_equal(d, [1.0, -1.0])

    def test_zero_selection_at_kink(self):
        d = l1_problem(n=1).objective_subgradient(np.array([0.0]))
        assert np.array_equal(d, [0.0])

    def test_matches_finite_differences_at_smooth_points(self):
        # central differences on the built-in piecewise-linear objectives,
        # away from kinks
        rec = make_affine_l1(n=5, p=2, seed=4)
        prob = rec.instance
        rng = np.random.default_rng(0)
        h = 1e-6
        for _ in range(50):
            x = rng.uniform(-0.9, 0.9, 5)
            anchor = rec.metadata["anchor"]
            if np.min(np.abs(x - anchor)) < 10 * h:
                continue
            d = prob.objective_subgradient(x)
            for i in range(5):
                e = np.zeros(5)
                e[i] = h
                fd = (prob.objective(x + e) - prob.objective(x - e)) / (2 * h)
                assert fd == pytest.approx(d[i], abs=1e-8)


class TestConstraints:
    def test_affine_value(self):
        assert eval_constraints(l1_problem(), [1.0, 0.0]) == pytest.approx([0.0])

    def test_slack_reformulated_value(self):
        rec = make_slack_l1_net(layer_widths=(2, 2), n_train=8, n_test=4, batch_size=4)
        n_w = rec.metadata["n_weights"]
        x = np.zeros(rec.instance.dim_primal)
        x[:4] = [0.1, -0.1, 0.1, 0.1]  # ||W||_1 = 0.4
        x[n_w] = 0.6
        c = eval_constraints(rec.instance.mean, x)
        assert c[0] == pytest.approx(0.0)

    def test_stochastic_mean_matches_analytic(self):
        # Monte-Carlo mean of 1e4 constraint samples within 3 sigma / 100
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.5, seed=1)
        sprob = rec.instance
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, 4)
        target = eval_constraints(sprob.mean, x)
        draws = np.array(
            [sprob.constraint_sample(x, sprob.draw_constraint_sample(rng)) for _ in range(10000)]
        )
        err = np.abs(draws.mean(axis=0) - target)
        tol = 3.0 * draws.std(axis=0) / np.sqrt(10000)
        assert np.all(err <= tol)


class TestSampleConstraintPair:
    def test_degenerate_wrapper_returns_exact_values(self):
        prob = l1_problem()
        sprob = as_stochastic(prob)
        rng = np.random.default_rng(0)
        x = np.array([0.5, 0.2])
        tok_f = sprob.draw_objective_sample(rng)
        tok_c = sprob.draw_constraint_sample(rng)
        assert sprob.objective_sample(x, tok_f) == prob.objective(x)
        d = sprob.objective_subgradient_sample(x, tok_f)
        assert np.array_equal(d, prob.objective_subgradient(x))
        assert np.array_equal(sprob.constraint_sample(x, tok_c), prob.constraint(x))
        J = sprob.constraint_jacobian_sample(x, tok_c)
        assert np.array_equal(J, prob.constraint_jacobian(x))

    def test_affine_pair_differs_by_matrix_action(self):
        # under a shared token the sample difference is exactly B(omega)(x2 - x)
        rec = make_stochastic_affine(n=4, p=2, noise_scale=0.3, seed=5)
        sprob = rec.instance
        x = np.array([0.1, -0.2, 0.3, 0.0])
        x2 = x + np.array([0.05, 0.0, -0.1, 0.2])
        rng = np.random.default_rng(2)
        for _ in range(20):
            tok = sprob.draw_constraint_sample(rng)
            lhs = sprob.constraint_sample(x2, tok) - sprob.constraint_sample(x, tok)
            B = rec.metadata["A"] + tok[0]
            assert lhs == pytest.approx(B @ (x2 - x), abs=1e-12)


class TestNoiseModel:
    @pytest.mark.parametrize("kind", ["uniform_box", "truncated_gaussian"])
    def test_bound_holds_exactly(self, kind):
        noise = NoiseModel(kind, 0.25, seed=0)
        rng = np.random.default_rng(noise.seed)
        for _ in range(2000):
            xi = noise.draw(rng, 4)
            assert np.max(np.abs(xi)) <= 0.25

    @pytest.mark.parametrize("kind", ["uniform_box", "truncated_gaussian"])
    def test_zero_mean(self, kind):
        n_draws = 100000
        bound = 0.5
        noise = NoiseModel(kind, bound, seed=1)
        rng = np.random.default_rng(noise.seed)
        draws = noise.draw(rng, n_draws * 3).reshape(n_draws, 3)
        assert np.all(np.abs(draws.mean(axis=0)) <= 4 * bound / np.sqrt(n_draws))

    def test_none_kind_returns_zeros(self):
        noise = NoiseModel()
        assert np.array_equal(noise.draw(np.random.default_rng(noise.seed), 3), np.zeros(3))

    def test_identical_seeds_identical_streams(self):
        a = NoiseModel("uniform_box", 1.0, seed=9)
        b = NoiseModel("uniform_box", 1.0, seed=9)
        ra, rb = np.random.default_rng(a.seed), np.random.default_rng(b.seed)
        for _ in range(50):
            assert np.array_equal(a.draw(ra, 5), b.draw(rb, 5))

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            NoiseModel("bogus", 1.0)
        with pytest.raises(ValueError):
            NoiseModel("uniform_box", -1.0)

    @pytest.mark.parametrize("bound", [np.nan, np.inf])
    def test_nonfinite_bound_rejected(self, bound):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel("uniform_box", bound)


def test_perturbed_instance_radius_decays():
    prob = l1_problem()
    wrapped = perturbed_instance(prob, radius=0.5, seed=0, decay=1.0)
    x = np.array([2.0, -3.0])
    base = prob.objective_subgradient(x)
    first = wrapped.objective_subgradient(x)
    assert np.max(np.abs(first - base)) <= 0.5
    for t in range(1, 100):
        d = wrapped.objective_subgradient(x)
        assert np.max(np.abs(d - base)) <= 0.5 / (1.0 + t)


def test_problem_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(
            dim_primal=2,
            dim_constraint=1,
            objective=lambda x: 0.0,
            objective_subgradient=lambda x: np.zeros(2),
            constraint=lambda x: np.zeros(1),
            constraint_jacobian=lambda x: np.zeros((2, 1)),
            feasible_set=Box(np.array([-1.0]), np.array([1.0])),  # wrong dim
        )
    with pytest.raises(ValueError):
        ProblemInstance(
            dim_primal=1,
            dim_constraint=1,
            objective=lambda x: 0.0,
            objective_subgradient=lambda x: np.zeros(1),
            constraint=lambda x: np.zeros(1),
            constraint_jacobian=lambda x: np.zeros((1, 1)),
            feasible_set=WholeSpace(1),
            lipschitz_bound_f=-1.0,
        )
