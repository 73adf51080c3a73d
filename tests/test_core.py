import re
from dataclasses import replace

import numpy as np
import pytest

from sslalm.core import (
    NoiseModel,
    NonFiniteError,
    OracleError,
    ProblemInstance,
    _constraints_stack,
    _jacobian_stack,
    _objective_at,
    _objective_stack,
    _subgradient_stack,
    as_stochastic,
    eval_constraints,
)
from sslalm.geometry import Box, WholeSpace
from sslalm.problems import make_affine_l1, make_slack_l1_net, make_stochastic_affine
from helpers import perturbed_instance


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


class TestObjectiveAt:
    def test_l1_value(self):
        assert _objective_at(l1_problem(), np.array([1.0, -2.0])) == pytest.approx(3.0)

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
        assert _objective_at(prob, np.array([5.0, -3.0])) == 0.0

    def test_affine_recipe_roundtrip_through_oracle(self):
        rec = make_affine_l1(n=3, p=1, seed=2)
        sol = rec.oracle_solution
        assert _objective_at(rec.instance, sol.x) == pytest.approx(sol.f, abs=1e-9)

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
            _objective_at(prob, np.array([0.0]))


def stacked_l1_problem(n=2):
    """``l1_problem`` with anchor 0, declared to take stacks: each oracle is
    written on the last axis, so a point and a stack share one formula."""
    return replace(
        l1_problem(n),
        objective=lambda x: np.abs(x).sum(axis=-1),
        constraint=lambda x: x.sum(axis=-1, keepdims=True) - 1.0,
        constraint_jacobian=lambda x: np.ones(x.shape + (1,)),
        stacks=True,
    )


class TestStackHelpers:
    """core's four stack helpers: one oracle call per stack for a problem that
    takes stacks, else one per row, with the point's messages either way."""

    HELPERS = {"objective": _objective_stack, "objective_subgradient": _subgradient_stack,
               "constraint": _constraints_stack, "constraint_jacobian": _jacobian_stack}

    @pytest.mark.parametrize("stacks", [False, True])
    def test_rows_are_the_point_values(self, stacks):
        prob = stacked_l1_problem(3) if stacks else l1_problem(3)
        X = np.array([[1.0, -2.0, 0.5], [0.0, 0.25, -0.75]])
        calls = {name: 0 for name in self.HELPERS}

        def counted(name):
            oracle = getattr(prob, name)

            def call(x):
                calls[name] += 1
                return oracle(x)
            return call

        counting = replace(prob, **{name: counted(name) for name in self.HELPERS})
        for name, helper in self.HELPERS.items():
            out = helper(counting, X)
            for j, x in enumerate(X):
                assert np.asarray(out[j]).tobytes() == np.float64(getattr(prob, name)(x)).tobytes()
        assert calls == dict.fromkeys(self.HELPERS, 1 if stacks else len(X))
        assert _objective_stack(prob, X).tolist() == [3.5, 1.0]

    @pytest.mark.parametrize("name, shape, message", [
        ("objective", (2, 1), "objective oracle returned shape (2, 1) on a stack, expected (2,)"),
        ("objective_subgradient", (2,),
         "subgradient oracle returned shape (2,) on a stack, expected (2, 2)"),
        ("constraint", (2,), "constraint oracle returned shape (2,) on a stack, expected (2, 1)"),
        ("constraint_jacobian", (2, 2),
         "jacobian oracle returned shape (2, 2) on a stack, expected (2, 2, 1)"),
    ])
    def test_stack_of_the_wrong_shape_names_both_shapes(self, name, shape, message):
        prob = replace(stacked_l1_problem(), **{name: lambda x: np.zeros(shape)})
        with pytest.raises(OracleError, match=f"^{re.escape(message)}$"):
            self.HELPERS[name](prob, np.zeros((2, 2)))

    @pytest.mark.parametrize("stacks", [False, True])
    @pytest.mark.parametrize("name, message", [
        ("objective", "objective oracle returned a non-finite value"),
        ("objective_subgradient", "subgradient contains non-finite entries"),
        ("constraint", "constraint value contains non-finite entries"),
        ("constraint_jacobian", "jacobian oracle returned non-finite entries"),
    ])
    def test_nonfinite_row_raises_the_point_message(self, stacks, name, message):
        prob = stacked_l1_problem() if stacks else l1_problem()
        oracle = getattr(prob, name)

        def nan_at_positive(x):
            # NaN values at each point whose first coordinate is positive
            value = np.array(oracle(x), dtype=np.float64)
            if x.ndim == 1:
                return value * np.nan if x[0] > 0 else value
            value[x[:, 0] > 0] = np.nan
            return value

        prob = replace(prob, **{name: nan_at_positive})
        X = np.array([[-1.0, 0.5], [1.0, 0.5]])
        with pytest.raises(NonFiniteError, match=f"^{message}$"):
            self.HELPERS[name](prob, X)


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
            [sprob.constraint_sample(x, tok) for tok in sprob.draw_constraint_sample(rng, 10000)]
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
        tok_f = sprob.draw_objective_sample(rng, 1)[0]
        tok_c = sprob.draw_constraint_sample(rng, 1)[0]
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
            tok = sprob.draw_constraint_sample(rng, 1)[0]
            lhs = sprob.constraint_sample(x2, tok) - sprob.constraint_sample(x, tok)
            B = tok[0]
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


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"feasible_set": Box(np.array([-1.0]), np.array([1.0]))}, "does not match dim_primal"),
        ({"dim_primal": 0}, "dimensions must be >= 1"),
        ({"dim_constraint": 0}, "dimensions must be >= 1"),
        ({"lipschitz_bound_f": -1.0}, "lipschitz_bound_f must be positive"),
        ({"regularity_constant": 0.0}, "regularity_constant must be positive"),
        ({"regularity_constant": float("nan")}, "regularity_constant must be positive"),
    ],
)
def test_problem_instance_validation(overrides, message):
    valid = dict(
        dim_primal=2,
        dim_constraint=1,
        objective=lambda x: 0.0,
        objective_subgradient=lambda x: np.zeros(2),
        constraint=lambda x: np.zeros(1),
        constraint_jacobian=lambda x: np.zeros((2, 1)),
        feasible_set=WholeSpace(2),
    )
    ProblemInstance(**valid)
    with pytest.raises(ValueError, match=message):
        ProblemInstance(**{**valid, **overrides})
