import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sslalm.geometry import (
    Ball,
    Box,
    NonnegativeOrthant,
    WholeSpace,
    _prox_positive,
    normal_cone_distance,
)


def unit_box(n):
    return Box(np.full(n, -1.0), np.full(n, 1.0))


def weights_and_slacks(n_w, n_s):
    """Weights in [-1, 1] then slacks in [0, inf), like the network recipe's set."""
    lower = np.r_[np.full(n_w, -1.0), np.zeros(n_s)]
    return Box(lower, np.r_[np.full(n_w, 1.0), np.full(n_s, np.inf)])


ALL_SETS = [
    WholeSpace(3),
    unit_box(3),
    Ball(np.zeros(3), 1.0),
    NonnegativeOrthant(3),
    weights_and_slacks(3, 2),
]


class TestProject:
    def test_box_clamp(self):
        assert unit_box(1).project(np.array([1.5])) == pytest.approx([1.0])

    def test_whole_space_identity(self):
        x = np.array([3.0, -7.0])
        assert np.array_equal(WholeSpace(2).project(x), x)

    def test_ball_radial_scaling(self):
        z = Ball(np.zeros(2), 1.0).project(np.array([3.0, 4.0]))
        assert z == pytest.approx([0.6, 0.8])

    def test_orthant(self):
        assert NonnegativeOrthant(2).project(np.array([-1.0, 2.0])) == pytest.approx([0.0, 2.0])

    def test_product_blockwise(self):
        fset = weights_and_slacks(2, 1)
        z = fset.project(np.array([2.0, -2.0, -1.0]))
        assert z == pytest.approx([1.0, -1.0, 0.0])

    @pytest.mark.parametrize("fset", ALL_SETS)
    def test_idempotent_bitwise(self, fset):
        rng = np.random.default_rng(0)
        for _ in range(200):
            x = 3.0 * rng.standard_normal(fset.dim)
            once = fset.project(x)
            twice = fset.project(once)
            assert np.array_equal(once, twice)

    @pytest.mark.parametrize("fset", ALL_SETS)
    def test_nonexpansive(self, fset):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            x = 3.0 * rng.standard_normal(fset.dim)
            y = 3.0 * rng.standard_normal(fset.dim)
            lhs = np.linalg.norm(fset.project(x) - fset.project(y))
            assert lhs <= np.linalg.norm(x - y) + 1e-12

    @pytest.mark.parametrize("fset", ALL_SETS)
    def test_output_in_set(self, fset):
        rng = np.random.default_rng(2)
        for _ in range(200):
            x = 5.0 * rng.standard_normal(fset.dim)
            assert fset.contains(fset.project(x))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=2, max_size=2))
def test_box_projection_idempotent_hypothesis(vals):
    fset = unit_box(2)
    once = fset.project(np.array(vals))
    assert np.array_equal(fset.project(once), once)


class TestProxWeighted:
    def test_whole_space_closed_form(self):
        z = WholeSpace(1).prox_weighted(np.array([0.0]), np.array([0.5]), np.array([1.0]))
        assert z == pytest.approx([-0.5])

    def test_box_clamps_unconstrained_minimizer(self):
        z = unit_box(1).prox_weighted(np.array([0.0]), np.array([2.0]), np.array([1.0]))
        assert z == pytest.approx([-1.0])

    def test_ball_matches_grid_oracle(self):
        # minimizer lands on the boundary; oracle enumerates a dense boundary
        # grid plus the unconstrained point
        fset = Ball(np.zeros(2), 1.0)
        x = np.zeros(2)
        y = np.array([3.0, 0.0])
        v = np.array([1.0, 4.0])
        z = fset.prox_weighted(x, y, v)

        def objective(pts):
            d = pts - x
            return d @ y + 0.5 * (d * d) @ v

        theta = np.linspace(0.0, 2.0 * np.pi, 700000, endpoint=False)
        boundary = np.column_stack([np.cos(theta), np.sin(theta)])
        candidates = np.vstack([boundary, (x - y / v)[None, :]])
        feasible = np.linalg.norm(candidates, axis=1) <= 1.0 + 1e-12
        best = objective(candidates[feasible]).min()
        assert objective(z[None, :])[0] == pytest.approx(best, abs=1e-6)
        assert fset.contains(z)

    def test_unit_weights_reduce_to_projection(self):
        rng = np.random.default_rng(3)
        for fset in ALL_SETS:
            for _ in range(50):
                x = rng.standard_normal(fset.dim)
                y = rng.standard_normal(fset.dim)
                lhs = fset.prox_weighted(x, y, np.ones(fset.dim))
                rhs = fset.project(x - y)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("fset", ALL_SETS)
    def test_optimality_against_sampled_points(self, fset):
        rng = np.random.default_rng(4)
        x = fset.sample(rng)
        y = rng.standard_normal(fset.dim)
        v = rng.uniform(0.5, 3.0, fset.dim)
        z = fset.prox_weighted(x, y, v)

        def objective(pt):
            d = pt - x
            return float(d @ y) + 0.5 * float((v * d) @ d)

        obj_z = objective(z)
        grad = y + v * (z - x)
        for _ in range(1000):
            w = fset.sample(rng)
            assert obj_z <= objective(w) + 1e-9
            # variational inequality: -(y + v*(z-x)) lies in the normal cone
            assert float(grad @ (w - z)) >= -1e-8

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError, match="weights must be positive"):
            _prox_positive(unit_box(1), np.array([0.0]), np.array([1.0]), np.array([0.0]))


class TestNormalConeDistance:
    def test_whole_space_norm(self):
        assert normal_cone_distance(WholeSpace(2), [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_box_active_upper_face(self):
        d = normal_cone_distance(unit_box(2), [1.0, 0.0], [-2.0, 1.0])
        assert d == pytest.approx(1.0)

    def test_ball_interior(self):
        d = normal_cone_distance(Ball(np.zeros(2), 1.0), [0.2, 0.1], [3.0, 4.0])
        assert d == pytest.approx(5.0)

    def test_ball_boundary_outward(self):
        # -v aligned with the outward ray contributes zero
        d = normal_cone_distance(Ball(np.zeros(2), 1.0), [1.0, 0.0], [-2.0, 0.0])
        assert d == pytest.approx(0.0)

    def test_zero_iff_in_normal_cone(self):
        fset = unit_box(2)
        # at the corner (1, 1) the cone is the nonnegative quadrant
        assert normal_cone_distance(fset, [1.0, 1.0], [-1.0, -2.0]) == pytest.approx(0.0)
        assert normal_cone_distance(fset, [1.0, 1.0], [1.0, -2.0]) > 0.5

    def test_orthant_active(self):
        d = normal_cone_distance(NonnegativeOrthant(2), [0.0, 1.0], [1.0, 0.0])
        assert d == pytest.approx(0.0)

    def test_product_combines_block_distances(self):
        # box block: upper face absorbs -v_0 = 2, interior -v_1 = -1 counts;
        # orthant block: active -v_2 = 1 counts, interior -v_3 = -3 counts
        fset = weights_and_slacks(2, 2)
        d = normal_cone_distance(fset, [1.0, 0.0, 0.0, 1.0], [-2.0, 1.0, -1.0, 3.0])
        assert d == pytest.approx(np.sqrt(11.0))

    def test_rejects_infeasible_point(self):
        with pytest.raises(ValueError):
            normal_cone_distance(unit_box(1), [1.5], [0.0])


def test_sample_points_are_feasible():
    rng = np.random.default_rng(5)
    for fset in ALL_SETS:
        for _ in range(200):
            assert fset.contains(fset.sample(rng))


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: Box(np.array([1.0]), np.array([0.0])), "lower <= upper"),
        (lambda: Box(np.zeros(2), np.ones(3)), "1-d arrays of equal length"),
        (lambda: Box(np.zeros((1, 1)), np.ones((1, 1))), "1-d arrays of equal length"),
        (lambda: Box(np.array([np.nan]), np.zeros(1)), "must not be NaN"),
        (lambda: Box(np.zeros(1), np.array([np.nan])), "must not be NaN"),
        (lambda: Box(np.array([np.inf]), np.array([np.inf])), r"lower = \+inf"),
        (lambda: Box(np.array([-np.inf]), np.array([-np.inf])), "upper = -inf"),
        (lambda: Ball(np.zeros(2), 0.0), "radius must be positive"),
        (lambda: Ball(np.zeros(2), np.nan), "radius must be positive"),
        (lambda: Ball(np.zeros((2, 1)), 1.0), "finite 1-d array"),
        (lambda: Ball(np.array([np.nan, 0.0]), 1.0), "finite 1-d array"),
        (lambda: normal_cone_distance(unit_box(2), np.zeros(2), np.zeros((2, 1))),
         r"v has shape \(2, 1\), expected \(2,\)"),
        # each argument keeps its own name in the one shape check
        (lambda: normal_cone_distance(unit_box(2), np.zeros(3), np.zeros(2)),
         r"^x has shape \(3,\), expected \(2,\)"),
        # a point of another length once broadcast against the set's arrays
        (lambda: Box(np.zeros(2), np.ones(2)).contains(np.array([0.5])),
         r"^x has shape \(1,\), expected \(2,\)"),
        (lambda: Ball(np.zeros(3), 1.0).contains(np.array([0.5])),
         r"^x has shape \(1,\), expected \(3,\)"),
    ],
)
def test_set_validation(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_ball_projection_lands_inside_when_rescaling_stalls():
    # rescaling by radius / ||u|| alone lands on the same point one float
    # outside the radius here, again and again
    fset = Ball(np.array([1.5, 0.21875]), 0.515625)
    z = fset.project(np.array([2.5, 0.0]))
    assert np.linalg.norm(z - fset.center) <= fset.radius
    assert fset.project(z).tobytes() == z.tobytes()


def test_ball_prox_interior_shortcut():
    fset = Ball(np.zeros(2), 10.0)
    x = np.array([1.0, 2.0])
    y = np.array([0.5, -0.5])
    v = np.array([2.0, 4.0])
    z = fset.prox_weighted(x, y, v)
    assert z == pytest.approx(x - y / v)


# Property tests for each basic set: projection, weighted prox and the sign
# conventions of the normal-cone distance, on sets and points drawn by hypothesis.

def _vectors(n, lo=-5.0, hi=5.0):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def basic_sets(draw, max_dim=4):
    kind = draw(st.sampled_from(["box", "ball", "orthant", "whole", "mixed"]))
    n = draw(st.integers(1, max_dim))
    if kind == "box":
        lower = draw(_vectors(n, -2.0, 2.0))
        return Box(lower, lower + draw(_vectors(n, 0.1, 3.0)))
    if kind == "mixed":
        n_s = draw(st.integers(1, max_dim))
        return weights_and_slacks(n, n_s)
    if kind == "ball":
        return Ball(draw(_vectors(n, -2.0, 2.0)), draw(st.floats(0.5, 3.0)))
    return NonnegativeOrthant(n) if kind == "orthant" else WholeSpace(n)


def _interior_point(fset):
    if isinstance(fset, Ball):
        return fset.center
    # an infinite bound is replaced by a finite one 2 past zero or the other
    # bound, so the midpoint is finite and strictly inside
    lo = np.where(np.isfinite(fset.lower), fset.lower, np.minimum(fset.upper, 0.0) - 2.0)
    hi = np.where(np.isfinite(fset.upper), fset.upper, np.maximum(lo, 0.0) + 2.0)
    return 0.5 * (lo + hi)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_projection_feasible_idempotent_firmly_nonexpansive(data):
    fset = data.draw(basic_sets())
    x = data.draw(_vectors(fset.dim))
    y = data.draw(_vectors(fset.dim))
    px, py = fset.project(x), fset.project(y)
    assert fset.contains(px)
    assert fset.project(px).tobytes() == px.tobytes()
    d = px - py
    assert d @ d <= d @ (x - y) + 1e-9
    assert np.linalg.norm(d) <= np.linalg.norm(x - y) + 1e-12


@settings(max_examples=200, deadline=None)
@given(data=st.data(), m=st.integers(0, 5))
def test_stack_maps_equal_their_rows_bitwise(data, m):
    # an (m, n) stack, and the same stack under one more leading axis, maps as
    # each of its rows does alone
    fset = data.draw(basic_sets())
    n = fset.dim
    X = np.array([data.draw(_vectors(n)) for _ in range(m)]).reshape(m, n)
    if isinstance(fset, Ball):
        # rows at 0 to 3 radii from the center; with two rows or more, one
        # inside the ball and one outside
        radii = data.draw(st.lists(st.floats(0.0, 3.0), min_size=m, max_size=m))
        radii[:2] = [0.5, 2.0][:m]
        norms = np.maximum(np.linalg.norm(X, axis=1, keepdims=True), 1e-300)
        X = fset.center + X / norms * (fset.radius * np.array(radii)[:, None])
    Y = np.array([data.draw(_vectors(n)) for _ in range(m)]).reshape(m, n)
    V = np.array([data.draw(_vectors(n, 0.1, 10.0)) for _ in range(m)]).reshape(m, n)
    rows = np.array([fset.project(x) for x in X]).reshape(m, n)
    assert fset.project(X).tobytes() == rows.tobytes()
    assert fset.project(X[None]).shape == (1, m, n)
    assert fset.project(X[None]).tobytes() == rows.tobytes()
    rows = np.array([fset.prox_weighted(x, y, v) for x, y, v in zip(X, Y, V)]).reshape(m, n)
    assert fset.prox_weighted(X, Y, V).tobytes() == rows.tobytes()
    assert fset.prox_weighted(X[None], Y, V).shape == (1, m, n)
    assert fset.prox_weighted(X[None], Y, V).tobytes() == rows.tobytes()


def _scipy_prox(fset, x, y, v):
    """The weighted prox objective minimized by a general-purpose solver."""

    def model(z):
        return float(y @ (z - x) + 0.5 * (v * (z - x)) @ (z - x))

    def grad(z):
        return y + v * (z - x)

    start = _interior_point(fset)
    if isinstance(fset, Ball):
        r2 = fset.radius**2
        ball = {
            "type": "ineq",
            "fun": lambda z: r2 - (z - fset.center) @ (z - fset.center),
            "jac": lambda z: -2.0 * (z - fset.center),
        }
        res = minimize(model, start, jac=grad, method="SLSQP", constraints=[ball],
                       options={"ftol": 1e-15, "maxiter": 500})
    else:
        bounds = [(lo if np.isfinite(lo) else None, hi if np.isfinite(hi) else None)
                  for lo, hi in zip(fset.lower, fset.upper)]
        res = minimize(model, start, jac=grad, method="L-BFGS-B", bounds=bounds,
                       options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 1000})
    return fset.project(res.x), model


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_prox_weighted_matches_scipy(data):
    fset = data.draw(basic_sets())
    n = fset.dim
    x = data.draw(_vectors(n))
    y = data.draw(_vectors(n))
    v = data.draw(_vectors(n, 0.1, 10.0))
    z = fset.prox_weighted(x, y, v)
    reference, model = _scipy_prox(fset, x, y, v)
    assert fset.contains(z)
    # the reference is feasible, so it cannot beat the minimizer
    assert model(z) <= model(reference) + 1e-9 * (1.0 + abs(model(reference)))
    assert z == pytest.approx(reference, abs=1e-4)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), t=st.floats(0.0, 10.0))
def test_normal_cone_distance_sign_conventions(data, t):
    fset = data.draw(basic_sets())
    z = data.draw(_vectors(fset.dim))
    v = data.draw(_vectors(fset.dim))
    # z - P(z) lies in the normal cone at P(z): the distance measures -v
    # against the cone, so v = -t*(z - P(z)) is absorbed and v = z - P(z) not
    x = fset.project(z)
    u = z - x
    scale = 1.0 + t * np.linalg.norm(u)
    assert normal_cone_distance(fset, x, -t * u) <= 1e-9 * scale
    assert normal_cone_distance(fset, x, u) == pytest.approx(np.linalg.norm(u), abs=1e-9)
    # the cone holds 0, so no distance exceeds ||v||; at an interior point
    # the cone is {0} and the distance is ||v||
    assert 0.0 <= normal_cone_distance(fset, x, v) <= np.linalg.norm(v) + 1e-12
    inner = _interior_point(fset)
    assert normal_cone_distance(fset, inner, v) == pytest.approx(np.linalg.norm(v))
