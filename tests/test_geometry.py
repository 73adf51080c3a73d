import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from sslalm.geometry import (
    Ball,
    BlockProduct,
    Box,
    NonnegativeOrthant,
    WholeSpace,
    normal_cone_distance,
    prox_preconditioned,
)


def unit_box(n):
    return Box(np.full(n, -1.0), np.full(n, 1.0))


ALL_SETS = [
    WholeSpace(3),
    unit_box(3),
    Ball(np.zeros(3), 1.0),
    NonnegativeOrthant(3),
    BlockProduct((unit_box(2), NonnegativeOrthant(2))),
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
        fset = BlockProduct((unit_box(2), NonnegativeOrthant(1)))
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


class TestProxPreconditioned:
    def test_whole_space_closed_form(self):
        z = prox_preconditioned(WholeSpace(1), [0.0], [0.5], [1.0])
        assert z == pytest.approx([-0.5])

    def test_box_clamps_unconstrained_minimizer(self):
        z = prox_preconditioned(unit_box(1), [0.0], [2.0], [1.0])
        assert z == pytest.approx([-1.0])

    def test_ball_matches_grid_oracle(self):
        # minimizer lands on the boundary; oracle enumerates a dense boundary
        # grid plus the unconstrained point
        fset = Ball(np.zeros(2), 1.0)
        x = np.zeros(2)
        y = np.array([3.0, 0.0])
        v = np.array([1.0, 4.0])
        z = prox_preconditioned(fset, x, y, v)

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
                lhs = prox_preconditioned(fset, x, y, np.ones(fset.dim))
                rhs = fset.project(x - y)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    @pytest.mark.parametrize("fset", ALL_SETS)
    def test_optimality_against_sampled_points(self, fset):
        rng = np.random.default_rng(4)
        x = fset.sample(rng)
        y = rng.standard_normal(fset.dim)
        v = rng.uniform(0.5, 3.0, fset.dim)
        z = prox_preconditioned(fset, x, y, v)

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
        with pytest.raises(ValueError):
            prox_preconditioned(unit_box(1), [0.0], [1.0], [0.0])


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

    def test_rejects_infeasible_point(self):
        with pytest.raises(ValueError):
            normal_cone_distance(unit_box(1), [1.5], [0.0])


def test_sample_points_are_feasible():
    rng = np.random.default_rng(5)
    for fset in ALL_SETS:
        for _ in range(200):
            assert fset.contains(fset.sample(rng))


def test_box_validation():
    with pytest.raises(ValueError):
        Box(np.array([1.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)


def test_nested_block_product():
    inner = BlockProduct((unit_box(1), NonnegativeOrthant(1)))
    outer = BlockProduct((inner, Ball(np.zeros(2), 1.0)))
    assert outer.dim == 4
    x = np.array([2.0, -3.0, 3.0, 4.0])
    z = outer.project(x)
    assert z == pytest.approx([1.0, 0.0, 0.6, 0.8])
    assert outer.contains(z)
    rng = np.random.default_rng(0)
    for _ in range(100):
        assert outer.contains(outer.sample(rng))


BLOCK_KINDS = {
    "box": lambda d: Box(np.linspace(-1.0, 0.0, d), np.linspace(0.5, 2.0, d)),
    "orthant": NonnegativeOrthant,
    "ball": lambda d: Ball(np.full(d, 0.5), 1.5),
    "whole": WholeSpace,
    "product": lambda d: BlockProduct((unit_box(d), NonnegativeOrthant(1))),
}


@settings(max_examples=200, deadline=None)
@given(
    kinds=st.lists(st.tuples(st.sampled_from(sorted(BLOCK_KINDS)), st.integers(1, 3)),
                   min_size=1, max_size=4),
    data=st.data(),
)
def test_block_product_equals_per_block_concatenation(kinds, data):
    blocks = tuple(BLOCK_KINDS[kind](d) for kind, d in kinds)
    fset = BlockProduct(blocks)
    n = sum(b.dim for b in blocks)
    assert fset.dim == n
    finite = st.floats(-5.0, 5.0, allow_nan=False)
    x = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(finite, min_size=n, max_size=n)))
    v = np.array(data.draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))
    cuts = np.cumsum([0] + [b.dim for b in blocks])
    parts = [slice(cuts[i], cuts[i + 1]) for i in range(len(blocks))]
    proj = np.concatenate([b.project(x[s]) for b, s in zip(blocks, parts)])
    prox = np.concatenate([b.prox_weighted(x[s], y[s], v[s]) for b, s in zip(blocks, parts)])
    z = fset.project(x)
    assert z.tobytes() == proj.tobytes()
    assert fset.prox_weighted(x, y, v).tobytes() == prox.tobytes()
    assert fset.project(z).tobytes() == z.tobytes()
    assert fset.contains(z)


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
    z = prox_preconditioned(fset, x, y, v)
    assert z == pytest.approx(x - y / v)


# Property tests for each basic set: projection, weighted prox and the sign
# conventions of the normal-cone distance, on sets and points drawn by hypothesis.

def _vectors(n, lo=-5.0, hi=5.0):
    return st.lists(st.floats(lo, hi), min_size=n, max_size=n).map(np.array)


@st.composite
def basic_sets(draw, max_dim=4):
    kind = draw(st.sampled_from(["box", "ball", "orthant", "whole"]))
    n = draw(st.integers(1, max_dim))
    if kind == "box":
        lower = draw(_vectors(n, -2.0, 2.0))
        return Box(lower, lower + draw(_vectors(n, 0.1, 3.0)))
    if kind == "ball":
        return Ball(draw(_vectors(n, -2.0, 2.0)), draw(st.floats(0.5, 3.0)))
    return NonnegativeOrthant(n) if kind == "orthant" else WholeSpace(n)


def _interior_point(fset):
    if isinstance(fset, Box):
        return 0.5 * (fset.lower + fset.upper)
    if isinstance(fset, Ball):
        return fset.center
    return np.ones(fset.dim)


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
        if isinstance(fset, Box):
            bounds = list(zip(fset.lower, fset.upper))
        else:
            lower = 0.0 if isinstance(fset, NonnegativeOrthant) else None
            bounds = [(lower, None)] * fset.dim
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
    z = prox_preconditioned(fset, x, y, v)
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
