import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mgflow import (
    PiecewisePolynomial,
    TargetFunction,
    abs_offset_target,
    affine_target,
    constant_target,
    discrete_measure,
    integrate,
    piecewise_linear_target,
    polynomial_target,
    uniform_measure,
)
from mgflow import targets
from mgflow.quadrature import (
    HALF,
    ONE,
    TWO,
    ZERO,
    QuadratureError,
    composite_rule,
    constant,
    gauss_legendre,
    quadrature_nodes,
    segment_rule,
)


@pytest.mark.parametrize("const, value",
                         [(HALF, 0.5), (ZERO, 0.0), (ONE, 1.0), (TWO, 2.0), (constant(3), 3.0)])
def test_stage_loop_constants_are_read_only_0d_float64(const, value):
    # shared by every stage of every circle flow and network run: a write must not go through
    assert type(const) is np.ndarray and const.dtype == np.float64 and const.shape == ()
    with pytest.raises(ValueError, match="read-only"):
        const[...] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(const, 1.0, out=const)
    assert const.tobytes() == np.float64(value).tobytes()


class TestIntegrate:
    def test_total_mass(self):
        mu = uniform_measure(0, 1, 1)
        assert integrate(lambda X: np.ones(X.shape[0]), mu) == pytest.approx(1.0)

    def test_square_exact_on_segments(self):
        mu = uniform_measure(0, 1, 1)
        val = integrate(lambda X: X[:, 0] ** 2, mu, breakpoints=[])
        assert val == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_kinked_integrand_with_declared_breakpoint(self):
        mu = uniform_measure(0, 1, 1)
        val = integrate(lambda X: np.maximum(2 * X[:, 0] - 1, 0.0), mu, breakpoints=[0.5])
        assert val == pytest.approx(0.25, abs=1e-15)

    def test_discrete_weighted_sum(self):
        mu = discrete_measure([[0.1], [0.9]], [2.0, 3.0])
        assert integrate(lambda X: X[:, 0], mu) == pytest.approx(2 * 0.1 + 3 * 0.9)

    def test_linear_in_integrand(self):
        mu = uniform_measure(0, 1, 1)
        rng = np.random.default_rng(2)
        a, b = rng.standard_normal(2)
        f = lambda X: np.sin(3 * X[:, 0])
        g = lambda X: X[:, 0] ** 3
        combined = integrate(lambda X: a * f(X) + b * g(X), mu, resolution=256)
        assert combined == pytest.approx(
            a * integrate(f, mu, resolution=256) + b * integrate(g, mu, resolution=256)
        )

    def test_monotone_for_nonnegative_integrands(self):
        mu = uniform_measure(-1, 2, 1)
        small = integrate(lambda X: X[:, 0] ** 2, mu, resolution=128)
        big = integrate(lambda X: X[:, 0] ** 2 + 0.5, mu, resolution=128)
        assert 0.0 <= small <= big

    def test_tensor_grid_matches_product(self):
        mu = uniform_measure(0, 1, 2)
        val = integrate(lambda X: X[:, 0] * X[:, 1], mu, resolution=16)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_non_finite_integrand_reported(self):
        mu = uniform_measure(0, 1, 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(QuadratureError):
                integrate(lambda X: 1.0 / (X[:, 0] - X[:, 0]), mu, resolution=16)

    def test_weights_positive(self):
        x, w = segment_rule(np.array([0.0, 0.3, 1.0]))
        assert np.all(w > 0) and x.size == w.size
        x, w = composite_rule(0.0, 1.0, 64)
        assert np.all(w > 0) and w.sum() == pytest.approx(1.0)


class TestCachedRules:
    def _work(self):
        from mgflow import FlowConfig, TargetFunction, integrate_flow, random_params
        from mgflow.one_neuron import OneNeuronProblem
        from mgflow.params import Architecture

        xi = random_params(Architecture((1, 8, 1)), np.random.default_rng(13))
        f = TargetFunction.from_scalar(abs_offset_target(0.3))
        integrate_flow(xi, uniform_measure(0, 1, 1), f, FlowConfig(t_end=0.003, step=1e-3))
        integrate(lambda X: X[:, 0] * X[:, 1], uniform_measure(0, 1, 2), resolution=16)
        OneNeuronProblem(abs_offset_target(0.4))

    def test_reference_rules_are_computed_once(self, monkeypatch):
        self._work()
        calls = []
        build = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", lambda n: calls.append(n) or build(n))
        self._work()
        assert calls == []

    def test_cached_arrays_are_read_only(self):
        X, w = quadrature_nodes(uniform_measure(0, 1, 2), resolution=8)
        again = quadrature_nodes(uniform_measure(0, 1, 2), resolution=8)
        assert again[0] is X and again[1] is w
        for arr in (X, w, *gauss_legendre(12)):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestMeasureValidation:
    def test_discrete_points_must_lie_in_box(self):
        with pytest.raises(ValueError):
            discrete_measure([[1.5]], [1.0], a=0.0, b=1.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            discrete_measure([[0.5]], [-1.0])

    def test_total_mass(self):
        assert uniform_measure(0, 2, 2).total_mass == pytest.approx(4.0)
        assert discrete_measure([[0.2], [0.4]], [1.0, 2.5]).total_mass == pytest.approx(3.5)


_NON_FINITE_TARGETS = [
    pytest.param(lambda: PiecewisePolynomial((0.0, np.nan, 1.0), ((1.0,), (2.0,))), id="inner break nan"),
    pytest.param(lambda: PiecewisePolynomial((-np.inf, 0.5, 1.0), ((1.0,), (2.0,))), id="first break -inf"),
    pytest.param(lambda: PiecewisePolynomial((0.0, 0.5, np.inf), ((1.0,), (2.0,))), id="last break inf"),
    pytest.param(lambda: PiecewisePolynomial((0.0, 0.5, 1.0), ((1.0,), (np.nan, 2.0))), id="coefficient nan"),
    pytest.param(lambda: PiecewisePolynomial((0.0, 1.0), ((1.0, -np.inf),)), id="coefficient -inf"),
    pytest.param(lambda: piecewise_linear_target([0.0, np.nan, 1.0], [0.0, 1.0, 0.0]), id="knot location nan"),
    pytest.param(lambda: piecewise_linear_target([-np.inf, 0.0, 1.0], [0.0, 1.0, 0.0]), id="first knot location -inf"),
    pytest.param(lambda: piecewise_linear_target([0.0, 1.0, np.inf], [0.0, 1.0, 0.0]), id="last knot location inf"),
    pytest.param(lambda: piecewise_linear_target([0.0, 0.5, 1.0], [np.nan, 1.0, 0.0]), id="knot value nan"),
    pytest.param(lambda: piecewise_linear_target([0.0, 0.5, 1.0], [0.0, 1.0, np.inf]), id="knot value inf"),
    pytest.param(lambda: piecewise_linear_target([0.0, 1e-300, 1.0], [0.0, 1e10, 0.0]), id="knot slope overflows"),
    pytest.param(lambda: constant_target(np.nan), id="constant nan"),
    pytest.param(lambda: affine_target(np.inf, 1.0), id="affine intercept inf"),
    pytest.param(lambda: affine_target(0.0, np.nan), id="affine slope nan"),
    pytest.param(lambda: abs_offset_target(np.nan), id="abs_offset center nan"),
    pytest.param(lambda: abs_offset_target(np.inf), id="abs_offset center inf"),
    pytest.param(lambda: polynomial_target([1.0, np.nan, 2.0]), id="polynomial coefficient nan"),
]


class TestTargets:
    @pytest.mark.parametrize("build", _NON_FINITE_TARGETS)
    def test_non_finite_breaks_coefficients_and_knots_are_refused(self, build):
        # a nan compares false, so the ordering checks alone let it through,
        # and the mean and fbar of such a target would be nan
        with pytest.raises(ValueError, match="finite"):
            build()

    def test_builders_evaluate(self):
        s = np.linspace(0, 1, 7)
        np.testing.assert_allclose(constant_target(2.0)(s), 2.0)
        np.testing.assert_allclose(affine_target(1.0, -2.0)(s), 1.0 - 2.0 * s)
        np.testing.assert_allclose(abs_offset_target(0.3)(s), np.abs(s - 0.3))
        p = polynomial_target([0.0, 0.0, 1.0])
        np.testing.assert_allclose(p(s), s**2)

    def test_primitive_table_is_built_on_first_use(self, monkeypatch):
        # network runs wrap a scalar target and never read the table
        calls = []
        build = targets._primitive_table
        monkeypatch.setattr(targets, "_primitive_table", lambda *a: calls.append(1) or build(*a))
        p = piecewise_linear_target(np.linspace(0.0, 1.0, 9), np.linspace(-1.0, 1.0, 9) ** 2)
        TargetFunction.from_scalar(p)
        assert calls == []
        assert p.mean() == pytest.approx(11.0 / 32.0)  # trapezoid rule for u^2 on [-1, 1]
        p.mean()
        assert calls == [1]

    def test_piecewise_linear_interpolates_knots(self):
        f = piecewise_linear_target([0.0, 0.4, 1.0], [1.0, -1.0, 0.5])
        np.testing.assert_allclose(f(np.array([0.0, 0.4, 1.0])), [1.0, -1.0, 0.5])
        assert f(0.2) == pytest.approx(0.0)

    def test_mean_and_moments_match_quadrature(self):
        mu = uniform_measure(0, 1, 1)
        rng = np.random.default_rng(3)
        for _ in range(20):
            knots = np.concatenate(([0.0], np.sort(rng.uniform(0.1, 0.9, 2)), [1.0]))
            f = piecewise_linear_target(knots, rng.standard_normal(4))
            fbar = f.mean()
            assert fbar == pytest.approx(
                integrate(lambda X: f(X[:, 0]), mu, breakpoints=f.interior_breaks())
            )
            lo, hi = rng.uniform(0, 1, 2)
            lo, hi = min(lo, hi), max(lo, hi)
            A, B = f.partial_moments(lo, hi, fbar)
            bp = np.concatenate((f.interior_breaks(), [lo, hi]))
            A_ref = integrate(
                lambda X: (fbar - f(X[:, 0])) * ((X[:, 0] >= lo) & (X[:, 0] <= hi)),
                mu, breakpoints=bp,
            )
            B_ref = integrate(
                lambda X: (fbar - f(X[:, 0])) * X[:, 0] * ((X[:, 0] >= lo) & (X[:, 0] <= hi)),
                mu, breakpoints=bp,
            )
            assert float(A) == pytest.approx(A_ref, abs=1e-14)
            assert float(B) == pytest.approx(B_ref, abs=1e-14)

    def test_lipschitz_bounds(self):
        assert constant_target(3.0).lipschitz_bound() == 0.0
        assert affine_target(0.0, -2.5).lipschitz_bound() == pytest.approx(2.5)
        assert abs_offset_target(0.3).lipschitz_bound() == pytest.approx(1.0)
        # cubic with interior slope extremum
        p = polynomial_target([0.0, 0.0, 3.0, -2.0])  # f' = 6s - 6s^2, max 1.5 at s=1/2
        assert p.lipschitz_bound() == pytest.approx(1.5)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            polynomial_target([0.0] * 8)

    def test_evaluation_matches_per_piece_polyval(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            pieces = int(rng.integers(1, 5))
            breaks = np.sort(rng.uniform(-1, 2, pieces + 1))
            coeffs = [tuple(rng.standard_normal(rng.integers(1, 7))) for _ in range(pieces)]
            f = PiecewisePolynomial(tuple(breaks), tuple(coeffs))
            s = rng.uniform(-1.5, 2.5, 50)
            piece = np.clip(np.searchsorted(f.breaks, s, side="right") - 1, 0, pieces - 1)
            ref = [np.polynomial.polynomial.polyval(x, coeffs[j]) for x, j in zip(s, piece)]
            np.testing.assert_array_equal(f(s), ref)
            assert f(float(s[0])) == ref[0]

    @pytest.mark.parametrize("coeffs", [((0.5, -2.0), (1.0, 0.25, -3.0), (-0.0,)), ((1.5, -0.5),)],
                             ids=["three pieces", "one piece"])
    def test_evaluation_is_polyval_bit_for_bit_at_special_points(self, coeffs):
        # polyval's first step c[-1] + s * 0.0 on the piece's coefficients,
        # zero-padded to the top degree: signed zeros, nan and inf included
        breaks = (-0.5, 0.0, 0.75, 2.0)[: len(coeffs) + 1]
        f = PiecewisePolynomial(breaks, coeffs)
        pad = max(map(len, coeffs))
        s = np.array(list(breaks) + [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, -3.0, 5.0,
                                     np.nextafter(breaks[1], -np.inf), np.nextafter(breaks[-1], np.inf)])
        piece = np.clip(np.searchsorted(breaks[1:-1], s, side="right"), 0, len(coeffs) - 1)
        with np.errstate(invalid="ignore"):  # inf * 0.0
            ref = np.array([np.polynomial.polynomial.polyval(x, coeffs[j] + (0.0,) * (pad - len(coeffs[j])))
                            for x, j in zip(s, piece)])
            assert f(s).tobytes() == ref.tobytes()
            assert all(np.float64(f(float(x))).tobytes() == r.tobytes() for x, r in zip(s, ref))

    def test_empty_interval_moments_vanish(self):
        f = affine_target(0.0, 1.0)
        A, B = f.partial_moments(np.array([0.7]), np.array([0.2]), f.mean())
        assert A[0] == 0.0 and B[0] == 0.0


def _domain_ends(f, lo, hi):
    """[lo, max(lo, hi)] clipped to f's domain: the (2, ...) ends `lookup_moments` takes."""
    return np.clip(np.broadcast_arrays(lo, np.maximum(lo, hi)), f.breaks[0], f.breaks[-1])


def _gauss_moments(f, lo, hi):
    """Per-piece Gauss-Legendre reference for the five moments over [lo, hi] at one pair."""
    x, w = np.polynomial.legendre.leggauss(8)  # exact up to degree 15
    out = np.zeros(5)
    lo, hi = max(lo, f.breaks[0]), min(hi, f.breaks[-1])
    for j, c in enumerate(f.coeffs):
        a, b = max(lo, f.breaks[j]), min(hi, f.breaks[j + 1])
        if b <= a:
            continue
        s = (a + b) / 2.0 + (b - a) / 2.0 * x
        ws = (b - a) / 2.0 * w
        fs = np.polynomial.polynomial.polyval(s, c)
        out += [ws.sum(), ws @ s, ws @ s**2, ws @ fs, ws @ (s * fs)]
    return out


@st.composite
def _piecewise_and_ends(draw):
    """Degree-5 pieces of width down to 1e-3 inside [0, 1], coefficients up to
    1e3, and interval ends on breaks, inside pieces or outside the domain."""
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(1e-3, 1.0 / n), min_size=n, max_size=n))
    start = draw(st.floats(0.0, 1.0 - sum(widths)))
    breaks = start + np.concatenate(([0.0], np.cumsum(widths)))
    coef = st.floats(-1e3, 1e3, allow_subnormal=False)
    coeffs = [tuple(draw(st.lists(coef, min_size=6, max_size=6))) for _ in range(n)]
    end = st.one_of(st.sampled_from(list(breaks)), st.floats(-0.5, 1.5))
    ends = draw(st.lists(st.tuples(end, end), min_size=1, max_size=8))
    return PiecewisePolynomial(tuple(breaks), tuple(coeffs)), np.array(ends)


class TestIntervalMoments:
    @settings(max_examples=300, deadline=None)
    @given(_piecewise_and_ends())
    @example((PiecewisePolynomial((0.2, 0.201, 1.0), ((1e3,) * 6, (-1e3,) * 6)),
              np.array([[0.201, 0.2], [0.2, 0.201], [-1.0, 2.0], [0.5, 0.5]])))
    def test_matches_per_piece_gauss_legendre(self, case):
        f, ends = case
        tol = 1e-14 * (1.0 + max(abs(c) for piece in f.coeffs for c in piece))
        got = f.lookup_moments(_domain_ends(f, ends[:, 0], ends[:, 1]))
        ref = np.array([_gauss_moments(f, lo, hi) for lo, hi in ends]).T
        np.testing.assert_allclose(got, ref, rtol=0, atol=tol)
        fbar = 0.25
        A, B = f.partial_moments(ends[:, 0], ends[:, 1], fbar)
        np.testing.assert_allclose(A, fbar * ref[0] - ref[3], rtol=0, atol=tol)
        np.testing.assert_allclose(B, fbar * ref[1] - ref[4], rtol=0, atol=tol)
        # a scalar lo broadcasts against an array hi
        wide = f.lookup_moments(_domain_ends(f, float(ends[0, 0]), ends[:, 1]))
        ref = np.array([_gauss_moments(f, ends[0, 0], hi) for hi in ends[:, 1]]).T
        np.testing.assert_allclose(wide, ref, rtol=0, atol=tol)
        A, B = f.partial_moments(float(ends[0, 0]), ends[:, 1], fbar)
        np.testing.assert_allclose(A, fbar * ref[0] - ref[3], rtol=0, atol=tol)
        np.testing.assert_allclose(B, fbar * ref[1] - ref[4], rtol=0, atol=tol)
        assert f.integral() == pytest.approx(_gauss_moments(f, -np.inf, np.inf)[3], rel=0, abs=tol)

    def test_reversed_and_outside_intervals_are_exactly_empty(self):
        f = abs_offset_target(0.3)
        for lo, hi in ((0.7, 0.2), (1.2, 1.5), (-0.5, -0.1), (0.3, 0.3)):
            assert all(v == 0.0 for v in f.lookup_moments(_domain_ends(f, lo, hi)))
            assert all(v == 0.0 for v in f.partial_moments(lo, hi, 0.25))


def _nodes_with_unique(breakpoints, a, b):
    """The exact node build as it was made with np.unique: the finite
    breakpoints strictly inside (a, b), deduplicated, between a and b."""
    bp = np.asarray(breakpoints, dtype=float).ravel()
    bp = bp[np.isfinite(bp)]
    x, w = segment_rule(np.concatenate(([a], np.unique(bp[(bp > a) & (bp < b)]), [b])))
    return x[:, None], w


def _same_bits(got, ref):
    return all(g.shape == r.shape and g.tobytes() == r.tobytes() for g, r in zip(got, ref))


_BOX = st.sampled_from([(0.0, 1.0), (-1.0, 2.0)])
# repeats, the box ends, out-of-range values, nan and +-inf
_SPECIAL = st.sampled_from([0.0, 1.0, -1.0, 2.0, 0.25, 0.5, -0.0, 3.5, np.nan, np.inf, -np.inf])
_BREAKPOINTS = st.lists(st.one_of(_SPECIAL, st.floats(-3.0, 3.0)), max_size=12)


class TestExactNodeBuild:
    @settings(max_examples=300, deadline=None)
    @given(_BOX, _BREAKPOINTS)
    @example((0.0, 1.0), [])
    @example((0.0, 1.0), [0.5, 0.5, 0.0, 1.0, np.nan, np.inf, -np.inf, 7.0, 0.25, 0.5])
    def test_matches_the_unique_construction(self, box, breakpoints):
        a, b = box
        got = quadrature_nodes(uniform_measure(a, b, 1), breakpoints=np.array(breakpoints))
        assert _same_bits(got, _nodes_with_unique(breakpoints, a, b))

    # how the node-build test alters hidden row i of a 1,width,1 network
    # (w, b): a dead neuron, a zero row, a kink at a = 0, the knot 1/r at a,
    # a kink at b = 1, a kink on the target break 0.5, a copy of the row before
    _ROW_CASES = ("keep", "w0", "zero", "b0", "knot_at_a", "at_b", "at_break", "copy")

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from([1.0, 3.0, 50.0, np.inf]),
           st.lists(st.sampled_from([0.0, 0.3, 0.5, 1.0]), max_size=3),
           st.lists(st.sampled_from(_ROW_CASES), min_size=9, max_size=9))
    @example(0, 6, np.inf, [0.5], ["w0", "zero", "b0", "at_b", "at_break", "copy"] + ["keep"] * 3)
    @example(0, 6, 50.0, [0.5, 0.3], ["w0", "b0", "knot_at_a", "at_b", "at_break", "copy"] + ["keep"] * 3)
    def test_exact_breakpoints_feed_the_same_nodes(self, seed, width, r, f_breaks, cases):
        from unittest import mock

        from mgflow import ParamVector, exact_breakpoints, quadrature
        from mgflow.dynamics import _network_field
        from mgflow.quadrature import quiet
        from mgflow.params import Architecture
        from mgflow.smoothing import activation_knots

        rng = np.random.default_rng(seed)
        theta = ParamVector(Architecture((1, width, 1)), rng.standard_normal(3 * width + 1))
        w, b = theta.weights(1)[:, 0], theta.biases(1)
        for i, case in enumerate(cases[:width]):
            if case in ("w0", "zero"):
                w[i] = 0.0  # dead neuron: +-inf, or nan for a zero row, dropped
                b[i] = 0.0 if case == "zero" else b[i]
            elif case == "b0":
                b[i] = 0.0  # kink at x = 0
            elif case == "knot_at_a" and r != np.inf:
                b[i] = 1.0 / r  # the knot 1/r crosses at x = 0
            elif case == "at_b":
                b[i] = -w[i]  # kink at x = 1
            elif case == "at_break":
                b[i] = -0.5 * w[i]  # kink at x = 0.5 exactly
            elif case == "copy" and i > 0:
                w[i], b[i] = w[i - 1], b[i - 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            loop = [(c - b) / w for c in activation_knots(r)] + [np.array(f_breaks, dtype=float)]
        bp = exact_breakpoints(theta, f_breaks=f_breaks, r=r)
        assert bp.tobytes() == np.concatenate(loop).tobytes()
        mu = uniform_measure(0.0, 1.0, 1)
        got = quadrature_nodes(mu, breakpoints=bp)
        assert _same_bits(got, _nodes_with_unique(bp, 0.0, 1.0))

        # the flow's field builds the same nodes, from the rows it gathers and
        # the domain ends and target breaks it reads once, through the segment
        # rule that the network module looks up in `quadrature`
        f = TargetFunction(lambda x: np.abs(x - 0.3), breakpoints=np.array(f_breaks, dtype=float))
        field = quiet(_network_field(theta.arch, mu, f, r, None))  # as fixed_step runs it
        built = []

        def spy(*args, **kwargs):
            x, w = segment_rule(*args, **kwargs)
            built.append((x[:, None], w))
            return x, w

        with mock.patch.object(quadrature, "segment_rule", spy):
            field(theta.values[None, :], False)
        assert len(built) == 1 and _same_bits(built[0], got)
