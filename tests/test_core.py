"""Network evaluation oracles, activation admissibility, test-function
calculus, and stream reproducibility."""

import time
import warnings

import numpy as np
import pytest

from meanfield_sgd import (ConfigError, RandomStreams, RejectedInputError,
                           activation, clamped_polynomial, constant_one,
                           default_init, default_test_functions,
                           gaussian_bump, mean_output, pair, sample_init,
                           smoothed_coordinate)
from meanfield_sgd.core import (DIVERGENCE_LIMIT, DivergedError, _clamp_d1,
                                _clamp_value, activation_deriv,
                                guard_divergence)

TANH = activation("tanh")


def test_network_output_two_unit_oracle():
    """The network output through ``mean_output``, the one sum every
    network output takes; hand value: (tanh(0.5) - tanh(1.0)) / 2."""
    w, x = np.array([[0.5], [1.0]]), np.array([1.0])
    got = mean_output(np.array([1.0, -1.0]), TANH.value(w @ x))
    assert got == pytest.approx(-0.1497384993478776, abs=1e-15)


def test_network_output_logistic_oracle():
    act = activation("logistic")
    w, x = np.array([[1.0, -1.0]]), np.array([0.5, 0.25])
    got = mean_output(np.array([2.0]), act.value(w @ x))
    assert got == pytest.approx(1.1243530017715962, abs=1e-15)


def test_mean_output_is_one_dot_per_row():
    """Over rows of s, with one c for all rows or one c row per row of s,
    each output is the floats of (s_row @ c_row) / n."""
    rng = np.random.default_rng(4)
    s, c = rng.standard_normal((7, 5, 33)), rng.standard_normal((7, 5, 33))
    want = np.array([[float(s[i, j] @ c[i, j]) / 33 for j in range(5)]
                     for i in range(7)])
    assert np.array_equal(mean_output(c, s), want)
    assert np.array_equal(mean_output(c[0, 0], s[0]),
                          [float(row @ c[0, 0]) / 33 for row in s[0]])


# ---------------------------------------------------------------------------
# activations


def test_relu_is_rejected_with_reason():
    with pytest.raises(ConfigError, match="twice"):
        activation("relu")
    with pytest.raises(ConfigError):
        activation("gelu")


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
def test_activation_derivatives_by_finite_differences(kind):
    act = activation(kind)
    z = np.random.default_rng(3).uniform(-4, 4, size=200)
    h = 1e-6
    fd1 = (act.value(z + h) - act.value(z - h)) / (2 * h)
    assert np.max(np.abs(fd1 - act.deriv(z))) < 1e-8


def test_deriv_from_value_shortcut():
    for kind in ("tanh", "logistic"):
        act = activation(kind)
        z = np.linspace(-3, 3, 101)
        assert np.allclose(act.deriv_from_value(act.value(z)), act.deriv(z),
                           atol=1e-14)
    assert activation("smooth-bump").deriv_from_value is None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_deriv_from_value_is_the_written_out_form_bitwise(dtype):
    """The one sigma'-from-sigma function, built from each activation's
    coefficients, gives the floats of 1 - v*v (tanh) and v*(1 - v)
    (logistic) on 10^6 random z, allocating and in place, so that every
    SGD step takes the same sigma' as the hand-written forms did."""
    z = np.random.default_rng(11).normal(scale=4.0, size=10 ** 6).astype(dtype)
    for kind, coef, form in (("tanh", (1.0, 0.0, -1.0), lambda v: 1.0 - v * v),
                             ("logistic", (0.0, 1.0, -1.0),
                              lambda v: v * (1.0 - v))):
        act = activation(kind)
        assert act.deriv_poly == coef
        v = act.value(z)
        want = form(v)
        assert want.dtype == dtype
        assert np.array_equal(act.deriv_from_value(v), want)
        assert np.array_equal(act.deriv_from_value(v, out=v), want)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_logistic_matches_scipy_expit(dtype):
    """sigma = 1 / (1 + e^-z) in numpy, against scipy's expit on 10^6 z in
    [-60, 60]: both evaluate that formula, but numpy's exp is not the C
    library's, and each of the two results lies up to about 2.5 ulps
    from the exact value (the exp, the sum and the quotient each round),
    so they may differ by 4 ulps; both keep the argument's dtype."""
    from scipy.special import expit
    z = np.linspace(-60.0, 60.0, 10 ** 6 + 1).astype(dtype)
    got, want = activation("logistic").value(z), expit(z)
    assert got.dtype == dtype
    np.testing.assert_array_max_ulp(got, want, maxulp=4)


def test_logistic_saturates_silently_and_writes_out():
    """At z = -/+1000 e^-z overflows to inf or vanishes, and sigma is exactly
    0 and 1 with no warning, in float32 and float64; ``out=`` writes sigma
    in place over z and returns it."""
    act = activation("logistic")
    for dtype in (np.float32, np.float64):
        z = np.array([-1000.0, 0.0, 1000.0], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = act.value(z)
            d = act.deriv(z)
        assert v.tolist() == [0.0, 0.5, 1.0] and v.dtype == dtype
        assert d.tolist() == [0.0, 0.25, 0.0]
        assert act.value(z, out=z) is z and np.array_equal(z, v)


@pytest.mark.parametrize("kind", ["tanh", "logistic", "smooth-bump"])
def test_in_place_forms_are_bit_identical(kind):
    """out= writes the same bits as the allocating call, also in place over
    sigma and across more than one scratch block (300 x 400 elements)."""
    act = activation(kind)
    z = np.random.default_rng(3).normal(scale=3.0, size=(300, 400))
    v = act.value(z)
    buf = np.empty_like(z)
    assert np.array_equal(act.value(z, out=buf), v)
    assert np.array_equal(activation_deriv(act, z, buf, out=buf),
                          act.deriv(z))


# ---------------------------------------------------------------------------
# test functions


def _all_test_functions(d=2):
    return [
        smoothed_coordinate(),
        clamped_polynomial(1, (1,) + (0,) * (d - 1)),
        clamped_polynomial(2, (0, 1)),
        gaussian_bump(0.0, np.zeros(d), scale=1.5),
        gaussian_bump(0.5, np.full(d, -0.25), scale=0.8),
    ]


def test_gradients_and_hessians_by_finite_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for f in _all_test_functions():
        for _ in range(20):
            c = rng.uniform(-6, 6, size=3)
            w = rng.uniform(-6, 6, size=(3, 2))
            gc, gw = f.grad(c, w)
            fd = (f.value(c + h, w) - f.value(c - h, w)) / (2 * h)
            assert np.max(np.abs(gc - fd)) < 1e-6, f.label
            for j in range(2):
                dw = np.zeros_like(w)
                dw[:, j] = h
                fdw = (f.value(c, w + dw) - f.value(c, w - dw)) / (2 * h)
                assert np.max(np.abs(gw[:, j] - fdw)) < 1e-6, f.label


def test_test_functions_are_bounded():
    rng = np.random.default_rng(8)
    c = rng.uniform(-1e6, 1e6, size=4000)
    w = rng.uniform(-1e6, 1e6, size=(4000, 2))
    for f in _all_test_functions():
        vals = f.value(c, w)
        assert np.all(np.isfinite(vals))
        assert np.max(np.abs(vals)) < 1e3, f.label


def test_clamp_exactly_inactive_inside_window():
    """Inside [-a, a] the smooth clamp returns its argument's own floats."""
    f = smoothed_coordinate(a=4.0, b=2.0)
    c = np.array([2.0, -3.999, 0.125])
    w = np.zeros((3, 2))
    assert np.array_equal(f.value(c, w), c)
    assert np.array_equal(f.grad(c, w)[0], np.ones(3))
    # outside the window the value saturates below a + b
    far = np.array([1e9, -1e9])
    vals = f.value(far, np.zeros((2, 2)))
    assert np.all(np.abs(vals) <= 6.0)
    assert np.all(np.abs(vals) > 4.0)


def test_clamp_seam_is_c2():
    """psi'' is a central difference of df/dc taken wholly on one side of
    the seam at |u| = a, once inside and once outside the window."""
    f = smoothed_coordinate(a=4.0, b=2.0)
    w = np.zeros((2, 1))
    h = 1e-7
    for side in (4.0, -4.0):
        lo = np.array([side - h, side + h])
        v = f.value(lo, w)
        assert abs(v[1] - v[0]) < 3 * h            # continuous
        g = f.grad(lo, w)[0]
        assert abs(g[1] - g[0]) < 1e-5             # C^1 across the seam
        at = np.array([side - 2 * h, side + 2 * h])
        s = (f.grad(at + h, w)[0] - f.grad(at - h, w)[0]) / (2 * h)
        assert abs(s[1] - s[0]) < 1e-4             # C^2 across the seam


def test_constant_one_everything():
    f = constant_one()
    c = np.array([3.0, -7.0])
    w = np.array([[1.0], [2.0]])
    assert np.array_equal(f.value(c, w), [1.0, 1.0])
    gc, gw = f.grad(c, w)
    assert not gc.any() and not gw.any()


def test_clamped_polynomial_matches_plain_product_inside_window():
    f = clamped_polynomial(1, (1, 0))
    c = np.array([0.5, -1.0])
    w = np.array([[2.0, 9.0], [3.0, -4.0]])
    assert np.allclose(f.value(c, w), np.array([1.0, -3.0]))


def test_default_test_functions_labels_distinct():
    fs = default_test_functions(2)
    assert len(fs) == 3
    assert len({f.label for f in fs}) == 3
    c = np.zeros(5)
    w = np.zeros((5, 2))
    for f in fs:
        assert f.value(c, w).shape == (5,)


def _dense_monomial(c_exp, w_exps, a=4.0, b=2.0):
    """value, df/dc and grad_w of psi(c^c_exp * prod_j w_j^w_exps[j]) by
    formulas that multiply over all d axes, exponent-0 axes as factors of
    w_j^0 = 1 and their derivative as 0 times the rest."""

    def mono_d1(v, e):
        return np.zeros_like(v) if e == 0 else e * v ** (e - 1)

    def evaluate(c, w):
        cf = c ** c_exp
        wf = np.stack([w[:, j] ** e for j, e in enumerate(w_exps)], axis=1)
        p = cf * np.prod(wf, axis=1)
        d1 = _clamp_d1(p, a, b)
        g = np.empty_like(w)
        for j, e in enumerate(w_exps):
            others = np.prod(np.delete(wf, j, axis=1), axis=1)
            g[:, j] = d1 * cf * mono_d1(w[:, j], e) * others
        return (_clamp_value(p, a, b),
                d1 * mono_d1(c, c_exp) * np.prod(wf, axis=1), g)

    return evaluate


def _monomial_cases(d):
    """(test function, c exponent, {axis: exponent}) for the three public
    builders, with 1, 2 and 3 nonzero w exponents as far as d allows."""

    def poly(c_exp, named):
        exps = [named.get(j, 0) for j in range(d)]
        return clamped_polynomial(c_exp, exps), c_exp, named

    cases = [(smoothed_coordinate(), 1, {}),
             (constant_one(), 0, {}),
             poly(0, {d - 1: 1}),
             poly(1, {0: 1})]
    if d >= 2:
        cases.append(poly(2, {0: 1, d - 1: 2}))
    if d >= 3:
        cases += [poly(0, {0: 1, 1: 3, d - 1: 2}),
                  poly(3, {0: 2, d // 2: 1, d - 1: 1})]
    return cases


@pytest.mark.parametrize("d", [1, 2, 20, 784])
def test_monomials_match_the_dense_formulas_bitwise(d):
    """Every clamped monomial reads only the axes it names, yet gives the
    floats of the product over all d axes: value and df/dc bit for bit, and
    grad_w bit for bit on the named axes.  On an axis of exponent 0 (and in
    df/dc when c has exponent 0) the dense formula multiplies a 0 into the
    rest, which may leave -0.0; the builder writes +0.0, equal under ==."""
    rng = np.random.default_rng(d)
    c = rng.uniform(-3.0, 3.0, 64)
    w = rng.uniform(-3.0, 3.0, (64, d))
    c[:4] = [0.0, -0.0, 1e3, -1e3]     # signed zeros and a saturated clamp
    for f, c_exp, named in _monomial_cases(d):
        exps = [named.get(j, 0) for j in range(d)]
        ref_v, ref_c, ref_w = _dense_monomial(c_exp, exps)(c, w)
        v, (gc, gw) = f.value(c, w), f.grad(c, w)
        assert v.tobytes() == ref_v.tobytes(), f.label
        if c_exp:
            assert gc.tobytes() == ref_c.tobytes(), f.label
        else:
            assert np.array_equal(gc, ref_c) and not np.signbit(gc).any()
        axes = sorted(named)
        assert gw.dtype == ref_w.dtype and gw.shape == ref_w.shape
        assert gw[:, axes].tobytes() == ref_w[:, axes].tobytes(), f.label
        rest, ref_rest = (np.delete(g, axes, axis=1) for g in (gw, ref_w))
        assert np.array_equal(rest, ref_rest) and not rest.any()
        assert not np.signbit(rest).any(), f.label


def test_monomial_errors_are_pinned():
    """A pinned width that does not match is refused by ``value`` and
    ``grad`` alike with the same message."""
    c = np.zeros(3)
    for ev in ("value", "grad"):
        with pytest.raises(RejectedInputError,
                           match=r"^test function pinned to d=2$"):
            getattr(clamped_polynomial(1, (1, 0)), ev)(c, np.zeros((3, 3)))
    assert smoothed_coordinate().d is None and constant_one().d is None
    assert clamped_polynomial(1, (1, 0, 0)).d == 3


def test_monomial_gradient_cost_does_not_grow_with_unnamed_axes():
    """The gradients of psi(c*w1) at d = 784 touch one axis of w, so at
    N = 1000 they take about a millisecond, far inside the bound."""
    f = default_test_functions(784)[1]
    rng = np.random.default_rng(5)
    c, w = rng.standard_normal(1000), rng.standard_normal((1000, 784))
    start = time.perf_counter()
    _, g = f.grad(c, w)
    assert time.perf_counter() - start < 0.5
    assert g[:, 0].all() and not g[:, 1:].any()


def test_default_bump_width_grows_with_d():
    """The default bump's scale is 1.5 sqrt(d / 2): exactly the fixed 1.5
    bump at d = 2, and at d = 784, where ||w||^2 is about d under the default
    initial law, still of order one on a default-init cloud."""
    rng = np.random.default_rng(9)
    c, w = rng.standard_normal(50), rng.standard_normal((50, 2))
    bump, ref = default_test_functions(2)[2], gaussian_bump(0.0, np.zeros(2),
                                                            scale=1.5)
    assert bump.label == ref.label == "bump(s=1.5)"
    assert bump.value(c, w).tobytes() == ref.value(c, w).tobytes()
    for got, want in zip(bump.grad(c, w), ref.grad(c, w)):
        assert got.tobytes() == want.tobytes()
    cloud = sample_init(default_init(784), RandomStreams(3).stream(
        purpose="init"), 2000)
    assert 0.1 < pair(default_test_functions(784)[2], cloud) < 1.0


def test_bump_rejects_wrong_dimension():
    f = gaussian_bump(0.0, np.zeros(3))
    with pytest.raises(RejectedInputError):
        f.value(np.zeros(2), np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# random streams


def test_streams_reproducible_and_keyed():
    s = RandomStreams(42)
    a = s.stream(3, purpose="init").standard_normal(8)
    b = RandomStreams(42).stream(3, purpose="init").standard_normal(8)
    assert np.array_equal(a, b)
    c = s.stream(3, purpose="data").standard_normal(8)
    d = s.stream(4, purpose="init").standard_normal(8)
    e = RandomStreams(43).stream(3, purpose="init").standard_normal(8)
    for other in (c, d, e):
        assert not np.array_equal(a, other)


def test_streams_seed_range():
    RandomStreams(0)
    RandomStreams(2 ** 64 - 1)
    with pytest.raises(ConfigError):
        RandomStreams(-1)
    with pytest.raises(ConfigError):
        RandomStreams(2 ** 64)


# ---------------------------------------------------------------------------
# divergence guard


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1e13])
def test_guard_raises_with_step_on_bad_entry(bad):
    """NaN, +inf and a large negative entry in w each trip the guard at the
    step it is given; max and min both propagate NaN."""
    c = np.array([0.5, -0.25])
    w = np.array([[1.0, -2.0], [3.0, 0.0]])
    w[1, 1] = bad
    with pytest.raises(DivergedError) as err:
        guard_divergence(17, c, w)
    assert err.value.step == 17


def test_guard_returns_exact_max():
    c = np.array([0.5, -7.25, 1.0])
    w = np.array([[1.0, -2.0], [3.0, 0.0], [-6.5, 6.0]])
    assert guard_divergence(1, c, w) == 7.25
    assert guard_divergence(1, w) == 6.5
    assert guard_divergence(1, w.astype(np.float32)) == 6.5
    assert guard_divergence(1, np.array([-DIVERGENCE_LIMIT])) == DIVERGENCE_LIMIT
