import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sp

from mpme.core import DataError, QuadratureError
from mpme import special
from mpme.special import integrate_adaptive, log_normal_cdf_diff
from mpme.verify import owen_q

# Expected values below were frozen from a 60-120 decimal-digit
# arbitrary-precision evaluation of the defining formulas.


def _cdf_diff(lo, hi):
    """``log_normal_cdf_diff`` of one interval, with width hi - lo."""
    return float(log_normal_cdf_diff(np.array([lo]), np.array([hi]), width=np.array([hi - lo]))[0])


def test_log_normal_cdf_diff_frozen():
    assert _cdf_diff(-1.0, 1.0) == pytest.approx(-0.38171514630212607227, rel=1e-14)
    assert _cdf_diff(1.0, 2.5) == pytest.approx(-1.8809475426298400145, rel=1e-14)
    assert _cdf_diff(5.0, 6.0) == pytest.approx(-15.068446096529453352, rel=1e-13)


def test_log_normal_cdf_diff_reflection_symmetry():
    # Phi(b) - Phi(a) == Phi(-a) - Phi(-b) holds exactly in this code path.
    assert _cdf_diff(1.0, 2.5) == _cdf_diff(-2.5, -1.0)


def test_log_normal_cdf_diff_narrow_frozen():
    # Midpoint-expansion branch; width is supplied exactly by the caller.
    z = np.array([2.0, 20.0, 0.0])
    h = np.array([1e-9, 1e-10, 1e-8])
    expected = [-23.642204370151083898, -223.94478946314512958, -19.339619277157038218]
    got = log_normal_cdf_diff(z - h / 2, z + h / 2, width=h)
    assert got.tolist() == pytest.approx(expected, rel=1e-12)


def test_log_normal_cdf_diff_narrow_matches_wide_at_seam():
    # The branch switch h^2 (z^2 + 1) = 2.4e-7 must not introduce a jump
    # larger than the log-space path's own noise floor.
    for z in (0.0, 1.0, 3.0):
        h = math.sqrt(2.4e-7 / (z * z + 1.0))
        below = _cdf_diff(z - 0.499 * h, z + 0.499 * h)
        above = _cdf_diff(z - 0.501 * h, z + 0.501 * h)
        # Widths differ by 0.4%, so the values differ by ~log(1.004).
        assert above - below == pytest.approx(math.log(0.501 / 0.499), abs=1e-8)


def test_log_normal_cdf_diff_edge_cases():
    assert _cdf_diff(1.0, 1.0) == -math.inf
    assert _cdf_diff(2.0, 1.0) == -math.inf
    # Larger endpoint so deep in the tail its CDF is an exact zero.
    assert _cdf_diff(-math.inf, -1e200) == -math.inf


def test_log_normal_cdf_diff_whole_line_does_not_warn():
    # Called outside any np.errstate, as library callers do: the whole line
    # has probability one and must not raise a RuntimeWarning on the way.
    lo, hi = np.array([-math.inf, 0.0]), np.array([math.inf, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = log_normal_cdf_diff(lo, hi, width=hi - lo)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.log(sp.ndtr(1.0) - 0.5), rel=1e-14)


def test_log_normal_cdf_diff_vectorized():
    lo = np.array([-1.0, 1.0, 3.0])
    hi = np.array([1.0, 2.5, 3.0])
    out = log_normal_cdf_diff(lo, hi, width=hi - lo)
    assert out.shape == (3,)
    assert out[0] == _cdf_diff(-1.0, 1.0)
    assert out[2] == -math.inf
    # One row per population, as the UNI marginal calls it.
    column = log_normal_cdf_diff(lo[:, None], hi[:, None], width=(hi - lo)[:, None])
    assert column.shape == (3, 1)
    assert np.array_equal(column[:, 0], out)


def reference_log_normal_cdf_diff(lo, hi, width):
    """The kernel with every branch evaluated on every element and chosen
    by ``np.where``; ``log_normal_cdf_diff`` must give its bits."""
    flip = (lo + hi) > 0
    low, high = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
    log_hi, log_lo = sp.log_ndtr(high), sp.log_ndtr(low)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = log_hi + np.log1p(-np.exp(np.minimum(log_lo - log_hi, 0.0)))
        out = np.where(high <= low, -np.inf, out)
        h = width
        zm_sq = (0.5 * (high + low)) ** 2
        narrow = (h > 0) & (h * h * (zm_sq + 1.0) < 2.4e-7)
        series = h * h * (zm_sq - 1.0) / 24.0 + h**4 * (zm_sq * (zm_sq - 6.0) + 3.0) / 1920.0
        taylor = -0.5 * zm_sq - special._LOG_SQRT_2PI + np.log(h) + np.log1p(series)
        out = np.where(narrow, taylor, out)
        return np.where(np.isneginf(log_hi), -np.inf, out)


def test_log_normal_cdf_diff_keeps_reference_bits():
    rng = np.random.default_rng(3)
    z = np.concatenate([rng.normal(0.0, 3.0, 300), [0.0, 40.0, -40.0, -1e200]])
    h = np.concatenate([10.0 ** rng.uniform(-12, 1, 300), [1e-9, 1e-10, 0.5, 1.0]])
    h[::7] = 0.0  # empty intervals
    h[1::11] *= -1.0  # reversed intervals
    lo, hi = z - h / 2, z + h / 2
    # The exact width, and the one the rounded ends give.
    for width in (h, hi - lo):
        got = log_normal_cdf_diff(lo, hi, width=width)
        want = reference_log_normal_cdf_diff(lo, hi, width=width)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


_EDGES = st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1e200, -1e200])
# Interval midpoints, and widths: narrow (down to 1e-12), wide, empty,
# reversed (hi <= lo) and non-finite.
_MIDS = st.one_of(st.floats(-40.0, 40.0), _EDGES)
_WIDTHS = st.one_of(
    st.floats(1e-12, 1e-3),
    st.floats(1e-3, 10.0),
    st.floats(-10.0, 0.0),
    st.sampled_from([0.0, -0.0, math.inf, math.nan]),
)


@st.composite
def cdf_diff_cases(draw):
    """(lo, hi, width): 1-d or 2-d ends, paired about a midpoint with the
    drawn width h, or drawn independently with width hi - lo."""
    shape = draw(st.sampled_from([(1,), (6,), (3, 4)]))
    size = math.prod(shape)
    z = np.array(draw(st.lists(_MIDS, min_size=size, max_size=size))).reshape(shape)
    h = np.array(draw(st.lists(_WIDTHS, min_size=size, max_size=size))).reshape(shape)
    # Some elements take independent endpoints, such as (-inf, -1e200).
    loose = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size))).reshape(shape)
    ends = np.array(draw(st.lists(st.tuples(_MIDS, _MIDS), min_size=size, max_size=size)))
    with np.errstate(all="ignore"):
        lo = np.where(loose, ends[:, 0].reshape(shape), z - 0.5 * h)
        hi = np.where(loose, ends[:, 1].reshape(shape), z + 0.5 * h)
        return lo, hi, np.where(loose, hi - lo, h)


@settings(max_examples=400, deadline=None)
@given(cdf_diff_cases())
def test_log_normal_cdf_diff_keeps_reference_bits_on_drawn_cases(case):
    lo, hi, width = case
    with np.errstate(all="ignore"):
        got = log_normal_cdf_diff(lo, hi, width=width)
        want = reference_log_normal_cdf_diff(lo, hi, width=width)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    # Bit patterns, so -0.0 and 0.0 differ.
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


def test_integrate_adaptive_polynomial_exact():
    # Degree 12 is inside the Gauss-7 exactness range, so the very first
    # K15/G7 pair agrees and no subdivision happens.
    value, err = integrate_adaptive(lambda x: x**12, 0.0, 1.0)
    assert value[0] == pytest.approx(1.0 / 13.0, rel=1e-15)
    assert err[0] < 1e-15


def test_integrate_adaptive_vector_components():
    def f(x):
        return np.stack([np.sin(x), np.cos(x)])

    value, err = integrate_adaptive(f, 0.0, math.pi / 2.0)
    assert value == pytest.approx([1.0, 1.0], rel=1e-12)
    assert np.all(err <= np.maximum(1e-12, 1e-9 * np.abs(value)))


def test_integrate_adaptive_needs_subdivision():
    # Narrow Gaussian bump: nowhere near exact for one K15 panel.
    value, _ = integrate_adaptive(
        lambda x: np.exp(-0.5 * ((x - 0.3) / 0.01) ** 2), 0.0, 1.0
    )
    assert value[0] == pytest.approx(0.01 * math.sqrt(2.0 * math.pi), rel=1e-9)


def test_integrate_adaptive_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(special, "_MAX_SUBDIVISIONS", 3)

    def step(x):
        return np.where(x < 1.0 / 3.0, 0.0, 1.0)

    with pytest.raises(QuadratureError) as exc_info:
        integrate_adaptive(step, 0.0, 1.0)
    err = exc_info.value
    assert err.estimate is not None
    assert err.error_bound is not None
    assert err.estimate[0] == pytest.approx(2.0 / 3.0, abs=0.05)


def test_integrate_adaptive_rejects_non_finite_integrand():
    with pytest.raises(QuadratureError, match="non-finite"):
        integrate_adaptive(lambda x: np.full_like(x, np.inf), 0.0, 1.0)


@pytest.mark.parametrize(
    "lo,hi",
    [(1.0, 0.0), (0.0, 0.0), (0.0, math.inf), (math.nan, 1.0)],
)
def test_integrate_adaptive_rejects_bad_interval(lo, hi):
    with pytest.raises(DataError):
        integrate_adaptive(lambda x: x, lo, hi)


# owen_q lives in verify, its only user; its frozen values stay beside the
# other quadrature tests.


def test_owen_q_frozen():
    assert owen_q(3, 1.5, 2.0) == pytest.approx(0.62854421120812982241, rel=1e-10)
    assert owen_q(1, 2.0, math.inf) == pytest.approx(0.85241638234956672582, rel=1e-10)
    assert owen_q(5, -0.7, 1.2) == pytest.approx(0.030487489359586606087, rel=1e-10)


def test_owen_q_saturated_cdf():
    # t = +inf turns the CDF factor into 1: the chi CDF remains.
    assert owen_q(4, math.inf, 2.0) == pytest.approx(0.59399415029016192432, rel=1e-10)
    assert owen_q(4, -math.inf, 2.0) == 0.0
    assert owen_q(4, math.inf, math.inf) == pytest.approx(1.0, rel=1e-10)
    assert owen_q(4, -math.inf, math.inf) == 0.0


def test_owen_q_validation():
    with pytest.raises(DataError):
        owen_q(0, 1.0, 1.0)
    with pytest.raises(DataError):
        owen_q(2.5, 1.0, 1.0)
    with pytest.raises(DataError):
        owen_q(3, math.nan, 1.0)
    with pytest.raises(DataError):
        owen_q(3, 1.0, 0.0)
    with pytest.raises(DataError):
        owen_q(3, 1.0, -2.0)
