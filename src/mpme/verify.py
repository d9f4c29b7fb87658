"""Independent brute-force oracles and cross-check suites.

These routines re-derive quantities the production code computes in
closed form (or by 1-D quadrature) using nothing but dense tensor-grid
integration over the original 2-D (mu, sigma^2) integrals, so tests can
compare two genuinely different evaluation paths.  They ship with the
library so the CLI can run the same cross-checks on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import special as _sp

from .core import DataError, NumericalError, SufficientStats
from .prior_nix import NixHyperparams, nix_posterior_update
from .prior_uni import UniHyperparams
from .special import integrate_adaptive

__all__ = [
    "numeric_marginal",
    "grid_map_argmax",
    "nix_posterior_windows",
    "nix_prior_density",
    "owen_q",
    "uni_log_marginal_via_q",
    "SuiteResult",
    "suite_nix_likelihood",
    "suite_uni_likelihood",
    "suite_uni_gradient",
    "suite_map_argmax",
    "suite_correlation",
    "run_suite",
    "SUITES",
]

_LOG_2PI = math.log(2.0 * math.pi)


def _log_likelihood(stats: SufficientStats, mu, sigma_sq):
    """Gaussian log likelihood of the sufficient statistics at (mu, sigma^2)."""
    n, xbar, s = stats.n, stats.mean, stats.var_unbiased
    return -0.5 * n * (_LOG_2PI + np.log(sigma_sq)) - (
        (n - 1) * s + n * (xbar - mu) ** 2
    ) / (2.0 * sigma_sq)


def nix_posterior_windows(stats: SufficientStats, hyper: NixHyperparams):
    """Windows enclosing essentially all posterior mass under a NIX prior.

    The sigma^2 window runs from the inverse-gamma posterior's 1e-9
    quantile divided by 4 to its 1 - 1e-9 quantile times 4; the mu window
    covers 12 posterior standard deviations of mu at the largest
    in-window sigma^2, which dominates the mu spread.
    """
    kappa_n, mu_n, nu_n, sigma_n_sq = nix_posterior_update(stats, hyper)
    a, scale = 0.5 * nu_n, 0.5 * nu_n * sigma_n_sq
    # The inverse-gamma quantile in scipy.stats.invgamma's own order of
    # operations, so the windows keep its bits without importing it.
    s_lo = (1.0 / _sp.gammainccinv(a, 1e-9)) * scale / 4.0
    s_hi = (1.0 / _sp.gammainccinv(a, 1.0 - 1e-9)) * scale * 4.0
    half = 12.0 * math.sqrt(s_hi / kappa_n)
    return (mu_n - half, mu_n + half), (s_lo, s_hi)


def nix_prior_density(hyper: NixHyperparams) -> Callable:
    """Vectorized NIX prior density over (mu, sigma^2)."""
    mu0, kappa0, nu0, s0 = hyper.mu0, hyper.kappa0, hyper.nu0, hyper.sigma0_sq
    half_nu = 0.5 * nu0
    log_norm_sig = half_nu * math.log(half_nu * s0) - _sp.gammaln(half_nu)

    def density(mu, sigma_sq):
        log_sig = (
            log_norm_sig - (half_nu + 1.0) * np.log(sigma_sq) - half_nu * s0 / sigma_sq
        )
        log_mu = (
            0.5 * (np.log(kappa0) - _LOG_2PI - np.log(sigma_sq))
            - 0.5 * kappa0 * (mu - mu0) ** 2 / sigma_sq
        )
        return np.exp(log_sig + log_mu)

    return density


def numeric_marginal(
    stats: SufficientStats,
    prior_density: Callable,
    mu_window: tuple[float, float],
    sigma_sq_window: tuple[float, float],
    nodes: int = 2000,
) -> float:
    """Brute-force marginal likelihood by 2-D tensor-grid trapezoid.

    Integrates ``likelihood(stats | mu, sigma^2) * prior_density(mu,
    sigma^2)`` on a ``nodes x nodes`` trapezoid grid: geometric in
    sigma^2 (linear in t = log sigma^2) crossed with a per-slice linear
    mu grid spanning the mu window clipped to x_bar +- 50 sigma, beyond
    which the likelihood underflows.  The per-slice clipping keeps the
    likelihood's mean profile resolved at every sigma^2 slice, so one
    grid handles the whole funnel-shaped integrand even for heavy-tailed
    sigma^2 windows spanning many decades.  Grid edges hit the window
    boundaries exactly, so densities defined by indicator boxes keep
    their edge nodes.

    ``prior_density`` must accept numpy arrays elementwise.  The windows
    must cover the integrand's mass; helpers above size them.

    Raises
    ------
    NumericalError
        If the integrand evaluates to a non-finite value.
    """
    if not isinstance(nodes, int) or nodes < 2:
        raise DataError(f"nodes = {nodes!r}, need integer >= 2")
    mu_lo, mu_hi = mu_window
    s_lo, s_hi = sigma_sq_window
    if not (mu_lo < mu_hi and 0 < s_lo < s_hi):
        raise DataError("windows must satisfy mu_lo < mu_hi and 0 < s_lo < s_hi")
    xbar = stats.mean
    sig2 = np.geomspace(s_lo, s_hi, nodes)
    t = np.log(sig2)
    sig = np.sqrt(sig2)
    lo_m = np.maximum(mu_lo, xbar - 50.0 * sig)
    hi_m = np.maximum(np.minimum(mu_hi, xbar + 50.0 * sig), lo_m)
    frac = np.linspace(0.0, 1.0, nodes)[:, None]
    mu = lo_m[None, :] * (1.0 - frac) + hi_m[None, :] * frac
    log_lik = _log_likelihood(stats, mu, sig2[None, :])
    prior = np.asarray(prior_density(mu, sig2[None, :]), dtype=float)
    shift = float(log_lik.max())
    if not math.isfinite(shift):
        shift = 0.0
    # Jacobian of sigma^2 -> t is sigma^2; mu is integrated directly.
    integrand = np.exp(log_lik - shift) * prior * sig2[None, :]
    if not np.all(np.isfinite(integrand)):
        raise NumericalError("numeric_marginal: non-finite integrand value")
    inner = np.trapezoid(integrand, x=mu, axis=0)
    return float(np.trapezoid(inner, x=t)) * math.exp(shift)


def grid_map_argmax(
    log_posterior: Callable,
    mu_window: tuple[float, float],
    sigma_sq_window: tuple[float, float],
    nodes: int = 2000,
) -> tuple[float, float]:
    """Argmax of a log posterior over a dense (mu, sigma^2) tensor grid.

    The mu grid is linear, the sigma^2 grid geometric.  Ties are broken
    toward the smallest mu index, then the smallest sigma^2 index, so a
    flat posterior returns the first grid point.  ``log_posterior`` must
    accept numpy arrays elementwise; -inf values are allowed.

    Raises
    ------
    NumericalError
        If the maximum is attained only on the window boundary ("window
        too small"), or the posterior evaluates to NaN or +inf.
    """
    if not isinstance(nodes, int) or nodes < 3:
        raise DataError(f"nodes = {nodes!r}, need integer >= 3")
    mu_lo, mu_hi = mu_window
    s_lo, s_hi = sigma_sq_window
    if not (mu_lo < mu_hi and 0 < s_lo < s_hi):
        raise DataError("windows must satisfy mu_lo < mu_hi and 0 < s_lo < s_hi")
    mu = np.linspace(mu_lo, mu_hi, nodes)
    s2 = np.geomspace(s_lo, s_hi, nodes)
    lp = np.asarray(log_posterior(mu[:, None], s2[None, :]), dtype=float)
    if np.any(np.isnan(lp)) or np.any(np.isposinf(lp)):
        raise NumericalError("grid_map_argmax: posterior returned NaN or +inf")
    vmax = lp.max()
    if not (lp[1:-1, 1:-1] == vmax).any():
        raise NumericalError(
            "grid_map_argmax: maximizer lies on the window boundary; window too small"
        )
    i, j = np.unravel_index(int(np.argmax(lp)), lp.shape)
    return float(mu[i]), float(s2[j])


def owen_q(f: int, t: float, r: float) -> float:
    """Integral of the normalized chi density against a normal CDF: Owen's
    Q function at noncentrality zero.

    Computes

    .. math::

        Q_f(t, 0; 0, R) = \\int_0^R
            \\frac{\\sqrt{2\\pi}\\, y^{f-1} \\varphi(y)}
                 {\\Gamma(f/2)\\, 2^{(f-2)/2}}
            \\, \\Phi\\!\\left(\\frac{t y}{\\sqrt{f}}\\right) dy,

    where the y-density integrates to one over (0, inf).  ``t`` may be
    +/-inf, as a subnormal scatter makes it in ``uni_log_marginal_via_q``
    (the CDF factor saturates); ``r`` may be +inf, as a subnormal variance
    bound makes it there, handled by the substitution ``y = u / (1 - u)``.
    """
    if not isinstance(f, (int, np.integer)) or f < 1:
        raise DataError(f"degrees of freedom f = {f!r}, need integer >= 1")
    if math.isnan(t):
        raise DataError("t must not be NaN")
    if not (r > 0):
        raise DataError(f"upper limit r = {r!r}, need > 0")
    log_norm = -_sp.gammaln(f / 2) - (f - 2) / 2 * math.log(2.0)
    sqrt_f = math.sqrt(f)

    def chi_part(y):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            ll = np.where(y > 0, (f - 1) * np.log(y), -np.inf if f > 1 else 0.0)
            return ll - 0.5 * y * y + log_norm

    def cdf_part(y):
        with np.errstate(invalid="ignore", over="ignore"):
            arg = t * y / sqrt_f
            # t = +/-inf saturates the CDF for every y > 0
            arg = np.where(np.isnan(arg), math.copysign(1, t) * np.inf, arg)
        return _sp.ndtr(arg)

    if math.isinf(r):
        def integrand(u):
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                y = u / (1.0 - u)
                ll = chi_part(y) - 2.0 * np.log1p(-u)
                return np.exp(ll) * cdf_part(y)
        lo, hi = 0.0, 1.0
    else:
        def integrand(y):
            return np.exp(chi_part(y)) * cdf_part(y)
        lo, hi = 0.0, float(r)

    value, _ = integrate_adaptive(integrand, lo, hi)
    return float(value[0])


def uni_log_marginal_via_q(
    stats_list: Sequence[SufficientStats], hyper: UniHyperparams
) -> float:
    """UNI log marginal likelihood through the truncated-Q decomposition.

    Verification-only alternative to the production quadrature path.
    Substituting y = sqrt((n-1)S)/sigma turns each population's sigma^2
    integral into chi-density integrals with f = n - 3 degrees of
    freedom, truncated at R = sqrt((n-1)S / bound); the box then enters
    through four Q terms combined by inclusion-exclusion with signs
    (+, -, -, +), the pattern confirmed empirically against the dense
    2-D oracle.  Requires n >= 4 for every population.
    """
    total = 0.0
    for stats in stats_list:
        n, xbar, s = stats.n, stats.mean, stats.var_unbiased
        if n < 4:
            raise DataError(f"Q-form evaluation needs n >= 4, got n = {n}")
        f = n - 3
        scatter = (n - 1.0) * s
        if scatter <= 0:
            raise DataError("Q-form evaluation needs a positive sample variance")
        t_a = (hyper.a - xbar) * math.sqrt(n * f / scatter)
        t_b = (hyper.b - xbar) * math.sqrt(n * f / scatter)
        r_c = math.sqrt(scatter / hyper.c)
        r_d = math.sqrt(scatter / hyper.d)
        comb = (
            owen_q(f, t_b, r_c)
            - owen_q(f, t_a, r_c)
            - owen_q(f, t_b, r_d)
            + owen_q(f, t_a, r_d)
        )
        if comb <= 0:
            return -math.inf
        total += (
            0.5 * f * (math.log(2.0) - math.log(scatter))
            - 0.5 * (n - 1) * _LOG_2PI
            - 0.5 * math.log(n)
            + _sp.gammaln(0.5 * f)
            + math.log(comb)
            - math.log(hyper.b - hyper.a)
            - math.log(hyper.d - hyper.c)
        )
    return total


# ---------------------------------------------------------------------------
# Cross-check suites (shared by tests and the CLI `verify` subcommand).


@dataclass
class SuiteResult:
    name: str
    passed: bool
    cases: int
    worst: float
    tolerance: float
    lines: list[str] = field(default_factory=list)


def _worst(*errors: float) -> float:
    """The largest error, or NaN if any is NaN (``max`` would drop a NaN)."""
    return math.nan if any(math.isnan(e) for e in errors) else max(errors)


def _random_stats(rng, n_lo=2, n_hi=8) -> SufficientStats:
    n = int(rng.integers(n_lo, n_hi + 1))
    mu = rng.uniform(-5.0, 5.0)
    sigma = math.exp(rng.uniform(math.log(0.3), math.log(2.0)))
    values = mu + sigma * rng.standard_normal(n)
    mean = float(values.mean())
    var = float(values.var(ddof=1))
    return SufficientStats(n=n, mean=mean, var_unbiased=var)


def _random_nix_hyper(rng) -> NixHyperparams:
    log_lo, log_hi = math.log(0.1), math.log(10.0)
    return NixHyperparams(
        mu0=float(rng.uniform(-5.0, 5.0)),
        kappa0=math.exp(rng.uniform(log_lo, log_hi)),
        nu0=math.exp(rng.uniform(log_lo, log_hi)),
        sigma0_sq=math.exp(rng.uniform(log_lo, log_hi)),
    )


def suite_nix_likelihood(cases: int = 50, seed: int = 7, tol: float = 1e-6) -> SuiteResult:
    """Closed-form NIX marginal vs the dense 2-D oracle."""
    from .prior_nix import nix_log_marginal_likelihood

    rng = np.random.default_rng(seed)
    worst = 0.0
    lines = []
    for k in range(cases):
        stats = _random_stats(rng)
        hyper = _random_nix_hyper(rng)
        closed = math.exp(nix_log_marginal_likelihood([stats], hyper))
        mu_w, s_w = nix_posterior_windows(stats, hyper)
        oracle = numeric_marginal(stats, nix_prior_density(hyper), mu_w, s_w, 2000)
        rel = abs(closed - oracle) / abs(oracle)
        worst = _worst(worst, rel)
        lines.append(f"case {k:2d}: closed={closed:.9e} oracle={oracle:.9e} rel={rel:.2e}")
    return SuiteResult("nix-likelihood", worst <= tol, cases, worst, tol, lines)


def _random_uni_case(rng):
    stats = _random_stats(rng, n_lo=4, n_hi=9)
    se = math.sqrt(stats.var_unbiased / stats.n)
    a = stats.mean - rng.uniform(0.5, 4.0) * se
    b = stats.mean + rng.uniform(0.5, 4.0) * se
    c = stats.var_unbiased * math.exp(-rng.uniform(0.5, 2.0))
    d = stats.var_unbiased * math.exp(rng.uniform(0.5, 2.0))
    return stats, UniHyperparams(a=a, b=b, c=c, d=d)


def suite_uni_likelihood(cases: int = 20, seed: int = 11, tol: float = 1e-5) -> SuiteResult:
    """Production UNI quadrature vs the Q decomposition vs the 2-D oracle."""
    from .prior_uni import uni_log_marginal_likelihood

    rng = np.random.default_rng(seed)
    worst = 0.0
    lines = []
    for k in range(cases):
        stats, hyper = _random_uni_case(rng)
        ll = uni_log_marginal_likelihood([stats], hyper)
        ll_q = uni_log_marginal_via_q([stats], hyper)
        area = (hyper.b - hyper.a) * (hyper.d - hyper.c)

        def boxed(mu, sigma_sq, _h=hyper, _area=area):
            inside = (
                (mu >= _h.a) & (mu <= _h.b) & (sigma_sq >= _h.c) & (sigma_sq <= _h.d)
            )
            return np.where(inside, 1.0 / _area, 0.0)

        oracle = numeric_marginal(
            stats, boxed, (hyper.a, hyper.b), (hyper.c, hyper.d), 2000
        )
        rel_q = abs(math.expm1(ll - ll_q))
        rel_o = abs(math.exp(ll) - oracle) / oracle
        rel = _worst(rel_q, rel_o)
        worst = _worst(worst, rel)
        lines.append(
            f"case {k:2d}: quad={ll:.9f} qform={ll_q:.9f} oracle={math.log(oracle):.9f} "
            f"rel={rel:.2e}"
        )
    return SuiteResult("uni-likelihood", worst <= tol, cases, worst, tol, lines)


_GRADIENT_KINDS = ("n=2", "n=3", "n=30", "narrow", "zero-scatter edge", "far box")


def _uni_gradient_case(rng, kind: int):
    """Three populations and a box around them; ``kind`` indexes
    ``_GRADIENT_KINDS``.  A narrow box is 1e-3 of a standard error wide
    and 1e-3 of c tall.  The zero-scatter case puts a population with
    S = 0 exactly on the edge a (Q = 0 there).  The far box sits well
    below the data's variance, so the sigma^2 integrands rise steeply
    toward d."""
    n = {0: 2, 1: 3, 2: 30}.get(kind, 5)
    mu = rng.uniform(-5.0, 5.0)
    sigma = math.exp(rng.uniform(math.log(0.3), math.log(2.0)))
    stats = []
    for _ in range(3):
        values = mu + sigma * (0.5 * rng.standard_normal() + rng.standard_normal(n))
        stats.append(
            SufficientStats(n=n, mean=float(values.mean()), var_unbiased=float(values.var(ddof=1)))
        )
    se = sigma / math.sqrt(n)
    a = mu - rng.uniform(0.5, 3.0) * se
    b = mu + rng.uniform(0.5, 3.0) * se
    c = sigma**2 * math.exp(-rng.uniform(0.3, 1.5))
    d = sigma**2 * math.exp(rng.uniform(0.3, 1.5))
    if kind == 3:
        b = a + 1e-3 * se
        d = c * (1.0 + 1e-3)
    elif kind == 4:
        stats[0] = SufficientStats(n=n, mean=a, var_unbiased=0.0)
    elif kind == 5:
        c, d = 0.05 * sigma**2, 0.15 * sigma**2
    return stats, UniHyperparams(a=a, b=b, c=c, d=d)


def _five_point(f, h: float) -> float:
    """Five-point central difference of ``f`` at 0 with step ``h``."""
    return (8.0 * (f(h) - f(-h)) - (f(2.0 * h) - f(-2.0 * h))) / (12.0 * h)


def suite_uni_gradient(cases: int = 24, seed: int = 19, tol: float = 1e-6) -> SuiteResult:
    """Closed-form gradient and Hessian of the UNI marginal vs central
    differences, on each case's box and on the variance face c = d at the
    box's c.

    Each partial derivative is compared with a five-point central
    difference of the value, and each column of the Hessian with a
    five-point central difference of the closed-form gradient.  The step
    is 1e-3 of b - a for a and b, and 1e-3 of min(d - c, c) for c and d.
    On the face the coordinates are (a, b, c): the derivative in c is the
    sum of the marginal's c and d derivatives there, the Hessian is the
    marginal's 4 x 4 Hessian with its c and d rows and columns summed,
    and the step in c, which moves c and d together, is 1e-3 of c.  The
    face's second-order coefficient K, with which the marginal of the box
    [c - w/2, c + w/2] leaves the face value F as F + K w^2, is compared
    with (16 (G(w) - F) - (G(2w) - F)) / (12 w^2) for w = 1e-3 c, a
    central difference in w with the O(w^2) term removed.  The error of a
    case is the largest relative error of the five checks: for a gradient,
    the largest component difference over the largest component.  For a
    Hessian, entry (i, j) is first scaled by side_i side_j, so that entries
    in a and in c weigh alike, and the largest difference is taken over
    the largest entry or P, whichever is larger.  P is the size of the
    scaled box term P/(b-a)^2, which the data terms cancel to O(1e-5) on a
    narrow box: there the differences of the gradient carry noise of about
    1e-9 P / 1e-3, which grows as the step shrinks, not the Hessian's
    error.
    """
    from .prior_uni import _UniData, _face_log_marginal, uni_log_marginal_likelihood

    def marginal(data, *box, **derivs):
        return uni_log_marginal_likelihood(data, UniHyperparams(*box), **derivs)

    def rel_error(got, numeric, floor=0.0):
        return float(np.max(np.abs(got - numeric)) / max(np.max(np.abs(numeric)), floor))

    def differences(f, sides):
        """Five-point central differences of ``f`` at 0 along each axis,
        with steps of 1e-3 of ``sides``; one column per axis."""
        columns = []
        for i, side in enumerate(sides):
            def moved(x, _i=i):
                return f(np.where(np.arange(len(sides)) == _i, x, 0.0))

            columns.append(_five_point(moved, 1e-3 * side))
        return np.array(columns).T

    # The face in (a, b, c) from the box in (a, b, c, d): d moves with c.
    fold = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    rng = np.random.default_rng(seed)
    worst = 0.0
    lines = []
    for k in range(cases):
        kind = k % len(_GRADIENT_KINDS)
        stats, hyper = _uni_gradient_case(rng, kind)
        # Every evaluation of this case shares one prepared dataset.
        data = _UniData(stats)
        box = np.array([hyper.a, hyper.b, hyper.c, hyper.d])
        height = min(hyper.d - hyper.c, hyper.c)
        sides = np.array([hyper.b - hyper.a] * 2 + [height] * 2)
        _value, grad, hess = marginal(data, *box, hessian=True)
        rel = rel_error(grad, differences(lambda x: marginal(data, *(box + x)), sides))
        numeric_hess = differences(lambda x: marginal(data, *(box + x), hessian=True)[1], sides)
        scale = np.outer(sides, sides)
        rel_hess = rel_error(hess * scale, numeric_hess * scale, len(stats))

        a, b, c = hyper.a, hyper.b, hyper.c
        face_box = np.array([a, b, c, c])
        face_sides = np.array([b - a, b - a, c])
        face, face_grad, face_hess = marginal(data, *face_box, hessian=True)

        def face_point(x):
            return marginal(data, *(face_box + fold.T @ x), hessian=True)

        rel_face = rel_error(
            fold @ face_grad, differences(lambda x: face_point(x)[0], face_sides)
        )
        numeric_face_hess = differences(lambda x: fold @ face_point(x)[1], face_sides)
        scale = np.outer(face_sides, face_sides)
        rel_face_hess = rel_error(
            fold @ face_hess @ fold.T * scale, numeric_face_hess * scale, len(stats)
        )

        curvature = _face_log_marginal(data, a, b, c)[3]
        w = 1e-3 * c
        rise = [marginal(data, a, b, c - 0.5 * v, c + 0.5 * v) - face for v in (w, 2.0 * w)]
        numeric_curvature = (16.0 * rise[0] - rise[1]) / (12.0 * w * w)
        rel_k = abs(curvature - numeric_curvature) / abs(numeric_curvature)

        worst = _worst(worst, rel, rel_hess, rel_face, rel_face_hess, rel_k)
        lines.append(
            f"case {k:2d} ({_GRADIENT_KINDS[kind]}): grad=({', '.join(f'{g:.9e}' for g in grad)}) "
            f"rel={rel:.2e} hess rel={rel_hess:.2e}; face grad rel={rel_face:.2e} "
            f"hess rel={rel_face_hess:.2e}, K={curvature:.9e} rel={rel_k:.2e}"
        )
    return SuiteResult("uni-gradient", worst <= tol, cases, worst, tol, lines)


def suite_map_argmax(cases: int = 20, seed: int = 13, tol: float = 1.0) -> SuiteResult:
    """nix_map and uni_map vs the dense grid argmax, within one grid cell.

    ``tol`` is in units of grid cells; the sigma^2 cell size is local to
    the geometric grid.
    """
    from .prior_nix import VarianceMode, nix_map
    from .prior_uni import uni_map

    rng = np.random.default_rng(seed)
    nodes = 2000
    worst = 0.0
    lines = []

    for k in range(cases):
        stats = _random_stats(rng)
        hyper = _random_nix_hyper(rng)
        est = nix_map(stats, hyper, VarianceMode.BIASED)
        kappa_n, mu_n, nu_n, sigma_n_sq = nix_posterior_update(stats, hyper)
        spread = math.sqrt(sigma_n_sq / kappa_n) * 8.0
        mu_w = (mu_n - spread, mu_n + spread)
        g = math.exp(6.0 / math.sqrt(nu_n))
        s_w = (est.sigma_sq / g, est.sigma_sq * g)
        density = nix_prior_density(hyper)

        def log_post(mu, s2, _stats=stats, _density=density):
            with np.errstate(divide="ignore"):
                return _log_likelihood(_stats, mu, s2) + np.log(_density(mu, s2))

        mu_g, s2_g = grid_map_argmax(log_post, mu_w, s_w, nodes)
        cell_mu = (mu_w[1] - mu_w[0]) / (nodes - 1)
        cell_s2 = s2_g * (math.log(s_w[1] / s_w[0]) / (nodes - 1))
        err = _worst(abs(est.mu - mu_g) / cell_mu, abs(est.sigma_sq - s2_g) / cell_s2)
        worst = _worst(worst, err)
        lines.append(f"nix case {k:2d}: cells={err:.3f}")

    for k in range(cases):
        stats, hyper = _random_uni_case(rng)
        est = uni_map(stats, hyper, use_unbiased_variance=False)

        def log_post(mu, s2, _stats=stats, _h=hyper):
            lp = _log_likelihood(_stats, mu, s2)
            inside = (mu >= _h.a) & (mu <= _h.b) & (s2 >= _h.c) & (s2 <= _h.d)
            return np.where(inside, lp, -np.inf)

        mu_g, s2_g = grid_map_argmax(log_post, (hyper.a, hyper.b), (hyper.c, hyper.d), nodes)
        cell_mu = (hyper.b - hyper.a) / (nodes - 1)
        cell_s2 = s2_g * (math.log(hyper.d / hyper.c) / (nodes - 1))
        err = _worst(abs(est.mu - mu_g) / cell_mu, abs(est.sigma_sq - s2_g) / cell_s2)
        worst = _worst(worst, err)
        lines.append(f"uni case {k:2d}: cells={err:.3f}")

    return SuiteResult("map-argmax", worst <= tol, 2 * cases, worst, tol, lines)


def suite_correlation(
    draws: int = 1_000_000, seed: int = 17, tol: float = 5e-3
) -> SuiteResult:
    """Monte Carlo correlation of two populations sharing a Gaussian prior
    vs the analytic sigma0^2 / (sigma^2 + sigma0^2)."""
    from .experiments import induced_correlation

    if draws < 2:
        raise DataError(f"draws = {draws!r}, need >= 2 for a correlation")
    rng = np.random.default_rng(seed)
    worst = 0.0
    lines = []
    for sigma, sigma0 in ((1.0, 2.0), (1.0, 1.0), (2.0, 0.5)):
        theta = sigma0 * rng.standard_normal(draws)
        alpha1 = theta + sigma * rng.standard_normal(draws)
        alpha2 = theta + sigma * rng.standard_normal(draws)
        rho_mc = float(np.corrcoef(alpha1, alpha2)[0, 1])
        rho = induced_correlation(sigma, sigma0)
        err = abs(rho_mc - rho)
        worst = _worst(worst, err)
        lines.append(
            f"sigma={sigma} sigma0={sigma0}: analytic={rho:.4f} mc={rho_mc:.4f} "
            f"abs_err={err:.2e}"
        )
    return SuiteResult("correlation", worst <= tol, 3, worst, tol, lines)


SUITES = {
    "nix-likelihood": suite_nix_likelihood,
    "uni-likelihood": suite_uni_likelihood,
    "uni-gradient": suite_uni_gradient,
    "map-argmax": suite_map_argmax,
    "correlation": suite_correlation,
}


def run_suite(name: str, cases: int | None = None, seed: int | None = None) -> SuiteResult:
    """Run one named verification suite with optional case-count/seed overrides.

    A suite fails if any compared value is NaN.
    """
    if name not in SUITES:
        raise DataError(f"unknown verification suite {name!r}; choose from {sorted(SUITES)}")
    if seed is not None and not (isinstance(seed, int) and seed >= 0):
        raise DataError(f"seed = {seed!r}, need integer >= 0")
    kwargs = {}
    if cases is not None:
        if name == "correlation":
            kwargs["draws"] = cases
        else:
            kwargs["cases"] = cases
    if seed is not None:
        kwargs["seed"] = seed
    return SUITES[name](**kwargs)
