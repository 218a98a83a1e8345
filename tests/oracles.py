"""Independent oracles for the test suite.

Everything here deliberately avoids the package's evaluation paths:
explicit derivative/sum formulas via sympy, a truncated Bessel series, the
Gauss-Kronrod rule from its Stieltjes polynomial in rationals, the
Gauss-Legendre and Gauss-Laguerre rules by Newton's method in mpmath,
closed forms and the unnormalized recurrence of the associated Legendre
functions in mpmath, the exact s = 2 eigenvalues of the l = 0 column in
mpmath, and the bracket's power series in sin^2 theta in rationals.
"""

import math
from functools import lru_cache

import mpmath as mp
import numpy as np
import sympy as sp

_x = sp.Symbol("x")


@lru_cache(maxsize=None)
def legendre_poly_explicit(l: int):
    """P_l from the derivative formula d^l/dx^l (x^2-1)^l / (2^l l!)."""
    expr = sp.diff((_x**2 - 1) ** l, _x, l) / (2**l * sp.factorial(l))
    return sp.lambdify(_x, sp.expand(expr), "numpy")


@lru_cache(maxsize=None)
def assoc_legendre_explicit(l: int, m: int):
    """(1-x^2)^(m/2) d^m/dx^m P_l(x), no Condon-Shortley factor.

    The expanded polynomial cancels catastrophically in floats from l ~ 20
    on, so the returned function evaluates it in 40-digit mpmath and rounds
    each value once.
    """
    pl = sp.diff((_x**2 - 1) ** l, _x, l) / (2**l * sp.factorial(l))
    expr = (1 - _x**2) ** sp.Rational(m, 2) * sp.diff(pl, _x, m)
    f = sp.lambdify(_x, sp.expand(expr), "mpmath")

    def evaluate(x):
        with mp.workdps(40):
            return np.array([float(f(mp.mpf(float(v)))) for v in np.atleast_1d(x)])

    return evaluate


def assoc_legendre_mp(l: int, m: int, x):
    """N_lm (1-x^2)^(m/2) d^m/dx^m P_l(x) in 40-digit mpmath, rounded once.

    No Condon-Shortley factor; N_lm is the orthonormal spherical-harmonic
    normalization.  Closed forms give m = l, P_l^l = (2l-1)!! (1-x^2)^(l/2),
    and m = 1, P_l^1 = sqrt(1-x^2) l (x P_l - P_{l-1}) / (x^2 - 1) with P_l
    from ``mp.legendre``.  Any other m runs the unnormalized recurrence
    (l-m) P_l^m = (2l-1) x P_{l-1}^m - (l+m-1) P_{l-2}^m up from P_m^m,
    which mpmath's unbounded exponent carries with no rescaling.
    """
    out = []
    with mp.workdps(40):
        norm = mp.sqrt((2 * l + 1) / (4 * mp.pi) * mp.factorial(l - m) / mp.factorial(l + m))
        for v in np.atleast_1d(x):
            v = mp.mpf(float(v))
            sx = mp.sqrt(1 - v * v)
            if m == 1:
                p = sx * l * (v * mp.legendre(l, v) - mp.legendre(l - 1, v)) / (v * v - 1)
            else:
                prev, p = 0, mp.fac2(2 * m - 1) * sx**m
                for k in range(m + 1, l + 1):
                    prev, p = p, ((2 * k - 1) * v * p - (k + m - 1) * prev) / (k - m)
            out.append(float(norm * p))
    return np.array(out)


def laguerre_explicit(n: int, alpha, x):
    """Explicit alternating gamma-ratio sum for L_n^(alpha), exact arithmetic.

    The sum cancels catastrophically in floats for moderate x, so each
    point is evaluated in sympy rationals and rounded once at the end;
    alpha must be exactly representable (e.g. a multiple of 1/2).
    """
    alpha = sp.nsimplify(alpha)
    terms = []
    for r in range(n + 1):
        # Gamma(alpha+n+1)/Gamma(alpha+n-r+1) = prod_{j=1..r} (alpha+n+1-j)
        ratio = sp.prod([alpha + n + 1 - j for j in range(1, r + 1)], start=sp.Integer(1))
        coef = sp.Integer(-1) ** (n - r) * ratio / (sp.factorial(r) * sp.factorial(n - r))
        terms.append((coef, n - r))
    out = []
    for xv in np.atleast_1d(np.asarray(x, dtype=float)):
        xr = sp.Rational(xv)
        out.append(float(sum(c * xr**p for c, p in terms)))
    return np.array(out)


@lru_cache(maxsize=None)
def hermite_osc_explicit(n: int):
    """Rodrigues form of the orthonormal x^2/4-oscillator eigenfunction.

    (-1)^n / sqrt(n!) (2 pi)^(-1/4) e^(x^2/4) d^n/dx^n e^(-x^2/2).
    """
    expr = ((-1) ** n / sp.sqrt(sp.factorial(n)) * (2 * sp.pi) ** sp.Rational(-1, 4)
            * sp.exp(_x**2 / 4) * sp.diff(sp.exp(-(_x**2) / 2), _x, n))
    return sp.lambdify(_x, sp.simplify(expr), "numpy")


def bessel_j0(x: float) -> float:
    """Power series for J_0, truncated below 1e-18 (plenty for |x| <= pi/2)."""
    total, term = 1.0, 1.0
    for k in range(1, 60):
        term *= -(x * x) / (4.0 * k * k)
        total += term
        if abs(term) < 1e-18:
            break
    return total


def gauss_kronrod_mp(m: int, dps: int = 40):
    """Nodes and weights of the Gauss-Kronrod rule G_m in K_2m+1 on [-1, 1], ascending.

    The m + 1 Kronrod nodes are the zeros of the Stieltjes polynomial
    E_{m+1}, the monic polynomial of degree m + 1 orthogonal to x^k P_m(x)
    for k <= m.  Its coefficients solve that linear system exactly, in
    rationals, from the moments int_{-1}^{1} x^j dx = 2 / (j + 1).  mpmath's
    ``polyroots`` finds its zeros and those of P_m, and the weights solve the
    Legendre moment equations sum_j w_j P_k(x_j) = 2 delta_k0, k <= 2m, all
    at ``dps`` digits.  Nothing here shares a step with Laurie's algorithm.
    """
    x = sp.Symbol("x")
    pm = sp.Poly(sp.legendre(m, x), x)
    powers = range(m - 1, -1, -2)  # E_{m+1} has the parity of m + 1
    unknowns = sp.symbols(f"c0:{len(powers)}")
    stieltjes = sp.Poly(x ** (m + 1) + sum(c * x ** k for c, k in zip(unknowns, powers)), x)

    def integral(poly):
        return sum(c * sp.Rational(2, j + 1) for (j,), c in poly.terms() if j % 2 == 0)

    equations = [integral(pm * sp.Poly(x ** k, x) * stieltjes) for k in range(m + 1)]
    solution = sp.solve([e for e in equations if e != 0], unknowns, dict=True)[0]
    coeffs = [sp.Rational(c) for c in stieltjes.as_expr().subs(solution).as_poly(x).all_coeffs()]
    with mp.workdps(dps):
        def roots(cs):
            found = mp.polyroots([mp.mpf(c.p) / c.q for c in cs], maxsteps=500,
                                 extraprec=4 * dps)
            return [mp.re(r) for r in found]

        nodes = sorted(roots(coeffs) + roots([sp.Rational(c) for c in pm.all_coeffs()]))
        A = mp.matrix([[mp.legendre(k, xj) for xj in nodes] for k in range(2 * m + 1)])
        w = mp.lu_solve(A, mp.matrix([2] + [0] * (2 * m)))
        return nodes, [w[i] for i in range(2 * m + 1)]


@lru_cache(maxsize=None)
def gauss_legendre_mp(m: int, dps: int = 50):
    """The nonnegative nodes of the m-point Gauss-Legendre rule and their weights, ascending.

    Newton's method on P_m, evaluated by its three-term recurrence at
    ``dps`` digits and started from numpy's leggauss nodes (only a start:
    the iteration runs until its step is below 10^-dps), with P_m' =
    m (x P_m - P_{m-1}) / (x^2 - 1) and the weights 2 / ((1 - x^2) P_m'^2).
    The rule is symmetric about 0.
    """
    start = np.polynomial.legendre.leggauss(m)[0][m // 2:]
    with mp.workdps(dps + 10):
        def walk(x):
            p_prev, p = mp.mpf(1), x
            for k in range(1, m):
                p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
            return p, m * (x * p - p_prev) / (x * x - 1)

        nodes, weights = [], []
        for x0 in start:
            x, step = mp.mpf(float(x0)), mp.mpf(1)
            while abs(step) > mp.mpf(10) ** -dps:
                p, dp = walk(x)
                step = p / dp
                x -= step
            dp = walk(x)[1]
            nodes.append(x)
            weights.append(2 / ((1 - x * x) * dp * dp))
        return nodes, weights


@lru_cache(maxsize=None)
def gauss_laguerre_mp(n: int, alpha: float, dps: int = 40):
    """Nodes and weights of the n-point rule for the weight x^alpha e^(-x) on (0, inf).

    Newton's method on L_n^(alpha), evaluated by its three-term recurrence
    at ``dps`` digits and started from SciPy's nodes (only a start: the
    iteration runs until its relative step is below 10^-dps), with
    L_n' = (n L_n - (n + alpha) L_{n-1}) / x and the weights
    Gamma(n + alpha + 1) x / (n! (n + 1)^2 L_{n+1}(x)^2).
    """
    from scipy.special import roots_genlaguerre

    with mp.workdps(dps + 10):
        a = mp.mpf(alpha)

        def walk(x, top):
            """L_{top-1}^(alpha) and L_top^(alpha) at x, top >= 1."""
            p_prev, p = mp.mpf(1), 1 + a - x
            for k in range(1, top):
                p_prev, p = p, ((2 * k + 1 + a - x) * p - (k + a) * p_prev) / (k + 1)
            return p_prev, p

        nodes, weights = [], []
        for x0 in roots_genlaguerre(n, alpha)[0]:
            x, step = mp.mpf(float(x0)), mp.mpf(1)
            while abs(step) > mp.mpf(10) ** -dps * x:
                p_prev, p = walk(x, n)
                step = p * x / (n * p - (n + a) * p_prev)
                x -= step
            nodes.append(x)
            weights.append(mp.gamma(n + a + 1) * x
                           / (mp.factorial(n) * (n + 1) ** 2 * walk(x, n + 1)[1] ** 2))
        return nodes, weights


def lambda_s2_l0(nmax: int, dps: int = 40):
    """Exact lambda_{n,0} at s = 2 for n = 0..nmax, as mpmath numbers.

    At s = 2, beta = 1/sin theta, and the l = 0 eigenvalue is

        lambda_{n,0} = sum_{j<n} (1 - 2^-(j+1/2)) / (2j + 1) - W_{2n-1},

    with the Wallis integrals W_m = int_0^{pi/4} sin^m theta dtheta,
    W_m = ((m-1)/m) W_{m-2} - (sqrt(2)/2)^m / m, W_0 = pi/4 and
    W_1 = 1 - sqrt(2)/2.  The recurrence loses relative accuracy as W_m
    shrinks, but only an absolute 10^-dps, far below lambda.  lambda_{0,0}
    is 0 (a null mode), and the formula gives lambda_{1,0} = 0 exactly.
    """
    with mp.workdps(dps):
        c = mp.sqrt(2) / 2
        out, total, wallis = [mp.mpf(0)], mp.mpf(0), 1 - c
        for n in range(1, nmax + 1):
            j = n - 1
            total += (1 - mp.mpf(2) ** -(j + mp.mpf(1) / 2)) / (2 * j + 1)
            if n > 1:
                m = 2 * n - 1
                wallis = mp.mpf(m - 1) / m * wallis - c ** m / m
            out.append(total - wallis)
        return out


def lambda_s2_l0_digamma(n: int, dps: int = 40):
    """lambda_{n,0} at s = 2 for large n: psi(2n+1) - psi(n+1)/2 + gamma/2 - log(1 + sqrt 2).

    The sum in ``lambda_s2_l0`` is H_{2n} - H_n / 2 less its tail
    sum_{j>=n} 2^-(j+1/2) / (2j + 1) from the series of artanh(1/sqrt 2) =
    log(1 + sqrt 2); the tail and W_{2n-1} are both below 2^-n, under
    10^-dps once n > 3.33 dps.
    """
    if n <= 3.33 * dps:
        raise ValueError("the dropped terms exceed 10^-dps below n = 3.33 dps")
    with mp.workdps(dps):
        return (mp.digamma(2 * n + 1) - mp.digamma(n + 1) / 2 + mp.euler / 2
                - mp.log(1 + mp.sqrt(2)))


def bracket_series(K: int, l: int, order: int = 10):
    """a_1..a_order of the bracket 1 - cos^K P_l(cos) - sin^K P_l(sin) in x = sin^2 theta.

    Exact sympy rationals, for K = 2n + l.  With P_l(y) = sum_m c_m y^m,
    cos theta = sqrt(1 - x) and sin theta = sqrt(x), the bracket is
    1 - sum_m c_m (1 - x)^((K+m)/2) - sum_m c_m x^((K+m)/2), so a_k is
    -sum_m c_m binomial((K+m)/2, k) (-1)^k less c_m where (K+m)/2 = k.
    This is its Taylor series term by term, with no logarithm, exponential
    or hypergeometric form and no rounding.
    """
    y = sp.Symbol("y")
    terms = sp.Poly(sp.legendre(l, y), y).terms()
    out = []
    for k in range(1, order + 1):
        a = sp.Integer(0)
        for (m,), c in terms:
            half = sp.Rational(K + m, 2)
            a -= c * sp.binomial(half, k) * (-1) ** k + (c if half == k else 0)
        out.append(a)
    return out
