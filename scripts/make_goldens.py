"""Regenerate the golden eigenvalue file with an independent high-precision oracle.

Integrates the eigenvalue integral in the substituted variable x = sin(theta),

    lambda_{n,l} = int_0^{sqrt(2)/2} (log 1/x)^(2/s-1) / x
                   * (1 + d - x^K P_l(x) - (1-x^2)^(K/2) P_l(sqrt(1-x^2)))
                   / sqrt(1-x^2) dx,          K = 2n + l,

with mpmath tanh-sinh quadrature at 40 significant digits and dyadic endpoint
splitting for the logarithmic corner.  Run from the repository root:

    python3 scripts/make_goldens.py

The eigenvalue CSV is package data consumed by both the test suite and the
CLI verify suites.  The s = 2 closed forms (2/3)(1 - 2^(-3/2)) and 1 - 2^(-3/2)
validate the pipeline at generation time.

Two test-only files go to tests/golden/: scaled_gap.csv (scaled Legendre gap
spot values) and edge_eigenvalues.csv: the s = 0.5 table-edge modes (100, 0)
and (200, 0) that set c_min in acceptance criterion C04, (10^6, 0) at
s = 0.5, and four modes at each of s = 0.2 and 0.1, below the documented
range, where the integrand's mass lies near theta = e^(-1/s).  The edge
values are cross-checked at generation time against tanh-sinh at 50 digits
on 80 dyadic panels.  Only that file is rewritten by

    python3 scripts/make_goldens.py edge

which takes about five minutes.

A third, high_l_eigenvalues.csv, holds modes with l = 200 and 400 at
s = 0.5, 1 and 2, where P_l(cos theta) oscillates 25 to 50 times over
(0, pi/4).  They are integrated in theta at 50 digits with one Gauss-Legendre
rule per panel, uniform panels of one oscillation above theta = 1/l and
dyadic ones below, and cross-checked against half-period panels with a
coarser rule.  Only that file is rewritten by

    python3 scripts/make_goldens.py high-l

which takes several minutes.
"""

import csv
import pathlib
import sys

import mpmath as mp
from mpmath.calculus.quadrature import GaussLegendre

mp.mp.dps = 40

OUT = pathlib.Path(__file__).resolve().parent.parent / "src" / "dyboltz" / "data" / "golden_eigenvalues.csv"

CASES = [
    (2, 0, "0.5"),
    (2, 0, "1"),
    (2, 0, "2"),
    (2, 0, "4"),
    (0, 2, "1"),
    (0, 2, "2"),
    (3, 0, "1"),
    (5, 3, "2"),
    (10, 7, "4"),
    (1, 1, "0.5"),
]

PROVENANCE = "mpmath-tanhsinh-dps40-x=sin(theta)"


def legendre_poly(l, x):
    return mp.legendre(l, x)


def eigen_mp(n, l, s, dyadic=(40, 30, 20, 14, 10, 7, 5, 3, 2), method="tanh-sinh"):
    K = 2 * n + l
    delta = 1 if (n == 0 and l == 0) else 0

    def f(x):
        if x <= 0:
            return mp.mpf(0)
        bracket = (
            1 + delta
            - x**K * legendre_poly(l, x)
            - (1 - x * x) ** mp.mpf(K / 2) * legendre_poly(l, mp.sqrt(1 - x * x))
        )
        return (mp.log(1 / x)) ** (2 / mp.mpf(s) - 1) / x * bracket / mp.sqrt(1 - x * x)

    top = mp.sqrt(2) / 2
    points = [mp.mpf(0)] + [mp.mpf(2) ** -j for j in dyadic] + [top]
    return mp.quad(f, points, method=method)


GAP_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "scaled_gap.csv"

GAP_CASES = [
    (3, "0.001"),
    (40, "0.001"),
    (333, "0.001"),
    (333, "0.05"),
    (500, "1.0"),
    (500, "0.0015707963267948967"),  # pi/2000
]


def write_gap_goldens():
    rows = []
    for l, theta in GAP_CASES:
        th = mp.mpf(theta)
        val = (1 - mp.legendre(l, mp.cos(th / l))) / th**2
        rows.append((l, theta, mp.nstr(val, 17), "mpmath-legendre-dps40"))
        print(f"gap(l={l}, theta={theta}) = {mp.nstr(val, 17)}")
    GAP_OUT.parent.mkdir(parents=True, exist_ok=True)
    with open(GAP_OUT, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["l", "theta", "gap", "provenance"])
        w.writerows(rows)
    print(f"wrote {GAP_OUT}")


EDGE_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "edge_eigenvalues.csv"

EDGE_CASES = [
    (100, 0, "0.5"),
    (200, 0, "0.5"),
    # (10^6, 0) stops where cos theta rounds to 1, and at s = 0.1 and 0.2 the
    # integrand's mass lies near theta = e^(-1/s); log(cos theta) loses its
    # digits in both places
    (10**6, 0, "0.5"),
    *((n, l, s) for s in ("0.2", "0.1") for n, l in ((2, 0), (1, 5), (0, 19), (20, 5))),
]


def write_edge_goldens():
    """Edge rows at dps 40, each cross-checked on 80 dyadic panels at dps 50 to 1e-20."""
    rows = []
    for n, l, s in EDGE_CASES:
        val = eigen_mp(n, l, mp.mpf(s))
        with mp.workdps(50):
            check = eigen_mp(n, l, mp.mpf(s), dyadic=range(80, 0, -1))
        assert abs(val - check) < mp.mpf(10) ** -20 * val, (n, l, s, val, check)
        rows.append((n, l, s, mp.nstr(val, 17), PROVENANCE))
        print(f"lambda(n={n}, l={l}, s={s}) = {mp.nstr(val, 17)}", flush=True)
    with open(EDGE_OUT, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "l", "s", "lambda", "provenance"])
        w.writerows(rows)
    print(f"wrote {EDGE_OUT} (cross-checked to 1e-20)")


HIGH_L_OUT = pathlib.Path(__file__).resolve().parent.parent / "tests" / "golden" / "high_l_eigenvalues.csv"

HIGH_L_CASES = [
    (0, 200, "0.5"),
    (100, 200, "0.5"),
    (0, 400, "0.5"),
    (400, 400, "0.5"),
    (0, 400, "2"),
    (50, 400, "1"),
]

HIGH_L_PROVENANCE = "mpmath-gauss-legendre-theta-panels-dps50"


def legendre_rec(l, x):
    """P_l(x) by the three-term recurrence, stable for |x| <= 1 at any degree."""
    p0, p1 = mp.mpf(1), x
    if l == 0:
        return p0
    for k in range(1, l):
        p0, p1 = p1, ((2 * k + 1) * x * p1 - k * p0) / (k + 1)
    return p1


def eigen_theta(n, l, s, degree, per_period):
    """lambda_{n,l} in theta on dyadic panels below 1/l and uniform panels above.

    P_l(cos theta) oscillates with period 2 pi / l, so the panels above
    theta = 1/l hold 1 / ``per_period`` of a period each; every panel takes
    the 3 * 2^(degree - 1)-point Gauss-Legendre rule at the working
    precision.  A sin^K term below 10^-60 is left out.
    """
    K = 2 * n + l
    delta = 1 if (n == 0 and l == 0) else 0
    power = 2 / mp.mpf(s) - 1

    def f(theta):
        sin, cos = mp.sin(theta), mp.cos(theta)
        bracket = 1 + delta - cos**K * legendre_rec(l, cos)
        if K * mp.log(sin) > -60 * mp.log(10):
            bracket -= sin**K * legendre_rec(l, sin)
        return mp.log(1 / sin) ** power / sin * bracket

    knee = min(mp.mpf(1) / max(l, 1), mp.pi / 8)
    points = [knee * mp.mpf(2) ** -j for j in range(120, 0, -1)] + [knee]
    width = 2 * mp.pi / max(l, 1) / per_period
    count = int(mp.ceil((mp.pi / 4 - knee) / width))
    points += [knee + (mp.pi / 4 - knee) * i / count for i in range(1, count + 1)]
    rule = GaussLegendre(mp.mp).calc_nodes(degree, mp.mp.prec)
    total = mp.mpf(0)
    for a, b in zip(points[:-1], points[1:]):
        half, mid = (b - a) / 2, (b + a) / 2
        total += half * mp.fsum(w * f(mid + half * x) for x, w in rule)
    return total


def write_high_l_goldens():
    """Large-l rows at dps 50, each cross-checked by a second panel layout and rule."""
    rows = []
    with mp.workdps(50):
        check = eigen_theta(5, 3, 2, degree=4, per_period=1)
        assert abs(check - eigen_mp(5, 3, mp.mpf(2))) < mp.mpf(10) ** -25, check
        for n, l, s in HIGH_L_CASES:
            val = eigen_theta(n, l, s, degree=5, per_period=1)
            other = eigen_theta(n, l, s, degree=4, per_period=2)
            assert abs(val - other) < mp.mpf(10) ** -25 * val, (n, l, s, val, other)
            rows.append((n, l, s, mp.nstr(val, 17), HIGH_L_PROVENANCE))
            print(f"lambda(n={n}, l={l}, s={s}) = {mp.nstr(val, 17)}", flush=True)
    with open(HIGH_L_OUT, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "l", "s", "lambda", "provenance"])
        w.writerows(rows)
    print(f"wrote {HIGH_L_OUT} (cross-checked to 1e-25)")


def main():
    if sys.argv[1:] == ["high-l"]:
        write_high_l_goldens()
        return
    if sys.argv[1:] == ["edge"]:
        write_edge_goldens()
        return
    rows = []
    for n, l, s in CASES:
        val = eigen_mp(n, l, mp.mpf(s))
        rows.append((n, l, s, mp.nstr(val, 17), PROVENANCE))
        print(f"lambda(n={n}, l={l}, s={s}) = {mp.nstr(val, 17)}")

    closed_gap = mp.mpf(2) / 3 * (1 - mp.mpf(2) ** mp.mpf(-1.5))
    got = eigen_mp(2, 0, mp.mpf(2))
    assert abs(got - closed_gap) < mp.mpf(10) ** -25, (got, closed_gap)
    closed_02 = 1 - mp.mpf(2) ** mp.mpf(-1.5)
    got = eigen_mp(0, 2, mp.mpf(2))
    assert abs(got - closed_02) < mp.mpf(10) ** -25, (got, closed_02)
    print("closed-form validation at s=2 passed (1e-25)")

    with open(OUT, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "l", "s", "lambda", "provenance"])
        w.writerows(rows)
    print(f"wrote {OUT}")
    write_gap_goldens()
    write_edge_goldens()
    write_high_l_goldens()


if __name__ == "__main__":
    main()
