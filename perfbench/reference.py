"""Independent reference values for the benchmark's output checks.

The loadings are checked against a 50-digit mpmath root of the paper's
scalar fixed-point gap g(t1) = phi1(phi2(t1)) - t1, evaluated on the exact
float inputs. The root is accepted only when g changes sign across it at a
relative width of 1e-25, so a warm start from the program's own answer
cannot bias it: g is concave with a unique positive root whenever
lambda1*lambda2 < 1.

The other sweep columns are derived in float64 from that root along a route
that the program does not use: value rates from the drift and variance of
each player's terminal law, and sensitivities from the implicit-function
theorem with complex-step partials of the best-response map.

phi itself is the model's closed form; the reference checks the solving,
valuation and differentiation built on it, not phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

DIGITS = 50
BRACKET_WIDTH = mpf("1e-25")
MAX_NEWTON = 400

#: Relative error a correct solver can reach grows like kappa * u with
#: kappa = 1 / (1 - phi1' phi2'); the floor covers well-conditioned inputs.
THETA_RTOL_FLOOR = 1e-12
THETA_RTOL_PER_KAPPA = 1e-15
#: Half a unit in the 12th significant digit, the precision of sweep CSVs.
CSV_PRINT_RTOL = 5e-12
#: Tolerance of the non-loading sweep columns, relative to the value plus a
#: floor relative to the magnitude of the terms summed into it, so a column
#: that crosses zero is not held to a relative bound it cannot meet.
COLUMN_RTOL = 1e-9
COLUMN_TERM_RTOL = 1e-12


def theta_tolerance(kappa: float) -> float:
    return max(THETA_RTOL_FLOOR, THETA_RTOL_PER_KAPPA * kappa)


class ReferenceFailure(ArithmeticError):
    """The reference root could not be bracketed (a benchmark defect)."""


class _Side:
    """One reinsurer's best response phi = N/D, with its constants held as
    50-digit numbers."""

    def __init__(self, d0, di, w):
        a = d0 + 2 * di
        if w == 0:  # N and D share a factor x; drop it so x = 0 is defined
            self.n = (mpf(0), a, d0 * di)
            self.d = (mpf(0), mpf(2), d0)
        else:
            self.n = (a, (1 + w) * d0 * di, mpf(0))
            self.d = (mpf(2), (1 + 2 * w) * d0 + 2 * w * di, w * (1 + w) * d0 * di)

    def value(self, x):
        (n2, n1, n0), (d2, d1, d0) = self.n, self.d
        return ((n2 * x + n1) * x + n0) / ((d2 * x + d1) * x + d0)

    def value_and_slope(self, x):
        (n2, n1, n0), (d2, d1, d0) = self.n, self.d
        n, dn = (n2 * x + n1) * x + n0, 2 * n2 * x + n1
        d, dd = (d2 * x + d1) * x + d0, 2 * d2 * x + d1
        return n / d, (dn * d - n * dd) / (d * d)


@dataclass(frozen=True)
class FixedPoint:
    theta1: float
    theta2: float
    kappa: float


def fixed_point(delta0: float, delta1: float, delta2: float,
                lambda1: float, lambda2: float,
                start: float | None = None) -> FixedPoint:
    """The equilibrium loadings to 50 digits, rounded to float.

    ``start`` is an optional first guess for theta1; without a usable one,
    Newton runs from the asymptote delta1 + delta0/2 of phi1, where g < 0,
    and by concavity of g approaches the root monotonically from the right.
    """
    with mp.workdps(DIGITS):
        d0, d1, d2 = mpf(delta0), mpf(delta1), mpf(delta2)
        # The weight inside reinsurer i's map is the rival's lambda.
        side1, side2 = _Side(d0, d1, mpf(lambda2)), _Side(d0, d2, mpf(lambda1))
        near = mpf("1e-12")

        def gap(t):
            return side1.value(side2.value(t)) - t

        def bracketed(t):
            return gap(t * (1 - BRACKET_WIDTH)) > 0 > gap(t * (1 + BRACKET_WIDTH))

        def newton(t):
            """The bracketed root and the slope of g beside it, or None."""
            for _ in range(MAX_NEWTON):
                t2, s2 = side2.value_and_slope(t)
                t1, s1 = side1.value_and_slope(t2)
                slope = s1 * s2 - 1
                if slope >= 0:
                    return None
                step = (t1 - t) / slope
                t -= step
                if not t > 0:
                    return None
                # Once steps are this small the next error is far below the
                # bracket width, so the bracket is worth testing.
                if abs(step) <= t * near and bracketed(t):
                    return t, slope
            return None

        found = None
        if start is not None and math.isfinite(start) and start > 0:
            found = newton(mpf(start))
        if found is None:
            found = newton(d1 + d0 / 2)
        if found is None:
            raise ReferenceFailure(
                f"no bracketed root for {(delta0, delta1, delta2, lambda1, lambda2)}")
        root, slope = found
        return FixedPoint(theta1=float(root), theta2=float(side2.value(root)),
                          kappa=float(-1 / slope))


# -- float64 columns of a sweep row -------------------------------------------

_STEP = 1e-30  # complex step; exact to rounding for analytic maps


def _phi(d0, di, w, x):
    num = (d0 + 2.0 * di) * x * x + (1.0 + w) * d0 * di * x
    den = 2.0 * x * x + ((1.0 + 2.0 * w) * d0 + 2.0 * w * di) * x \
        + w * (1.0 + w) * d0 * di
    return num / den


def _cessions(d0, t1, t2):
    """Insurer's best-response cession pair."""
    den = d0 * t1 + d0 * t2 + 2.0 * t1 * t2
    return d0 * t2 / den, d0 * t1 / den


def _rate(delta, drift, volatility):
    """Time slope of an exponential-utility exponent for a Gaussian law with
    the given drift and volatility."""
    return -delta * drift + 0.5 * delta * delta * volatility * volatility


@dataclass(frozen=True)
class SweepRow:
    values: dict[str, float]
    scales: dict[str, float]  # magnitude of the summed terms, for zero crossings


def sweep_row(params: dict, parameter: str, fp: FixedPoint) -> SweepRow:
    """Reference for every numeric column of one sweep row."""
    d0, d1, d2 = params["delta0"], params["delta1"], params["delta2"]
    l1, l2 = params["lambda1"], params["lambda2"]
    mu, sigma, c = params["mu"], params["sigma"], params["c"]
    t1, t2 = fp.theta1, fp.theta2
    p1, p2 = _cessions(d0, t1, t2)
    s2 = sigma * sigma

    drift0 = c - mu - s2 * (t1 * p1 * p1 + t2 * p2 * p2)
    f0 = _rate(d0, drift0, sigma * (1.0 - p1 - p2))
    f0_scale = d0 * (abs(c - mu) + s2 * (t1 * p1 * p1 + t2 * p2 * p2)) \
        + 0.5 * d0 * d0 * s2 * (1.0 - p1 - p2) ** 2

    def welfare(di, wj, ti, tj, pi, pj):
        drift = s2 * (ti * pi * pi - wj * tj * pj * pj)
        rate = _rate(di, drift, sigma * (pi - wj * pj))
        scale = di * s2 * (ti * pi * pi + wj * tj * pj * pj) \
            + 0.5 * di * di * s2 * (pi + wj * pj) ** 2
        norm = s2 * d0 * di
        return rate / norm, scale / norm

    f1, f1_scale = welfare(d1, l2, t1, t2, p1, p2)
    f2, f2_scale = welfare(d2, l1, t2, t1, p2, p1)

    # Implicit-function theorem on (t1, t2) = (phi1(t2; q), phi2(t1; q)).
    h = _STEP

    def partials(d0_, di, w, x, own, rival_lambda):
        bump = {"delta0": (1, 0, 0), own: (0, 1, 0), rival_lambda: (0, 0, 1)}
        a, b, e = bump.get(parameter, (0, 0, 0))
        slope = _phi(d0_, di, w, complex(x, h)).imag / h
        dq = _phi(complex(d0_, a * h), complex(di, b * h),
                  complex(w, e * h), x).imag / h
        return slope, dq

    g1, q1 = partials(d0, d1, l2, t2, "delta1", "lambda2")
    g2, q2 = partials(d0, d2, l1, t1, "delta2", "lambda1")
    det = 1.0 - g1 * g2
    dt1 = (q1 + g1 * q2) / det
    dt2 = (q2 + g2 * q1) / det
    dd0 = 1.0 if parameter == "delta0" else 0.0
    terms = [[v.imag / h * dx for v in _cessions(*args)] for args, dx in (
        ((complex(d0, h), t1, t2), dd0),
        ((d0, complex(t1, h), t2), dt1),
        ((d0, t1, complex(t2, h)), dt2))]
    dp1, dp2 = (sum(column) for column in zip(*terms))
    dp1_scale, dp2_scale = (sum(map(abs, column)) for column in zip(*terms))
    dt1_scale = (abs(q1) + abs(g1 * q2)) / det
    dt2_scale = (abs(q2) + abs(g2 * q1)) / det

    return SweepRow(
        values={"p1": p1, "p2": p2, "f0_rate": f0, "f1_idx": f1,
                "f2_idx": f2, "dtheta1": dt1, "dtheta2": dt2,
                "dp1": dp1, "dp2": dp2},
        scales={"p1": p1, "p2": p2, "f0_rate": f0_scale, "f1_idx": f1_scale,
                "f2_idx": f2_scale, "dtheta1": dt1_scale,
                "dtheta2": dt2_scale, "dp1": dp1_scale, "dp2": dp2_scale},
    )


def expected_utilities(params: dict, fp: FixedPoint) -> dict[str, float]:
    """Each player's expected exponential utility -exp(-delta X)/delta of its
    Gaussian terminal law at the reference loadings, with the insurer
    best-responding: X0 for the insurer, X_i - lambda_j X_j for reinsurer i."""
    d0, d1, d2 = params["delta0"], params["delta1"], params["delta2"]
    l1, l2 = params["lambda1"], params["lambda2"]
    mu, sigma, c, tau = params["mu"], params["sigma"], params["c"], params["horizon"]
    t1, t2 = fp.theta1, fp.theta2
    p1, p2 = _cessions(d0, t1, t2)
    s2 = sigma * sigma
    # Terminal laws: start + tau * drift - sigma * exposure * W(tau).
    x0 = (params["x0"], c - mu - s2 * (t1 * p1 * p1 + t2 * p2 * p2), 1.0 - p1 - p2)
    x1 = (params["x1"], s2 * t1 * p1 * p1, p1)
    x2 = (params["x2"], s2 * t2 * p2 * p2, p2)

    def minus(a, w, b):
        return tuple(u - w * v for u, v in zip(a, b))

    def utility(delta, law):
        start, drift, exposure = law
        return -math.exp(tau * _rate(delta, drift, sigma * exposure)
                         - delta * start) / delta

    return {"insurer": utility(d0, x0),
            "reinsurer1": utility(d1, minus(x1, l2, x2)),
            "reinsurer2": utility(d2, minus(x2, l1, x1))}
