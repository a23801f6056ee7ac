"""Extended-precision Maass-Shimura derivatives of theta-type series at CM points.

The weight-k iterated non-holomorphic derivative of a q-series
sum a(mu) e^{2 pi i mu z} evaluates, at order h, to

    (-1)^h h! / (4 pi y)^h * sum a(mu) L_h^{k-1}(4 pi mu y) e^{2 pi i mu z}

with generalized Laguerre polynomials L.  Squared magnitudes of these values
at z = i and z = omega = (-1+sqrt(-3))/2 must match closed forms built from
the recurrence constants f_N(0), x_n(0), y_n(0), z_n(0) and the periods
Omega_E, Omega_A; the verify_* functions measure exactly that.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from mpmath import mp, mpc, mpf

from .polyring import constant_term
from .recurrences import F_E, X_A, Y_A, Z_A, generate

_GUARD = 40          # guard bits on top of the requested precision
_GAMMA_GUARD = 140   # extra bits when evaluating gamma-function periods

CM_I = "i"
CM_OMEGA = "omega"


class PrecisionError(ValueError):
    """Requested working precision below the supported minimum."""


@dataclass(frozen=True)
class ExpSeries:
    """sum of coeff * e^{2 pi i mu z} with rational mu >= 0, increasing."""

    name: str
    weight: Fraction
    term_gen: Callable[[], Iterator[tuple[Fraction, int]]]

    def terms(self) -> Iterator[tuple[Fraction, int]]:
        return self.term_gen()


def _theta2_terms():
    m = 0
    while True:
        yield Fraction((2 * m + 1) ** 2, 8), 2
        m += 1


def _theta4_terms():
    yield Fraction(0), 1
    m = 1
    while True:
        yield Fraction(m * m, 2), 2 * (-1) ** m
        m += 1


def _eta_terms():
    # pentagonal form: frequencies (6k+1)^2/24 over k in Z, coefficient (-1)^k
    yield Fraction(1, 24), 1
    m = 1
    while True:
        for k in (-m, m):
            yield Fraction((6 * k + 1) ** 2, 24), (-1) ** k
        m += 1


def _eta_cubed_terms():
    m = 0
    while True:
        yield Fraction((2 * m + 1) ** 2, 8), (-1) ** m * (2 * m + 1)
        m += 1


def _eta3z_cubed_terms():
    m = 0
    while True:
        yield Fraction(3 * (2 * m + 1) ** 2, 8), (-1) ** m * (2 * m + 1)
        m += 1


def _sigma1(n: int) -> int:
    s = 0
    for d in range(1, n + 1):
        if n % d == 0:
            s += d
    return s


def _e2_terms():
    yield Fraction(0), 1
    n = 1
    while True:
        yield Fraction(n), -24 * _sigma1(n)
        n += 1


def _hex_count(f: int) -> int:
    """#{(n, m) in Z^2 : n^2 + nm + m^2 = f}."""
    if f == 0:
        return 1
    bound = int(math.isqrt(4 * f // 3)) + 2
    count = 0
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            if n * n + n * m + m * m == f:
                count += 1
    return count


def _theta_hex_terms():
    # theta series of the hexagonal lattice: sum q^(n^2+nm+m^2), weight 1
    f = 0
    while True:
        c = _hex_count(f)
        if c:
            yield Fraction(f), c
        f += 1


THETA2 = ExpSeries("theta2", Fraction(1, 2), _theta2_terms)
THETA4 = ExpSeries("theta4", Fraction(1, 2), _theta4_terms)
ETA = ExpSeries("eta", Fraction(1, 2), _eta_terms)
ETA_CUBED = ExpSeries("eta^3", Fraction(3, 2), _eta_cubed_terms)
ETA3Z_CUBED = ExpSeries("eta(3z)^3", Fraction(3, 2), _eta3z_cubed_terms)
E2 = ExpSeries("E2", Fraction(2), _e2_terms)
THETA_HEX = ExpSeries("theta_hex", Fraction(1), _theta_hex_terms)


def _as_point(z):
    """CM-point tag or explicit number -> mpc at the current working precision."""
    if z == CM_I:
        return mpc(0, 1)
    if z == CM_OMEGA:
        return mpc(mpf(-1) / 2, mp.sqrt(3) / 2)
    return mpc(z)


def _mpf_frac(x) -> mpf:
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    return mpf(x)


def laguerre(h: int, alpha, x) -> mpf:
    """L_h^alpha(x) by the three-term recurrence, stable for x > 0."""
    a = _mpf_frac(alpha)
    x = mpf(x)
    if h == 0:
        return mpf(1)
    prev, cur = mpf(1), 1 + a - x
    for m in range(1, h):
        prev, cur = cur, ((2 * m + 1 + a - x) * cur - (m + a) * prev) / (m + 1)
    return cur


def laguerre_sum(h: int, alpha, x) -> mpf:
    """Defining sum of L_h^alpha(x); independent oracle for the recurrence.

    The alternating sum cancels up to ~h*log2(x) bits, so it is evaluated
    with that many guard bits to stay trustworthy at the caller's precision.
    """
    alpha = Fraction(alpha)
    guard = int(h * (math.log2(max(float(x), 2.0)) + 2.0)) + 60
    with mp.workprec(mp.prec + guard):
        x = mpf(x)
        total = mpf(0)
        fact = 1
        for j in range(h + 1):
            if j > 0:
                fact *= j
            binom = Fraction(1)
            for i in range(1, h - j + 1):
                binom *= (alpha + j + i) / i
            total += _mpf_frac(binom) * (-x) ** j / fact
    return +total


def hermite(n: int, x) -> mpf:
    """Physicists' Hermite polynomial H_n(x) via H_{m+1} = 2x H_m - 2m H_{m-1}."""
    x = mpf(x)
    if n == 0:
        return mpf(1)
    prev, cur = mpf(1), 2 * x
    for m in range(1, n):
        prev, cur = cur, 2 * x * cur - 2 * m * prev
    return cur


def ms_derivative(series: ExpSeries, weight, h: int, z, precision: int = 256) -> mpc:
    """Order-h Maass-Shimura derivative of the series at z (weight as given)."""
    if precision < 64:
        raise PrecisionError("precision below 64 bits is not supported")
    if h < 0:
        raise ValueError("derivative order must be >= 0")
    weight = Fraction(weight)
    with mp.workprec(precision + _GUARD):
        zz = _as_point(z)
        y = zz.imag
        if y <= 0:
            raise ValueError("evaluation point must lie in the upper half plane")
        fourpiy = 4 * mp.pi * y
        two_pi_i_z = 2 * mp.pi * mpc(0, 1) * zz
        threshold = mpf(2) ** (-(precision + 10))
        total = mpc(0)
        small_streak = 0
        for count, (mu, a) in enumerate(series.terms()):
            m = _mpf_frac(mu)
            term = a * laguerre(h, weight - 1, fourpiy * m) * mp.exp(two_pi_i_z * m)
            total += term
            if abs(term) < threshold:
                small_streak += 1
                if small_streak >= 3 and count >= h + 3:
                    break
            else:
                small_streak = 0
            if count > 10000:
                raise PrecisionError("series did not reach the truncation threshold")
        pref = mpf(-1) ** h * mp.factorial(h) / fourpiy ** h
        return pref * total


def e2star(z, precision: int = 256) -> mpc:
    """E_2(z) - 3/(pi y); vanishes at the CM points i and omega."""
    with mp.workprec(precision + _GUARD):
        zz = _as_point(z)
        value = ms_derivative(E2, 2, 0, zz, precision)  # order 0: plain evaluation
        return value - 3 / (mp.pi * zz.imag)


def omega_E(precision: int = 256) -> mpf:
    """gamma(1/4)^2 / (2 sqrt(pi))."""
    with mp.workprec(precision + _GAMMA_GUARD):
        v = mp.gamma(mpf(1) / 4) ** 2 / (2 * mp.sqrt(mp.pi))
    with mp.workprec(precision + _GUARD):
        return +v


def omega_A(precision: int = 256) -> mpf:
    """gamma(1/3)^3 / (2 pi sqrt(3))."""
    with mp.workprec(precision + _GAMMA_GUARD):
        v = mp.gamma(mpf(1) / 3) ** 3 / (2 * mp.pi * mp.sqrt(3))
    with mp.workprec(precision + _GUARD):
        return +v


@dataclass(frozen=True)
class MSDerivativeReport:
    case: str              # which identity: theta2@i, eta@omega, eta^3@omega, eta(3z)^3@omega
    N: int
    k: int
    order: int             # derivative order h
    constant: str          # the recurrence constant entering the prediction
    numeric: float         # |derivative|^2 at the CM point
    predicted: float       # closed form from the recurrence constant and periods
    rel_error: float       # |numeric - predicted| / predicted, inf when predicted == 0
    abs_error: float
    vanishing: bool        # predicted side is exactly 0
    precision: int
    constants_used: tuple[str, ...]

    def as_record(self) -> dict:
        return {
            "case": self.case,
            "N": self.N,
            "k": self.k,
            "order": self.order,
            "constant": self.constant,
            "numeric": self.numeric,
            "predicted": self.predicted,
            "rel_error": self.rel_error,
            "abs_error": self.abs_error,
            "vanishing": self.vanishing,
            "precision": self.precision,
        }


def _report(case, N, k, order, const_label, const_value, numeric, predicted, precision, used):
    if predicted == 0:
        rel = float("inf") if numeric != 0 else 0.0
    else:
        rel = float(abs(numeric - predicted) / abs(predicted))
    return MSDerivativeReport(
        case=case,
        N=N,
        k=k,
        order=order,
        constant=f"{const_label}={const_value}",
        numeric=float(numeric),
        predicted=float(predicted),
        rel_error=rel,
        abs_error=float(abs(numeric - predicted)),
        vanishing=predicted == 0,
        precision=precision,
        constants_used=used,
    )


def verify_theta2_identity(N: int, precision: int = 256) -> MSDerivativeReport:
    """|d^(N) theta2 at i|^2 against 2^{-4k+7/2} 3^{-k+1} pi^{-2k+1} Omega_E^{2k-1} f_N(0)^2, k = 2N+1."""
    k = 2 * N + 1
    c = constant_term(generate(F_E, N))
    with mp.workprec(precision + _GUARD):
        value = ms_derivative(THETA2, Fraction(1, 2), N, CM_I, precision)
        numeric = abs(value) ** 2
        om = omega_E(precision)
        predicted = (
            mpf(2) ** (mpf(-4 * k) + mpf(7) / 2)
            * mpf(3) ** (1 - k)
            * mp.pi ** (1 - 2 * k)
            * om ** (2 * k - 1)
            * c ** 2
        )
        return _report(
            "theta2@i", N, k, N, f"f_{N}(0)", c, numeric, predicted, precision, ("Omega_E",)
        )


# (case key, series, weight, k for given N, derivative order, recurrence family/index,
#  exponent of 2, exponent-of-3 offset): prediction is
#  (Omega_A/pi)^(2k-1) * 2^(e2) * 3^(e3) * constant^2
_ETA_CASES = {
    "x": dict(series=ETA, weight=Fraction(1, 2), k=lambda N: 6 * N + 1,
              order=lambda N: 3 * N, family=X_A, index=lambda N: 3 * N,
              e2=lambda k: -3 * k + 2, e3=lambda k: mpf(k) - mpf(1) / 4,
              label="x"),
    "y": dict(series=ETA_CUBED, weight=Fraction(3, 2), k=lambda N: 6 * N + 2,
              order=lambda N: 3 * N, family=Y_A, index=lambda N: 3 * N,
              e2=lambda k: -3 * k + 3, e3=lambda k: mpf(k) + mpf(1) / 4,
              label="y"),
    "z": dict(series=ETA3Z_CUBED, weight=Fraction(3, 2), k=lambda N: 6 * N + 4,
              order=lambda N: 3 * N + 1, family=Z_A, index=lambda N: 3 * N + 1,
              e2=lambda k: -3 * k + 5, e3=lambda k: mpf(k) - mpf(9) / 4,
              label="z"),
}


def verify_eta_identity(N: int, case: str, precision: int = 256) -> MSDerivativeReport:
    """A-side CM derivative identity for case 'x' (k=6N+1), 'y' (k=6N+2) or 'z' (k=6N+4).

    The y-case derivative order is 3N, forced by the weight bookkeeping
    2k - 1 = 2*order + weight; its closed-form constant follows from the same
    CM period values as the x- and z-cases.
    """
    if case not in _ETA_CASES:
        raise ValueError(f"case must be one of {sorted(_ETA_CASES)}")
    cfg = _ETA_CASES[case]
    k = cfg["k"](N)
    order = cfg["order"](N)
    index = cfg["index"](N)
    c = Fraction(constant_term(generate(cfg["family"], index)))
    with mp.workprec(precision + _GUARD):
        value = ms_derivative(cfg["series"], cfg["weight"], order, CM_OMEGA, precision)
        numeric = abs(value) ** 2
        om = omega_A(precision)
        predicted = (
            (om / mp.pi) ** (2 * k - 1)
            * mpf(2) ** cfg["e2"](k)
            * mpf(3) ** cfg["e3"](k)
            * _mpf_frac(c) ** 2
        )
        label = f"{cfg['label']}_{index}(0)"
        return _report(
            f"{cfg['series'].name}@omega", N, k, order, label, c, numeric, predicted,
            precision, ("Omega_A",),
        )


def hecke_value_E(k: int, precision: int = 256) -> mpf:
    """Central Hecke value for the square-family character at weight k.

    Zero by construction for even k; for k = 2N+1 it is
    2^{3k-9/2} pi^k / (k-1)! * |d^(N) theta2 at i|^2.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 0:
        return mpf(0)
    N = (k - 1) // 2
    with mp.workprec(precision + _GUARD):
        value = ms_derivative(THETA2, Fraction(1, 2), N, CM_I, precision)
        return mpf(2) ** (3 * k - mpf(9) / 2) * mp.pi ** k / mp.factorial(k - 1) * abs(value) ** 2


def hecke_value_E_from_constants(k: int, precision: int = 256) -> mpf:
    """The same central value predicted from f_N(0) and Omega_E alone."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k % 2 == 0:
        return mpf(0)
    N = (k - 1) // 2
    c = constant_term(generate(F_E, N))
    with mp.workprec(precision + _GUARD):
        om = omega_E(precision)
        return (
            om ** (2 * k - 1)
            * c ** 2
            / (mpf(2) ** (k + 1) * mpf(3) ** (k - 1) * mp.pi ** (k - 1) * mp.factorial(k - 1))
        )


def hecke_value_A(k: int, precision: int = 256) -> mpf:
    """A-side central Hecke value at weight k via the hexagonal lattice theta series.

    Uses 2^{k-1} 3^{k/2-2} pi^k / (k-1)! * |d^(k-1) Theta_hex at omega| with the
    sign (-1)^{k-1}; independent of the eta-series route, so the two can be
    compared.  Values for k = 0, 3, 5 mod 6 come out numerically zero.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    with mp.workprec(precision + _GUARD):
        d = ms_derivative(THETA_HEX, 1, k - 1, CM_OMEGA, precision)
        val = (
            mpf(-1) ** (k - 1)
            * mpf(2) ** (k - 1)
            * mpf(3) ** (mpf(k) / 2 - 2)
            * mp.pi ** k
            / mp.factorial(k - 1)
            * d
        )
        return val.real  # imaginary part vanishes to working precision


def hecke_value_A_from_theta_forms(k: int, precision: int = 256) -> mpf:
    """A-side central Hecke value from the eta-type CM derivatives.

    k = 1 mod 6: 2^{2k-1} 3^{k/2-9/4} |d^(3N) eta|^2;
    k = 2 mod 6: 2^{2k-3} 3^{k/2-11/4} |d^(3N) eta^3|^2;
    k = 4 mod 6: 2^{2k-4} 3^{k/2-1/4} |d^(3N+1) eta(3z)^3|^2;
    exactly 0 otherwise (all times pi^k/(k-1)!).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    r = k % 6
    if r not in (1, 2, 4):
        return mpf(0)
    with mp.workprec(precision + _GUARD):
        if r == 1:
            N = (k - 1) // 6
            d = ms_derivative(ETA, Fraction(1, 2), 3 * N, CM_OMEGA, precision)
            const = mpf(2) ** (2 * k - 1) * mpf(3) ** (mpf(k) / 2 - mpf(9) / 4)
        elif r == 2:
            N = (k - 2) // 6
            d = ms_derivative(ETA_CUBED, Fraction(3, 2), 3 * N, CM_OMEGA, precision)
            const = mpf(2) ** (2 * k - 3) * mpf(3) ** (mpf(k) / 2 - mpf(11) / 4)
        else:
            N = (k - 4) // 6
            d = ms_derivative(ETA3Z_CUBED, Fraction(3, 2), 3 * N + 1, CM_OMEGA, precision)
            const = mpf(2) ** (2 * k - 4) * mpf(3) ** (mpf(k) / 2 - mpf(1) / 4)
        return const * mp.pi ** k / mp.factorial(k - 1) * abs(d) ** 2


def lattice_theta_identity_gap(order: int, precision: int = 128, cutoff: int = 40) -> float:
    """Relative gap in the lattice-sum / theta-product identity at z = i.

    Compares, for even derivative order, the two-dimensional Laguerre-weighted
    lattice sum with sqrt(2) * |theta_(order)[1/2; 0](i)|^2; returns
    |lhs - rhs| / |rhs|.
    """
    if order % 2 != 0:
        raise ValueError("only even orders are exercised here")
    with mp.workprec(precision + _GUARD):
        pi = mp.pi
        lhs = mpf(0)
        for n in range(-cutoff, cutoff + 1):
            for m in range(-cutoff, cutoff + 1):
                q2 = n * n + m * m
                sign = (-1) ** (n + n * m)
                lhs += sign * laguerre(order, 0, pi * q2) * mp.exp(-pi * mpf(q2) / 2)
        lhs *= mpf(-1) ** order * mp.factorial(order) / pi ** order
        # theta_(order)[1/2; 0](i) as a Hermite-weighted half-integer theta sum
        s = mpf(0)
        root = mp.sqrt(2 * pi)
        for j in range(0, cutoff):
            x = mpf(2 * j + 1) / 2
            s += 2 * hermite(order, x * root) * mp.exp(-pi * x * x)
        theta_p = (2 * pi) ** (-mpf(order) / 2) * s  # i^{-order} dropped: modulus only
        rhs = mpf(-1) ** order * mp.sqrt(mpf(2)) * theta_p ** 2
        return float(abs(lhs - rhs) / abs(rhs))
