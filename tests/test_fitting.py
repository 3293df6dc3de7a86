import dataclasses
import json
import math

import pytest

from partgap.fitting import (
    LogPolyModel,
    evaluate,
    fit_log_poly,
)
from partgap.repulsion import threshold_rows


def test_recovers_exact_polynomial():
    # value = 2 + (3 / ln 10) * ln d, a degree-1 polynomial in ln d
    pts = [(10**i, 2 + 3 * i) for i in range(0, 11)]
    model = fit_log_poly(pts, 1)
    assert abs(model.coefficients[0] - 2.0) < 1e-8
    assert abs(model.coefficients[1] - 3.0 / math.log(10)) < 1e-10
    for d, v in pts:
        assert abs(evaluate(model, d) - v) < 1e-8


def test_higher_degree_never_fits_worse():
    noise = [4, 3, 3, 4, 2, 3, 4, 1, 0, 1, 1, 4, 4, 0, 2, 4, 0, 3, 0, 2, 4]
    pts = [
        (10**i, int(50 + 12 * i + 0.3 * i * i + noise[i]))
        for i in range(0, 21)
    ]

    def rms(model):
        return math.sqrt(
            sum((evaluate(model, d) - v) ** 2 for d, v in pts) / len(pts)
        )

    errs = [rms(fit_log_poly(pts, deg)) for deg in (1, 2, 3, 4, 5)]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-9


def test_residuals_orthogonal_to_design(table25k):
    d_values = [10**i for i in range(0, 71)]
    rows = threshold_rows(table25k, d_values, (50,))
    pts = [(d, m) for d, (m,) in rows]
    model = fit_log_poly(pts, 5)
    residual = [v - evaluate(model, d) for d, v in pts]
    y_norm = math.hypot(*(v for _, v in pts))
    for j in range(6):
        col = [math.log(d) ** j for d, _ in pts]
        dot = abs(math.fsum(c * r for c, r in zip(col, residual)))
        scale = math.hypot(*col) * y_norm
        assert dot <= 1e-6 * scale


def test_deterministic():
    pts = [(10**i, 3 * i + 1) for i in range(0, 13)]
    a = fit_log_poly(pts, 3)
    b = fit_log_poly(pts, 3)
    assert a == b


def test_window_exponent():
    pts = [(10**i, i + 1) for i in range(0, 13)]
    assert fit_log_poly(pts, 2).window_exponent == 12
    assert fit_log_poly(pts[:4], 2).window_exponent == 3


def test_evaluate_at_one_is_constant_term():
    model = LogPolyModel(degree=2, coefficients=(4.5, 1.0, 2.0), window_exponent=3)
    assert evaluate(model, 1) == 4.5
    with pytest.raises(ValueError):
        evaluate(model, 0)


def test_rejects_bad_inputs():
    pts = [(10**i, i) for i in range(0, 5)]
    with pytest.raises(ValueError):
        fit_log_poly(pts, 0)
    with pytest.raises(ValueError):
        fit_log_poly(pts[:3], 3)
    with pytest.raises(ValueError):
        fit_log_poly([(0, 1), (10, 2), (100, 3)], 1)


def test_rejects_rank_deficient():
    # two distinct thresholds cannot pin down a quadratic
    pts = [(10, 5), (10, 5), (100, 9), (100, 9)]
    with pytest.raises(ValueError):
        fit_log_poly(pts, 2)


def test_model_validation():
    with pytest.raises(ValueError):
        LogPolyModel(degree=0, coefficients=(1.0,), window_exponent=1)
    with pytest.raises(ValueError):
        LogPolyModel(degree=2, coefficients=(1.0, 2.0), window_exponent=1)
    with pytest.raises(ValueError):
        LogPolyModel(
            degree=1, coefficients=(math.nan, 1.0), window_exponent=1
        )


def test_model_as_dict():
    # the JSON object of `partgap fit --format json` starts from this dict
    model = LogPolyModel(degree=1, coefficients=(0.5, 2.5), window_exponent=7)
    assert dataclasses.asdict(model) == {
        "degree": 1,
        "coefficients": (0.5, 2.5),
        "window_exponent": 7,
    }
    assert json.dumps(dataclasses.asdict(model)) == (
        '{"degree": 1, "coefficients": [0.5, 2.5], "window_exponent": 7}'
    )
