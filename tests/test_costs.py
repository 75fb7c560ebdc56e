"""Cost families: values, marginals, domain handling, convexity probes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache import CostDomainError, CostModel


def test_quadratic_values_and_metadata():
    c = CostModel.quadratic()
    assert c.cost(3.0) == 9.0
    assert c.marginal(3.0) == 6.0
    assert isinstance(c.cost(3.0), float)
    assert np.allclose(c.cost(np.array([0.0, 1.0, 2.0])), [0.0, 1.0, 4.0])
    assert c.degree == 2
    assert c.poly_coeffs() == (0.0, 0.0, 1.0)
    assert c.domain_limit == np.inf


def test_outage_values_and_domain():
    c = CostModel.outage(10.0)
    assert c.cost(5.0) == pytest.approx(1.0)
    assert c.marginal(5.0) == pytest.approx(10.0 / 25.0)
    assert c.domain_limit == 10.0
    with pytest.raises(CostDomainError):
        c.cost(10.0)
    with pytest.raises(CostDomainError):
        c.cost(np.array([1.0, 12.0]))  # one bad entry poisons the batch
    mask = c.in_domain(np.array([0.0, 9.99, 10.0, 12.0, -1.0]))
    assert mask.tolist() == [True, True, False, False, False]


def test_domain_error_reports_load_and_limit():
    with pytest.raises(CostDomainError) as err:
        CostModel.outage(4.0).cost(6.0)
    assert err.value.load == 6.0
    assert err.value.limit == 4.0
    assert "6" in str(err.value) and "4" in str(err.value)


def test_negative_loads_rejected_even_for_quadratic():
    with pytest.raises(CostDomainError):
        CostModel.quadratic().cost(-0.5)
    # a projection's numerical dust is fine
    assert CostModel.quadratic().cost(-1e-12) == pytest.approx(0.0, abs=1e-20)


def test_polynomial_eval():
    c = CostModel.polynomial([0.0, 0.3, 0.1, 0.05])
    assert c.cost(2.0) == pytest.approx(0.3 * 2 + 0.1 * 4 + 0.05 * 8)
    assert c.marginal(2.0) == pytest.approx(0.3 + 0.2 * 2 + 0.15 * 4)
    assert c.degree == 3
    assert c.poly_coeffs() == (0.0, 0.3, 0.1, 0.05)
    assert c.domain_limit == np.inf


@pytest.mark.parametrize(
    "bad", [[0.0, 1.0], [0.1, -0.2, 0.3], [0.1, 0.2, 0.0], [1.0, 1.0, 1.0, 0.0]]
)
def test_polynomial_rejects_bad_coefficients(bad):
    with pytest.raises(ValueError):
        CostModel.polynomial(bad)


def test_outage_rejects_nonpositive_capacity():
    for mu in (0.0, -1.0):
        with pytest.raises(ValueError, match="positive"):
            CostModel.outage(mu)


def test_outage_degree_undefined():
    with pytest.raises(ValueError, match="degree"):
        CostModel.outage(5.0).degree
    with pytest.raises(ValueError, match="coefficients"):
        CostModel.outage(5.0).poly_coeffs()


@pytest.mark.parametrize(
    "cost,hi",
    [
        (CostModel.quadratic(), 40.0),
        (CostModel.outage(12.0), 11.5),
        (CostModel.polynomial([0.0, 0.5, 0.2, 0.1]), 20.0),
    ],
)
def test_cost_increasing_and_convex_on_grid(cost, hi):
    grid = np.linspace(0.0, hi, 400)
    vals = cost.cost(grid)
    first = np.diff(vals)
    assert np.all(first >= -1e-12)
    assert np.all(np.diff(first) >= -1e-10)
    assert np.all(cost.marginal(grid[1:]) > 0.0)


@given(
    st.sampled_from(["quadratic", "outage", "polynomial"]),
    st.floats(0.05, 0.85),
)
@settings(max_examples=40, deadline=None)
def test_marginal_matches_finite_difference(kind, frac):
    c = {
        "quadratic": CostModel.quadratic(),
        "outage": CostModel.outage(12.0),
        "polynomial": CostModel.polynomial([0.0, 0.5, 0.2, 0.1]),
    }[kind]
    hi = 11.0 if kind == "outage" else 40.0
    load = frac * hi
    h = 1e-6 * (1.0 + load)
    fd = (c.cost(load + h) - c.cost(load - h)) / (2.0 * h)
    assert c.marginal(load) == pytest.approx(fd, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize(
    "cost,hi",
    [
        (CostModel.quadratic(), 40.0),
        (CostModel.outage(12.0), 11.0),
        (CostModel.polynomial([0.0, 0.3, 0.1, 0.05]), 40.0),
    ],
)
def test_second_derivative_matches_finite_difference_of_marginal(cost, hi):
    loads = np.linspace(0.01, hi, 50)
    h = 1e-5 * (1.0 + loads)
    fd = (cost.marginal(loads + h) - cost.marginal(loads - h)) / (2.0 * h)
    np.testing.assert_allclose(cost.second(loads), fd, rtol=1e-7)
    assert isinstance(cost.second(1.0), float)
    assert np.all(cost.second(loads) > 0.0)
    # the same domain rules as cost and marginal
    with pytest.raises(CostDomainError):
        cost.second(np.array([1.0, -0.5]))
    if cost.kind == "outage":
        with pytest.raises(CostDomainError):
            cost.second(12.0)


def test_polynomial_horner_in_one_buffer_equals_the_plain_expression():
    coeffs = (0.0, 0.3, 0.1, 0.05)
    y = np.random.default_rng(5).uniform(0.0, 40.0, size=(3, 15625))
    ref = np.zeros_like(y)
    for c in reversed(coeffs):
        ref = ref * y + c
    assert np.array_equal(CostModel._horner(y, coeffs), ref)
    model = CostModel.polynomial(list(coeffs))
    assert np.array_equal(model.cost(y), ref)
    assert model.cost(2.0) == float(CostModel._horner(np.asarray(2.0), coeffs))
