"""Catalog and demand-profile invariants, conditionals, entropy, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procache import (
    DemandProfile,
    ItemCatalog,
    entropy,
    sample_outcomes,
    validate_profile,
    zipf_profile,
)

from oracles import RequestOutcome, conditional, sample_outcome, smallest_item

ENTROPY_811 = 0.639031859650177  # H(0.8, 0.1, 0.1), natural log
ENTROPY_316 = 0.8979457248567797  # H(0.3, 0.1, 0.6)
ZIPF_3_4_09 = (0.83732950466618805, 0.05233309404163675, 0.01033740129217516)


def test_catalog_basic():
    cat = ItemCatalog([3.0, 2.0, 4.0])
    assert cat.num_items == 3
    assert cat.min_size == 2.0
    assert smallest_item(cat) == (1, False)


def test_catalog_tie_breaks_to_lowest_index():
    assert smallest_item(ItemCatalog([2.0, 2.0, 4.0])) == (0, True)


@pytest.mark.parametrize("bad", [[], [0.0], [-1.0, 2.0], [np.inf], [[1.0, 2.0]]])
def test_catalog_rejects_bad_sizes(bad):
    with pytest.raises(ValueError):
        ItemCatalog(bad)


def test_catalog_sizes_frozen():
    cat = ItemCatalog([1.0, 2.0])
    with pytest.raises(ValueError):
        cat.sizes[0] = 5.0


def test_validate_clean_profile_returns_nothing():
    assert validate_profile([[0.2, 0.3], [0.0, 0.9]]) == []


def test_validate_flags_negative_and_oversubscribed_rows():
    out = validate_profile(np.array([[-0.1, 0.3], [0.8, 0.4]]))
    kinds = {v.kind for v in out}
    assert "negative probability" in kinds
    assert "negative silence" in kinds  # second row sums to 1.2


def test_validate_explicit_silence_mismatch():
    out = validate_profile(np.array([[[0.4, 0.4]]]), silence=np.array([[0.5]]))
    assert any(v.kind == "sum mismatch" for v in out)
    assert "off by" in str(out[0])


def test_validate_rejects_wrong_rank():
    with pytest.raises(ValueError, match="dims"):
        validate_profile(np.zeros((2, 2, 2, 2)))


def test_profile_rejects_bad_rows():
    probs = np.zeros((1, 1, 2))
    probs[0, 0] = (0.7, 0.5)
    with pytest.raises(ValueError, match="violations"):
        DemandProfile(probs)


def test_profile_renormalizes_tiny_slack():
    probs = np.zeros((1, 1, 2))
    probs[0, 0] = (0.5, 0.5 + 3e-10)  # inside the renormalization band
    with pytest.warns(UserWarning, match="renormalizing"):
        prof = DemandProfile(probs)
    assert abs(prof.probs[0, 0].sum() + prof.silence[0, 0] - 1.0) <= 1e-12


@pytest.mark.parametrize("probs, silence", [
    ([0.5, 0.5 + 5e-10, -5e-10], None),
    ([0.4, 0.4 + 5e-10, -5e-10], [[0.2]]),
])
def test_profile_renormalizes_the_clipped_row(probs, silence):
    # clipping the negative entry adds 5e-10 to the row: the scale must see it
    with pytest.warns(UserWarning, match="renormalizing"):
        prof = DemandProfile([[probs]], silence)
    assert prof.probs.min() >= 0.0
    assert abs(prof.probs[0, 0].sum() + prof.silence[0, 0] - 1.0) <= 1e-12


def test_profile_dims_and_frozen_arrays(two_user):
    _, prof = two_user
    assert (prof.num_users, prof.num_slots, prof.num_items) == (2, 2, 3)
    assert np.allclose(prof.silence, 1.0 - prof.probs.sum(axis=2))
    with pytest.raises(ValueError):
        prof.probs[0, 0, 0] = 0.5


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["probs", "silence"])
def test_profile_rejects_non_finite_entries(where, bad):
    probs = np.full((2, 2, 2), 0.25)
    silence = np.full((2, 2), 0.5)
    (probs if where == "probs" else silence)[1, 0, ...] = bad
    with pytest.raises(ValueError, match=f"{where} must be finite"):
        DemandProfile(probs, silence)
    if where == "probs":   # the silence derived from non-finite probs is refused too
        with pytest.raises(ValueError, match="probs must be finite"):
            DemandProfile(probs)


def test_profile_needs_three_dims():
    with pytest.raises(ValueError, match="users, slots, items"):
        DemandProfile(np.zeros((2, 2)))


def test_conditional_normalizes(two_user):
    _, prof = two_user
    cond = conditional(prof, 0, 1)
    assert np.allclose(cond.pi, (0.8, 0.1, 0.1))
    assert cond.pi.sum() == pytest.approx(1.0)


def test_conditional_wraps_slot_index(two_user):
    _, prof = two_user
    assert np.allclose(conditional(prof, 0, 3).pi, conditional(prof, 0, 1).pi)


def test_conditional_undefined_when_always_silent():
    prof = DemandProfile(np.zeros((1, 1, 2)))
    with pytest.raises(ValueError, match="always-silent"):
        conditional(prof, 0, 0)


def test_with_probs_keeps_silence(two_user):
    _, prof = two_user
    probs = prof.probs.copy()
    probs[0, 1] = (0.45, 0.2, 0.25)  # same 0.9 activity, new split
    shifted = prof.with_probs(probs)
    assert np.array_equal(shifted.silence, prof.silence)
    assert shifted.probs[0, 1, 0] == 0.45


def test_entropy_frozen_values():
    assert entropy((0.8, 0.1, 0.1)) == pytest.approx(ENTROPY_811, abs=1e-15)
    assert entropy((0.3, 0.1, 0.6)) == pytest.approx(ENTROPY_316, abs=1e-15)


def test_entropy_point_mass_and_uniform():
    assert entropy((1.0, 0.0, 0.0)) == 0.0
    assert entropy(np.full(4, 0.25)) == pytest.approx(np.log(4.0))


def test_entropy_is_exactly_zero_on_a_point_mass_that_rounds_off_one():
    for pi in ((1.0 + 2.0**-52,), (0.0, 1.0 - 2.0**-53), (0.7 / 0.7,), (0.0, 0.0), ()):
        h = entropy(pi)
        assert h == 0.0 and np.copysign(1.0, h) == 1.0
    assert entropy((2.0, 0.5)) == 0.0   # never negative, even off the simplex
    assert entropy(0.5) == 0.0          # a lone number is a one-entry vector


def test_entropy_works_row_wise():
    # zeros, a point mass and an off-simplex row side by side raise no warning
    rows = np.array([[[0.8, 0.1, 0.1], [1.0, 0.0, 0.0]], [[0.0, 0.3, 0.7], [2.0, 0.5, 0.0]]])
    h = entropy(rows)
    assert h.shape == (2, 2)
    assert all(h[i, j] == entropy(rows[i, j]) for i, j in np.ndindex(2, 2))
    assert h[0, 0] == pytest.approx(ENTROPY_811, abs=1e-15)
    assert h[0, 1] == 0.0 and h[1, 1] == 0.0 and np.all(np.copysign(1.0, h) == 1.0)


def test_entropy_of_a_conditional_preference(two_user):
    _, prof = two_user
    assert entropy(conditional(prof, 0, 1).pi) == pytest.approx(ENTROPY_811)


def test_zipf_frozen_row():
    assert np.allclose(zipf_profile(3, 4.0, 0.9), ZIPF_3_4_09, rtol=0, atol=1e-15)


def test_zipf_shape_and_scaling():
    row = zipf_profile(7, 2.5, 0.8)
    assert row.sum() == pytest.approx(0.8)
    assert np.all(np.diff(row) < 0)
    assert np.allclose(zipf_profile(5, 0.0, 1.0), 0.2)  # flat at power zero


def test_zipf_rejects_bad_args():
    with pytest.raises(ValueError):
        zipf_profile(0, 2.0)
    with pytest.raises(ValueError):
        zipf_profile(3, 2.0, 1.5)


def test_sampling_deterministic_and_prefix_stable(two_user):
    _, prof = two_user
    a = sample_outcomes(prof, 1, seed=42, count=64)
    b = sample_outcomes(prof, 1, seed=42, count=256)
    assert np.array_equal(a, b[:, :64])
    assert np.array_equal(a, sample_outcomes(prof, 1, seed=42, count=64))
    assert not np.array_equal(a, sample_outcomes(prof, 1, seed=43, count=64))


def test_sampling_codes_and_frequencies(two_user):
    _, prof = two_user
    draws = sample_outcomes(prof, 1, seed=7, count=20000)
    assert draws.min() >= 0 and draws.max() <= 3
    freq = float(np.mean(draws[0] == 1))  # item 1 carries p = 0.72 at the peak
    assert abs(freq - 0.72) < 4.0 * np.sqrt(0.72 * 0.28 / 20000)


def test_sample_outcome_indexes_the_stream(two_user):
    _, prof = two_user
    fifth = sample_outcome(prof, 1, seed=9, index=4)
    assert np.array_equal(fifth.choices, sample_outcomes(prof, 1, seed=9, count=5)[:, 4])


def test_deterministic_row_always_requests():
    prof = DemandProfile(np.ones((1, 1, 1)))
    assert np.all(sample_outcomes(prof, 0, seed=3, count=50) == 1)


def test_request_outcome_rejects_negative_codes():
    with pytest.raises(ValueError):
        RequestOutcome([-1, 0])


@st.composite
def prob_rows(draw):
    m = draw(st.integers(1, 5))
    weights = draw(
        st.lists(st.floats(0.0, 1.0), min_size=m + 1, max_size=m + 1).filter(
            lambda w: sum(w) > 1e-6
        )
    )
    total = sum(weights)
    return [w / total for w in weights[1:]]  # first weight becomes the silence


@given(prob_rows())
@settings(max_examples=60, deadline=None)
def test_any_normalized_row_validates(row):
    assert validate_profile(np.asarray(row)) == []


@given(prob_rows())
@settings(max_examples=60, deadline=None)
def test_entropy_bounds(row):
    activity = float(np.sum(row))
    if activity <= 1e-12:
        return
    h = entropy(np.asarray(row) / activity)
    assert -1e-12 <= h <= np.log(len(row)) + 1e-12
