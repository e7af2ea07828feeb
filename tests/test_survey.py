"""Short-interval prime density surveys."""

from fractions import Fraction

import pytest

from primecantor import primality
from primecantor.errors import EmptyCensusError, ResourceBudgetError
from primecantor.primality import primes_in_range
from primecantor.survey import (
    CSV_HEADER,
    SurveyRecord,
    gamma_survey,
    matomaki_fraction,
)


def test_gamma_survey_small_examples():
    (rec,) = gamma_survey([8], Fraction(2, 3))
    assert (rec.lo, rec.hi) == (8, 12)
    assert rec.count == 1  # just 11
    (rec,) = gamma_survey([10], Fraction(1))
    assert (rec.lo, rec.hi) == (10, 20)
    assert rec.count == 4  # 11, 13, 17, 19


def test_gamma_survey_million_anchor():
    (rec,) = gamma_survey([10**6], Fraction(2, 3))
    assert (rec.lo, rec.hi) == (10**6, 10**6 + 10**4)
    assert rec.count == len(primes_in_range(10**6, 10**6 + 10**4))
    assert 0.3 < rec.density_ratio < 3.0


def test_gamma_survey_validation():
    with pytest.raises(ValueError):
        gamma_survey([100], Fraction(1, 3))
    with pytest.raises(ValueError):
        gamma_survey([100], Fraction(3, 2))
    with pytest.raises(ValueError):
        gamma_survey([1], Fraction(2, 3))


def test_matomaki_fraction_square_windows():
    total, good, frac = matomaki_fraction(100, Fraction(2), 0.5)
    # Anchor primes in [100, floor(100 * sqrt(3/2))] = [100, 122].
    assert total == len(primes_in_range(100, 122))
    assert 0 <= good <= total
    assert frac == good / total
    # d = 0 degenerates to window nonemptiness.
    _, good0, _ = matomaki_fraction(100, Fraction(2), 0.0)
    assert good0 >= good


def test_matomaki_fraction_empty_census():
    # Large c collapses the anchor window to [24, 24], which has no prime.
    with pytest.raises(EmptyCensusError):
        matomaki_fraction(24, Fraction(100), 0.5)


def test_matomaki_fraction_validation():
    with pytest.raises(ValueError):
        matomaki_fraction(1, Fraction(2), 0.5)
    with pytest.raises(ValueError):
        matomaki_fraction(100, Fraction(3, 2), 0.5)
    with pytest.raises(ValueError):
        matomaki_fraction(100, Fraction(2), 1.0)


def _record_counts(monkeypatch):
    counted = []
    counting = primality.count_primes_in_range

    def recording(lo, hi):
        counted.append((lo, hi))
        return counting(lo, hi)

    monkeypatch.setattr(primality, "count_primes_in_range", recording)
    return counted


def test_gamma_census_over_budget_fails_before_counting(monkeypatch):
    # The second window holds 10**9 + 1 integers, over the 2 * 10**8 budget.
    counted = _record_counts(monkeypatch)
    with pytest.raises(ResourceBudgetError, match="width 1000000001"):
        gamma_survey([10**6, 10**9], Fraction(1))
    assert counted == []


def test_matomaki_census_over_budget_fails_before_counting(monkeypatch):
    # The windows [p**2, p**2 + p] of the anchors 101, ..., 113 hold p + 1
    # integers: only the last, of 114, is over a budget of 110.
    monkeypatch.setattr(primality, "WIDTH_LIMIT", 110)
    counted = _record_counts(monkeypatch)
    with pytest.raises(ResourceBudgetError, match="width 114"):
        matomaki_fraction(100, Fraction(2), 0.5)
    assert counted == []


def test_csv_row_shape():
    rec = SurveyRecord(8, 8, 12, 1, 0.5198603854)
    row = rec.csv_row()
    assert row.split(",")[:4] == ["8", "8", "12", "1"]
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
