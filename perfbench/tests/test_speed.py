"""Host-speed normalization: the scale factor for a wall interval."""

import pytest

from speed import REFERENCE_UNIT_S, SpeedSamples, measure_unit


def samples_at(pairs):
    s = SpeedSamples()
    for at, unit in pairs:
        s.at.append(at)
        s.unit_s.append(unit)
    return s


def test_factor_averages_the_samples_around_an_interval():
    s = samples_at([(0.0, 1e-3), (1.0, 2e-3), (2.0, 2e-3), (3.0, 4e-3)])
    # a host at half the reference speed doubles the unit time
    assert s.factor(0.9, 2.1, margin=0.0) == pytest.approx(REFERENCE_UNIT_S / 2e-3)
    assert s.factor(0.0, 3.0, margin=0.0) == pytest.approx(REFERENCE_UNIT_S / 2.25e-3)
    # the margin widens the window
    assert s.factor(1.5, 1.6, margin=0.6) == pytest.approx(REFERENCE_UNIT_S / 2e-3)


def test_factor_falls_back_to_the_nearest_samples():
    s = samples_at([(0.0, 1e-3), (10.0, 3e-3)])
    assert s.factor(4.0, 5.0, margin=0.0) == pytest.approx(REFERENCE_UNIT_S / 2e-3)
    with pytest.raises(RuntimeError):
        SpeedSamples().factor(0.0, 1.0)


def test_measure_unit_is_positive():
    assert measure_unit() > 0.0
