import math

import numpy as np
import pytest

from cellbounds.guarantees import LinkBudget, rate_scheduled
from cellbounds.hexnet import hardcore_for_reuse, hex_rate_sweep
from cellbounds.pathloss import BoundedPowerLaw
from cellbounds.pointset import UnsupportedReuseError

A_HEX = 4 / math.sqrt(3.0)


def sweep(snr_grid, a=A_HEX, alpha=4.0, power=1.0):
    return hex_rate_sweep(a, power, BoundedPowerLaw(alpha), snr_grid)


def test_hardcore_for_reuse_values():
    assert hardcore_for_reuse(A_HEX, 1) == pytest.approx(2.0, rel=1e-12)
    assert hardcore_for_reuse(A_HEX, 3) == pytest.approx(2 * math.sqrt(3.0), rel=1e-12)
    assert hardcore_for_reuse(A_HEX, 4) == pytest.approx(4.0, rel=1e-12)
    assert hardcore_for_reuse(1.0, 1) == pytest.approx(math.sqrt(3.0) / 2, rel=1e-12)
    with pytest.raises(UnsupportedReuseError):
        hardcore_for_reuse(A_HEX, 2)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            hardcore_for_reuse(bad, 1)


def test_scheduling_wins_at_zero_db():
    (row,) = sweep([0.0])
    assert row.rate_k3 > row.rate_aa
    assert row.rate_k4 > row.rate_aa


def test_always_active_wins_at_minus_five_db():
    (row,) = sweep([-5.0])
    assert row.rate_aa > row.rate_k3
    assert row.rate_aa > row.rate_k4


def test_reuse4_best_at_high_snr_and_aa_best_at_low_snr():
    high = sweep([15.0])[0]
    assert high.rate_k4 == max(high.rate_aa, high.rate_k3, high.rate_k4)
    low = sweep([-15.0])[0]
    assert low.rate_aa == max(low.rate_aa, low.rate_k3, low.rate_k4)


def test_curves_strictly_increase_with_snr():
    rows = sweep(np.arange(-15.0, 15.01, 0.5))
    for field in ("rate_aa", "rate_k3", "rate_k4"):
        values = [getattr(r, field) for r in rows]
        assert all(x < y for x, y in zip(values, values[1:]))


def test_each_scheduled_curve_crosses_aa_once():
    rows = sweep(np.arange(-15.0, 15.01, 0.1))
    for field in ("rate_k3", "rate_k4"):
        diffs = np.array([getattr(r, field) - r.rate_aa for r in rows])
        assert diffs[0] < 0 < diffs[-1]
        sign_changes = int(np.sum(np.diff(np.sign(diffs)) != 0))
        assert sign_changes == 1


def test_aa_column_is_reuse_independent():
    # the always-active guarantee equals scheduling with a single class
    model = BoundedPowerLaw(4)
    (row,) = sweep([3.0])
    snr = 10.0 ** 0.3
    link = LinkBudget(1.0, model.eval(A_HEX) / snr, A_HEX, model)
    k1 = rate_scheduled(link, 1, hardcore_for_reuse(A_HEX, 1)).rate
    assert row.rate_aa == pytest.approx(k1, rel=1e-12)


def test_base2_rates_rescale():
    nat = sweep([0.0])[0]
    bits = hex_rate_sweep(A_HEX, 1.0, BoundedPowerLaw(4), [0.0], log_base="2")[0]
    assert bits.rate_aa == pytest.approx(nat.rate_aa / math.log(2.0), rel=1e-12)
    assert bits.rate_k3 == pytest.approx(nat.rate_k3 / math.log(2.0), rel=1e-12)
