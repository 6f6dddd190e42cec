import statistics

import pytest

from perfbench import calibrate
from perfbench.stats import MIN_BEYOND, highest_reportable, percentile


def test_median_reported_for_any_nonempty_sample():
    assert percentile([5.0], 50) == 5.0
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([], 50) is None


@pytest.mark.parametrize("q, n_min", [(90, 100), (75, 40), (95, 200), (99, 1000)])
def test_tail_needs_ten_samples_beyond(q, n_min):
    assert percentile(list(range(n_min - 1)), q) is None
    assert percentile(list(range(n_min)), q) is not None
    assert n_min * (100 - q) / 100 >= MIN_BEYOND


def test_interpolation_matches_statistics_inclusive():
    xs = [float(x * x % 97) for x in range(120)]
    want = statistics.quantiles(xs, n=10, method="inclusive")[8]
    assert percentile(xs, 90) == pytest.approx(want)


def test_highest_reportable_picks_the_highest_percentile_allowed():
    assert highest_reportable(list(range(30))) is None
    assert highest_reportable(list(range(40)))[0] == 75
    assert highest_reportable(list(range(150)))[0] == 90
    assert highest_reportable(list(range(1000)))[0] == 99


def test_scaled_times_follow_the_local_probe():
    nominal = calibrate.NOMINAL_S
    times = [1.0] * 10
    probes = [nominal] * 5 + [2 * nominal] * 5  # the machine halves its speed
    scaled = calibrate.scaled_times(times, probes)
    assert scaled[0] == pytest.approx(1.0) and scaled[-1] == pytest.approx(0.5)
    stray = [nominal] * 10
    stray[4] = 10 * nominal  # one slow probe does not move its neighbours
    assert calibrate.scaled_times(times, stray) == pytest.approx([1.0] * 10)
    with pytest.raises(ValueError):
        calibrate.scaled_times([1.0], [])


def test_probe_measures_a_positive_time():
    assert calibrate.probe() > 0
