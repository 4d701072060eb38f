"""Trajectory generators, analytic bounds, and CSV ingestion."""

import math

import numpy as np
import pytest

from xfertrack.trajectory import (SampledTrajectory, SinusoidTrajectory,
                                  ingest_csv_trajectory, training_references)

from helpers import reference_trajectory


# -- benchmark test signal -----------------------------------------------------


def test_signal_starts_at_zero():
    traj = reference_trajectory()
    assert traj.values(1)[0] == pytest.approx(0.0, abs=1e-15)


def test_signal_value_at_four_seconds():
    # sin(pi) + cos(pi/2) - 1 = -1; dt = 0.5 puts t = 4 s on sample 8
    traj = reference_trajectory(dt=0.5)
    assert traj.values(9)[8] == pytest.approx(-1.0, abs=1e-12)


def test_signal_period_is_sixteen_seconds():
    traj = reference_trajectory(dt=0.01)
    y = traj.values(3300)
    np.testing.assert_allclose(y[1600:3200], y[:1600], atol=1e-9)
    # 8 s is NOT a period (the slower component repeats only every 16 s)
    assert np.max(np.abs(y[800:2400] - y[:1600])) > 0.1


def test_default_step_count():
    assert reference_trajectory().n_steps == 32000


def test_values_extend_past_horizon():
    traj = reference_trajectory(dt=0.1, duration=1.0)
    long = traj.values(traj.n_steps + 5)
    assert long.shape == (15,)
    # analytic continuation, not clamping
    t = 14 * 0.1
    expected = math.sin(2 * math.pi / 8 * t) + math.cos(2 * math.pi / 16 * t) - 1
    assert long[-1] == pytest.approx(expected, abs=1e-12)


# -- bounds --------------------------------------------------------------------


def test_bound_never_exceeded():
    # |y_d| <= |1| + |1| + |-1|: amplitudes plus offset
    traj = reference_trajectory(dt=0.003, duration=64.0)
    y = traj.values(traj.n_steps + 1)
    assert np.max(np.abs(y)) <= 3.0 + 1e-9


def test_bound_attained_with_aligned_phase():
    # peak of a quarter-phase sine lands exactly on the t = 0 sample
    traj = SinusoidTrajectory(amplitudes=(2.0,), angular_freqs=(1.0,),
                              phases=(math.pi / 2.0,), offset=0.0,
                              dt=0.1, duration=10.0)
    y = traj.values(traj.n_steps + 1)
    assert np.max(np.abs(y)) == pytest.approx(2.0, abs=1e-9)


def test_component_tuples_must_align():
    with pytest.raises(ValueError):
        SinusoidTrajectory(amplitudes=(1.0, 1.0), angular_freqs=(1.0,),
                           phases=(0.0,), offset=0.0, dt=0.1, duration=1.0)


def test_positive_dt_and_duration_required():
    with pytest.raises(ValueError):
        SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(1.0,),
                           phases=(0.0,), offset=0.0, dt=0.0, duration=1.0)
    with pytest.raises(ValueError):
        SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(1.0,),
                           phases=(0.0,), offset=0.0, dt=0.1, duration=-1.0)


@pytest.mark.parametrize("field, value", [
    ("dt", math.nan), ("dt", math.inf), ("duration", math.nan),
    ("duration", math.inf)])
def test_finite_dt_and_duration_required(field, value):
    kwargs = dict(amplitudes=(1.0,), angular_freqs=(1.0,), phases=(0.0,),
                  offset=0.0, dt=0.1, duration=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        SinusoidTrajectory(**kwargs)


# -- training grid -------------------------------------------------------------


def test_training_grid_is_five_by_five():
    refs = training_references(dt=1.5e-3, duration=40.0)
    assert len(refs) == 25
    amps = sorted({r.amplitudes[0] for r in refs})
    assert amps == [0.5, 1.0, 1.5, 2.0, 2.5]
    periods = sorted({round(2 * math.pi / r.angular_freqs[0], 9) for r in refs})
    assert periods == [4.0, 8.0, 12.0, 16.0, 20.0]
    for r in refs:
        assert r.duration == 40.0
        assert r.offset == 0.0


# -- sampled trajectories ------------------------------------------------------


def test_sampled_clamps_past_end():
    traj = SampledTrajectory(samples=np.array([0.0, 1.0, 2.0]), dt=0.5)
    assert traj.n_steps == 2
    assert traj.duration == pytest.approx(1.0)
    np.testing.assert_array_equal(traj.values(5), [0.0, 1.0, 2.0, 2.0, 2.0])


def test_sampled_needs_two_points():
    with pytest.raises(ValueError):
        SampledTrajectory(samples=np.array([1.0]), dt=0.5)


# -- CSV ingestion -------------------------------------------------------------


def write_csv(path, rows, header="t,yd"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return path


def test_ingest_two_point_interpolation(tmp_path):
    p = write_csv(tmp_path / "traj.csv", ["0.0,0.0", "1.0,1.0"])
    traj = ingest_csv_trajectory(p, dt=0.5)
    np.testing.assert_allclose(traj.samples, [0.0, 0.5, 1.0], atol=1e-12)


def test_ingest_grid_aligned_roundtrip(tmp_path):
    t = np.arange(11) * 0.1
    y = np.sin(t)
    rows = [f"{float(ti)!r},{float(yi)!r}" for ti, yi in zip(t, y)]
    traj = ingest_csv_trajectory(write_csv(tmp_path / "a.csv", rows), dt=0.1)
    np.testing.assert_allclose(traj.samples, y, atol=1e-12)


def test_ingest_interpolation_stays_in_bracket(tmp_path):
    # resampled values lie between their bracketing source samples, so the
    # deviation from either endpoint is at most the largest adjacent gap
    rng = np.random.default_rng(11)
    t = np.cumsum(rng.uniform(0.005, 0.03, size=1200))
    y = np.cumsum(rng.standard_normal(1200) * 0.1)
    rows = [f"{float(ti)!r},{float(yi)!r}" for ti, yi in zip(t, y)]
    traj = ingest_csv_trajectory(write_csv(tmp_path / "w.csv", rows), dt=0.01)
    grid = t[0] + np.arange(traj.samples.size) * 0.01
    idx = np.searchsorted(t, grid, side="right")
    idx = np.clip(idx, 1, t.size - 1)
    lo = np.minimum(y[idx - 1], y[idx])
    hi = np.maximum(y[idx - 1], y[idx])
    assert np.all(traj.samples >= lo - 1e-12)
    assert np.all(traj.samples <= hi + 1e-12)
    max_gap = np.max(np.abs(np.diff(y)))
    assert np.max(np.abs(traj.samples - y[idx - 1])) <= max_gap + 1e-12


def test_ingest_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty"):
        ingest_csv_trajectory(p, dt=0.1)


def test_ingest_single_row(tmp_path):
    p = write_csv(tmp_path / "one.csv", ["0.0,1.0"])
    with pytest.raises(ValueError, match="two rows"):
        ingest_csv_trajectory(p, dt=0.1)


def test_ingest_missing_column(tmp_path):
    p = write_csv(tmp_path / "cols.csv", ["0.0,1.0"], header="t,value")
    with pytest.raises(ValueError, match="missing columns"):
        ingest_csv_trajectory(p, dt=0.1)


def test_ingest_nonmonotone_time(tmp_path):
    p = write_csv(tmp_path / "mono.csv", ["0.0,0.0", "1.0,1.0", "0.5,2.0"])
    with pytest.raises(ValueError, match="increasing"):
        ingest_csv_trajectory(p, dt=0.1)


def test_ingest_nonfinite_values(tmp_path):
    p = write_csv(tmp_path / "fin.csv", ["0.0,0.0", "1.0,inf"])
    with pytest.raises(ValueError, match="non-finite"):
        ingest_csv_trajectory(p, dt=0.1)


@pytest.mark.parametrize("dt", [0.0, -0.001, math.nan, math.inf])
def test_ingest_rejects_bad_dt(tmp_path, dt):
    p = write_csv(tmp_path / "dt.csv", ["0.0,0.0", "1.0,1.0"])
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        ingest_csv_trajectory(p, dt=dt)
