"""Desired-output trajectories: multi-sinusoid generators and CSV ingestion."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SinusoidTrajectory:
    """y_d(t) = offset + sum_i a_i sin(w_i t + phi_i) sampled at dt.

    Samples extend analytically past the nominal horizon, so previews
    y_d(k+r) beyond the last controlled step are exact.
    """

    amplitudes: tuple
    angular_freqs: tuple  # rad/s
    phases: tuple
    offset: float
    dt: float
    duration: float

    def __post_init__(self):
        if not (len(self.amplitudes) == len(self.angular_freqs) == len(self.phases)):
            raise ValueError("component tuples must have equal length")
        for name in ("dt", "duration"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def n_steps(self) -> int:
        return int(round(self.duration / self.dt))

    def values(self, count: int) -> np.ndarray:
        t = np.arange(count) * self.dt
        y = np.full(count, float(self.offset))
        for a, w, p in zip(self.amplitudes, self.angular_freqs, self.phases):
            y += a * np.sin(w * t + p)
        return y


@dataclass(frozen=True)
class SampledTrajectory:
    """A trajectory fixed by pre-resampled values on a uniform dt grid.

    Previews past the final sample are clamped to the last value.
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self):
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("need at least two samples")

    @property
    def n_steps(self) -> int:
        return self.samples.size - 1

    @property
    def duration(self) -> float:
        return self.n_steps * self.dt

    def values(self, count: int) -> np.ndarray:
        if count <= self.samples.size:
            return self.samples[:count].copy()
        out = np.empty(count)
        out[:self.samples.size] = self.samples
        out[self.samples.size:] = self.samples[-1]
        return out


def training_references(dt: float, duration: float):
    """The 5x5 grid of excitation sinusoids used to build inverse datasets.

    Amplitudes 0.5..2.5 crossed with angular frequencies 2*pi/20..2*pi/4.
    """
    amplitudes = (0.5, 1.0, 1.5, 2.0, 2.5)
    periods = (20.0, 16.0, 12.0, 8.0, 4.0)
    refs = []
    for a in amplitudes:
        for p in periods:
            refs.append(SinusoidTrajectory(
                amplitudes=(a,), angular_freqs=(2.0 * math.pi / p,),
                phases=(0.0,), offset=0.0, dt=dt, duration=duration))
    return refs


def ingest_csv_trajectory(path, dt: float) -> SampledTrajectory:
    """Load a CSV with the header t,yd (time, desired output), the form
    `xfertrack ingest` writes, and resample it to a dt grid.

    Time must be strictly increasing and all values finite. Resampling is
    linear interpolation with endpoints clamped.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        missing = {"t", "yd"} - set(reader.fieldnames)
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        t_raw, y_raw = [], []
        for row in reader:
            try:  # a short row leaves its missing fields None
                t_raw.append(float(row["t"]))
                y_raw.append(float(row["yd"]))
            except (TypeError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num} needs a number in "
                                 "'t' and 'yd'") from None
    t = np.asarray(t_raw)
    y = np.asarray(y_raw)
    if t.size < 2:
        raise ValueError(f"{path}: need at least two rows, got {t.size}")
    if not (np.isfinite(t).all() and np.isfinite(y).all()):
        raise ValueError(f"{path}: non-finite entries")
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{path}: time must be strictly increasing")
    duration = float(t[-1] - t[0])
    n = int(math.floor(duration / dt + 1e-9)) + 1
    grid = t[0] + np.arange(n) * dt
    samples = np.interp(grid, t, y)  # np.interp clamps outside [t0, tN]
    return SampledTrajectory(samples=samples, dt=dt)
