"""Benchmark harness: configs, the three-strategy comparison, alpha sweeps,
tracking metrics, and reproducible JSON reports."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .control import (EstimatedGain, FixedGain, StepLog, TransferController,
                      track_trajectory)
from .gp import GpCfg, GpWindowModel
from .inverse import (AnalyticInverse, InverseDataset, TrainingConfig,
                      TrainingDiverged, build_inverse_dataset, train_mlp)
from .systems import (LtiSystem, SimulationDiverged, finite_number, simulate,
                      whole_number)
from .trajectory import (SinusoidTrajectory, ingest_csv_trajectory,
                         training_references)

REPORT_VERSION = "1"


class ConfigError(ValueError):
    """Malformed or inconsistent benchmark configuration."""


@dataclass
class SystemCfg:
    a: list
    b: list
    c: list

    def build(self) -> LtiSystem:
        try:
            return LtiSystem(self.a, self.b, self.c)
        except ValueError as err:
            raise ConfigError(f"bad system matrices: {err}") from err


@dataclass
class TrajectoryCfg:
    """The desired output. The defaults are the benchmark test signal
    sin(2*pi/8 t) + cos(2*pi/16 t) - 1 over 48 s, the cosine phrased as a
    quarter-phase sine."""

    kind: str = "sinusoid"            # "sinusoid" | "csv"
    amplitudes: list = field(default_factory=lambda: [1.0, 1.0])
    periods_s: list = field(default_factory=lambda: [8.0, 16.0])
    phases: list = field(default_factory=lambda: [0.0, math.pi / 2.0])
    offset: float = -1.0
    dt: float = 1.5e-3
    duration_s: float = 48.0
    csv_path: str | None = None

    def build(self):
        if not (finite_number(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt!r}")
        if self.kind == "sinusoid":
            if not (finite_number(self.duration_s) and self.duration_s > 0):
                raise ConfigError("duration_s must be positive and finite, "
                                  f"got {self.duration_s!r}")
            for name in ("amplitudes", "periods_s", "phases"):
                values = getattr(self, name)
                if not (isinstance(values, (list, tuple))
                        and all(map(finite_number, values))):
                    raise ConfigError(f"{name} must be a list of finite numbers, "
                                      f"got {values!r}")
            if not finite_number(self.offset):
                raise ConfigError(f"offset must be a finite number, got {self.offset!r}")
            freqs = [2.0 * math.pi / p if p > 0 else math.nan for p in self.periods_s]
            if not all(map(math.isfinite, freqs)):
                raise ConfigError("periods_s must be positive, with finite "
                                  f"frequencies, got {self.periods_s!r}")
            try:
                return SinusoidTrajectory(
                    amplitudes=tuple(self.amplitudes),
                    angular_freqs=tuple(freqs),
                    phases=tuple(self.phases), offset=self.offset,
                    dt=self.dt, duration=self.duration_s)
            except ValueError as err:  # dt and duration_s are checked above
                raise ConfigError(f"amplitudes, periods_s and phases must align: "
                                  f"{err}") from err
        if self.kind == "csv":
            if not self.csv_path:
                raise ConfigError("csv trajectory needs csv_path")
            return ingest_csv_trajectory(self.csv_path, dt=self.dt)
        raise ConfigError(f"unknown trajectory kind {self.kind!r}")


@dataclass
class BenchConfig:
    source: SystemCfg
    target: SystemCfg
    trajectory: TrajectoryCfg = field(default_factory=TrajectoryCfg)
    gp: GpCfg = field(default_factory=GpCfg)
    mlp: TrainingConfig = field(default_factory=TrainingConfig)
    gain: EstimatedGain = field(default_factory=EstimatedGain)
    inverse_mode: str = "mlp"   # "mlp" | "analytic"
    strategy: str = "online"    # for the single-run entry point
    seed: int = 0
    x0: list | None = None
    u_max: float = 1e6
    sweep_alphas: list = field(default_factory=list)

    def __post_init__(self):
        """Check the whole config once, when it is made, from YAML or in
        code: each section mapping becomes its dataclass, and the sections
        that build an object are built once, since building is their check."""
        for key, sub in (("source", SystemCfg), ("target", SystemCfg),
                         ("trajectory", TrajectoryCfg), ("gp", GpCfg),
                         ("mlp", TrainingConfig), ("gain", EstimatedGain)):
            value = getattr(self, key)
            if isinstance(value, dict):
                setattr(self, key, sub(**value))
            elif not isinstance(value, sub):
                raise ConfigError(f"section {key} must be a mapping, got {value!r}")
        if self.inverse_mode not in ("mlp", "analytic"):
            raise ConfigError(f"unknown inverse_mode {self.inverse_mode!r}")
        if self.strategy not in ("baseline", "offline", "online"):
            raise ConfigError(f"unknown strategy {self.strategy!r}")
        self.source.build()
        target = self.target.build()
        steps = self.trajectory.build().n_steps
        if not steps > target.r:
            raise ConfigError(f"trajectory has {steps} steps; it needs more than "
                              f"the target's relative degree r = {target.r}")
        if self.x0 is not None and not (
                np.ndim(self.x0) == 1 and len(self.x0) == target.n
                and all(map(finite_number, self.x0))):
            raise ConfigError(f"x0 must be {target.n} finite numbers, got {self.x0!r}")
        if not (self.u_max == math.inf or (finite_number(self.u_max) and self.u_max > 0)):
            raise ConfigError(f"u_max must be positive or inf, got {self.u_max!r}")
        if not (isinstance(self.seed, int) and whole_number(self.seed, least=0)):
            raise ConfigError(f"seed must be an integer >= 0, got {self.seed!r}")
        try:
            for alpha in self.sweep_alphas:
                FixedGain(alpha=alpha)
        except (TypeError, ValueError) as err:
            raise ConfigError("sweep_alphas must be a list of finite gains, "
                              f"got {self.sweep_alphas!r}") from err
        # Python floats, so an array given in code writes and digests as a list
        self.x0 = None if self.x0 is None else [float(v) for v in self.x0]
        self.sweep_alphas = [float(alpha) for alpha in self.sweep_alphas]

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "BenchConfig":
        try:
            return cls(**raw)
        except TypeError as err:
            raise ConfigError(f"bad config structure: {err}") from err

    @classmethod
    def from_yaml(cls, path) -> "BenchConfig":
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except yaml.YAMLError as err:
            raise ConfigError(f"{path}: not valid YAML: {err}") from err
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        return cls.from_dict(raw)

    def to_yaml(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


def config_digest(cfg: BenchConfig) -> str:
    return _digest(cfg.to_dict())


def output_dir(path) -> Path:
    """The directory at path, created if missing."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_json(out_dir, name: str, payload):
    """Write a report as indented, key-sorted JSON to out_dir/name."""
    path = output_dir(out_dir) / name
    path.write_text(json.dumps(payload, sort_keys=True, indent=2))


def default_benchmark_config(inverse_mode: str = "mlp") -> BenchConfig:
    """The bundled benchmark pair: second-order source and target with
    matched relative degree 1 and nearby zeros/poles.

    The gain estimate is smoothed with factor 0.95, and the GP fits its
    length scale and signal variance once, when its 15-observation window
    fills. The simulation is noise-free, so the GP noise variance, which
    the fit leaves alone, is set to 1e-12. Acceptance criterion 2 holds
    for every training seed in 1-10; seed 13 stays because the pinned
    report digests are taken at it.
    """
    return BenchConfig(
        source=SystemCfg(a=[[0.0, 1.0], [-0.15, 0.8]], b=[0.0, 1.0], c=[-0.2, 1.0]),
        target=SystemCfg(a=[[0.0, 1.0], [-0.24, 1.0]], b=[0.0, 1.0], c=[-0.1, 1.0]),
        inverse_mode=inverse_mode,
        seed=13,
        gain=EstimatedGain(smoothing=0.95),
        gp=GpCfg(noise_variance0=1e-12),
    )


# -- metrics ------------------------------------------------------------------


@dataclass(frozen=True)
class Metrics:
    rms_tracking: float
    rms_prediction: float | None


def metrics(log: StepLog, k0: int) -> Metrics:
    """Tracking RMS of y_d - y and, when the log carries analytic error
    values, prediction RMS of e_p - e_p_star, over the steps k >= k0."""
    y = log.column("y")
    yd = log.column("y_d")
    keep = log.column("k") >= k0
    if not keep.any():
        raise ValueError("log too short for the exclusion window")
    rms_t = float(np.sqrt(np.mean((yd[keep] - y[keep]) ** 2)))
    e_star = log.column("e_p_star")
    rms_p = None
    ok = np.isfinite(e_star) & keep
    if ok.any():
        e_p = log.column("e_p")
        rms_p = float(np.sqrt(np.mean((e_p[ok] - e_star[ok]) ** 2)))
    return Metrics(rms_tracking=rms_t, rms_prediction=rms_p)


# -- strategies ----------------------------------------------------------------


class _PassThrough:
    """The baseline's inverse: the desired output r steps ahead is the input."""

    def reference(self, x, y_d_future: float) -> float:
        return y_d_future


def make_inverse(cfg: BenchConfig):
    """Build the configured inverse module of the config's source (training
    the MLP if asked)."""
    if cfg.inverse_mode == "analytic":
        return AnalyticInverse(cfg.source.build())
    return train_mlp(build_training_dataset(cfg), cfg.mlp, seed=cfg.seed)


def build_training_dataset(cfg: BenchConfig) -> InverseDataset:
    """Excitation protocol: drive the config's source with each reference
    sinusoid passed through as the input, then pair (x(k), y(k+r)) -> u(k).
    The references are rolled as one stack of runs."""
    source = cfg.source.build()
    refs = training_references(dt=cfg.trajectory.dt,
                               duration=cfg.mlp.train_duration_s)
    stack = simulate(source, lambda k, x, ydf: ydf, refs)
    return build_inverse_dataset(stack.members(), r=source.r,
                                 subsample=cfg.mlp.subsample)


@dataclass
class StrategyResult:
    name: str
    rms_tracking: float | None
    rms_prediction: float | None
    aborted: bool
    abort_step: int | None
    steps: int
    log: StepLog | None = None
    # Startup sensitivity for the online strategy: the same RMS values with
    # the steps before the correction engages, k < r + capacity - 1,
    # excluded instead of k < r; None when the run has no step past them.
    rms_tracking_warm: float | None = None
    rms_prediction_warm: float | None = None

    def summary(self) -> dict:
        out = {"name": self.name, "rms_tracking": self.rms_tracking,
               "rms_prediction": self.rms_prediction, "aborted": self.aborted,
               "abort_step": self.abort_step, "steps": self.steps}
        if self.rms_tracking_warm is not None:
            out["rms_tracking_warm"] = self.rms_tracking_warm
            out["rms_prediction_warm"] = self.rms_prediction_warm
        return out


def run_strategy(cfg: BenchConfig, strategy: str, inverse=None,
                 alpha_override: float | None = None) -> StrategyResult:
    """Run one strategy: "baseline" (reference passed through), "offline"
    (inverse only), or "online" (inverse plus error prediction)."""
    target = cfg.target.build()
    traj = cfg.trajectory.build()
    r = target.r

    # every strategy is a controller; the baseline passes the reference
    # through unguarded and has no error map to audit against
    if strategy == "baseline":
        ctrl = TransferController(_PassThrough(), r=r, u_max=math.inf)
    elif strategy in ("offline", "online"):
        if inverse is None:
            inverse = make_inverse(cfg)
        gp_model = gain = None
        if strategy == "online":
            gp_model = GpWindowModel(target.n + 2, cfg.gp)
            gain = (cfg.gain if alpha_override is None
                    else FixedGain(alpha=alpha_override))
        ctrl = TransferController(inverse, r=r, online=gp_model, gain=gain,
                                  u_max=cfg.u_max)
    else:
        raise ConfigError(f"unknown strategy {strategy!r}")
    try:
        _, log = track_trajectory(target, ctrl, traj, x0=cfg.x0,
                                  audit=strategy != "baseline")
    except SimulationDiverged as err:
        return StrategyResult(strategy, None, None, True, err.step,
                              traj.n_steps, err.partial_log)
    m = metrics(log, r)
    online = strategy == "online"
    res = StrategyResult(strategy, m.rms_tracking,
                         m.rms_prediction if online else None, False, None,
                         traj.n_steps, log)
    # observes start at step r, so the window fills at step r + capacity - 1
    k_warm = r + cfg.gp.capacity - 1
    if online and len(log) > k_warm:
        mw = metrics(log, k_warm)
        res.rms_tracking_warm = mw.rms_tracking
        res.rms_prediction_warm = mw.rms_prediction
    return res


# -- reports -------------------------------------------------------------------


@dataclass
class RunReport:
    config: dict
    strategies: dict
    mlp_validation_rmse: float | None
    wall_time_s: float
    log_paths: dict
    # in-memory step logs by strategy, and the divergence of the excitation
    # rollout or MLP training, if any; not part of payload() or digest()
    logs: dict = field(default_factory=dict, repr=False)
    inverse_error: Exception | None = field(default=None, repr=False)

    def payload(self, include_volatile: bool = True) -> dict:
        body = {
            "version": REPORT_VERSION,
            "config": self.config,
            "config_digest": _digest(self.config),
            "seed": self.config["seed"],
            "strategies": self.strategies,
            "mlp_validation_rmse": self.mlp_validation_rmse,
        }
        if include_volatile:
            body["wall_time_s"] = self.wall_time_s
            body["log_paths"] = self.log_paths
        return body

    def digest(self) -> str:
        """Digest over the reproducible part (wall time and paths excluded)."""
        return _digest(self.payload(include_volatile=False))


def run_comparison(cfg: BenchConfig, out_dir=None) -> RunReport:
    """Run the baseline, offline and online strategies on the same
    trajectory and initial state. A divergence aborts only the strategy it
    occurred in, or, while building the inverse, offline and online."""
    t0 = time.perf_counter()
    runs = {"baseline": run_strategy(cfg, "baseline")}
    inverse = inverse_error = None
    try:
        inverse = make_inverse(cfg)
    except (SimulationDiverged, TrainingDiverged) as err:
        inverse_error = err
    val_rmse = getattr(inverse, "validation_rmse", None)
    for strat in ("offline", "online"):
        runs[strat] = (run_strategy(cfg, strat, inverse=inverse) if inverse_error is None
                       else StrategyResult(strat, None, None, aborted=True,
                                           abort_step=None, steps=runs["baseline"].steps))
    results = {}
    log_paths = {}
    logs = {}
    for strat, res in runs.items():
        results[strat] = res.summary()
        logs[strat] = res.log
        if out_dir is not None and res.log is not None:
            path = output_dir(out_dir) / f"{strat}_steps.csv"
            res.log.to_csv(path)
            log_paths[strat] = str(path)
    report = RunReport(config=cfg.to_dict(), strategies=results,
                       mlp_validation_rmse=val_rmse,
                       wall_time_s=time.perf_counter() - t0, log_paths=log_paths,
                       logs=logs, inverse_error=inverse_error)
    if out_dir is not None:
        write_json(out_dir, "report.json", report.payload())
    return report


# the gains alpha_sweep runs when the config lists none
SWEEP_ALPHAS = (0.0, 0.25, 0.5, 1.0, 2.0)


def alpha_sweep(cfg: BenchConfig, out_dir=None) -> dict:
    """Run the online strategy at each fixed gain of cfg.sweep_alphas, or of
    SWEEP_ALPHAS when the config lists none, recording boundedness and RMS.

    Divergence is a recorded outcome here, not an error."""
    inverse = make_inverse(cfg)
    rows = []
    for alpha in cfg.sweep_alphas or SWEEP_ALPHAS:
        res = run_strategy(cfg, "online", inverse=inverse, alpha_override=alpha)
        rows.append({"alpha": alpha, "bounded": not res.aborted,
                     "abort_step": res.abort_step,
                     "rms_tracking": res.rms_tracking,
                     "rms_prediction": res.rms_prediction})
    payload = {"version": REPORT_VERSION, "config": cfg.to_dict(),
               "sweep": rows}
    if out_dir is not None:
        write_json(out_dir, "alpha_sweep.json", payload)
    return payload
