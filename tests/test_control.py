"""Transfer controller: gain selection, input decomposition, observation
alignment, divergence guard, and step-log serialization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from xfertrack.bench import default_benchmark_config, metrics, run_strategy
from xfertrack.control import (LOG_COLUMNS, EstimatedGain, FixedGain, StepLog,
                               TransferController, track_trajectory)
from xfertrack.gp import GpCfg, GpWindowModel
from xfertrack.inverse import AnalyticInverse
from xfertrack.stability import nonlinear_similarity
from xfertrack.systems import (LtiSystem, NonlinearSystem, SimulationDiverged,
                               simulate)
from xfertrack.trajectory import SinusoidTrajectory

from helpers import (AffineErrorOracle, drag_pair, error_log, reference_trajectory,
                     source_system, target_system)


def short_trajectory(duration=0.3):
    return SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(2 * np.pi / 8,),
                              phases=(0.0,), offset=-1.0, dt=1.5e-3,
                              duration=duration)


class StubOnline:
    """Online-module stand-in with a scripted derivative."""

    def __init__(self, derivative=0.0, prediction=0.0):
        self.derivative = derivative
        self.prediction = prediction
        self.full = True
        self.observations = []

    def observe(self, xi, e):
        self.observations.append((np.asarray(xi, dtype=float).copy(), float(e)))

    def predict(self, xi):
        return self.prediction

    def mean_derivative(self, xi, dim):
        return self.derivative


# -- gain selection ------------------------------------------------------------


def test_fixed_gain_passthrough():
    ctrl = TransferController(AnalyticInverse(source_system()), r=1,
                              online=StubOnline(), gain=FixedGain(0.7))
    assert ctrl.select_gain(np.zeros(4)) == 0.7


def test_estimated_gain_inverts_derivative():
    # target input gain is 1, so d e_p / d u1 = -1 and alpha = 1
    oracle = AffineErrorOracle(target_system())
    ctrl = TransferController(AnalyticInverse(source_system()), r=1,
                              online=oracle, gain=EstimatedGain())
    assert ctrl.select_gain(np.zeros(4)) == 1.0


def test_estimated_gain_cap_and_floor():
    inv = AnalyticInverse(source_system())
    near_flat = TransferController(inv, r=1, online=StubOnline(-1.0 / 50.0),
                                   gain=EstimatedGain(floor=0.05, cap=20.0))
    assert near_flat.select_gain(np.zeros(4)) == 20.0
    steep = TransferController(inv, r=1, online=StubOnline(-100.0),
                               gain=EstimatedGain(floor=0.05, cap=20.0))
    assert steep.select_gain(np.zeros(4)) == 0.05
    negative = TransferController(inv, r=1, online=StubOnline(2.0),
                                  gain=EstimatedGain())
    assert negative.select_gain(np.zeros(4)) == -0.5


def test_degenerate_derivative_holds_last_gain():
    inv = AnalyticInverse(source_system())
    online = StubOnline(derivative=0.0)
    ctrl = TransferController(inv, r=1, online=online, gain=EstimatedGain())
    # nothing valid yet: fall back to the floor
    assert ctrl.select_gain(np.zeros(4)) == 0.05
    online.derivative = -0.5
    ctrl._last_alpha = ctrl.select_gain(np.zeros(4))
    assert ctrl._last_alpha == 2.0
    online.derivative = 1e-12
    assert ctrl.select_gain(np.zeros(4)) == 2.0


def test_smoothing_blends_consecutive_gains():
    inv = AnalyticInverse(source_system())
    online = StubOnline(derivative=-1.0)
    ctrl = TransferController(inv, r=1, online=online,
                              gain=EstimatedGain(smoothing=0.9))
    ctrl._last_alpha = 3.0
    # raw estimate 1.0; blended: 0.9 * 3 + 0.1 * 1 = 2.8
    assert ctrl.select_gain(np.zeros(4)) == pytest.approx(2.8)


# -- closed loop ---------------------------------------------------------------


def test_input_decomposition_identity():
    cfg = default_benchmark_config(inverse_mode="analytic")
    cfg = replace(cfg, trajectory=replace(cfg.trajectory, duration_s=3.0))
    res = run_strategy(cfg, "online")
    u1, u2, u = res.log.column("u1"), res.log.column("u2"), res.log.column("u")
    alpha, e_p = res.log.column("alpha"), res.log.column("e_p")
    np.testing.assert_array_equal(u, u1 + u2)
    np.testing.assert_array_equal(u2, alpha * e_p)


@pytest.mark.parametrize("alpha, prediction", [(0.0, 0.0), (0.5, 0.2)])
def test_observation_alignment(alpha, prediction):
    # observation j (retired at step j + r) must pair the state and the
    # applied input from step j with the desired and measured outputs at
    # step j + r; with a nonzero correction, u != u1 at every step, so the
    # observed input must be u, not the u1 the query carried
    target = target_system()
    spy = StubOnline(prediction=prediction)
    ctrl = TransferController(AnalyticInverse(source_system()), r=target.r,
                              online=spy, gain=FixedGain(alpha))
    traj = short_trajectory()
    trace, log = track_trajectory(target, ctrl, traj)
    r = target.r
    yd = traj.values(traj.n_steps + r)
    assert len(spy.observations) == traj.n_steps - r
    assert alpha == 0.0 or (log.column("u") != log.column("u1")).all()
    for j, (xi, e) in enumerate(spy.observations):
        np.testing.assert_array_equal(xi[:2], trace.states[j])
        assert xi[2] == trace.inputs[j]
        assert xi[3] == yd[j + r]
        assert e == yd[j + r] - trace.outputs[j + r]


def test_offline_only_matches_plain_simulation():
    sys = target_system()
    inv = AnalyticInverse(source_system())
    ctrl = TransferController(inv, r=sys.r, online=None)
    traj = short_trajectory()
    trace, log = track_trajectory(sys, ctrl, traj)
    ref = simulate(sys, lambda k, x, yd: inv.reference(x, yd), traj)
    np.testing.assert_array_equal(trace.inputs, ref.inputs)
    np.testing.assert_array_equal(trace.outputs, ref.outputs)
    np.testing.assert_array_equal(trace.states, ref.states)
    # without an online module the correction track stays empty
    assert np.all(log.column("u2") == 0.0)
    assert np.all(log.column("e_p") == 0.0)


def test_cold_start_before_first_retirement():
    sys = target_system()
    gp = GpWindowModel(4, GpCfg(capacity=15, optimize=False))
    ctrl = TransferController(AnalyticInverse(source_system()), r=sys.r,
                              online=gp, gain=EstimatedGain())
    traj = short_trajectory()
    trace, log = track_trajectory(sys, ctrl, traj)
    # one observation retires per step from k = r onward
    assert gp.observation_count == traj.n_steps - sys.r
    # empty window at k = 0: zero prediction, correction off
    assert log.e_p[0] == 0.0
    assert log.u2[0] == 0.0
    # the window fills at k = capacity (one retirement per step from k = r),
    # so the correction and gain stay off before that and engage exactly there
    alpha = log.column("alpha")
    u2 = log.column("u2")
    fill = gp.cfg.capacity
    assert np.all(alpha[:fill] == 0.0)
    assert np.all(u2[:fill] == 0.0)
    assert alpha[fill] != 0.0
    # predictions are logged honestly during the warm-up
    assert np.any(log.column("e_p")[sys.r:fill] != 0.0)


def test_exact_oracle_stack_tracks_to_machine_precision():
    # wrong inverse (source model) + exact error oracle + inverted-gain
    # correction: the composition cancels the model mismatch identically
    target = target_system()
    ctrl = TransferController(AnalyticInverse(source_system()), r=target.r,
                              online=AffineErrorOracle(target),
                              gain=EstimatedGain())
    traj = short_trajectory(duration=2.0)
    trace, log = track_trajectory(target, ctrl, traj)
    yd = traj.values(traj.n_steps + target.r)
    err = np.abs(trace.outputs[target.r:] - yd[target.r:traj.n_steps + 1])
    assert err.max() <= 1e-10


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_input_guard_raises_with_partial_log():
    # both raise points, the controller's input guard and plant divergence,
    # leave a partial log with one row per input of the partial trace
    target = target_system()
    guarded = TransferController(AnalyticInverse(source_system()), r=target.r,
                                 online=None, u_max=1e-12)
    # x(k+1) = 2 x + u under u = y_d - x / 2 overflows within ~50 steps
    unstable = LtiSystem([[2.0]], [1.0], [1.0])
    unguarded = TransferController(AnalyticInverse(LtiSystem([[0.5]], [1.0], [1.0])),
                                   r=1, online=None, u_max=math.inf)
    traj = short_trajectory()
    for system, ctrl, x0, what in ((target, guarded, None, "input guard"),
                                   (unstable, unguarded, [1e300], "non-finite")):
        with pytest.raises(SimulationDiverged, match=what) as info:
            track_trajectory(system, ctrl, traj, x0=x0)
        err = info.value
        k = err.step
        assert k < traj.n_steps
        assert err.partial_trace.states.shape == (k + 1, system.n)
        assert err.partial_trace.inputs.shape == (k,)
        assert isinstance(err.partial_log, StepLog)
        assert len(err.partial_log) == k
        np.testing.assert_array_equal(err.partial_log.u, err.partial_trace.inputs)
        np.testing.assert_array_equal(err.partial_log.states,
                                      err.partial_trace.states[:k])
    # a wrong-shape initial state is rejected up front, as simulate does
    with pytest.raises(ValueError, match=r"x0 must have shape \(2,\)"):
        track_trajectory(target, guarded, traj, x0=[0.0, 0.0, 0.0])


def test_nonfinite_inverse_output_is_a_recorded_abort():
    # a NaN from the inverse ends an online run as a divergence at that
    # step, with its partial log, before the online model sees the query
    target = target_system()
    inverse = AnalyticInverse(source_system())
    k_nan = 40  # past the 15-sample window fill

    class NanFromStep:
        calls = 0

        def reference(self, x, y_d_future):
            self.calls += 1
            if self.calls > k_nan:
                return math.nan
            return inverse.reference(x, y_d_future)

    ctrl = TransferController(NanFromStep(), r=target.r,
                              online=GpWindowModel(4, GpCfg(capacity=15,
                                                            optimize=False)))
    with pytest.raises(SimulationDiverged, match="inverse returned u1=nan") as info:
        track_trajectory(target, ctrl, short_trajectory())
    err = info.value
    assert err.step == k_nan
    assert len(err.partial_log) == k_nan
    assert err.partial_trace.inputs.shape == (k_nan,)
    assert np.isfinite(err.partial_log.u1).all()


def test_cold_start_on_offset_trajectory_stays_bounded():
    # a reference that starts far from the plant state used to let gain
    # estimates from a part-filled window cascade (corrections four
    # orders of magnitude above the reference, each kick poisoning the
    # window the model learns from); the controller now flies the bare
    # inverse until the window is full.  On this quasi-1D data manifold
    # the input derivative stays poorly identified even at fill, so the
    # first raw (unsmoothed) gain still kicks once before the loop
    # re-converges; the smoothed configuration, seeded at the gain
    # floor, engages gently.  Both runs must recover to offline scale.
    target = target_system()
    traj = SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(2 * np.pi / 8,),
                              phases=(0.0,), offset=-1.5, dt=1.5e-3,
                              duration=1.0)
    yd = traj.values(traj.n_steps + target.r)
    for gain, bound in ((EstimatedGain(), 50.0),
                        (EstimatedGain(smoothing=0.95), 1.0)):
        gp = GpWindowModel(4, GpCfg(capacity=15, optimize=False))
        ctrl = TransferController(AnalyticInverse(source_system()), r=target.r,
                                  online=gp, gain=gain)
        trace, log = track_trajectory(target, ctrl, traj)
        err = np.abs(trace.outputs[target.r:] - yd[target.r:traj.n_steps + 1])
        assert err.max() <= bound
        assert err[-100:].max() <= 1e-2


def test_online_correction_fades_when_inverse_is_exact(bench_config):
    # with the target's own inverse the tracking error vanishes, so the
    # learned correction must converge to doing nothing
    cfg = replace(bench_config, inverse_mode="analytic",
                  trajectory=replace(bench_config.trajectory, duration_s=6.0))
    res = run_strategy(cfg, "online", inverse=AnalyticInverse(target_system()))
    e_p = res.log.column("e_p")
    u2 = res.log.column("u2")
    tail = slice(3 * len(e_p) // 4, None)
    assert np.abs(e_p[tail]).max() <= 1e-9
    assert np.abs(u2[tail]).max() <= 1e-8


# -- exact error oracle --------------------------------------------------------


def test_affine_oracle_values():
    # target lifted gains: lifted_A = [-0.24, 0.9], lifted_B = 1
    oracle = AffineErrorOracle(target_system())
    xi = np.array([1.0, 2.0, 0.5, 0.3])
    assert oracle.predict(xi) == pytest.approx(0.3 - (-0.24 * 1.0 + 0.9 * 2.0) - 0.5)
    assert oracle.mean_derivative(xi, 0) == pytest.approx(0.24)
    assert oracle.mean_derivative(xi, 1) == pytest.approx(-0.9)
    assert oracle.mean_derivative(xi, 2) == pytest.approx(-1.0)
    assert oracle.mean_derivative(xi, 3) == 1.0


def test_error_map_audits_a_nonlinear_target():
    # y(k+1) = x/2 + (1 + sin(x)/2) u: with the correction off, u = u1, so
    # e*(k+1) = y_d(k+1) - F - G u1 is the next step's tracking error. The
    # audit evaluates the plant's own map; without it e_p_star stays NaN
    target = NonlinearSystem(
        n=1, f=lambda x: 0.5 * x, g=lambda x: 1.0 + 0.5 * np.sin(x),
        h=lambda x: float(x[0]), r=1,
        F=lambda x: 0.5 * x[0], G=lambda x: 1.0 + 0.5 * math.sin(x[0]))
    inverse = AnalyticInverse(LtiSystem([[0.5]], [1.0], [1.0]))
    traj = short_trajectory()
    _, log = track_trajectory(target, TransferController(inverse, r=1), traj, audit=True)
    err_next = log.column("y_d")[1:] - log.column("y")[1:]
    np.testing.assert_allclose(log.column("e_p_star")[:-1], err_next,
                               rtol=0, atol=1e-12)
    assert np.abs(err_next).max() > 1e-3
    yd_next = traj.values(len(log) + 1)[1:]
    np.testing.assert_array_equal(log.e_p_star, [
        yd - 0.5 * x - (1.0 + 0.5 * math.sin(x)) * u1
        for yd, x, u1 in zip(yd_next, log.states[:, 0], log.u1)])
    _, plain = track_trajectory(target, TransferController(inverse, r=1), traj)
    assert np.isnan(plain.e_p_star).all()
    np.testing.assert_array_equal(plain.y, log.y)


def test_online_learns_the_drag_pair_mass_mismatch():
    # the mass-mismatched nonlinear pair over the bundled sinusoid's first
    # 12 s, with the bundled gp section and gain smoothing. The gain cap is
    # raised to 2000: the right gain is 1/G_t = 1.3/dt = 866.7, and the
    # bundled cap of 20, an absolute bound on alpha, pins alpha at 20 and
    # leaves online no better than offline
    source, target = drag_pair()
    inverse = AnalyticInverse(source)
    traj = reference_trajectory(duration=12.0)
    _, exact = track_trajectory(source, TransferController(inverse, r=1), traj)
    assert np.abs(exact.y_d - exact.y).max() <= 1e-10
    assert nonlinear_similarity(source, target, np.zeros(1))[0] == pytest.approx(
        1.0 / 1.3, rel=1e-12)

    cfg = default_benchmark_config()
    _, offline = track_trajectory(target, TransferController(inverse, r=1), traj,
                                  audit=True)
    ctrl = TransferController(inverse, r=1, online=GpWindowModel(target.n + 2, cfg.gp),
                              gain=replace(cfg.gain, cap=2000.0))
    _, online = track_trajectory(target, ctrl, traj, audit=True)
    k_fill = cfg.gp.capacity
    assert (metrics(online, target.r).rms_tracking
            <= metrics(offline, target.r).rms_tracking / 10.0)
    assert metrics(online, k_fill).rms_prediction <= 1e-5
    inv_gain = 1.0 / target.io_terms(np.zeros(1))[1]  # 1/G_t
    assert abs(np.median(online.alpha[k_fill:]) - inv_gain) <= 0.01 * inv_gain


# -- step log ------------------------------------------------------------------


def test_step_log_roundtrip_is_bitwise(tmp_path):
    target = target_system()
    ctrl = TransferController(AnalyticInverse(source_system()), r=target.r,
                              online=AffineErrorOracle(target),
                              gain=EstimatedGain())
    traj = short_trajectory()
    _, log = track_trajectory(target, ctrl, traj, audit=True)
    path = tmp_path / "steps.csv"
    log.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "k,x0,x1,y,y_d,u1,e_p,alpha,u2,u,e_p_star"
    back = np.loadtxt(path, delimiter=",", skiprows=1)
    assert back.shape == (len(log), 11)
    np.testing.assert_array_equal(back[:, 0], log.column("k"))
    np.testing.assert_array_equal(back[:, 1:3], log.states)
    for j, name in enumerate(LOG_COLUMNS, start=3):
        np.testing.assert_array_equal(back[:, j], log.column(name))


def test_step_log_columns_and_states_shape():
    log = error_log([], n=2)
    assert len(log) == 0
    assert log.states.shape == (0, 2)
    log = error_log([0.2, 0.4], n=2)
    np.testing.assert_array_equal(log.column("k"), [0.0, 1.0])
    np.testing.assert_array_equal(log.column("y_d"), [0.2, 0.4])
    assert np.isnan(log.column("e_p_star")).all()
    assert log.states.shape == (2, 2)


def test_step_log_csv_bytes(tmp_path):
    # excel dialect: \r\n line ends, integer k, repr floats (nan, +-inf,
    # -0.0 and the smallest subnormal spelled out); the header names the
    # state columns x0..x{n-1}
    col = np.array
    log = StepLog(states=col([[1.0, -0.0], [1e-300, 2.5e10], [np.inf, 5e-324]]),
                  y=col([0.1, 1.0 / 3.0, -np.inf]), y_d=col([0.2, -1.5, -5e-324]),
                  u1=col([0.3, 0.0, np.nan]), e_p=col([0.0, -0.0, -0.0]),
                  alpha=col([1.0, 20.0, 0.05]), u2=col([0.0, 1e-17, np.inf]),
                  u=col([0.3, 123456789.125, 1e16]),
                  e_p_star=col([np.nan, -2.0, 2.2250738585072014e-308]))
    path = tmp_path / "steps.csv"
    log.to_csv(path)
    assert path.read_bytes() == (
        b"k,x0,x1,y,y_d,u1,e_p,alpha,u2,u,e_p_star\r\n"
        b"0,1.0,-0.0,0.1,0.2,0.3,0.0,1.0,0.0,0.3,nan\r\n"
        b"1,1e-300,25000000000.0,0.3333333333333333,-1.5,0.0,-0.0,20.0,1e-17,"
        b"123456789.125,-2.0\r\n"
        b"2,inf,5e-324,-inf,-5e-324,nan,-0.0,0.05,inf,1e+16,2.2250738585072014e-308\r\n")
