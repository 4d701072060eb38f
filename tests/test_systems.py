"""System models: stepping, relative degree, lifted gains, poles/zeros,
simulation plumbing."""

import numpy as np
import pytest

from helpers import random_stable_system, source_system, target_system
from xfertrack.systems import (IllDefinedRelativeDegree, LtiSystem,
                               NonlinearSystem, SimTrace, SimulationDiverged,
                               simulate, step)
from xfertrack.trajectory import SinusoidTrajectory


def flat_trajectory(value=0.0, steps=50, dt=1.0):
    return SinusoidTrajectory(amplitudes=(0.0,), angular_freqs=(1.0,),
                              phases=(0.0,), offset=value, dt=dt,
                              duration=steps * dt)


# -- stepping ------------------------------------------------------------------


def test_step_source_unit_input():
    sys_ = source_system()
    np.testing.assert_allclose(sys_.step(np.array([0.0, 0.0]), 1.0), [0.0, 1.0])


def test_step_zero_fixed_point():
    sys_ = target_system()
    np.testing.assert_array_equal(sys_.step(np.zeros(2), 0.0), np.zeros(2))


def test_step_target_free_response():
    # -0.24*1 + 1.0*1 = 0.76 by hand
    sys_ = target_system()
    np.testing.assert_allclose(sys_.step(np.array([1.0, 1.0]), 0.0), [1.0, 0.76])


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_step_guard_raises_on_overflow():
    sys_ = LtiSystem([[2.0]], [1.0], [1.0])  # unstable on purpose
    x = np.array([1e308])
    with pytest.raises(SimulationDiverged) as exc:
        step(sys_, x, 0.0, k=7)
    assert exc.value.step == 7


def test_linearity_of_step():
    sys_ = source_system()
    rng = np.random.default_rng(0)
    for _ in range(50):
        x1, x2 = rng.standard_normal(2), rng.standard_normal(2)
        u1, u2 = rng.standard_normal(2)
        lhs = sys_.step(x1 + x2, u1 + u2)
        rhs = sys_.step(x1, u1) + sys_.step(x2, u2)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-14)


# -- structure -----------------------------------------------------------------


def test_relative_degree_benchmark_pair():
    assert source_system().r == 1
    assert target_system().r == 1


def test_relative_degree_delay_chain():
    # with C=[1,0], B=[0,1]: CB = 0, CAB = 1 -> r = 2
    sys_ = LtiSystem([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])
    assert sys_.r == 2


def test_relative_degree_undefined():
    with pytest.raises(IllDefinedRelativeDegree):
        LtiSystem([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], [0.0, 1.0])


def test_bad_matrix_shapes_rejected():
    with pytest.raises(ValueError):
        LtiSystem([[0.0, 1.0]], [0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        LtiSystem([[0.0, 1.0], [0.0, 0.5]], [1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        LtiSystem([[np.inf, 0.0], [0.0, 0.5]], [1.0, 0.0], [1.0, 0.0])


def test_lifted_gains_benchmark_pair():
    # source: [-0.2, 1] @ A_s = [-0.15, 0.6], gain 1; target analogously
    source, target = source_system(), target_system()
    np.testing.assert_allclose(source.lifted_A, [-0.15, 0.6], atol=1e-15)
    assert source.lifted_B == 1.0
    np.testing.assert_allclose(target.lifted_A, [-0.24, 0.9], atol=1e-15)
    assert target.lifted_B == 1.0


def test_lifted_gains_zero_dynamics():
    sys_ = LtiSystem([[0.0, 0.0], [0.0, 0.0]], [1.0, 0.0], [1.0, 0.0])
    np.testing.assert_array_equal(sys_.lifted_A, [0.0, 0.0])


def test_lifted_identity_on_random_inputs():
    # apply u once then coast: y(r steps later) must equal lifted_A x + lifted_B u
    rng = np.random.default_rng(2)
    chain = LtiSystem([[0.0, 1.0], [0.0, 0.0]], [0.0, 1.0], [1.0, 0.0])  # r = 2
    for sys_ in (source_system(), target_system(), chain):
        for _ in range(30):
            x = rng.standard_normal(sys_.n)
            u = float(rng.standard_normal())
            z = sys_.step(x, u)
            for _ in range(sys_.r - 1):
                z = sys_.step(z, 0.0)
            lifted = float(sys_.lifted_A @ x + sys_.lifted_B * u)
            assert abs(sys_.output(z) - lifted) <= 1e-12 * max(1.0, abs(lifted))


def test_io_terms_match_lifted_map():
    sys_ = target_system()
    x = np.array([0.3, -1.2])
    F, G = sys_.io_terms(x)
    assert F == pytest.approx(float(sys_.lifted_A @ x), abs=1e-15)
    assert G == sys_.lifted_B


def test_zeros_poles_benchmark_values():
    # source: poles {0.3, 0.5}, zero {0.2}; target: poles {0.4, 0.6}, zero {0.1}
    src = source_system()
    poles_s, zeros_s = src.poles, src.zeros
    np.testing.assert_allclose(sorted(poles_s.real), [0.3, 0.5], atol=1e-9)
    assert np.max(np.abs(poles_s.imag)) < 1e-9
    np.testing.assert_allclose(zeros_s.real, [0.2], atol=1e-9)
    tgt = target_system()
    poles_t, zeros_t = tgt.poles, tgt.zeros
    np.testing.assert_allclose(sorted(poles_t.real), [0.4, 0.6], atol=1e-9)
    np.testing.assert_allclose(zeros_t.real, [0.1], atol=1e-9)


def test_poles_of_diagonal_system():
    sys_ = LtiSystem([[0.5, 0.0], [0.0, 0.5]], [1.0, 1.0], [1.0, 0.0])
    np.testing.assert_allclose(sorted(sys_.poles.real), [0.5, 0.5], atol=1e-12)


def test_stability_and_phase_flags():
    assert source_system().is_schur_stable
    assert source_system().is_minimum_phase
    assert target_system().is_minimum_phase
    assert not LtiSystem([[1.5]], [1.0], [1.0]).is_schur_stable
    # zero at 2.0 (outside unit circle): x2 acts as a non-minimum-phase zero
    nmp = LtiSystem([[0.0, 1.0], [-0.06, 0.5]], [0.0, 1.0], [-2.0, 1.0])
    assert not nmp.is_minimum_phase


# -- nonlinear systems ---------------------------------------------------------


def wrap_linear(sys_: LtiSystem) -> NonlinearSystem:
    return NonlinearSystem(
        n=sys_.n, f=lambda x: sys_.A @ x, g=lambda x: sys_.B,
        h=lambda x: float(sys_.C @ x), r=sys_.r,
        F=lambda x: float(sys_.lifted_A @ x), G=lambda x: sys_.lifted_B)


def test_nonlinear_wrapping_linear_agrees():
    lin = target_system()
    nl = wrap_linear(lin)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.standard_normal(2)
        u = float(rng.standard_normal())
        np.testing.assert_allclose(nl.step(x, u), lin.step(x, u), atol=1e-14)
        assert nl.io_terms(x) == pytest.approx(lin.io_terms(x), abs=1e-12)


def test_nonlinear_rejects_wrong_lifted_map():
    lin = target_system()
    with pytest.raises(ValueError, match="disagrees"):
        NonlinearSystem(n=2, f=lambda x: lin.A @ x, g=lambda x: lin.B,
                        h=lambda x: float(lin.C @ x), r=1,
                        F=lambda x: 0.0, G=lambda x: 2.0)


def test_nonlinear_requires_both_map_callables():
    lin = target_system()
    with pytest.raises(ValueError, match="together"):
        NonlinearSystem(n=2, f=lambda x: lin.A @ x, g=lambda x: lin.B,
                        h=lambda x: float(lin.C @ x), r=1,
                        F=lambda x: float(lin.lifted_A @ x))


def test_nonlinear_io_terms_without_map_errors():
    lin = target_system()
    nl = NonlinearSystem(n=2, f=lambda x: lin.A @ x, g=lambda x: lin.B,
                         h=lambda x: float(lin.C @ x), r=1)
    with pytest.raises(ValueError, match="without"):
        nl.io_terms(np.zeros(2))


# -- simulation ----------------------------------------------------------------


def test_simulate_zero_everything():
    trace = simulate(target_system(), lambda k, x, ydf: 0.0, flat_trajectory())
    assert np.all(trace.states == 0.0)
    assert np.all(trace.outputs == 0.0)
    assert np.all(trace.inputs == 0.0)


def test_simulate_shapes_and_alignment():
    traj = flat_trajectory(value=1.0, steps=30)
    sys_ = target_system()
    trace = simulate(sys_, lambda k, x, ydf: ydf, traj)
    assert trace.states.shape == (31, 2)
    assert trace.inputs.shape == (30,)
    assert trace.outputs.shape == (31,)
    # outputs are C x at every stored state (summation order may differ)
    np.testing.assert_allclose(trace.outputs, trace.states @ sys_.C,
                               rtol=0, atol=1e-14)


def test_simulate_policy_sees_preview():
    seen = []
    traj = SinusoidTrajectory(amplitudes=(1.0,), angular_freqs=(1.0,),
                              phases=(0.0,), offset=0.0, dt=0.1, duration=1.0)
    sys_ = target_system()  # r = 1

    def policy(k, x, ydf):
        seen.append(ydf)
        return 0.0

    simulate(sys_, policy, traj)
    yd = traj.values(traj.n_steps + 1)
    np.testing.assert_array_equal(seen, yd[1:])


def test_simulate_deterministic():
    traj = flat_trajectory(value=0.5, steps=100)
    a = simulate(source_system(), lambda k, x, ydf: ydf * 0.3, traj)
    b = simulate(source_system(), lambda k, x, ydf: ydf * 0.3, traj)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.outputs, b.outputs)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_simulate_divergence_carries_partial_trace():
    unstable = LtiSystem([[3.0]], [1.0], [1.0])
    with pytest.raises(SimulationDiverged) as exc:
        simulate(unstable, lambda k, x, ydf: 1.0, flat_trajectory(steps=800))
    err = exc.value
    assert err.step > 0
    assert err.partial_trace is not None
    assert err.partial_trace.states.shape[0] == err.partial_trace.inputs.shape[0] + 1


def test_simulate_rejects_nonfinite_policy_output():
    with pytest.raises(SimulationDiverged):
        simulate(target_system(), lambda k, x, ydf: float("nan"),
                 flat_trajectory(steps=5))


def test_simulate_bad_x0_shape():
    with pytest.raises(ValueError):
        simulate(target_system(), lambda k, x, ydf: 0.0, flat_trajectory(),
                 x0=np.zeros(3))


# -- stacked simulation --------------------------------------------------------


def sinusoid(amplitude, omega, steps=200, dt=0.05):
    return SinusoidTrajectory(amplitudes=(amplitude,), angular_freqs=(omega,),
                              phases=(0.0,), offset=0.0, dt=dt,
                              duration=steps * dt)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_simulate_matches_single_runs(n):
    rng = np.random.default_rng(n)
    for _ in range(5):
        sys_ = random_stable_system(rng, n)
        trajs = [sinusoid(*rng.uniform(0.1, 3.0, 2)) for _ in range(7)]
        x0 = rng.standard_normal((len(trajs), n))

        def policy(k, x, ydf):  # depends on the state, for a single or a stack
            return ydf - 0.3 * x[..., 0]

        stack = simulate(sys_, policy, trajs, x0=x0)
        assert stack.states.shape == (201, len(trajs), n)
        for i, (traj, member) in enumerate(zip(trajs, stack.members())):
            single = simulate(sys_, policy, traj, x0=x0[i])
            assert np.array_equal(member.states, single.states)
            assert np.array_equal(member.inputs, single.inputs)
            assert np.array_equal(member.outputs, single.outputs)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
@pytest.mark.parametrize("R", [1, 4])
def test_step_and_output_of_a_stack_match_each_member(R, n):
    # a stack (R, n) is stepped and read member by member: each member gets
    # the bits of the plain A @ x + B * u and float(C @ x) of its own state
    rng = np.random.default_rng(10 * R + n)
    for _ in range(50):
        sys_ = LtiSystem(rng.standard_normal((n, n)), rng.standard_normal(n),
                         rng.standard_normal(n))
        X = rng.standard_normal((R, n)) * 10.0 ** rng.uniform(-3, 3, (R, n))
        u = rng.standard_normal(R) * 10.0 ** rng.uniform(-3, 3, R)
        X_next, Y = sys_.step(X, u), sys_.output(X)
        assert X_next.shape == (R, n) and Y.shape == (R,)
        for i in range(R):
            assert np.array_equal(X_next[i], sys_.A @ X[i] + sys_.B * u[i])
            assert Y[i] == float(sys_.C @ X[i])
            assert np.array_equal(sys_.step(X[i], float(u[i])), X_next[i])
            assert sys_.output(X[i]) == Y[i]


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_stacked_simulate_diverges_at_first_member_divergence():
    unstable = LtiSystem([[2.0]], [1.0], [1.0])
    trajs = [flat_trajectory(value=v, steps=2000) for v in (1.0, 1e200, 1e100)]
    with pytest.raises(SimulationDiverged) as stacked:
        simulate(unstable, lambda k, x, ydf: ydf, trajs)
    with pytest.raises(SimulationDiverged) as first:
        simulate(unstable, lambda k, x, ydf: ydf, trajs[1])
    k = first.value.step
    assert stacked.value.step == k
    partial = stacked.value.partial_trace
    assert partial.states.shape == (k + 1, 3, 1)
    assert partial.inputs.shape == (k, 3)
    assert np.isfinite(partial.states).all()
    calm = simulate(unstable, lambda k, x, ydf: ydf,
                    flat_trajectory(value=1.0, steps=k))
    assert np.array_equal(partial.members()[0].states, calm.states)
    assert np.array_equal(partial.members()[1].states,
                          first.value.partial_trace.states)


def test_stacked_simulate_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="equal n_steps"):
        simulate(target_system(), lambda k, x, ydf: ydf,
                 [flat_trajectory(steps=5), flat_trajectory(steps=6)])


def test_simtrace_misaligned_rejected():
    with pytest.raises(ValueError):
        SimTrace(states=np.zeros((3, 1)), inputs=np.zeros(3),
                 outputs=np.zeros(3))
