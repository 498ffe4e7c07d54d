import ast
import os
import tracemalloc
from itertools import accumulate, combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kwbandit.trajectory as traj
import reference
from kwbandit import (
    Domain,
    EnvironmentSchedule,
    FixedStepConfig,
    FixedStepPolicy,
    Lane,
    NoiseModel,
    OraclePolicy,
    QuadraticBowl,
    QuarticPerturbedBowl,
    RegretTrace,
    SlidingWindowConfig,
    SlidingWindowPolicy,
    StaticPolicy,
    VanillaPolicy,
    replication_stream,
    simulate_batch,
    simulate_lanes,
)
from kwbandit.algorithms import FIXED_STEP, SLIDING_WINDOW, VANILLA
from kwbandit.config import ORACLE, STATIC
from kwbandit.rng import StreamChunk


def single_trace(policy, env, noise, rng):
    """The recorded trace of a batch of one replication."""
    return simulate_batch(policy, env, noise, [rng], record_trace=True).trace


@pytest.fixture
def fixed_policy(bowl):
    return FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants), x0=(1.0,))


@pytest.fixture
def two_bowls(box1d):
    return (
        QuadraticBowl(domain=box1d, theta=(-0.5,), b=1.0),
        QuadraticBowl(domain=box1d, theta=(0.5,), b=1.0),
    )


FILL_CASES = pytest.mark.parametrize(
    "noise, fills",
    [(NoiseModel.gaussian(1.0), 8), (NoiseModel.uniform_bounded(0.5), 8), (NoiseModel.none(), 0)],
    ids=["gaussian", "uniform-bounded", "none"],
)


def logged_calls(log):
    """A logger that appends each call to the file ``log`` as a line, which
    a forked noise worker's calls reach too, and a reader of the calls."""

    def logged(*call):
        with open(log, "a") as handle:
            handle.write(repr(call) + "\n")

    def calls():
        return [ast.literal_eval(line) for line in log.read_text().splitlines()] if log.exists() else []

    return logged, calls


def check_one_fill_per_block(bowl, fixed_policy, noise, fills, tmp_path, monkeypatch):
    env = EnvironmentSchedule.stationary(50, bowl)
    default = simulate_batch(fixed_policy, env, noise, list(StreamChunk(7, 3))).total_regret
    logged, calls = logged_calls(tmp_path / "calls")
    fill, draw = NoiseModel.fill, NoiseModel.draw

    def counted_fill(self, rngs, out):
        logged("fill", out.shape, out.flags.c_contiguous, all(row.flags.c_contiguous for row in out))
        return fill(self, rngs, out)

    def counted_draw(self, *args, **kwargs):
        logged("draw")
        return draw(self, *args, **kwargs)

    monkeypatch.setattr(NoiseModel, "fill", counted_fill)
    monkeypatch.setattr(NoiseModel, "draw", counted_draw)
    monkeypatch.setattr(traj, "_NOISE_BLOCK_STEPS", 7)
    blocked = simulate_batch(fixed_policy, env, noise, list(StreamChunk(7, 3))).total_regret
    blocks = [tuple(call[1:]) for call in calls() if call[0] == "fill"]
    draws = [call for call in calls() if call[0] == "draw"]
    assert len(blocks) == fills and draws == []
    if fills:
        # 7 blocks of 7 steps, each one contiguous array, then one step:
        # a slice of the 7-step block, whose rows alone are contiguous
        assert blocks == [((3, 7, 2), True, True)] * 7 + [((3, 1, 2), False, True)]
    assert np.array_equal(default, blocked)


class TestNoiselessTrace:
    def test_exact_geometric_recursion(self, bowl, fixed_policy, no_noise):
        env = EnvironmentSchedule.stationary(10, bowl)
        trace = single_trace(fixed_policy, env, no_noise, replication_stream(0, 0))
        assert trace.actions[0, 0] == 1.0
        assert trace.inst_regret[0] == pytest.approx(1.0, abs=1e-15)
        assert trace.actions[1, 0] == pytest.approx(0.8, abs=1e-13)
        assert trace.inst_regret[1] == pytest.approx(0.64, abs=1e-13)
        for s in range(10):
            assert trace.actions[s, 0] == pytest.approx(0.8**s, abs=1e-12)

    def test_start_at_maximizer_zero_regret(self, bowl, no_noise):
        policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=bowl.constants), x0=(0.0,))
        env = EnvironmentSchedule.stationary(20, bowl)
        trace = single_trace(policy, env, no_noise, replication_stream(0, 0))
        assert np.all(trace.inst_regret == 0.0)
        assert trace.total_regret == 0.0

    def test_bookkeeping_identities(self, bowl, fixed_policy, no_noise):
        env = EnvironmentSchedule.stationary(25, bowl)
        trace = single_trace(fixed_policy, env, no_noise, replication_stream(0, 0))
        assert trace.horizon == 25
        # the running sum adds strictly left to right, step by step
        assert trace.cum_regret.tolist() == list(accumulate(trace.inst_regret.tolist()))
        assert np.all(np.diff(trace.cum_regret) >= 0)
        assert np.all(trace.inst_regret >= 0)


def test_oracle_has_zero_regret(two_bowls, box1d):
    env = EnvironmentSchedule(horizon=50, change_times=(1, 20), objectives=two_bowls)
    trace = single_trace(OraclePolicy(), env, NoiseModel.gaussian(1.0), replication_stream(0, 0))
    assert np.all(trace.inst_regret == 0.0)
    assert np.array_equal(trace.actions[:19, 0], np.full(19, -0.5))
    assert np.array_equal(trace.actions[19:, 0], np.full(31, 0.5))


def test_static_policy_constant_action(bowl, no_noise):
    env = EnvironmentSchedule.stationary(10, bowl)
    trace = single_trace(StaticPolicy(x0=(1.0,)), env, no_noise, replication_stream(0, 0))
    assert np.all(trace.actions == 1.0)
    assert trace.total_regret == pytest.approx(10.0, abs=1e-12)


def test_iterates_stay_inside_domain(two_bowls, box1d):
    env = EnvironmentSchedule(horizon=200, change_times=(1, 101), objectives=two_bowls)
    noise = NoiseModel.gaussian(4.0)
    policy = FixedStepPolicy(
        config=FixedStepConfig(beta=0.2, c=0.05, constants=two_bowls[0].constants), x0=(1.9,)
    )
    trace = single_trace(policy, env, noise, replication_stream(3, 0))
    assert np.all(trace.actions >= -2.0) and np.all(trace.actions <= 2.0)
    assert trace.boundary_contact.any()  # big noise near the wall must clamp sometimes


def test_episode_column_matches_schedule(two_bowls):
    env = EnvironmentSchedule(horizon=10, change_times=(1, 4), objectives=two_bowls)
    trace = single_trace(StaticPolicy(x0=(0.0,)), env, NoiseModel.none(), replication_stream(0, 0))
    assert list(trace.episode) == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2]


class TestEngineMatchesReferenceOps:
    """The batched engine must reproduce the step-by-step reference bit
    for bit, including the stream consumption order."""

    def test_fixed_step(self, bowl):
        noise = NoiseModel.gaussian(1.0)
        policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.2, constants=bowl.constants), x0=(1.0,))
        env = EnvironmentSchedule.stationary(40, bowl)
        trace = single_trace(policy, env, noise, replication_stream(11, 0))
        actions, contacts, final = reference.run(FIXED_STEP, policy, env, noise, replication_stream(11, 0))
        assert np.array_equal(trace.actions, actions)
        assert np.array_equal(trace.boundary_contact, contacts)
        assert np.array_equal(trace.final_x, final)

    def test_vanilla(self, bowl):
        noise = NoiseModel.uniform_bounded(0.5)
        policy = VanillaPolicy(x0=(1.5,))
        env = EnvironmentSchedule.stationary(30, bowl)
        trace = single_trace(policy, env, noise, replication_stream(13, 0))
        actions, _, final = reference.run(VANILLA, policy, env, noise, replication_stream(13, 0))
        assert np.array_equal(trace.actions, actions)
        assert np.array_equal(trace.final_x, final)

    def test_sliding_window(self, bowl):
        noise = NoiseModel.gaussian(0.5)
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=4, x0=(1.0,), c=0.3))
        env = EnvironmentSchedule.stationary(25, bowl)
        trace = single_trace(policy, env, noise, replication_stream(17, 0))
        actions, _, final = reference.run(SLIDING_WINDOW, policy, env, noise, replication_stream(17, 0))
        assert np.array_equal(trace.actions, actions)
        assert np.array_equal(trace.final_x, final)

    def test_2d_fixed_step(self, box2d):
        f = QuadraticBowl(domain=box2d, theta=(0.5, -0.3), b=0.8)
        noise = NoiseModel.gaussian(1.0)
        policy = FixedStepPolicy(config=FixedStepConfig(beta=0.15, c=0.25, constants=f.constants), x0=(1.0, 1.0))
        env = EnvironmentSchedule.stationary(20, f)
        trace = single_trace(policy, env, noise, replication_stream(19, 0))
        actions, _, final = reference.run(FIXED_STEP, policy, env, noise, replication_stream(19, 0))
        assert np.array_equal(trace.actions, actions)
        assert np.array_equal(trace.final_x, final)

    def test_2d_sliding_window(self, box2d):
        f = QuadraticBowl(domain=box2d, theta=(0.5, -0.3), b=0.8)
        noise = NoiseModel.gaussian(0.25)
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=3, x0=(1.0, -1.0), c=0.4))
        env = EnvironmentSchedule.stationary(17, f)
        trace = single_trace(policy, env, noise, replication_stream(23, 0))
        actions, _, final = reference.run(SLIDING_WINDOW, policy, env, noise, replication_stream(23, 0))
        assert np.array_equal(trace.actions, actions)
        assert np.array_equal(trace.final_x, final)


class TestBatchSemantics:
    def test_batch_replications_match_individual_runs(self, bowl, fixed_policy):
        noise = NoiseModel.gaussian(1.0)
        env = EnvironmentSchedule.stationary(30, bowl)
        batch = simulate_batch(fixed_policy, env, noise, list(StreamChunk(7, 5)))
        for r in range(5):
            solo = single_trace(fixed_policy, env, noise, replication_stream(7, r))
            assert solo.total_regret == batch.total_regret[r]

    def test_block_size_does_not_change_results(self, bowl, fixed_policy, monkeypatch):
        noise = NoiseModel.gaussian(1.0)
        env = EnvironmentSchedule.stationary(50, bowl)
        full = simulate_batch(fixed_policy, env, noise, list(StreamChunk(7, 3))).total_regret
        import kwbandit.trajectory as traj

        monkeypatch.setattr(traj, "_NOISE_BLOCK_VALUES", 10)
        tiny = simulate_batch(fixed_policy, env, noise, list(StreamChunk(7, 3))).total_regret
        assert np.array_equal(full, tiny)

    @pytest.mark.parametrize("variant", [ORACLE, STATIC, VANILLA])
    def test_trace_blocks_join_to_the_trace_at_any_block_size(self, two_bowls, variant, monkeypatch):
        """A sink gets the trace in blocks of consecutive steps.  In blocks of
        7 steps, whose seams cut episodes, they join to the bytes of the
        one-block trace, and the totals and probes do not move."""
        env = EnvironmentSchedule.evenly_spaced(50, 4, list(two_bowls))
        policy = {ORACLE: OraclePolicy(), STATIC: StaticPolicy(x0=(1.0,)), VANILLA: VanillaPolicy(x0=(1.0,))}[variant]

        def run(record_trace):
            streams = list(StreamChunk(7, 3))
            return simulate_batch(policy, env, NoiseModel.gaussian(1.0), streams, record_trace, (1, 13, 51))

        whole = run(True)
        monkeypatch.setattr(traj, "_NOISE_BLOCK_STEPS", 7)
        blocks = []
        streamed = run(blocks.append)
        assert streamed.trace is None
        assert [block.first for block in blocks] == list(range(1, 51, 7))
        for result in (streamed, run(True)):
            assert result.total_regret.tobytes() == whole.total_regret.tobytes()
            assert {s: p.tobytes() for s, p in result.distance_probes.items()} == {
                s: p.tobytes() for s, p in whole.distance_probes.items()
            }
        for trace in (RegretTrace.join(blocks, whole.trace.final_x), run(True).trace):
            for name in ("actions", "inst_regret", "cum_regret", "episode", "boundary_contact", "final_x"):
                assert getattr(trace, name).tobytes() == getattr(whole.trace, name).tobytes(), name

    @pytest.mark.parametrize("block_values", [traj._NOISE_BLOCK_VALUES, 50], ids=["one-block", "several-blocks"])
    def test_a_stream_chunk_gives_the_bytes_of_a_stream_list(self, bowl, fixed_policy, block_values, monkeypatch):
        # one block builds, draws and drops each stream of a chunk in turn;
        # several blocks keep them in a list
        monkeypatch.setattr(traj, "_NOISE_BLOCK_VALUES", block_values)
        env = EnvironmentSchedule.stationary(30, bowl)
        noise = NoiseModel.gaussian(1.0)
        window = SlidingWindowPolicy(config=SlidingWindowConfig(window=4, x0=(0.0,), c=0.5))
        results = [
            simulate_lanes(
                [
                    Lane(fixed_policy, env, streams(7, 3, (0,)), probe_steps=(5, 31), record_trace=True),
                    Lane(fixed_policy, env, streams(7, 2, (1,), 3), probe_steps=(30,)),
                ],
                noise,
            )
            + [simulate_batch(window, env, noise, streams(8, 4))]
            for streams in (lambda *key: list(StreamChunk(*key)), StreamChunk)
        ]
        for listed, chunked in zip(*results):
            assert listed.total_regret.tobytes() == chunked.total_regret.tobytes()
            assert listed.distance_probes.keys() == chunked.distance_probes.keys()
            for s, probe in listed.distance_probes.items():
                assert probe.tobytes() == chunked.distance_probes[s].tobytes()
            assert (listed.trace is None) == (chunked.trace is None)
            if listed.trace is not None:
                assert listed.trace.cum_regret.tobytes() == chunked.trace.cum_regret.tobytes()

    @FILL_CASES
    def test_noise_comes_from_one_fill_per_block(self, bowl, fixed_policy, noise, fills, tmp_path, monkeypatch):
        check_one_fill_per_block(bowl, fixed_policy, noise, fills, tmp_path, monkeypatch)

    @FILL_CASES
    def test_a_noise_worker_draws_one_fill_per_block(
        self, bowl, fixed_policy, noise, fills, tmp_path, monkeypatch, worker_forks
    ):
        check_one_fill_per_block(bowl, fixed_policy, noise, fills, tmp_path, monkeypatch)
        # the batch at the default block size, then the blocked one
        assert len(worker_forks) == (2 if fills else 0)

    def test_distance_probes(self, bowl, fixed_policy, no_noise):
        env = EnvironmentSchedule.stationary(5, bowl)
        result = simulate_batch(fixed_policy, env, no_noise, list(StreamChunk(0, 2)), probe_steps=(1, 3, 6))
        # X_1 = 1, X_3 = 0.64, X_6 = 0.8^5 (probe horizon+1 hits the final iterate)
        assert result.distance_probes[1] == pytest.approx([1.0, 1.0], abs=0.0)
        assert result.distance_probes[3] == pytest.approx([0.64**2] * 2, abs=1e-12)
        assert result.distance_probes[6] == pytest.approx([(0.8**5) ** 2] * 2, abs=1e-12)

    def test_probe_out_of_range_rejected(self, bowl, fixed_policy, no_noise):
        env = EnvironmentSchedule.stationary(5, bowl)
        with pytest.raises(ValueError, match="probe steps"):
            simulate_batch(fixed_policy, env, no_noise, list(StreamChunk(0, 1)), probe_steps=(7,))


@pytest.mark.parametrize(
    "horizon, change_times, episodes",
    [(3, (1, 2, 3), [1, 2, 3]), (5, (1, 5), [1, 1, 1, 1, 2])],
    ids=["one-step-episodes", "change-at-final-step"],
)
def test_short_episodes_and_a_change_at_the_final_step(box1d, horizon, change_times, episodes):
    thetas = (-0.5, 0.5, -1.0)[: len(change_times)]
    objectives = tuple(QuadraticBowl(domain=box1d, theta=(t,), b=1.0) for t in thetas)
    env = EnvironmentSchedule(horizon=horizon, change_times=change_times, objectives=objectives)
    noise = NoiseModel.gaussian(1.0)

    oracle = single_trace(OraclePolicy(), env, noise, replication_stream(0, 0))
    assert list(oracle.episode) == episodes
    assert np.all(oracle.inst_regret == 0.0)
    assert list(oracle.actions[:, 0]) == [thetas[e - 1] for e in episodes]

    cfg = FixedStepConfig(beta=0.1, c=0.2, constants=objectives[0].constants)
    trace = single_trace(FixedStepPolicy(config=cfg, x0=(1.0,)), env, noise, replication_stream(0, 0))
    assert list(trace.episode) == episodes
    for s in range(1, horizon + 1):
        f = env.objective_at(s)
        assert trace.inst_regret[s - 1] == f.max_value - f.evaluate(trace.actions[s - 1])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("variant", [VANILLA, FIXED_STEP, SLIDING_WINDOW])
def test_each_step_evaluates_all_its_points_in_one_objective_call(variant, d):
    box = Domain(lower=(-2.0,) * d, upper=(2.0,) * d)
    f = QuadraticBowl(domain=box, theta=(0.3,) * d, b=1.0)
    f.max_value  # cached before the patch, so only the engine's calls are counted
    x0 = (1.0,) * d
    if variant == VANILLA:
        policy = VanillaPolicy(x0=x0)
    elif variant == FIXED_STEP:
        policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=f.constants), x0=x0)
    else:
        policy = SlidingWindowPolicy(config=SlidingWindowConfig(window=4, x0=x0, c=0.3))
    horizon, reps = 12, 3
    env = EnvironmentSchedule.stationary(horizon, f)
    value_of = QuadraticBowl._value
    with mock.patch.object(QuadraticBowl, "_value", autospec=True, side_effect=value_of) as value:
        simulate_batch(policy, env, NoiseModel.gaussian(1.0), list(StreamChunk(0, reps)))
    assert value.call_count == horizon
    for call in value.call_args_list:
        assert call.args[1].shape == ((1 + 2 * d) * reps, d)


@pytest.mark.parametrize("variant", [VANILLA, FIXED_STEP, SLIDING_WINDOW, ORACLE, STATIC])
def test_returned_arrays_own_their_memory_and_outlive_the_next_call(variant, box2d):
    objectives = (
        QuadraticBowl(domain=box2d, theta=(0.5, -0.3), b=0.8),
        QuarticPerturbedBowl(domain=box2d, theta=(-0.4, 0.2), b=1.0, q=0.1),
    )
    env = EnvironmentSchedule(horizon=30, change_times=(1, 12), objectives=objectives)
    x0 = (1.0, -1.0)
    policy = {
        VANILLA: VanillaPolicy(x0=x0),
        FIXED_STEP: FixedStepPolicy(config=FixedStepConfig(beta=0.02, c=0.2, constants=env.combined_constants()), x0=x0),
        SLIDING_WINDOW: SlidingWindowPolicy(config=SlidingWindowConfig(window=4, x0=x0, c=0.3)),
        ORACLE: OraclePolicy(),
        STATIC: StaticPolicy(x0=x0),
    }[variant]

    def returned(seed):
        result = simulate_batch(
            policy, env, NoiseModel.gaussian(1.0), list(StreamChunk(seed, 3)), record_trace=True, probe_steps=(1, 12, 31)
        )
        trace = result.trace
        columns = (trace.actions, trace.inst_regret, trace.cum_regret, trace.episode, trace.boundary_contact)
        return [result.total_regret, *result.distance_probes.values(), *columns, trace.final_x]

    first = returned(0)
    assert len(first) == 10
    for array in first:
        assert array.flags.owndata
    for a, b in combinations(first, 2):
        assert not np.shares_memory(a, b)
    kept = [array.copy() for array in first]
    second = returned(1)
    for array, copy in zip(first, kept):
        assert np.array_equal(array, copy)
    for a in first:
        for b in second:
            assert not np.shares_memory(a, b)


VARIANTS = (VANILLA, FIXED_STEP, SLIDING_WINDOW, ORACLE, STATIC)


@st.composite
def engine_cases(draw):
    """A random d <= 12 box, 2-3 objectives with random change times, a
    policy of each variant starting on a box face, noise, and two probe
    steps."""
    d = draw(st.integers(1, 12))
    half = [draw(st.floats(0.5, 3.0)) for _ in range(d)]
    domain = Domain(lower=tuple(-h for h in half), upper=tuple(half))
    horizon = draw(st.integers(10, 40))
    episodes = draw(st.integers(2, 3))
    change_times = (1,) + tuple(
        sorted(draw(st.lists(st.integers(2, horizon), min_size=episodes - 1, max_size=episodes - 1, unique=True)))
    )
    objectives = []
    for k in range(episodes):
        theta = tuple(draw(st.floats(-0.9, 0.9)) * h for h in half)
        b = draw(st.floats(0.2, 2.0)) + 2.0 * k  # distinct b keeps neighbouring episodes distinct
        if draw(st.booleans()):
            radius = domain.max_distance_from(theta)
            q = draw(st.floats(0.1, 0.9)) * b / (2.0 * radius)
            objectives.append(QuarticPerturbedBowl(domain=domain, theta=theta, b=b, q=q))
        else:
            objectives.append(QuadraticBowl(domain=domain, theta=theta, b=b))
    env = EnvironmentSchedule(horizon=horizon, change_times=change_times, objectives=tuple(objectives))

    x0 = [draw(st.floats(-1.0, 1.0)) * h for h in half]
    face = draw(st.integers(0, d - 1))
    x0[face] = half[face] if draw(st.booleans()) else -half[face]
    x0 = tuple(x0)

    variant = draw(st.sampled_from(VARIANTS))
    if variant == VANILLA:
        policy = VanillaPolicy(x0=x0)
    elif variant == FIXED_STEP:
        constants = env.combined_constants()
        beta = draw(st.floats(0.05, 0.95)) * constants.k1 / constants.k2**2
        config = FixedStepConfig(beta=beta, c=draw(st.floats(0.05, 1.0)), constants=constants)
        policy = FixedStepPolicy(config=config, x0=x0)
    elif variant == SLIDING_WINDOW:
        config = SlidingWindowConfig(window=draw(st.integers(1, 8)), x0=x0, c=draw(st.floats(0.05, 1.0)))
        policy = SlidingWindowPolicy(config=config)
    elif variant == ORACLE:
        policy = OraclePolicy()
    else:
        policy = StaticPolicy(x0=x0)

    sigma2 = draw(st.floats(0.01, 2.0))
    noise = draw(st.sampled_from((NoiseModel.gaussian, NoiseModel.uniform_bounded)))(sigma2)
    probes = tuple(draw(st.lists(st.integers(1, horizon + 1), min_size=2, max_size=2, unique=True)))
    return variant, policy, env, noise, probes


def _squared_distance(x, theta):
    """||x - theta||**2 with its squares added left to right, as every
    squared length in kwbandit is; np.sum picks its own order from d = 8."""
    total = 0.0
    for a, b in zip(x, theta):
        total = total + (a - b) * (a - b)
    return total


@settings(max_examples=30, deadline=None)
@given(case=engine_cases(), reps=st.integers(3, 5), seed=st.integers(0, 2**31 - 1))
def test_engine_matches_reference_ops_on_random_batches(case, reps, seed):
    """Every replication of a batch wider than one, drawn over several noise
    blocks, equals its own single-stream run and the step-by-step run of
    ``tests/reference.py`` on ``env.objective_at(s)``, bit for bit:
    actions, instantaneous and cumulative regret, boundary contacts,
    distance probes and the final iterate."""
    variant, policy, env, noise, probes = case
    horizon = env.horizon
    with mock.patch.object(traj, "_NOISE_BLOCK_VALUES", 48):
        batch = simulate_batch(policy, env, noise, list(StreamChunk(seed, reps)), probe_steps=probes)
        for r in range(reps):
            trace = single_trace(policy, env, noise, replication_stream(seed, r))
            assert batch.total_regret[r] == trace.total_regret

            actions, contacts, final = reference.run(variant, policy, env, noise, replication_stream(seed, r))
            running, cum_regret = 0.0, []
            for s in range(1, horizon + 1):
                f = env.objective_at(s)
                x = actions[s - 1]
                assert np.array_equal(trace.actions[s - 1], x)
                regret = f.max_value - f.evaluate(x)
                assert trace.inst_regret[s - 1] == regret
                running += regret
                cum_regret.append(running)
                if s in probes:
                    assert batch.distance_probes[s][r] == _squared_distance(x, f.theta_array)
                assert trace.boundary_contact[s - 1] == contacts[s - 1]
            assert np.array_equal(trace.final_x, final)
            # the left-to-right running sum, also where episodes change
            # inside a noise block
            assert trace.cum_regret.tobytes() == np.array(cum_regret).tobytes()
            if horizon + 1 in probes:
                theta = env.objective_at(horizon).theta_array
                assert batch.distance_probes[horizon + 1][r] == _squared_distance(final, theta)


@st.composite
def lane_batches(draw, variants=VARIANTS, noiseless=True):
    """2-4 lanes of one rule, one of ``variants``, on one box, one horizon
    and one noise model (gaussian, uniform-bounded or, with ``noiseless``,
    none), each with its own change times, objectives, starting point, rate
    or window, width and probe steps."""
    d = draw(st.integers(1, 3))
    half = [draw(st.floats(0.5, 3.0)) for _ in range(d)]
    domain = Domain(lower=tuple(-h for h in half), upper=tuple(half))
    variant = draw(st.sampled_from(variants))
    horizon = draw(st.integers(1, 40))
    lanes = []
    for _ in range(draw(st.integers(2, 4))):
        change_times = (1,)
        if horizon > 1:
            later = st.lists(st.integers(2, horizon), max_size=2, unique=True)
            change_times += tuple(sorted(draw(later)))
        episodes = len(change_times)
        objectives = []
        for k in range(episodes):
            theta = tuple(draw(st.floats(-0.9, 0.9)) * h for h in half)
            b = draw(st.floats(0.2, 2.0)) + 2.0 * k
            if draw(st.booleans()):
                q = draw(st.floats(0.1, 0.9)) * b / (2.0 * domain.max_distance_from(theta))
                objectives.append(QuarticPerturbedBowl(domain=domain, theta=theta, b=b, q=q))
            else:
                objectives.append(QuadraticBowl(domain=domain, theta=theta, b=b))
        env = EnvironmentSchedule(horizon=horizon, change_times=change_times, objectives=tuple(objectives))
        x0 = tuple(draw(st.floats(-1.0, 1.0)) * h for h in half)
        if variant == VANILLA:
            policy = VanillaPolicy(x0=x0)
        elif variant == FIXED_STEP:
            constants = env.combined_constants()
            beta = draw(st.floats(0.05, 0.95)) * constants.k1 / constants.k2**2
            policy = FixedStepPolicy(FixedStepConfig(beta=beta, c=draw(st.floats(0.05, 1.0)), constants=constants), x0)
        elif variant == SLIDING_WINDOW:
            config = SlidingWindowConfig(window=draw(st.integers(1, 8)), x0=x0, c=draw(st.floats(0.05, 1.0)))
            policy = SlidingWindowPolicy(config=config)
        else:
            policy = OraclePolicy() if variant == ORACLE else StaticPolicy(x0=x0)
        probes = tuple(draw(st.lists(st.integers(1, horizon + 1), max_size=3, unique=True)))
        lanes.append((policy, env, draw(st.integers(1, 3)), probes))
    sigma2 = draw(st.floats(0.01, 2.0))
    noises = (NoiseModel.gaussian(sigma2), NoiseModel.uniform_bounded(sigma2))
    noise = draw(st.sampled_from(noises + (NoiseModel.none(),) * noiseless))
    return lanes, noise


@settings(max_examples=40, deadline=None)
@given(batch=lane_batches(), seed=st.integers(0, 2**31 - 1), block_values=st.sampled_from((48, 4_000_000)))
def test_each_lane_equals_its_solo_batch(batch, seed, block_values):
    """Lanes with unequal change times, rates, windows and widths, run in
    one batch over several noise blocks or one, give each lane's totals and
    probes, and lane 0's trace, bit for bit as a batch of that lane
    alone."""
    specs, noise = batch
    with mock.patch.object(traj, "_NOISE_BLOCK_VALUES", block_values):
        lanes = [
            Lane(policy, env, list(StreamChunk(seed, reps, (k,))), probes, record_trace=k == 0)
            for k, (policy, env, reps, probes) in enumerate(specs)
        ]
        together = simulate_lanes(lanes, noise)
        for k, (policy, env, reps, probes) in enumerate(specs):
            solo = simulate_batch(policy, env, noise, list(StreamChunk(seed, reps, (k,))), k == 0, probes)
            assert np.array_equal(together[k].total_regret, solo.total_regret)
            assert together[k].distance_probes.keys() == solo.distance_probes.keys()
            for s, distances in solo.distance_probes.items():
                assert np.array_equal(together[k].distance_probes[s], distances)
            if k == 0:
                for name in ("actions", "inst_regret", "cum_regret", "episode", "boundary_contact", "final_x"):
                    assert np.array_equal(getattr(together[0].trace, name), getattr(solo.trace, name))
            else:
                assert together[k].trace is None


def test_lanes_must_share_the_rule_and_the_domain(bowl, fixed_policy):
    env = EnvironmentSchedule.stationary(5, bowl)
    wider = Domain(lower=(-3.0,), upper=(3.0,))
    other_box = EnvironmentSchedule.stationary(5, QuadraticBowl(domain=wider, theta=(0.0,), b=1.0))
    longer = EnvironmentSchedule.stationary(6, bowl)
    streams, noise = list(StreamChunk(0, 2)), NoiseModel.gaussian(1.0)
    mixed = (
        Lane(VanillaPolicy(x0=(1.0,)), env, streams),
        Lane(fixed_policy, other_box, streams),
        Lane(fixed_policy, longer, streams),
    )
    for second in mixed:
        with pytest.raises(ValueError, match="share the rule, the domain and the horizon"):
            simulate_lanes([Lane(fixed_policy, env, streams), second], noise)
    with pytest.raises(ValueError, match="at most one lane"):
        simulate_lanes([Lane(fixed_policy, env, streams, record_trace=True)] * 2, noise)


@pytest.mark.parametrize("d", range(1, 13))
def test_engine_squared_distance_equals_the_objectives_bit_for_bit(d):
    """The engine's coordinate rows, the objective's points in either memory
    layout and a plain left-to-right loop give the same bits.  At d = 1 the
    engine's points are also its corners (x, min(x + c, hi), max(x - c, lo)),
    (3, 1, rows), read in place."""
    rng = np.random.default_rng(d)
    box = Domain(lower=(-2.0,) * d, upper=(2.0,) * d)
    kind = QuarticPerturbedBowl
    # b grows with d, which keeps 2*q*R/b < 1 for the quartic term
    f = kind(domain=box, theta=tuple(rng.uniform(-1.0, 1.0, d)), b=float(d), q=0.05)
    coordinates = rng.uniform(-2.0, 2.0, (d, 3 * 50))
    coordinates[:, ::7] = f.theta_array[:, None]  # exact zeros
    coordinates[:, 1::7] = -0.0
    layouts = [coordinates]
    if d == 1:
        corners = np.empty((3, 1, 50))
        x, plus, minus = corners
        x[...] = coordinates[:, :50]
        np.minimum(x + 0.3, 2.0, out=plus)
        np.maximum(x - 0.3, -2.0, out=minus)
        minus[:, ::5] = f.theta_array[0]  # exact zeros in the minus corner too
        layouts.append(corners.reshape(1, 3 * 50))
    for layout in layouts:
        x = layout.T  # as the engine hands its points over: not C-contiguous
        rows = traj._ObjectiveRows(kind, 3, 50, layout)
        rows.set(slice(0, 50), f)
        expected = np.array([_squared_distance(point, f.theta_array) for point in x])
        got = rows._squared_distance(x)
        out = np.empty(len(x))
        assert rows._squared_distance(x, out) is out
        for value in (got, out, f._squared_distance(x), f._squared_distance(np.ascontiguousarray(x))):
            assert value.tobytes() == expected.tobytes()


def test_block_buffers_stay_within_the_noise_block_budget(monkeypatch):
    """A batch shaped like a sweep point (192 rows, d=1, 1,000 steps,
    gaussian noise), drawn in-process, allocates at most the 2 MB block
    budget, which covers the noise as drawn, its step-major copy and the
    stored f(x), plus 0.5 MB for everything else.  (At this size a noise
    worker draws by default, in a mapping that tracemalloc does not see.)"""
    monkeypatch.setattr(traj, "_WORKER_VALUES", float("inf"))
    box = Domain(lower=(-2.0,), upper=(2.0,))
    f = QuadraticBowl(domain=box, theta=(0.3,), b=1.0)
    policy = FixedStepPolicy(config=FixedStepConfig(beta=0.1, c=0.1, constants=f.constants), x0=(1.0,))
    env = EnvironmentSchedule.stationary(1000, f)
    rngs = list(StreamChunk(0, 192))
    tracemalloc.start()
    try:
        simulate_batch(policy, env, NoiseModel.gaussian(0.5), rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= traj._NOISE_BLOCK_VALUES * 8 + 512 * 1024, peak


MEASURING = (VANILLA, FIXED_STEP, SLIDING_WINDOW)


@settings(max_examples=25, deadline=None)
@given(
    batch=lane_batches(variants=MEASURING, noiseless=False),
    seed=st.integers(0, 2**31 - 1),
    block_values=st.sampled_from((48, 4_000_000)),
    chunked=st.lists(st.booleans(), min_size=4, max_size=4),
)
def test_a_noise_worker_gives_the_in_process_bytes(batch, seed, block_values, chunked):
    """Every measuring rule, gaussian and uniform noise, d = 1-3, over one
    noise block or several, with each lane's streams a list or a
    ``StreamChunk``: the batch drawn by a forked worker equals, bit for bit,
    the batch drawn in-process."""
    specs, noise = batch

    def run(worker_values):
        lanes = [
            Lane(policy, env, StreamChunk(seed, reps, (k,)), probes, record_trace=k == 0)
            for k, (policy, env, reps, probes) in enumerate(specs)
        ]
        lanes = [
            lane if chunked[k] else Lane(lane.policy, lane.env, list(lane.rngs), lane.probe_steps, lane.record_trace)
            for k, lane in enumerate(lanes)
        ]
        forks, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        with mock.patch.object(traj, "_WORKER_VALUES", worker_values), mock.patch.object(os, "fork", counted_fork):
            return simulate_lanes(lanes, noise), len(forks)

    with mock.patch.object(traj, "_NOISE_BLOCK_VALUES", block_values):
        (drawn_here, no_fork), (drawn_there, one_fork) = run(float("inf")), run(0)
    assert (no_fork, one_fork) == (0, 1)
    for here, there in zip(drawn_here, drawn_there):
        assert here.total_regret.tobytes() == there.total_regret.tobytes()
        assert {s: p.tobytes() for s, p in here.distance_probes.items()} == {
            s: p.tobytes() for s, p in there.distance_probes.items()
        }
        assert (here.trace is None) == (there.trace is None)
        if here.trace is not None:
            for name in ("actions", "inst_regret", "cum_regret", "episode", "boundary_contact", "final_x"):
                assert getattr(here.trace, name).tobytes() == getattr(there.trace, name).tobytes(), name


class Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("not for the pipe")


OUT_OF_MEMORY = MemoryError("Unable to allocate the noise block")
TOO_FEW_STREAMS = ValueError("zip() argument 2 is shorter than argument 1")


@pytest.mark.parametrize(
    "error, raised",
    [
        (OUT_OF_MEMORY, OUT_OF_MEMORY),
        (TOO_FEW_STREAMS, TOO_FEW_STREAMS),
        (Unpicklable("no pickle"), RuntimeError("Unpicklable: no pickle")),
    ],
    ids=["memory", "value", "unpicklable"],
)
def test_an_exception_in_the_noise_worker_reaches_the_caller(
    bowl, fixed_policy, error, raised, monkeypatch, worker_forks
):
    """The worker's fill fails on its second block: the caller gets the
    exception's type and message (a RuntimeError naming them, if it does
    not pickle), and no child is left."""
    fill, calls = NoiseModel.fill, []

    def second_fill_fails(self, rngs, out):
        calls.append(out.shape)
        if len(calls) == 2:
            raise error
        return fill(self, rngs, out)

    monkeypatch.setattr(NoiseModel, "fill", second_fill_fails)
    monkeypatch.setattr(traj, "_NOISE_BLOCK_STEPS", 7)
    env = EnvironmentSchedule.stationary(50, bowl)
    with pytest.raises(type(raised)) as caught:
        simulate_batch(fixed_policy, env, NoiseModel.gaussian(1.0), StreamChunk(7, 3))
    assert type(caught.value) is type(raised) and str(caught.value) == str(raised)
    assert len(worker_forks) == 1 and calls == []  # the fills ran in the worker
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("ending", ["finishes", "loop-interrupted"])
def test_every_batch_reaps_its_noise_worker(bowl, fixed_policy, ending, monkeypatch, worker_forks):
    """However a batch ends, its worker has been reaped when the call
    returns or raises: an interrupt in the step loop, with the worker
    waiting for a buffer, kills it first."""
    monkeypatch.setattr(traj, "_NOISE_BLOCK_STEPS", 7)
    if ending == "loop-interrupted":
        tables, calls = traj._Ascent.tables, []

        def third_block_interrupted(self, first, count):
            calls.append(first)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return tables(self, first, count)

        monkeypatch.setattr(traj._Ascent, "tables", third_block_interrupted)
    env = EnvironmentSchedule.stationary(50, bowl)
    if ending == "finishes":
        simulate_batch(fixed_policy, env, NoiseModel.gaussian(1.0), StreamChunk(7, 3))
    else:
        with pytest.raises(KeyboardInterrupt):
            simulate_batch(fixed_policy, env, NoiseModel.gaussian(1.0), StreamChunk(7, 3))
    assert len(worker_forks) == 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
