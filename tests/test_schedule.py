import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwbandit import EnvironmentSchedule, QuadraticBowl


@pytest.fixture
def two_bowls(box1d):
    return (
        QuadraticBowl(domain=box1d, theta=(-0.5,), b=1.0),
        QuadraticBowl(domain=box1d, theta=(0.5,), b=1.0),
    )


def test_stationary_serves_single_objective(bowl):
    env = EnvironmentSchedule.stationary(10, bowl)
    assert env.num_episodes == 1
    for s in (1, 5, 10):
        assert env.objective_at(s) is bowl


def test_change_takes_effect_at_its_step(two_bowls):
    env = EnvironmentSchedule(horizon=100, change_times=(1, 51), objectives=two_bowls)
    assert env.objective_at(50) is two_bowls[0]
    assert env.objective_at(51) is two_bowls[1]
    assert env.num_episodes == 2
    assert env.episode_lengths == (50, 50)


def test_episode_index_piecewise_constant(two_bowls):
    env = EnvironmentSchedule(horizon=10, change_times=(1, 4), objectives=two_bowls)
    indices = [env.episode_index(s) for s in range(1, 11)]
    assert indices == [1, 1, 1, 2, 2, 2, 2, 2, 2, 2]
    # exactly num_episodes distinct pieces
    assert len(set(indices)) == env.num_episodes


def test_step_out_of_range_rejected(bowl):
    env = EnvironmentSchedule.stationary(10, bowl)
    for s in (0, 11, -3):
        with pytest.raises(ValueError, match="step"):
            env.objective_at(s)


def test_consecutive_episodes_must_differ(bowl):
    with pytest.raises(ValueError, match="identical"):
        EnvironmentSchedule(horizon=10, change_times=(1, 5), objectives=(bowl, bowl))


def test_first_change_time_must_be_one(two_bowls):
    with pytest.raises(ValueError, match="first change time"):
        EnvironmentSchedule(horizon=10, change_times=(2, 5), objectives=two_bowls)


def test_evenly_spaced_cycles_objectives(two_bowls):
    env = EnvironmentSchedule.evenly_spaced(100, 4, list(two_bowls))
    assert env.change_times == (1, 26, 51, 76)
    assert env.objectives == (two_bowls[0], two_bowls[1], two_bowls[0], two_bowls[1])
    assert env.episode_lengths == (25, 25, 25, 25)


def test_evenly_spaced_single_episode(bowl):
    env = EnvironmentSchedule.evenly_spaced(100, 1, [bowl])
    assert env.change_times == (1,)


def test_combined_constants_and_offset(two_bowls, box1d):
    env = EnvironmentSchedule(horizon=10, change_times=(1, 5), objectives=two_bowls)
    consts = env.combined_constants()
    assert consts.k1 == 2.0 and consts.k3 == 1.0
    assert env.max_mean_value_offset(0.1) == 0.0


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_served_objective_piecewise_constant_with_exact_piece_count(data):
    from kwbandit import Domain, QuadraticBowl

    box = Domain(lower=(-2.0,), upper=(2.0,))
    horizon = data.draw(st.integers(min_value=2, max_value=60))
    extra = data.draw(st.lists(st.integers(min_value=2, max_value=horizon), max_size=6, unique=True))
    times = (1, *sorted(extra))
    bowls = [QuadraticBowl(domain=box, theta=(t,), b=1.0) for t in (-0.5, 0.5)]
    env = EnvironmentSchedule(
        horizon=horizon,
        change_times=times,
        objectives=tuple(bowls[i % 2] for i in range(len(times))),
    )
    served = [env.objective_at(s) for s in range(1, horizon + 1)]
    # piecewise constant: changes exactly at the declared times
    switches = [s for s in range(2, horizon + 1) if served[s - 1] is not served[s - 2]]
    assert switches == list(times[1:])
    # exactly one piece per episode
    assert len(set(env.episode_index(s) for s in range(1, horizon + 1))) == env.num_episodes
