import os

import numpy as np
import pytest

import kwbandit.trajectory as traj
from kwbandit import noiseworker
from kwbandit import Domain, NoiseModel, QuadraticBowl, QuarticPerturbedBowl


@pytest.fixture
def box1d() -> Domain:
    return Domain(lower=(-2.0,), upper=(2.0,))


@pytest.fixture
def bowl(box1d) -> QuadraticBowl:
    return QuadraticBowl(domain=box1d, theta=(0.0,), b=1.0)


@pytest.fixture
def box2d() -> Domain:
    return Domain(lower=(-2.0, -2.0), upper=(2.0, 2.0))


@pytest.fixture
def quartic(box1d) -> QuarticPerturbedBowl:
    return QuarticPerturbedBowl(domain=box1d, theta=(0.3,), b=1.0, q=0.1)


@pytest.fixture
def forks(monkeypatch) -> list[int]:
    """The pid of every ``os.fork`` this process makes while the test runs."""
    pids, fork = [], os.fork

    def counted_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    return pids


@pytest.fixture(autouse=True)
def no_noise_worker_after():
    """Each test ends with the noise worker of this process reaped, so the
    next test forks its own: fork counts do not depend on the order of the
    tests, and a worker sees what its test patched before the fork."""
    yield
    noiseworker.stop()


@pytest.fixture
def spare_cpu(monkeypatch) -> None:
    """The noise worker is forked as where this process may run on two
    CPUs, whatever this host allows, so its tests run on any host."""
    monkeypatch.setattr(noiseworker, "_cpus", lambda: 2)


@pytest.fixture
def worker_forks(forks, spare_cpu, monkeypatch) -> list[int]:
    """Every batch with noise shares its draw with the noise worker
    (``_noise_blocks``), whatever its size; the pids of the workers
    forked."""
    monkeypatch.setattr(traj, "_WORKER_ROWS", 1)
    return forks


@pytest.fixture
def no_noise() -> NoiseModel:
    return NoiseModel.none()


def assert_close(actual, expected, tol=1e-12):
    assert np.all(np.abs(np.asarray(actual) - np.asarray(expected)) <= tol), f"{actual} != {expected} (tol {tol})"
