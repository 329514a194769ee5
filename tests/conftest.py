import numpy as np
import pytest

from qdswarm.environment import EnvironmentSpec
from qdswarm.sim import TrialLog


def make_log(
    positions,
    headings=None,
    arena_side=4.0,
    obstacles=None,
    commands=None,
    linear_velocity=None,
    angular_velocity=None,
    proximity=None,
    rab=None,
):
    """Build a synthetic TrialLog from (T, N, 2) positions.

    Everything not supplied defaults to a stationary, nothing-sensed swarm.
    """
    positions = np.asarray(positions, dtype=float)
    n_cycles, n_robots = positions.shape[:2]
    if headings is None:
        headings = np.zeros((n_cycles, n_robots))
    poses = np.concatenate([positions, np.asarray(headings, dtype=float)[..., None]], axis=2)
    if obstacles is None:
        obstacles = np.empty((0, 2))
    if commands is None:
        commands = np.zeros((n_cycles, n_robots, 2))
    if linear_velocity is None:
        linear_velocity = 0.5 * (commands[..., 0] + commands[..., 1])
    if angular_velocity is None:
        angular_velocity = np.zeros((n_cycles, n_robots))
    if proximity is None:
        proximity = np.zeros((n_cycles, n_robots, 7))
    if rab is None:
        rab = np.ones((n_cycles, n_robots, 8))
    return TrialLog(
        env=EnvironmentSpec(arena_side=arena_side),
        obstacles=np.asarray(obstacles, dtype=float),
        poses=poses,
        proximity=np.asarray(proximity, dtype=float),
        rab=np.asarray(rab, dtype=float),
        commands=np.asarray(commands, dtype=float),
        linear_velocity=np.asarray(linear_velocity, dtype=float),
        angular_velocity=np.asarray(angular_velocity, dtype=float),
        final_poses=poses[-1].copy() if n_cycles else np.zeros((n_robots, 3)),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
