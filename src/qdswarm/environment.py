"""Operating environments for the swarm.

An environment is described by six attributes: the robots' maximal linear
speed, the swarm size, the arena side length, the obstacle count, and the
ranges of the range-and-bearing and proximity sensors. Each attribute takes
one of four values, giving a 4^6 = 4096 point environment space centred on a
normal operating environment. The index of an attribute's value within its
perturbation set doubles as the environment descriptor used by the
environment-diversity archive.
"""

from dataclasses import astuple, dataclass

import numpy as np

# Perturbation sets per attribute, in SI units. Arena sizes are stored as
# side lengths (areas 4, 9, 16, 25 m^2).
MAX_LINEAR_SPEEDS = (0.05, 0.10, 0.15, 0.20)
SWARM_SIZES = (5, 10, 15, 20)
ARENA_SIDES = (2.0, 3.0, 4.0, 5.0)
OBSTACLE_COUNTS = (0, 2, 4, 6)
RAB_RANGES = (0.25, 0.50, 1.00, 2.00)
PROXIMITY_RANGES = (0.055, 0.11, 0.22, 0.44)

ATTRIBUTE_SETS = (
    MAX_LINEAR_SPEEDS,
    SWARM_SIZES,
    ARENA_SIDES,
    OBSTACLE_COUNTS,
    RAB_RANGES,
    PROXIMITY_RANGES,
)

N_ATTRIBUTES = 6
N_LEVELS = 4


@dataclass(frozen=True)
class EnvironmentSpec:
    """One point in the environment space.

    Attributes are plain SI values; use :func:`env_index` to recover the
    per-attribute perturbation indices.
    """

    max_linear_speed: float = 0.10
    n_robots: int = 10
    arena_side: float = 4.0
    n_obstacles: int = 0
    rab_range: float = 1.00
    proximity_range: float = 0.11

    def attributes(self) -> tuple:
        return astuple(self)

    @property
    def diagonal(self) -> float:
        return self.arena_side * np.sqrt(2.0)


NORMAL_ENV = EnvironmentSpec()


def env_index(spec: EnvironmentSpec) -> tuple[int, ...]:
    """Per-attribute perturbation indices of `spec`, each in 0..3.

    Raises ValueError if an attribute is not a member of its perturbation set.
    """
    indices = []
    for value, levels in zip(spec.attributes(), ATTRIBUTE_SETS):
        try:
            indices.append(levels.index(value))
        except ValueError:
            raise ValueError(f"attribute value {value!r} not in {levels!r}") from None
    return tuple(indices)


def env_from_index(indices) -> EnvironmentSpec:
    """Inverse of :func:`env_index`."""
    indices = tuple(int(i) for i in indices)
    if len(indices) != N_ATTRIBUTES or any(not 0 <= i < N_LEVELS for i in indices):
        raise ValueError(f"invalid environment index {indices!r}")
    values = [levels[i] for levels, i in zip(ATTRIBUTE_SETS, indices)]
    return EnvironmentSpec(*values)


def generate_environment(rng: np.random.Generator) -> EnvironmentSpec:
    """Draw an environment with each attribute i.i.d. uniform over its set."""
    draws = rng.integers(0, N_LEVELS, size=N_ATTRIBUTES)
    return env_from_index(draws)
