import dataclasses

import pytest

from vlaps.harness import default_library
from vlaps.world import BlockNavEnv


@pytest.fixture(scope="session")
def env():
    return BlockNavEnv(extent=10.0, object_count=2)


@pytest.fixture(scope="session")
def tasks(env):
    return env.tasks()


@pytest.fixture(scope="session")
def model(env):
    # planning-side clone with identical dynamics
    return BlockNavEnv.from_json(env.to_json())


@pytest.fixture(scope="session")
def library(env, tasks):
    return default_library(env, tasks, horizon=4, size=64, seed=7)


@dataclasses.dataclass(eq=False)
class ThriceEnv(BlockNavEnv):
    """BlockNav whose kernel applies each row three times: dynamics other than
    ``BlockNavEnv``'s own, which ``BlockNavEnv``'s reach rule does not bound."""

    def _step_rows(self, state, rows, goal, what):
        return super()._step_rows(state, (row for row in rows for _ in range(3)), goal, what)


@pytest.fixture(scope="session")
def thrice(env):
    return ThriceEnv.from_json(env.to_json())
