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
