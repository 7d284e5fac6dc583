import pytest
from hypothesis import settings

from fvss import P_DEFAULT, init_participants

# `pytest --hypothesis-profile ci`: the same examples on every run, and
# more of them, for the randomized batteries CI runs on their own
settings.register_profile("ci", derandomize=True, max_examples=400, deadline=None)

SEED = bytes(range(32))


@pytest.fixture(scope="session")
def km_toy():
    """Small prime keeps failure cases readable and brute force cheap."""
    return init_participants(5, 4, seed=SEED, p=251)


@pytest.fixture(scope="session")
def km_big():
    return init_participants(5, 4, seed=SEED, p=P_DEFAULT)
