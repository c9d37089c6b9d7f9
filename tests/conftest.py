import numpy as np
import pytest

from islocc.verify import random_single_particle


@pytest.fixture
def rng():
    return np.random.default_rng(20250808)


@pytest.fixture
def make_random_state():
    return random_single_particle
