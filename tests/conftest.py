import numpy as np
import pytest

from eitfwm import langevin
from eitfwm.params import reference_params
from eitfwm.steady_state import steady_state


@pytest.fixture(scope="session")
def ref():
    return reference_params()


@pytest.fixture(scope="session")
def ss_ref(ref):
    """The 3x3 steady state of the reference parameters."""
    return steady_state([ref])[0]


@pytest.fixture(scope="session")
def two_d_ref(ref, ss_ref):
    """The 6x6 diffusion table of the reference parameters."""
    return langevin.diffusion_matrix([ref], ss_ref[None])[0]


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
