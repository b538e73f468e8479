import numpy as np
import pytest

from eitfwm import propagation as pr
from eitfwm.params import reference_params
from eitfwm.steady_state import solve


@pytest.fixture(scope="session")
def ref():
    return reference_params()


@pytest.fixture(scope="session")
def ss_ref(ref):
    """The 3x3 steady state of the reference parameters."""
    return solve([ref])[0][0]


@pytest.fixture(scope="session")
def two_d_ref(ref):
    """The 6x6 diffusion table of the reference parameters."""
    return solve([ref])[1][0]


def _vacuum_covariance(n_modes: int) -> np.ndarray:
    """Symmetrised doubled-basis covariance of uncorrelated vacuum."""
    return 0.5 * np.eye(2 * n_modes, dtype=complex)


def _reference_output(t, c, weights):
    """T c_in T^+ + C with the diagonal input c_in = diag(weights) padded
    with zero rows to the size of ``t``: the product form that
    propagation.output_covariance replaces."""
    c_in = np.zeros(t.shape[-2:], dtype=complex)
    k = len(weights)
    c_in[:k, :k] = np.diag(weights)
    out = t @ c_in @ np.swapaxes(t.conj(), -1, -2)
    out += c
    return out


@pytest.fixture(scope="session")
def vacuum_covariance():
    """The doubled-basis covariance of uncorrelated vacuum, as a function
    of the number of modes."""
    return _vacuum_covariance


@pytest.fixture(scope="session")
def reference_output():
    """The product form of the output covariance for a diagonal input,
    as a function of (t, c, weights)."""
    return _reference_output


@pytest.fixture
def kernel_stacks(monkeypatch):
    """The length of every stack propagation.second_moment_transfer_stack
    is called with, in call order, while the test runs."""
    sizes = []
    real = pr.second_moment_transfer_stack

    def recorded(m, *args, **kwargs):
        sizes.append(len(m))
        return real(m, *args, **kwargs)

    monkeypatch.setattr(pr, "second_moment_transfer_stack", recorded)
    return sizes


def _two_mode_squeezed_quadrature(s: float) -> np.ndarray:
    """Quadrature covariance of an ideal two-mode squeezed pair.

    Correlated x, anticorrelated p; the minimizing witness signs are
    ('-' in u, '+' in v) and V = 4*exp(-2s) exactly.
    """
    c, sh = np.cosh(2.0 * s), np.sinh(2.0 * s)
    quad = np.zeros((4, 4))
    quad[:2, :2] = [[c, sh], [sh, c]]
    quad[2:, 2:] = [[c, -sh], [-sh, c]]
    return quad


@pytest.fixture(scope="session")
def squeezed_quadrature():
    """The quadrature covariance of an ideal two-mode squeezed pair, as
    a function of the squeezing parameter."""
    return _two_mode_squeezed_quadrature


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
