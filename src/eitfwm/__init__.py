"""Entanglement from light scattering off a driven ground-state coherence.

A Fourier-domain Heisenberg-Langevin model of a three-level medium held
in a dark superposition by two resonant drives, off which one or two
detuned fields scatter.  The package computes the output quadrature
covariance of the scattered/generated fields together with the collective
spin coherence and evaluates Duan-type inseparability witnesses on every
mode pair, as functions of analysis frequency, ground-state decoherence
and drive strength.
"""

# defined before the submodule imports so that any of them can import it
__version__ = "0.1.0"

from .params import (C, PhysicalParams, DerivedParams, ValidationError,
                     derive, reference_params)
from .steady_state import (DensityMatrix3, DegenerateSteadyStateError,
                           bloch_drift, steady_state, dark_state_sigma)
from .langevin import diffusion_matrix, check_positive
from .propagation import (FieldMode, DriftMatrix, NumericalOverflowError,
                          GAIN_CEILING, drift_matrix, transfer_step_oracle,
                          second_moment_transfer, single_pair_modes,
                          two_pair_modes)
