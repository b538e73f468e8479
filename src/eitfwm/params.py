"""Parameter containers and derived quantities.

Unit system used throughout the package:

* rates, Rabi frequencies, detunings, Fourier frequencies: angular MHz
  (1 MHz here means 1e6 rad/s),
* lengths in metres,
* the speed of light is therefore ``C = 299.792458`` in m*MHz,
* atom density in m^-3.

Collective coupling strengths only ever enter the model through the
products g1^2*N and g2^2*N (units MHz^2), obtained from the density via
the Weisskopf-Wigner relation g_i^2*N = 3*c*lambda^2*gamma_i*n0/(8*pi).
A dimensionless ``coupling_scale`` multiplies both products and is the
single knob used for calibration of the field sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

# speed of light in m * (angular MHz)
C = 299.792458


class ValidationError(ValueError):
    """Raised when a parameter set is not physically meaningful."""


@dataclass(frozen=True)
class PhysicalParams:
    """Inputs of the model, one field per physical quantity.

    gamma1, gamma2 are the population decay rates of the excited level
    into the two ground levels; gamma0 is the pure dephasing rate of the
    ground-state coherence.  omega_c drives the 1-3 transition and
    omega_p the 2-3 transition, both on resonance.  delta1 (delta2) is
    the common detuning of the first (second) scattering/generated field
    pair.  alpha1, alpha2 are the coherent input amplitudes of the two
    scattering fields; they displace the fields but do not enter the
    fluctuation dynamics.
    """

    n0: float = 5e19            # atom density, m^-3
    radius: float = 1e-4        # beam radius, m
    length: float = 0.06        # cell length, m
    gamma1: float = 3.0         # MHz
    gamma2: float = 3.0         # MHz
    gamma0: float = 0.1         # MHz
    omega12: float = 3036.0     # ground hyperfine splitting, MHz
    omega_p: float = 400.0      # probe Rabi frequency, MHz
    omega_c: float = 400.0      # coupling Rabi frequency, MHz
    delta1: float = -1000.0     # MHz
    delta2: float = 1000.0      # MHz
    alpha1: float = 1.0
    alpha2: float = 1.0
    wavelength: float = 795e-9  # m, shared by both optical transitions
    coupling_scale: float = 1.0
    spinwave_scale: float = 1.0

    def validate(self) -> None:
        bad = []
        for name in ("n0", "radius", "length", "wavelength",
                     "spinwave_scale", "gamma1", "gamma2"):
            if not getattr(self, name) > 0:
                bad.append(name)
        # coupling_scale = 0 switches the light-matter interaction off
        # entirely, a limit the self-checks rely on
        for name in ("gamma0", "omega_p", "omega_c", "omega12",
                     "coupling_scale"):
            if getattr(self, name) < 0:
                bad.append(name)
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)) and f.name not in bad:
                bad.append(f.name)
        if bad:
            raise ValidationError("non-physical parameter(s): " + ", ".join(bad))

    def with_(self, **changes) -> "PhysicalParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class DerivedParams:
    """Quantities computed once from a PhysicalParams set."""

    atom_number: float     # N in the beam volume
    g1sq_n: float          # g1^2 * N, MHz^2 (coupling_scale folded in)
    g2sq_n: float          # g2^2 * N, MHz^2
    gamma13: float         # optical coherence decay (gamma1+gamma2)/2
    gamma23: float


def _square(x: float) -> float:
    """x ** 2, inf past float range, as a float product would overflow."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def derive(p: PhysicalParams) -> DerivedParams:
    """Validate ``p`` and compute the derived quantities.  A quantity past
    float range is inf, which the propagation reports as a drift or a
    covariance that is not finite."""
    p.validate()
    volume = math.pi * _square(p.radius) * p.length
    n_atoms = p.n0 * volume
    prefac = (p.coupling_scale * 3.0 * C * _square(p.wavelength) * p.n0
              / (8.0 * math.pi))
    g13 = 0.5 * (p.gamma1 + p.gamma2)
    return DerivedParams(
        atom_number=n_atoms,
        g1sq_n=prefac * p.gamma1,
        g2sq_n=prefac * p.gamma2,
        gamma13=g13,
        gamma23=g13,
    )


def reference_params() -> PhysicalParams:
    """The warm-vapour parameter set used for all headline results."""
    return PhysicalParams()
