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
from dataclasses import dataclass, fields

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
        values = self.__dict__
        bad = [name for name in _POSITIVE if not values[name] > 0]
        # coupling_scale = 0 switches the light-matter interaction off
        # entirely, a limit the self-checks rely on
        bad += [name for name in _NON_NEGATIVE if values[name] < 0]
        bad += [name for name in _FIELDS
                if not math.isfinite(values[name]) and name not in bad]
        if bad:
            raise ValidationError("non-physical parameter(s): " + ", ".join(bad))

    def with_(self, **changes) -> "PhysicalParams":
        """Return a copy with the given fields replaced."""
        unknown = changes.keys() - self.__dict__.keys()
        if unknown:
            raise TypeError(
                "unknown parameter(s): " + ", ".join(sorted(unknown)))
        # a frozen instance is a plain __dict__ of its fields: copying
        # that dict skips the field walk and the __init__ of
        # dataclasses.replace, a cost every point of a parameter sweep pays
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__, **changes)
        return copy


#: the fields of PhysicalParams, in declaration order
_FIELDS = tuple(f.name for f in fields(PhysicalParams))
#: fields that must be positive, and fields that must not be negative, in
#: the order validate names them
_POSITIVE = ("n0", "radius", "length", "wavelength", "spinwave_scale",
             "gamma1", "gamma2")
_NON_NEGATIVE = ("gamma0", "omega_p", "omega_c", "omega12", "coupling_scale")


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
