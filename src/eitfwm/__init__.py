"""Entanglement from light scattering off a driven ground-state coherence.

A Fourier-domain Heisenberg-Langevin model of a three-level medium held
in a dark superposition by two resonant drives, off which one or two
detuned fields scatter.  The package computes the output quadrature
covariance of the scattered/generated fields together with the collective
spin coherence and evaluates Duan-type inseparability witnesses on every
mode pair, as functions of analysis frequency, ground-state decoherence
and drive strength.
"""

__version__ = "0.1.0"
