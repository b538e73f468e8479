"""Langevin noise correlators from generalized Einstein relations.

For delta-correlated collective noise forces F_mu(z, t) attached to the
six coherence channels mu in {(1,2), (2,1), (1,3), (3,1), (2,3), (3,2)},
the second moments follow from the single-atom dynamics alone:

    2 D_{mu nu} = <L(s_mu s_nu)> - <L(s_mu) s_nu> - <s_mu L(s_nu)>

evaluated in the zeroth-order steady state, with L the same adjoint
generator that produces the Bloch drift (drive terms cancel identically
in this combination, so only the dissipators contribute).  Row (c, d) of
the Bloch drift is L(E_cd), so the drifts of a block of points already
hold every image L needs, and the tables of the whole block are
evaluated from them in one pass.

Spatial normalisation: the correlator used by the propagation module is

    <F_mu(z) F_nu(z')> = (c / N) * 2 D_{mu nu} * delta(z - z')

per unit spectral density.  The c/N scale (not, e.g., L/N) is the unique
choice under which a purely absorbing medium returns exactly vacuum
commutators at the output, which is the consistency test the whole noise
sector must pass; see the propagation invariants.
"""

from __future__ import annotations

import functools

import numpy as np

# channel ordering shared with the propagation module
CHANNELS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3), (3, 2))
CHANNEL_INDEX = {ch: k for k, ch in enumerate(CHANNELS)}


def conjugate_channel(ch: tuple[int, int]) -> tuple[int, int]:
    a, b = ch
    return (b, a)


#: index of the matrix unit of every channel among the nine units,
#: row-major, and of the product of every pair of channels among the
#: units and zero (index 9): E_ab E_cd = E_ad if b == c, else 0
_UNIT = np.array([3 * (a - 1) + b - 1 for a, b in CHANNELS])
_PRODUCT = np.array([[3 * (a - 1) + d - 1 if b == c else 9
                      for c, d in CHANNELS] for a, b in CHANNELS])


def _moves():
    """(target, source) flat positions of the products of the images
    with the units, R_mu E_nu and E_mu R_nu for every channel pair
    (mu, nu) = ((a, b), (c, d)): targets in a (6, 6, 3, 3) table of
    3x3 products, sources in a 9x9 drift, whose row r is the image of
    unit r as a 3x3 matrix.  R E_cd is column c of R put at column d;
    E_ab R is row b of R put at row a."""
    mu, nu, i = np.indices((6, 6, 3)).reshape(3, -1)
    a, b = (np.array(CHANNELS).T - 1)[:, mu]
    c, d = (np.array(CHANNELS).T - 1)[:, nu]
    cell = (6 * mu + nu) * 3
    right = (3 * (cell + i) + d, 9 * _UNIT[mu] + 3 * i + c)
    left = (3 * (cell + a) + i, 9 * _UNIT[nu] + 3 * b + i)
    return right, left


_MOVES = _moves()


def diffusion_matrix(drifts: np.ndarray, states: np.ndarray) -> np.ndarray:
    """6x6 tables of 2*D_{mu,nu} over CHANNELS, in MHz, one per Bloch
    drift of ``drifts`` (shape (k, 9, 9)) at its steady state in
    ``states`` (shape (k, 3, 3)), shape (k, 6, 6).

    The channel operators are matrix units, and so is the product of
    any two of them, or else zero: row (c, d) of a drift is the image
    L(E_cd), and the image of zero is zero, so the drift rows give every
    image the table needs.  The first term takes the expectation of each
    distinct image once and gathers it for all 36 pairs.  The other two
    multiply an image by a unit, which only moves entries: R_mu E_nu and
    E_mu R_nu of all pairs of every point are moved into one zero-padded
    (k, 6, 6, 3, 3) buffer (_MOVES), the same bits as the matrix
    products.  Each expectation <sum_ab x[a,b] sigma_ab> =
    sum_ab x[a,b] S[a,b] sums the last two axes.
    """
    k = len(drifts)
    images = np.zeros((k, 10, 3, 3), dtype=complex)
    images[:, :9] = drifts.reshape(-1, 9, 3, 3)
    s = states[:, None, None]
    val = np.sum(images * states[:, None], axis=(-2, -1))[:, _PRODUCT]
    flat = images.reshape(k, 90)
    moved = np.empty((k, 6, 6, 3, 3), dtype=complex)
    for target, source in _MOVES:
        moved.fill(0)
        moved.reshape(k, 324)[:, target] = flat[:, source]
        np.multiply(moved, s, out=moved)
        val -= np.sum(moved, axis=(-2, -1))
    return val


#: index in CHANNELS of the conjugate of every channel
CONJUGATE_INDEX = np.array([CHANNEL_INDEX[conjugate_channel(ch)]
                            for ch in CHANNELS])


@functools.lru_cache(maxsize=None)
def _pairing(channels: tuple):
    """Index arrays (mu as a column, conj(nu) as a row) of the channel
    pairs (mu, nu) of ``channels`` in the diffusion table, cached."""
    mu = np.array([CHANNEL_INDEX[ch] for ch in channels])
    nubar = CONJUGATE_INDEX[mu]
    return mu[:, None], nubar[None, :]


def sym_noise_matrix(two_d: np.ndarray, channels) -> np.ndarray:
    """Symmetrised per-channel covariance 0.5*(<F F^+> + <F^+ F>).

    Restricted to the given channel subset (list of (a, b) tuples); the
    c/N spatial scale is *not* included here, the caller folds it into
    the noise coupling rows.  A stack of tables gives a stack.
    """
    mu, nubar = _pairing(tuple(channels))
    return 0.5 * (two_d[..., mu, nubar] + two_d[..., nubar, mu])


def comm_noise_matrix(two_d: np.ndarray, channels) -> np.ndarray:
    """Commutator pairing <[F, F^+]> used by the commutator audit."""
    mu, nubar = _pairing(tuple(channels))
    return two_d[..., mu, nubar] - two_d[..., nubar, mu]


#: channels driving the field rows, F_13 and F_23 the direct ones and
#: F_31 and F_32 the conjugate ones, shared by both pairs because the
#: same atoms scatter both
FIELD_CHANNELS = ((1, 3), (2, 3), (3, 1), (3, 2))

#: channels of the ground-coherence noise, which drives S and S^+
SPINWAVE_CHANNELS = ((1, 2), (2, 1))
