import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from eitfwm.params import (C, PhysicalParams, ValidationError, derive,
                           reference_params)


def test_reference_set_is_valid():
    p = reference_params()
    p.validate()
    assert p.gamma1 == p.gamma2 == 3.0
    assert p.gamma0 == 0.1
    assert p.omega_p == p.omega_c == 400.0
    assert p.delta1 == -1000.0 and p.delta2 == 1000.0


def test_speed_of_light_in_working_units():
    # MHz * m units throughout
    assert C == 299.792458


@pytest.mark.parametrize("field,value", [
    ("n0", 0.0),
    ("radius", -1e-4),
    ("length", 0.0),
    ("wavelength", 0.0),
    ("gamma1", 0.0),
    ("gamma2", -3.0),
    ("gamma0", -0.1),
    ("omega_p", -1.0),
    ("omega12", -1.0),
    ("coupling_scale", -0.5),
    ("spinwave_scale", 0.0),
    ("delta1", math.nan),
    ("gamma0", math.nan),
    ("coupling_scale", math.inf),
    ("alpha1", -math.inf),
])
def test_validate_rejects_nonphysical(field, value):
    p = reference_params().with_(**{field: value})
    with pytest.raises(ValidationError) as err:
        p.validate()
    assert field in str(err.value)


def test_coupling_scale_zero_is_allowed():
    # the interaction-off limit is a legitimate self-check configuration
    reference_params().with_(coupling_scale=0.0).validate()


def test_derived_atom_number_is_beam_volume_times_density():
    p = reference_params()
    dp = derive(p)
    expected = p.n0 * math.pi * p.radius ** 2 * p.length
    assert dp.atom_number == pytest.approx(expected, rel=1e-14)


def test_derived_coupling_follows_cross_section_formula():
    p = reference_params()
    dp = derive(p)
    pref = 3.0 * C * p.wavelength ** 2 * p.n0 / (8.0 * math.pi)
    assert dp.g1sq_n == pytest.approx(pref * p.gamma1, rel=1e-14)
    assert dp.g2sq_n == pytest.approx(pref * p.gamma2, rel=1e-14)


def test_coupling_scale_enters_linearly():
    p = reference_params()
    d1 = derive(p)
    d2 = derive(p.with_(coupling_scale=2.0))
    assert d2.g1sq_n == pytest.approx(2.0 * d1.g1sq_n, rel=1e-14)
    assert d2.g2sq_n == pytest.approx(2.0 * d1.g2sq_n, rel=1e-14)
    assert derive(p.with_(coupling_scale=0.0)).g1sq_n == 0.0


def test_optical_linewidths():
    dp = derive(reference_params())
    assert dp.gamma13 == pytest.approx(3.0)
    assert dp.gamma23 == pytest.approx(3.0)


def test_with_returns_modified_copy():
    p = reference_params()
    q = p.with_(gamma0=0.5)
    assert q.gamma0 == 0.5
    assert p.gamma0 == 0.1
    assert q.with_(gamma0=0.1) == p


def test_params_are_immutable():
    p = reference_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.gamma0 = 1.0


@given(gamma0=st.floats(0.0, 1e3),
       omega_p=st.floats(0.0, 1e4),
       delta1=st.floats(-1e4, 1e4))
def test_validate_accepts_physical_overrides(gamma0, omega_p, delta1):
    reference_params().with_(gamma0=gamma0, omega_p=omega_p,
                             delta1=delta1).validate()


@given(scale=st.floats(0.1, 10.0))
def test_atom_number_scales_with_length(scale):
    p = reference_params()
    d1 = derive(p)
    d2 = derive(p.with_(length=p.length * scale))
    assert d2.atom_number == pytest.approx(scale * d1.atom_number, rel=1e-12)
