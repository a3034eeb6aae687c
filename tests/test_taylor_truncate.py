"""``sigmoid._taylor_truncate`` returns the truncation that a fresh Horner
check of every k, its earlier form kept verbatim below, returns."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ridgekit.core import _integer_coordinates, parse_expression
from ridgekit.sigmoid import (
    FIT_GRID_N,
    _exact_poly_coeffs,
    _horner,
    _poly_sup_dev,
    _taylor_shift,
    _taylor_truncate,
)


def _reference_taylor_truncate(coeffs, eps, tgrid, g_vals):
    (ints,), den = _integer_coordinates([coeffs])
    m = len(ints) - 1
    r = _taylor_shift([c << (m - i) for i, c in enumerate(ints)])
    dens = [den << (m - i) for i in range(m + 1)]
    w, row = [], [1]                 # row: the ints of (v - 1)^k
    for k in range(m + 1):
        w.append(0)
        for i, c in enumerate(row):
            w[i] += r[k] * c
        # c / d is the correctly rounded float of c/d, reduced or not
        if _poly_sup_dev([c / d for c, d in zip(w, dens)],
                         g_vals, tgrid) <= 0.5 * eps:
            return [Fraction(c, d) for c, d in zip(w, dens)]
        row = [p - q for p, q in zip([0] + row, row + [0])]
    return list(coeffs)


def _both(coeffs, eps, tgrid, g_vals):
    got = _taylor_truncate(coeffs, eps, tgrid, g_vals)
    want = _reference_taylor_truncate(coeffs, eps, tgrid, g_vals)
    assert got == want
    assert list(map(type, got)) == list(map(type, want))


_TGRID = np.linspace(0.0, 1.0, FIT_GRID_N)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.fractions(-10**6, 10**6, max_denominator=1000),
                min_size=1, max_size=65),
       st.sampled_from([1e-9, 1e-4, 0.01, 0.1, 1.0]),
       st.floats(-1e-3, 1e-3))
def test_matches_a_fresh_horner_check_of_every_k(coeffs, eps, shift):
    """Random exact polynomials of degree up to 64 against their own float
    values, moved by a constant so that a truncation can miss."""
    g_vals = _horner([float(c) for c in coeffs], _TGRID) + shift
    _both(coeffs, eps, _TGRID, g_vals)


@pytest.mark.parametrize("power", [16, 64, 256])
def test_powers_of_x1_at_eps_one_tenth(power):
    f = parse_expression(f"x1^{power}", 1)
    _both(_exact_poly_coeffs(f, 0.0, 1.0), 0.1, _TGRID, f(_TGRID))
