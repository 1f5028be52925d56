"""Test helpers that run package internals. Unlike the functions in
oracles.py, they share the code of the paths they exercise, so they check
nothing on their own."""

import numpy as np

from spinsemi.flow import _hamilton_at


def field_and_jacobian(model, y):
    """Hamilton's field and its exact 4x4 Jacobian at the packed state y
    (u_x, u_y, v_x, v_y), as numpy arrays, from flow._hamilton_at's one
    model.point_derivs call."""
    field, jac = _hamilton_at(model.sys, model.point_derivs,
                              np.asarray(y, dtype=complex))
    return np.array(field, dtype=complex), np.array(jac, dtype=complex).reshape(4, 4)
