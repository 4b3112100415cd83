"""``verify_pde``'s float64 stencils against their 30-digit object-level form.

The reference below runs the central differences as written, on mpmath
``mpf``/``mpc`` objects inside ``mp.workdps(30)``, with ``mp.e ** x`` for the
kernel.  ``verify_pde`` factors each stencil through the exponential's
shifts instead, so no two nearly equal values of u are subtracted and
float64 suffices.  The worst residuals must agree within the rounding bound
16 eps S, where S = max over the points of |u| (1 + |x - c y|) max(1, |c|)^2
(CHANGES.md derives the bound).
"""

import mpmath as mp
import numpy as np
import pytest

from expmart.verify import pde_grid, verify_pde

EPS = np.finfo(float).eps


def ref_pde_worst(c, step, points):
    worst = 0.0
    with mp.workdps(30):
        cc = mp.mpmathify(complex(c))
        d = mp.mpf(step)

        def base(xx, yy):
            return mp.e ** (cc * xx - cc * cc * yy / 2)

        def drifted(xx, yy):
            return (xx - cc * yy) * base(xx, yy)

        for u in (base, drifted):
            for (x0, y0) in points:
                x0 = mp.mpf(x0)
                y0 = mp.mpf(y0)
                uxx = (u(x0 + d, y0) - 2 * u(x0, y0) + u(x0 - d, y0)) / (d * d)
                uy = (u(x0, y0 + d) - u(x0, y0 - d)) / (2 * d)
                r = abs(uxx / 2 + uy)
                if mp.isnan(r) or r > worst:
                    worst = r
    return float(worst)


def rounding_scale(c, points):
    """S = max over the points of |u| (1 + |x - c y|) max(1, |c|)^2."""
    x, y = np.array(points).T
    u = np.abs(np.exp(c * x - c * c * y / 2))
    return float(np.max(u * (1 + np.abs(x - c * y)))) * max(1.0, abs(c)) ** 2


@pytest.mark.parametrize("step", [1e-5, 1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("c", [0, 1, 1j, 1 + 1j, 0.5 - 2j, -1.5, 2 + 0.3j, 3, 2j])
def test_pde_kernel_is_bitwise_the_object_formulation(c, step):
    # the name predates the rounding bound and is kept so that the test ids
    # stay stable; the check is the bound of the module docstring
    pts = pde_grid()
    got = verify_pde(c, step=step).lhs
    assert abs(got - ref_pde_worst(c, step, pts)) <= 16 * EPS * rounding_scale(c, pts)
