"""``verify_pde``'s stencils against a reference copy of their object-level form.

The stencils run on libmp value tuples at an explicit precision.  The
reference below is the formulation they replaced: mpmath ``mpf``/``mpc``
objects inside ``mp.workdps(30)``, with ``mp.e ** x`` for the kernel.  Both
perform the same rounded operations on the same operands, so the worst
residual must be bitwise equal (``repr``-equal).
"""

import mpmath as mp
import pytest

from expmart.verify import pde_grid, verify_pde


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


@pytest.mark.parametrize("step", [1e-4, 1e-3])
@pytest.mark.parametrize("c", [0, 1, 1j, 1 + 1j, 0.5 - 2j, -1.5, 2 + 0.3j])
def test_pde_kernel_is_bitwise_the_object_formulation(c, step):
    assert repr(verify_pde(c, step=step).lhs) == repr(ref_pde_worst(c, step, pde_grid()))

