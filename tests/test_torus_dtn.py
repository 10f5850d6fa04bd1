"""The discrete DtN map on the circle against the exact torus DtN map.

The circle preset is a torus of major radius R = 1/(2 pi) and minor radius
eps, where the exterior Dirichlet problem separates in toroidal coordinates
(eta, xi, phi), phi = 2 pi s.  For data v = e^{2 pi i k s} the slender-body
DtN eigenvalue (f = int w J dtheta) is, with z0 = cosh eta0 = R/eps,
c = sqrt(R^2 - eps^2), e_0 = 1 and e_m = 2 for m >= 1,

    lambda_k = 2 pi c [ pi z0 / sinh eta0
               + (4/pi) sinh^2 eta0 sum_{m>=0} e_m Q_{m-1/2}(z0)^2 P'/P ],

P = P^k_{m-1/2}(z0) and (z^2 - 1) P' = nu z P^k_nu - (nu + k) P^k_{nu-1}.
It comes from the exterior harmonics sqrt(cosh eta - cos xi)
P^k_{m-1/2}(cosh eta) cos(m xi) e^{i k phi} and Heine's expansion of
(cosh eta - cos xi)^{-1/2} (DLMF 14.19; Morse & Feshbach, Methods of
Theoretical Physics (1953), ch. 10).  The map is circulant on the circle,
so its eigenvalues are fft(Lambda[:, 0]).
"""

import mpmath as mp
import numpy as np
import pytest

from slenderlap import solver as sv
from slenderlap.grid import make_grid

MODES = (0, 1, 2, 4, 8, 16)
# lambda_k / lambda_k^exact - 1 of the direct backend at eps 1/64, measured
MEASURED = {
    128: (-2.23e-5, -2.28e-5, -2.74e-5, -6.02e-5, -3.61e-4, -3.37e-3),
    256: (-2.18e-6, +2.68e-7, +4.71e-6, +2.28e-5, +1.02e-4, +4.46e-4),
}


def torus_dtn_eigenvalue(k, eps, terms=12):
    """lambda_k of the module docstring, 12 terms at 20 digits."""
    with mp.workdps(20):
        big_r = 1 / (2 * mp.pi)
        z0 = big_r / eps
        sinh0 = mp.sqrt(z0 ** 2 - 1)
        total = 0
        for m in range(terms):
            nu = m - mp.mpf(1) / 2
            p = mp.legenp(nu, k, z0, type=3)
            dp = (nu * z0 * p - (nu + k) * mp.legenp(nu - 1, k, z0, type=3)
                  ) / (z0 ** 2 - 1)
            q = mp.legenq(nu, 0, z0, type=3)
            total += (1 if m == 0 else 2) * q ** 2 * dp / p
        lam = 2 * mp.pi * mp.sqrt(big_r ** 2 - eps ** 2) * (
            mp.pi * z0 / sinh0 + 4 / mp.pi * sinh0 ** 2 * total)
        return float(mp.re(lam))  # complex with a zero imaginary part


def test_oracle_values():
    """The series against the values it gave when it was set up, and the
    k = 0 value against the thin-ring capacitance 4 pi^2 R / ln(8 R/eps)
    (1.428, 0.6% off at eps 1/64)."""
    got = [torus_dtn_eigenvalue(k, 1 / 64) for k in (0, 1, 8)]
    assert np.allclose(got, [1.437054517, 2.577958238, 7.573275511],
                       rtol=0, atol=1e-9)
    ring = 4 * np.pi ** 2 / (2 * np.pi) / np.log(8 / (2 * np.pi) * 64)
    assert abs(got[0] / ring - 1) < 0.01


@pytest.fixture(scope="module")
def direct_errors(circle_spec64):
    """lambda_k / lambda_k^exact - 1 at MODES, direct backend, per n_s."""
    exact = np.array([torus_dtn_eigenvalue(k, circle_spec64.epsilon)
                      for k in MODES])
    errors = {}
    for n_s in MEASURED:
        lam = sv.SlenderBodySolver(make_grid(circle_spec64, n_s, 16),
                                   "direct").dtn_matrix
        errors[n_s] = np.fft.fft(lam[:, 0]).real[list(MODES)] / exact - 1
    return errors


@pytest.mark.parametrize("n_s", sorted(MEASURED))
def test_direct_dtn_eigenvalues_match_the_torus(direct_errors, n_s):
    """Each mode k <= n_s/8 within twice its measured error, at 128x16 and
    256x16."""
    got = np.abs(direct_errors[n_s])
    bound = 2 * np.abs(MEASURED[n_s])
    assert np.all(got <= bound), dict(zip(MODES, got))


def test_direct_dtn_converges_at_second_order(direct_errors):
    """From 128x16 to 256x16 the k = 0 and k = 1 errors fall by at least 4
    (measured orders 3.4 and 6.4)."""
    for i in (0, 1):
        order = np.log2(abs(direct_errors[128][i] / direct_errors[256][i]))
        assert order >= 2, (MODES[i], order)
