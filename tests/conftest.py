import mpmath as mp
import numpy as np
import pytest

from klstab import ReconstructionSpec, template
from klstab.boundary import BoundaryCondition, build_calB

# Golden rationals displayed for the third-order reconstruction at sigma = 0.4, r = 2.
Y_MINUS_GOLDEN = np.array([[-12 / 5, 1753 / 600], [-7 / 5, 613 / 600]])
Y_PLUS_GOLDEN = np.array([[-2 / 5, 73 / 600], [3 / 5, 133 / 600]])
B_GOLDEN = np.array([[1371 / 97, 526 / 97], [554 / 97, 143 / 97]])


def o3_calB_golden(lam: float) -> np.ndarray:
    """The eliminated boundary matrix for the third-order scheme, R^{3,0}, sigma=0.4."""
    return np.array(
        [
            [
                180 * lam**2 / 97 + 277 * lam / 97 + 1,
                120 * lam**2 / 97 + 23 * lam / 97,
                0.0,
            ],
            [
                263 * lam**3 / 582 + lam**2 / 2 + 14 * lam / 291,
                217 * lam**3 / 291 - lam**2 - 217 * lam / 291 + 1,
                -lam * (lam - 1) * (lam - 2) / 6,
            ],
        ]
    )


def o3_Btilde_golden(lam: float, s0: complex, s1: complex) -> np.ndarray:
    """The reduced 2x2 boundary matrix as a function of the recurrence coefficients."""
    return np.array(
        [
            [
                180 * lam**2 / 97 + 277 * lam / 97 + 1,
                120 * lam**2 / 97 + 23 * lam / 97,
            ],
            [
                (263 + 97 * s0) * lam**3 / 582
                + (1 - s0) * lam**2 / 2
                + (14 + 97 * s0) * lam / 291,
                (434 + 97 * s1) * lam**3 / 582
                - (2 + s1) * lam**2 / 2
                - (217 - 97 * s1) * lam / 291
                + 1,
            ],
        ],
        dtype=complex,
    )


def brute_roots(coeffs_ascending) -> np.ndarray:
    """Independent root oracle: companion-matrix eigenvalues via numpy."""
    cs = np.trim_zeros(np.asarray(coeffs_ascending, dtype=complex), "b")
    return np.roots(cs[::-1])


def mp_roots(s, z) -> list:
    """Every finite root of P_z in mpmath, 40 digits, z an mpmath or Python number.

    P_z's exactly-zero end coefficients are trimmed first: low ones are roots
    at 0, high ones roots at infinity; ``mp.polyroots`` finds the rest.
    """
    with mp.workdps(40):
        cs = [mp.mpc(a) for a in s.coeff_array()]
        cs[s.r] -= mp.mpc(z)
        while cs[-1] == 0:
            cs.pop()
        zeros = next(i for i, c in enumerate(cs) if c != 0)
        roots = [mp.mpc(0)] * zeros
        if len(cs) - zeros > 1:
            roots += mp.polyroots(cs[zeros:][::-1], maxsteps=200, extraprec=200)
        return roots


def mp_delta(s, bc, z) -> complex:
    """Third oracle: det(z K[:r] - calB K) / det(K[:r]) in mpmath, 40 digits.

    The r roots of P_z (``mp_roots``) inside the unit circle give the basis
    columns of K.  A repeated root gets confluent columns C(n, q)
    kappa^(n-q), which stay independent at kappa = 0; ``delta_reference``
    refuses repeated roots, so this is the reference there.
    """
    with mp.workdps(40):
        inside = [x for x in mp_roots(s, z) if abs(x) < 1]
        assert len(inside) == s.r, f"{len(inside)} roots inside, r = {s.r}"
        groups: list[list] = []
        for x in inside:
            for g in groups:
                if abs(g[0] - x) < 1e-15:
                    g.append(x)
                    break
            else:
                groups.append([x])
        k_full = mp.matrix(bc.m, s.r)
        col = 0
        for g in groups:
            kappa = g[0]
            for q in range(len(g)):
                for n in range(q, bc.m):
                    k_full[n, col] = mp.binomial(n, q) * kappa ** (n - q)
                col += 1
        k_top = k_full[: s.r, :]
        calB = mp.matrix(build_calB(bc.B, s).tolist())
        return complex(mp.det(mp.mpc(z) * k_top - calB * k_full) / mp.det(k_top))


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


@pytest.fixture
def o3():
    return template("o3")


@pytest.fixture
def lw5():
    return template("lw5")


@pytest.fixture
def upwind():
    return template("upwind")


@pytest.fixture
def naive():
    return template("naive_average")


def recon_bc(tmpl, lam: float, d: int, k_d: int, sigma: float) -> BoundaryCondition:
    scheme = tmpl(lam)
    return BoundaryCondition.from_reconstruction(
        ReconstructionSpec(d=d, k_d=k_d, sigma=sigma), scheme
    )
