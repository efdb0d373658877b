"""Krylov-subspace action of the matrix exponential for Hermitian operators.

Computes w = exp(coeff * H) v without materializing H, via the Lanczos
recursion with full reorthogonalization (done as two BLAS-level products per
iteration, cheap at the basis sizes used here), in the scheme of Saad, SIAM
J. Numer. Anal. 29, 209 (1992) and Hochbruck & Lubich, SIAM J. Numer. Anal.
34, 1911 (1997).  The small exponential exp(coeff T) e_1 of the tridiagonal
projection T comes from numpy's ``eigh`` (LAPACK syevd) on T with its lower
triangle filled, so the module needs numpy only.  Used for the dense
statevector propagator as well as for the local effective Hamiltonians
inside two-site TDVP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import math

import numpy as np

# The gufunc that np.linalg.eigh calls for a float64 matrix (LAPACK syevd on
# the lower triangle), called directly: inside a TDVP step the wrapper's
# argument checks and error-state context cost as much as the solve itself.
# On failure it returns NaNs instead of raising.
from numpy.linalg._umath_linalg import eigh_lo as _eigh_lower

from .errors import InvalidConfig


@dataclass
class LanczosResult:
    vector: np.ndarray
    iterations: int
    converged: bool


def expm_lanczos(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    coeff: complex,
    k_max: int,
    tol: float,
) -> LanczosResult:
    """Approximate exp(coeff * H) v for Hermitian H given through ``matvec``.

    Builds an orthonormal Krylov basis V_k and the real tridiagonal projection
    T_k, then returns ||v|| * V_k exp(coeff T_k) e_1, with exp(coeff T_k) e_1
    from the eigendecomposition of T_k by numpy's ``eigh``.  Iteration stops
    on a happy breakdown (the Krylov space is invariant, so the result is
    exact) or once the coefficient vector exp(coeff T_k) e_1 moves by less
    than ``tol`` between iterations.  A basis that spans the whole space also
    gives the exact result, so it reports converged.

    Args:
        matvec: action of the Hermitian operator on a flat complex vector.
        v: start vector (not necessarily normalized).
        coeff: scalar multiplying H in the exponent, e.g. -1j*dt.
        k_max: Krylov-basis cap, at least 1 (InvalidConfig otherwise);
            non-convergence at k_max is reported through ``converged``, not
            raised.
        tol: relative tolerance on the local coefficient vector.

    Returns:
        LanczosResult with the evolved vector, the basis size used, and a
        convergence flag.
    """
    if k_max < 1:
        raise InvalidConfig(f"Lanczos needs k_max >= 1, got {k_max}")
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return LanczosResult(vector=v.copy(), iterations=0, converged=True)

    dim = v.size
    k_max = min(k_max, dim)
    basis = np.empty((k_max, dim), dtype=complex)
    basis[0] = np.ravel(v) / norm_v
    alphas = np.empty(k_max)
    betas = np.empty(k_max)
    y_prev: np.ndarray | None = None

    for k in range(k_max):
        w = np.ravel(matvec(basis[k]))
        alphas[k] = np.real(np.vdot(basis[k], w))
        # full reorthogonalization against the basis built so far
        active = basis[: k + 1]
        # (k+1,) coefficients <v_j|w> times basis rows; conjugating the
        # product instead of the basis avoids a copy of the basis
        w -= (active @ w.conj()).conj() @ active
        beta = math.sqrt(np.vdot(w, w).real)

        if k < 2 and k + 1 < k_max and beta > tol * max(1.0, abs(alphas[k])):
            # exp(T_k) e1 cannot have settled with a growing 2-vector basis;
            # skip the spectral solve until the basis can resolve it
            betas[k] = beta
            np.divide(w, beta, out=basis[k + 1])
            continue

        y = _expm_tridiag_e1(alphas[: k + 1], betas[:k], coeff)
        if y_prev is not None and _update_size(y, y_prev) <= tol:
            return LanczosResult(
                vector=norm_v * (y @ basis[: k + 1]), iterations=k + 1, converged=True
            )
        if beta <= tol * max(1.0, abs(alphas[k])):
            # happy breakdown: Krylov space is invariant, result exact
            return LanczosResult(
                vector=norm_v * (y @ basis[: k + 1]), iterations=k + 1, converged=True
            )
        y_prev = y
        betas[k] = beta
        if k + 1 < k_max:
            np.divide(w, beta, out=basis[k + 1])

    return LanczosResult(vector=norm_v * (y @ basis), iterations=k_max, converged=k_max == dim)


def _update_size(y: np.ndarray, y_prev: np.ndarray) -> float:
    d = y[:-1] - y_prev
    return math.sqrt(np.vdot(d, d).real) + abs(y[-1])


def _expm_tridiag_e1(alphas: np.ndarray, betas: np.ndarray, coeff: complex) -> np.ndarray:
    """exp(coeff * T) e_1 for the real symmetric tridiagonal T.

    T has ``alphas`` on its diagonal and ``betas`` off it.  numpy's ``eigh``
    reads only the lower triangle of its dense input, so the betas go on the
    subdiagonal; the upper triangle stays zero.
    """
    k = len(alphas)
    if k == 1:
        return np.array([np.exp(coeff * alphas[0])])
    t = np.zeros((k, k))
    t.flat[:: k + 1] = alphas
    t.flat[k :: k + 1] = betas
    eigvals, eigvecs = _eigh_lower(t)
    if math.isnan(eigvals[0]):  # pragma: no cover - syevd failure on a tiny tridiagonal
        raise np.linalg.LinAlgError("eigh did not converge on the Lanczos projection")
    return eigvecs @ (np.exp(coeff * eigvals) * eigvecs[0, :])
