"""Krylov-subspace action of the matrix exponential for Hermitian operators.

Computes w = exp(coeff * H) v, or exp(j * coeff * H) v at successive output
times j from one Krylov space, without materializing H, via the Lanczos
recursion with full reorthogonalization (done as two BLAS-level products per
iteration, cheap at the basis sizes used here), in the scheme of Saad, SIAM
J. Numer. Anal. 29, 209 (1992) and Hochbruck & Lubich, SIAM J. Numer. Anal.
34, 1911 (1997).  The small exponential exp(coeff T) e_1 of the tridiagonal
projection T comes from numpy's ``eigh`` (LAPACK syevd) on T with its lower
triangle filled, so the module needs numpy only.  Used for the dense
statevector propagator as well as for the local effective Hamiltonians
inside TDVP.
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
    """One Krylov space evaluated at the output times it resolves.

    ``state(j)`` forms the state after step j + 1 from its coefficient row,
    so a caller can take the states one at a time without holding them all;
    ``vector`` is the state after the last resolved step.
    """

    iterations: int
    converged: bool
    coefficients: np.ndarray  # (resolved steps, iterations): rows exp(j coeff T) e_1
    basis: np.ndarray  # (iterations, dim), orthonormal rows
    norm: float

    @property
    def steps(self) -> int:
        return len(self.coefficients)

    def state(self, j: int) -> np.ndarray:
        return self.norm * _combine(self.coefficients[j], self.basis)

    @property
    def vector(self) -> np.ndarray:
        return self.state(self.steps - 1)


def expm_lanczos(
    matvec: Callable[[np.ndarray], np.ndarray],
    v: np.ndarray,
    coeff: complex,
    k_max: int,
    tol: float,
    steps: int = 1,
) -> LanczosResult:
    """Approximate exp(j * coeff * H) v for j = 1 ... m, Hermitian H given
    through ``matvec``.

    Builds an orthonormal Krylov basis V_k and the real tridiagonal projection
    T_k, then returns ||v|| * V_k exp(j coeff T_k) e_1, with exp(j coeff T_k)
    e_1 from the eigendecomposition of T_k by numpy's ``eigh``.  Step j is
    resolved once its coefficient vector moves by less than ``tol`` between
    iterations; m <= ``steps`` is the longest prefix of steps that one basis
    of at most ``k_max`` vectors resolves (the time-stepping of Sidje, ACM
    TOMS 24, 130 (1998)).  Each iteration evaluates only the steps up to
    twice the prefix resolved at the one before, and at least twice the
    basis size.  Iteration stops when all ``steps`` are resolved, on a happy
    breakdown (the Krylov space is invariant, so every step is exact) or at
    ``k_max``.  A basis that spans the whole space also gives every step
    exactly, so it reports converged.  With ``steps=1`` this is the plain
    single-step solve.

    The basis takes the dtype of ``v`` and H v: real for a real start vector
    under a real operator, which halves its bytes.

    Args:
        matvec: action of the Hermitian operator on a flat vector.
        v: start vector (not necessarily normalized).
        coeff: scalar multiplying H in the exponent, e.g. -1j*dt.
        k_max: Krylov-basis cap, at least 1 (InvalidConfig otherwise).
        tol: relative tolerance on the local coefficient vector.
        steps: number of output times j * coeff wanted, at least 1
            (InvalidConfig otherwise).

    Returns:
        LanczosResult with at least one step.  When not even step 1 is
        resolved within ``k_max`` vectors, it holds step 1 with
        ``converged`` false: non-convergence is reported, not raised.
    """
    if k_max < 1:
        raise InvalidConfig(f"Lanczos needs k_max >= 1, got {k_max}")
    if steps < 1:
        raise InvalidConfig(f"Lanczos needs steps >= 1, got {steps}")
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return LanczosResult(iterations=0, converged=True, coefficients=np.ones((steps, 0)),
                             basis=np.empty((0, v.size), dtype=v.dtype), norm=0.0)

    dim = v.size
    k_max = min(k_max, dim)
    basis = np.empty((k_max, dim), dtype=np.result_type(v, 1.0))
    basis[0] = np.ravel(v) / norm_v
    w = np.ravel(matvec(basis[0]))
    if np.result_type(basis, w) != basis.dtype:  # a complex operator on a real start
        start, basis = basis[0], np.empty((k_max, dim), dtype=np.result_type(basis, w))
        basis[0] = start
    alphas = np.empty(k_max)
    betas = np.empty(k_max)
    y_prev: np.ndarray | None = None
    resolved = 0

    def result(m: int, converged: bool) -> LanczosResult:
        """The first m steps from the basis and the current projection."""
        rows = y if len(y) >= m else _expm_tridiag_e1(alphas[: k + 1], betas[:k], coeff, m)
        return LanczosResult(iterations=k + 1, converged=converged, coefficients=rows[:m],
                             basis=basis[: k + 1], norm=norm_v)

    for k in range(k_max):
        if k > 0:
            w = np.ravel(matvec(basis[k]))
        alphas[k] = np.real(np.vdot(basis[k], w))
        # full reorthogonalization against the basis built so far
        active = basis[: k + 1]
        # (k+1,) coefficients <v_j|w> times basis rows; conjugating the
        # product instead of the basis avoids a copy of the basis
        w -= (active @ w.conj()).conj() @ active
        beta = math.sqrt(np.vdot(w, w).real)
        breakdown = beta <= tol * max(1.0, abs(alphas[k]))

        if k < 2 and k + 1 < k_max and not breakdown:
            # exp(T_k) e1 cannot have settled with a growing 2-vector basis;
            # skip the spectral solve until the basis can resolve it
            betas[k] = beta
            np.divide(w, beta, out=basis[k + 1])
            continue

        # rows for twice the steps resolved so far (and at least twice the
        # basis size), so the prefix can double per iteration while the
        # steps far past the basis's reach cost no exponentials
        y = _expm_tridiag_e1(alphas[: k + 1], betas[:k], coeff, min(steps, 2 * (resolved + k + 1)))
        if y_prev is not None:
            tested = min(len(y), len(y_prev))
            resolved = 0
            while resolved < tested and _update_size(y[resolved], y_prev[resolved]) <= tol:
                resolved += 1
            if resolved == steps:
                return result(steps, True)
        if breakdown:
            # happy breakdown: Krylov space is invariant, every step exact
            return result(steps, True)
        y_prev = y
        betas[k] = beta
        if k + 1 < k_max:
            np.divide(w, beta, out=basis[k + 1])

    if k_max == dim:
        return result(steps, True)
    return result(max(resolved, 1), resolved > 0)


def _combine(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """y @ basis without a complex copy of a real basis."""
    if basis.dtype.kind == "c":
        return y @ basis
    out = (y.real @ basis).astype(complex)
    out.imag = y.imag @ basis
    return out


def _update_size(y: np.ndarray, y_prev: np.ndarray) -> float:
    d = y[:-1] - y_prev
    return math.sqrt(np.vdot(d, d).real) + abs(y[-1])


def _expm_tridiag_e1(
    alphas: np.ndarray, betas: np.ndarray, coeff: complex, steps: int = 1
) -> np.ndarray:
    """Rows exp(j * coeff * T) e_1, j = 1 ... ``steps``, for the real
    symmetric tridiagonal T.

    T has ``alphas`` on its diagonal and ``betas`` off it.  numpy's ``eigh``
    reads only the lower triangle of its dense input, so the betas go on the
    subdiagonal; the upper triangle stays zero.
    """
    k = len(alphas)
    if k == 1:
        return np.exp(coeff * np.arange(1, steps + 1) * alphas[0])[:, None]
    t = np.zeros((k, k))
    t.flat[:: k + 1] = alphas
    t.flat[k :: k + 1] = betas
    eigvals, eigvecs = _eigh_lower(t)
    if math.isnan(eigvals[0]):  # pragma: no cover - syevd failure on a tiny tridiagonal
        raise np.linalg.LinAlgError("eigh did not converge on the Lanczos projection")
    if steps == 1:  # one matrix-vector product, as every TDVP solve makes
        return (eigvecs @ (np.exp(coeff * eigvals) * eigvecs[0]))[None]
    times = coeff * np.arange(1, steps + 1)
    return (np.exp(np.multiply.outer(times, eigvals)) * eigvecs[0]) @ eigvecs.T
