"""Krylov-subspace action of the matrix exponential for Hermitian operators.

Computes w = exp(coeff * H) v, or exp(j * coeff * H) v at successive output
times j from one Krylov space, for a purely imaginary ``coeff`` (a unitary
propagator), without materializing H, via the Lanczos recursion with full
reorthogonalization (done as two BLAS-level products per iteration, cheap at
the basis sizes used here), in the scheme of Saad, SIAM J. Numer. Anal. 29,
209 (1992) and Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1911 (1997).  An
output time stops on the defect-integral bound of Hochbruck & Lubich and of
Jawecki, Auzinger & Koch, BIT 60, 157 (2020), which bounds the error of a
unitary propagator in exact arithmetic and needs no apply beyond the basis
it judges.  The small exponential exp(coeff T) e_1 of the tridiagonal
projection T and the bound's integrand come from one numpy ``eigh`` (LAPACK
syevd) of T with its lower triangle filled, and the integral is estimated by
a Gauss-Legendre rule on each step interval, so the module needs numpy only;
both are skipped at iterations where a Taylor bound shows the test cannot
yet pass.  Used for the dense statevector propagator as well as for the
local effective Hamiltonians inside TDVP.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import InvalidConfig

#: Allowance for the rounding error of the computed bound's integrand (the
#: last entry of a coefficient row, of size at most 1), far above it at the
#: basis sizes used here: an iteration skips the exponential only when its
#: Taylor bound clears the test by this much.
_ROW_ROUNDING = 2.0**-40


@dataclass
class LanczosResult:
    """One Krylov space evaluated at the output times it resolves.

    ``state(j)`` forms the state after step j + 1 from its coefficient row,
    so a caller can take the states one at a time without holding them all;
    ``vector`` is the state after the last resolved step.  ``error_bound``
    is the Gauss estimate of the defect-integral bound on ||vector -
    exp(steps coeff H) v|| / ||v||.
    """

    iterations: int
    converged: bool
    coefficients: np.ndarray  # (resolved steps, iterations): rows exp(j coeff T) e_1
    basis: np.ndarray  # (iterations, dim), orthonormal rows
    norm: float
    error_bound: float

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
    through ``matvec`` and ``coeff`` purely imaginary.

    Builds an orthonormal Krylov basis V_k and the real tridiagonal projection
    T_k, then returns ||v|| * V_k exp(j coeff T_k) e_1, with exp(j coeff T_k)
    e_1 from the eigendecomposition of T_k by numpy's ``eigh``.  Its error is
    the integral over u from 0 to j of a unitary propagation of the defect
    coeff beta_k v_(k+1) e_k^T exp(u coeff T_k) e_1, with beta_k the norm of
    the next Krylov vector v_(k+1) before its normalisation, so its norm is
    at most the bound |coeff| beta_k int_0^j |e_k^T exp(u coeff T_k) e_1| du
    (Hochbruck & Lubich 1997; Jawecki, Auzinger & Koch 2020).  The integral
    is estimated by a Gauss-Legendre sum on each unit interval, with the
    ceil(k/2) nodes that integrate the integrand's leading Taylor term
    u^(k-1) exactly; the estimate has held as a bound against scipy's
    ``expm`` for |coeff| ||H|| from 1e-3 to 2 and up to 12 steps.  A step
    is resolved once its bound is at most tol / ``steps``, one step's share
    of ``tol``; with one step this is the plain bound <= tol.  A caller that
    chains spaces, asking each for the steps left with the same ``tol``,
    gets states whose bounds add up to at most tol times the sum of 1 /
    (steps left) over the spaces so far.
    m <= ``steps`` is the longest prefix of steps that one basis of at most
    ``k_max`` vectors resolves (the time-stepping of Sidje, ACM TOMS 24, 130
    (1998)).  Each iteration evaluates only the steps up to twice the prefix
    resolved at the one before, and at least twice the basis size, and only
    when a lower bound on the bound of step 1 does not already exceed tol /
    ``steps``: the leading Taylor term |coeff|^(k-1)
    beta_1 ... beta_(k-1) / (k-1)! of |e_k^T exp(u coeff (T_k - sigma))
    e_1| at u = 1 minus a bound rho^k e^rho / k! on the rest, with rho =
    |coeff| ||T_k - sigma|| from Gershgorin's discs, both divided by k: the
    Gauss sum of that lower bound times u^(k-1) is at least this.  A skipped
    iteration is one whose test would certainly fail, so the skipping never
    changes where a solve stops.  Iteration stops when all ``steps`` are
    resolved, on a happy breakdown (the Krylov space is invariant, so every
    step is exact) or at ``k_max``.  A basis that spans the whole space also
    gives every step exactly, so it reports converged.  With ``steps=1``
    this is the plain single-step solve.

    The basis takes the dtype of ``v`` and H v: real for a real start vector
    under a real operator, which halves its bytes.

    Args:
        matvec: action of the Hermitian operator on a flat vector.
        v: start vector (not necessarily normalized).
        coeff: purely imaginary scalar multiplying H in the exponent, e.g.
            -1j*dt (InvalidConfig for one with a real part).
        k_max: Krylov-basis cap, at least 1 (InvalidConfig otherwise).
        tol: tolerance on the error bound, relative to ||v||, shared
            evenly by the ``steps``.
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
    if complex(coeff).real != 0.0:
        raise InvalidConfig(f"Lanczos needs a purely imaginary coeff, got {coeff}")
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return LanczosResult(iterations=0, converged=True, coefficients=np.ones((steps, 0)),
                             basis=np.empty((0, v.size), dtype=v.dtype), norm=0.0,
                             error_bound=0.0)

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
    abs_c = abs(coeff)
    resolved = 0
    lead = 1.0  # |coeff|^k beta_1 ... beta_k / k!
    lo, hi = math.inf, -math.inf  # Gershgorin hull of the rows with both neighbours
    left = 0.0  # the off-diagonal left of the newest row

    def result(m: int, converged: bool) -> LanczosResult:
        """The first m steps from the basis and the current projection."""
        y, integrals = rows, defects
        if y is None or len(y) < m:
            y, integrals = _expm_tridiag(alphas[: k + 1], betas[:k], coeff, max(m, wanted))
        return LanczosResult(iterations=k + 1, converged=converged, coefficients=y[:m],
                             basis=basis[: k + 1], norm=norm_v,
                             error_bound=abs_c * beta * integrals[m - 1])

    for k in range(k_max):
        if k > 0:
            w = np.ravel(matvec(basis[k]))
        alpha = alphas[k] = np.real(np.vdot(basis[k], w))
        # full reorthogonalization against the basis built so far
        active = basis[: k + 1]
        # (k+1,) coefficients <v_j|w> times basis rows; conjugating the
        # product instead of the basis avoids a copy of the basis
        w -= (active @ w.conj()).conj() @ active
        beta = math.sqrt(np.vdot(w, w).real)
        # rows for twice the steps resolved so far (and at least twice the
        # basis size), so the prefix can double per iteration while the
        # steps far past the basis's reach cost no exponentials
        wanted = min(steps, 2 * (resolved + k + 1))
        rows = defects = None
        if beta <= tol * max(1.0, abs(alpha)):
            # happy breakdown: Krylov space is invariant, every step exact
            return result(steps, True)

        span_lo, span_hi = min(lo, alpha - left), max(hi, alpha + left)
        rho = 0.5 * abs_c * (span_hi - span_lo)
        tail = 0.0 if rho == 0.0 else math.exp(
            min((k + 1) * math.log(rho) + rho - math.lgamma(k + 2), 700.0))
        resolved = 0
        # evaluate the rows unless step 1 certainly fails its test
        if abs_c * beta * ((lead - tail) / (k + 1) - _ROW_ROUNDING) <= tol / steps:
            rows, defects = _expm_tridiag(alphas[: k + 1], betas[:k], coeff, wanted)
            while (resolved < wanted
                   and abs_c * beta * defects[resolved] <= tol / steps):
                resolved += 1
            if resolved == steps:
                return result(steps, True)
        betas[k] = beta
        lo, hi = min(lo, alpha - left - beta), max(hi, alpha + left + beta)
        left = beta
        lead *= abs_c * beta / (k + 1)
        if k + 1 < k_max:
            _divide(w, beta, out=basis[k + 1])

    if k_max == dim:
        return result(steps, True)
    return result(max(resolved, 1), resolved > 0)


def _divide(w: np.ndarray, beta: float, out: np.ndarray) -> None:
    """out = w / beta, bit for bit as numpy divides a finite w.

    numpy divides a complex w by beta + 0j with Smith's scheme, one element
    at a time: (re + im * 0) * (1 / beta) and (im - re * 0) * (1 / beta).  A
    multiply by 1 - 0j forms the same signed sums in one vectorised pass and
    the float64 view scales them by 1 / beta, in a third of the time at
    dimension 4096.  A real w is divided as it is.
    """
    if out.dtype.kind != "c":
        np.divide(w, beta, out=out)
        return
    np.multiply(w, complex(1.0, -0.0), out=out)  # the literal 1 - 0j is 1 + 0j
    flat = out.view(np.float64)
    flat *= 1.0 / beta


def _combine(y: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """y @ basis without a complex copy of a real basis."""
    if basis.dtype.kind == "c":
        return y @ basis
    out = (y.real @ basis).astype(complex)
    out.imag = y.imag @ basis
    return out


@functools.cache
def _gauss_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1] of the ceil(k/2)-point Gauss-Legendre
    rule, exact for polynomials of degree k - 1 and below."""
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss((k + 1) // 2)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def _expm_tridiag(
    alphas: np.ndarray, betas: np.ndarray, coeff: complex, steps: int = 1
) -> tuple[np.ndarray, np.ndarray]:
    """Rows exp(j * coeff * T) e_1 and the integrals int_0^j |e_k^T exp(u *
    coeff * T) e_1| du, j = 1 ... ``steps``, for the k x k real symmetric
    tridiagonal T and an imaginary ``coeff``.

    T has ``alphas`` on its diagonal and ``betas`` off it.  numpy's ``eigh``
    reads only the lower triangle of its dense input, so the betas go on the
    subdiagonal; the upper triangle stays zero.  With T = Q diag(lambda) Q^T
    the integrand is |sum_i Q[k-1, i] Q[0, i] exp(u coeff lambda_i)|; on the
    interval from j - 1 to j the factor exp((j - 1) coeff lambda_i) is the
    phase of step j - 1 (1 for j = 1), and the rest is taken at the nodes
    of ``_gauss_rule``.
    """
    k = len(alphas)
    if k == 1:  # the integrand is |exp(u coeff alpha)| = 1
        times = np.arange(1, steps + 1)
        return np.exp(coeff * times * alphas[0])[:, None], times.astype(float)
    t = np.zeros((k, k))
    t.flat[:: k + 1] = alphas
    t.flat[k :: k + 1] = betas
    eigvals, eigvecs = np.linalg.eigh(t)
    nodes, weights = _gauss_rule(k)
    ends = eigvecs[-1] * eigvecs[0]
    at_nodes = np.exp(np.multiply.outer(coeff * nodes, eigvals))
    if steps == 1:  # one matrix-vector product each, as every TDVP solve makes
        rows = (eigvecs @ (np.exp(coeff * eigvals) * eigvecs[0]))[None]
        return rows, (np.abs(at_nodes @ ends) @ weights)[None]
    phases = np.exp(np.multiply.outer(coeff * np.arange(1, steps + 1), eigvals))
    rows = (phases * eigvecs[0]) @ eigvecs.T
    starts = np.vstack([ends, phases[:-1] * ends])
    return rows, np.cumsum(np.abs(starts @ at_nodes.T) @ weights)
