"""Dense linear-algebra primitives used by the curvature and pruning code.

All routines work on float64 numpy arrays.  Matrices are ordinary 2-D
arrays.  The explicit Kronecker product and the vec/unvec pair live in
``oracle``: only the checks build them.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, SingularityError, ValidationError

# Relative asymmetry tolerated by sym_eig before it refuses the input.
SYM_TOL = 1e-6

# Ridge scale for the normal-equations solver.
LSTSQ_RIDGE = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a float64 2-D array."""
    a = np.asarray(m, dtype=np.float64)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} contains NaN or Inf")
    return a


def khatri_rao(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product of two float64 matrices with equal
    column counts.  Entries are not checked: a non-finite one gives a
    non-finite product column."""
    if a.shape[1] != b.shape[1]:
        raise DimensionError(
            f"khatri_rao needs equal column counts, got {a.shape[1]} and {b.shape[1]}"
        )
    m, r = a.shape
    n = b.shape[0]
    # column j is kron(a[:, j], b[:, j]); a's row index varies slower
    return (a[:, None, :] * b[None, :, :]).reshape(m * n, r)


def sym_eig(m) -> tuple:
    """(values, vectors) of a (numerically) symmetric matrix: the
    eigenvalues in descending order and the matching orthonormal
    eigenvectors in the columns of a C-contiguous matrix.

    The input is symmetrized as (m + m.T)/2 first.  Asymmetry beyond
    ``SYM_TOL`` relative Frobenius norm is treated as a bug in the caller
    and raises instead of being hidden.
    """
    a = as_matrix(m, "sym_eig input")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"sym_eig needs a square matrix, got {a.shape}")
    scale = np.linalg.norm(a)
    asym = np.linalg.norm(a - a.T)
    if asym > SYM_TOL * max(scale, 1e-30):
        raise ValidationError(
            f"matrix is asymmetric beyond tolerance (rel {asym / max(scale, 1e-30):.3e})"
        )
    sym = (a + a.T) / 2.0
    values, vectors = np.linalg.eigh(sym)
    order = np.argsort(values)[::-1]
    # a C-ordered copy: the GEMMs that read the basis round by operand layout
    return values[order], vectors[:, order].copy()


def ridge_solve(a: np.ndarray, b: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Least-squares solve of ``a @ x = b`` via ridge-stabilized normal equations.

    ``a`` is an (n, r) and ``b`` an (n, k) float64 matrix, both finite, and
    ``eye`` is ``np.eye(r)``: a caller that solves many systems checks its
    inputs and builds ``eye`` once.  The ridge is tied to the scale of
    ``a.T @ a`` so well-posed systems are perturbed negligibly.  A system
    that stays singular even with the ridge (for example an all-zero
    ``a``), or a non-finite solution, raises SingularityError.
    """
    gram = a.T @ a
    gram += (LSTSQ_RIDGE * gram.trace() / len(eye)) * eye
    try:
        x = np.linalg.solve(gram, a.T @ b)
    except np.linalg.LinAlgError as exc:
        raise SingularityError(f"normal equations singular beyond ridge: {exc}") from exc
    if not np.isfinite(x).all():
        raise SingularityError("normal equations produced non-finite solution")
    return x
