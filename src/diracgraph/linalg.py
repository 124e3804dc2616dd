"""Small dense linear algebra helpers with explicit rank tolerances.

Every rank decision here (:func:`numeric_rank`, :func:`null_space`,
:func:`orthonormal_columns` and what is built on them) goes through one
cutoff rule, ``_rank``: a singular value counts as nonzero when it exceeds
``rtol`` times the largest singular value.  The spectrum solvers' rank test
of ``diag(exp(i lambda l)) - A`` measures against the operand scale instead
and lives in :mod:`diracgraph.spectrum`.
"""

from __future__ import annotations

import numpy as np

# Relative singular value cutoff used for rank decisions unless a caller
# overrides it.
RANK_RTOL = 1e-12

# Tolerance for subspace equality tests (rank comparisons of stacked bases).
SUBSPACE_TOL = 1e-10


def _rank(s: np.ndarray, rtol: float) -> int:
    """Count of the singular values ``s`` (descending) above ``rtol * s[0]``."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def numeric_rank(m: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Rank of ``m`` with singular values below ``rtol * smax`` treated as zero."""
    m = np.atleast_2d(np.asarray(m))
    if m.size == 0:
        return 0
    return _rank(np.linalg.svd(m, compute_uv=False), rtol)


def null_space(m: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ``{x : m @ x = 0}`` as columns.

    Returns an ``(ncols, k)`` array; ``k = ncols - rank(m)``.
    """
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows, cols = m.shape
    if m.size == 0 or rows == 0:
        return np.eye(cols, dtype=complex)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    return vh[_rank(s, RANK_RTOL):].conj().T


def orthonormal_columns(m: np.ndarray, rtol: float = RANK_RTOL) -> np.ndarray:
    """Orthonormal basis of the column span of ``m`` (SVD based, rank revealing)."""
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    if m.shape[1] == 0:
        return m.copy()
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    return u[:, : _rank(s, rtol)]


def spans_equal(a: np.ndarray, b: np.ndarray, rtol: float = SUBSPACE_TOL) -> bool:
    """Whether the column spans of ``a`` and ``b`` coincide.

    Both inputs are orthonormalized first, then the test reduces to
    ``rank([a b]) == rank(a) == rank(b)`` with the given singular value
    tolerance.
    """
    qa = orthonormal_columns(a)
    qb = orthonormal_columns(b)
    ra, rb = qa.shape[1], qb.shape[1]
    if ra != rb:
        return False
    if ra == 0:
        return True
    stacked = np.hstack([qa, qb])
    return numeric_rank(stacked, rtol) == ra


def intersection_dim(a: np.ndarray, b: np.ndarray, rtol: float = RANK_RTOL) -> int:
    """Dimension of the intersection of two column spans."""
    qa = orthonormal_columns(a, rtol)
    qb = orthonormal_columns(b, rtol)
    if qa.shape[1] == 0 or qb.shape[1] == 0:
        return 0
    stacked = np.hstack([qa, qb])
    return qa.shape[1] + qb.shape[1] - numeric_rank(stacked, rtol)
