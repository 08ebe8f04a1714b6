"""Nonnegative least squares via the Lawson-Hanson active-set method.

Solves min ||Ax - b||^2 subject to x >= 0 by moving columns between a passive
(free) and an active (clamped-at-zero) set until the Karush-Kuhn-Tucker
conditions hold: the gradient g = A^T(Ax - b) must vanish on the passive set
and be nonnegative on the active set, both within a tolerance scaled by
||A^T A||_inf.

Each passive set P needs the unconstrained least-squares solution on the
columns in P.  The solve runs in two phases:

* Phase 1 solves the normal equations ``(A^T A)[P, P] z = (A^T b)[P]`` from
  the Gram matrix the KKT test already needs (Bro & De Jong's FNNLS,
  J. Chemometrics 11:393, 1997).  That is a small dense solve instead of an
  SVD of the m x |P| column block, so the search over passive sets is cheap.
* When the KKT test first says stop, the final passive set is solved once
  more with ``lstsq`` on ``A[:, P]`` (the polish), and the KKT test runs
  again from that point.
* Phase 2 is plain Lawson-Hanson with every passive set solved by ``lstsq``.
  It starts at the polish, or at once, with the outer-iteration count kept,
  when phase 1 runs into trouble: a singular Gram block or a non-finite
  solution.

The normal equations square the condition number of ``A[:, P]``: on the
narrow, closely spaced camera responses of a band fit, Gram solves alone put
the weights up to about 1e-11 off.  That error is small enough that phase 1
still ends on the passive set an all-lstsq search ends on, and the polish
then solves that set exactly as such a search does, so the returned x is the
same to the bit (tests compare both on band fits and random problems).  If
phase 1 ends elsewhere, the polished point either fails the KKT re-test or is
not strictly positive; phase 2 then adds a column or takes the usual blocking
step from the phase-1 iterate, as an all-lstsq search would.

Phase 1 solves a copy of the Gram matrix whose entries below
``sqrt(finfo.tiny) * ||A^T A||_inf`` are zero.  The far Gaussian tails of a
band fit's design matrix leave hundreds of subnormal numbers in ``A^T A``,
and arithmetic on subnormals is slow: the final 144 x 144 block of band B8
solved in 0.64 ms against 0.25 ms without them.  Entries that small
cannot move a solve that the polish redoes anyway, and the threshold is
relative so that a scaled problem takes the same path.  The gradient, the
KKT tests, the polish and phase 2 use ``A^T A`` and ``A`` unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import INDEX, NONNEGATIVE, SolverError, ValidationError, array, parameter

__all__ = ["nnls", "kkt_residuals"]


def _system(A, b) -> tuple[np.ndarray, np.ndarray]:
    """`A` as a float64 matrix with at least one column and `b` raveled to one
    value per row of `A`, both finite."""
    A = array("A", A, ValidationError, ndim=2, finite=True)
    b = array("b", b, ValidationError, finite=True).ravel()
    if A.shape[1] < 1:
        raise ValidationError("A must have at least one column")
    if b.shape[0] != A.shape[0]:
        raise ValidationError(f"b length {b.shape[0]} does not match {A.shape[0]} rows")
    return A, b


def kkt_residuals(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> tuple[float, float]:
    """KKT measures for a candidate solution.

    Returns ``(stationarity, feasck)`` where ``stationarity`` is
    max |g_j| over x_j > 0 and ``feasck`` is min g_j over x_j == 0
    (so a valid solution has small stationarity and feasck >= -tolerance).
    """
    A, b = _system(A, b)
    x = array("x", x, ValidationError, ndim=1, finite=True)
    if x.shape[0] != A.shape[1]:
        raise ValidationError(f"x length {x.shape[0]} does not match {A.shape[1]} columns")
    g = A.T @ (A @ x - b)
    pos = x > 0
    stat = float(np.max(np.abs(g[pos]))) if pos.any() else 0.0
    feas = float(np.min(g[~pos])) if (~pos).any() else 0.0
    return stat, feas


def nnls(
    A: np.ndarray,
    b: np.ndarray,
    tol: float = 1e-10,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve min ||Ax - b||^2 with x >= 0.

    `tol` is relative: KKT conditions are enforced within
    ``tol * ||A^T A||_inf``.  That bound grows as s**2 when `A` is scaled by
    s, while the gradient grows only as s, so a scaled problem stops
    earlier: the first band fit of the default camera ends with 86 positive
    weights, with 51 for ``1e6 * A`` and at x = 0 for ``1e13 * A``, whose
    bound exceeds every gradient entry at the start.  ``tol=1e-16`` gives
    ``1e6 * A`` its 86 weights back, within 2.6e-14 of the unscaled fit
    once rescaled.  The default stays, as band fits depend on it to the
    bit.  `max_iter` defaults to 3 times the column
    count; exceeding it raises :class:`SolverError` carrying the best
    iterate found so far in ``best_x``.
    """
    A, b = _system(A, b)
    m, n = A.shape
    tol = parameter("tol", tol, *NONNEGATIVE, ValidationError)
    max_iter = parameter("max_iter", 3 * n if max_iter is None else max_iter, *INDEX,
                         ValidationError)

    AtA = A.T @ A
    Atb = A.T @ b
    scale = float(np.max(np.abs(AtA).sum(axis=1)))  # ||A^T A||_inf
    kkt_eps = tol * scale if scale > 0 else tol
    gram = np.where(np.abs(AtA) < np.sqrt(np.finfo(float).tiny) * scale, 0.0, AtA)

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    outer = 0
    exact = False  # phase 2: passive sets are solved with lstsq
    while True:
        w = Atb - AtA @ x  # negative gradient
        w_masked = np.where(passive, -np.inf, w)
        j = int(np.argmax(w_masked))  # ties resolve to the lowest index
        if passive.all() or w_masked[j] <= kkt_eps:
            if exact or not passive.any():
                break
            exact = True  # polish the final passive set, then test again
        else:
            outer += 1
            if outer > max_iter:
                raise SolverError(
                    f"no convergence after {max_iter} iterations", best_x=x.copy()
                )
            passive[j] = True

        # inner loop: keep the passive-set least-squares solution feasible
        while True:
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            if not exact:
                try:
                    z[cols] = np.linalg.solve(gram[np.ix_(cols, cols)], Atb[cols])
                except np.linalg.LinAlgError:
                    exact = True
                else:
                    exact = not np.isfinite(z).all()
            if exact:
                z[cols], *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if z[cols].min() > 0:
                x = z
                break
            # step toward z until the first passive coordinate hits zero
            blocking = passive & (z <= 0)
            alpha = np.min(x[blocking] / (x[blocking] - z[blocking]))
            x = x + alpha * (z - x)
            hit_zero = passive & (x <= 1e-12 * max(1.0, float(np.max(np.abs(x)))))
            passive[hit_zero] = False
            x[~passive] = 0.0
            if not passive.any():
                break

    return x
