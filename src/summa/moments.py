"""Second- and third-order central moments of rank predictions.

For methods that rank samples independently given the latent class, the
order-l central moment over any l distinct methods factorizes as

    Q_l = rho (1 - rho) (rho^(l-1) - (rho - 1)^(l-1)) * prod_j delta_j

where rho is the positive-class prevalence and delta_j the conditional
mean-rank difference of method j.  At l = 2 this gives the off-diagonal
covariance rho(1-rho) delta_i delta_j; at l = 3 the factor in front of
the product is rho(1-rho)(2 rho - 1), so the third moment's sign tells
which class is the majority.

Covariances are population-normalized (divide by N): that is what makes
the variance of a tie-free rank row exactly (N^2 - 1) / 12.

Third moments are never stored as an M x M x M array:
:func:`third_moment_offdiag` returns the centred rank matrix C, and
:func:`summa.decomposition.recover_rank1_tensor` fits the scale of the
tensor (1/N) sum_k c_k (x) c_k (x) c_k along the covariance factor from
power sums over C, in O(MN).  Only the tensor's distinct-index entries
follow the factorization above; an entry with a repeated index pairs a
method with itself, and the fit leaves those entries out.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInput
from .ranking import RankMatrix


def _as_rank_array(ranks) -> np.ndarray:
    if isinstance(ranks, RankMatrix):
        return np.asarray(ranks.ranks, dtype=float)
    arr = np.atleast_2d(np.asarray(ranks, dtype=float))
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InvalidInput("ranks must form an M x N matrix with N >= 2")
    return arr


def covariance_matrix(ranks) -> np.ndarray:
    """Population covariance (1/N) of the M rank rows."""
    r = _as_rank_array(ranks)
    centered = r - r.mean(axis=1, keepdims=True)
    return centered @ centered.T / r.shape[1]


def third_moment_offdiag(ranks) -> np.ndarray:
    """Centred rank rows C (M x N), the sample form of the third moments.

    The central third moment of methods i, j, l is mean(c_i c_j c_l);
    :func:`summa.decomposition.recover_rank1_tensor` takes the tensor
    of those moments straight from C.
    """
    r = _as_rank_array(ranks)
    return r - r.mean(axis=1, keepdims=True)
