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

Both moments come from one pass over the centred rank matrix C:
:func:`third_moment_offdiag` centres the ranks once and takes the Gram
matrix C_b C_b^T and the row sums of each block of samples
k = b mod ``JACKKNIFE_BLOCKS``, and returns them with C as one read-only
:class:`CentredRanks`.  :func:`covariance_matrix` sums the block Grams,
and :func:`summa.decomposition.recover_rank1_tensor` reads them for its
jackknife.  On rank data every centred entry is a multiple of 1/2, so
every product and partial sum of a Gram entry is an exact float64 while
N (N^2 - 1) / 12 < 2^51 (N up to about 3e5): the block sum then equals
the single product C C^T bit for bit.  On other float input the two may
differ in the last bits.

Third moments are never stored as an M x M x M array:
:func:`summa.decomposition.recover_rank1_tensor` fits the scale of the
tensor (1/N) sum_k c_k (x) c_k (x) c_k along the covariance factor from
power sums over C, in O(MN).  Only the tensor's distinct-index entries
follow the factorization above; an entry with a repeated index pairs a
method with itself, and the fit leaves those entries out.
:func:`third_moment_offdiag` keeps its name, from when it returned those
moments, because the benchmark's tracing wraps it by that name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInput
from .ranking import RankMatrix

# Samples k mod JACKKNIFE_BLOCKS form the blocks whose Gram matrices sum
# to the covariance and whose leave-one-out fits make the tensor stage's
# jackknife.
JACKKNIFE_BLOCKS = 20


@dataclass(frozen=True, eq=False)
class CentredRanks:
    """Centred rank rows with the moments of each block of samples.

    ``c`` is the M x N matrix C of centred rows.  With B =
    min(``JACKKNIFE_BLOCKS``, N) and C_b the samples k = b mod B,
    ``grams[b]`` is C_b C_b^T (B x M x M) and ``block_sums[b]`` the row
    sums of C_b (B x M).  All three arrays are read-only.
    """

    c: np.ndarray
    grams: np.ndarray
    block_sums: np.ndarray

    @classmethod
    def from_centred(cls, c: np.ndarray) -> "CentredRanks":
        """One pass over a centred M x N float matrix for the block
        moments; ``c`` itself is kept, behind a read-only view."""
        m, n = c.shape
        blocks = min(JACKKNIFE_BLOCKS, n)
        grams = np.empty((blocks, m, m))
        block_sums = np.empty((blocks, m))
        for b in range(blocks):
            # a contiguous copy of the block, which matmul takes several times faster
            part = np.ascontiguousarray(c[:, b::blocks])
            grams[b] = part @ part.T
            block_sums[b] = part.sum(axis=1)
        c = c.view()
        for arr in (c, grams, block_sums):
            arr.setflags(write=False)
        return cls(c, grams, block_sums)


def _as_rank_array(ranks) -> np.ndarray:
    if isinstance(ranks, RankMatrix):
        return np.asarray(ranks.ranks, dtype=float)
    arr = np.atleast_2d(np.asarray(ranks, dtype=float))
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InvalidInput("ranks must form an M x N matrix with N >= 2")
    return arr


def covariance_matrix(ranks) -> np.ndarray:
    """Population covariance (1/N) of the M rank rows, the sum of the
    block Gram matrices over N.

    ``ranks`` is a :class:`CentredRanks`, or ranks, which are centred
    first by :func:`third_moment_offdiag`.
    """
    if not isinstance(ranks, CentredRanks):
        ranks = third_moment_offdiag(ranks)
    return ranks.grams.sum(axis=0) / ranks.c.shape[1]


def third_moment_offdiag(ranks) -> CentredRanks:
    """The centred rank rows C (M x N) with their block moments.

    C is the sample form of the third moments: that of methods i, j, l
    is mean(c_i c_j c_l), and
    :func:`summa.decomposition.recover_rank1_tensor` takes the tensor of
    those moments straight from C.
    """
    r = _as_rank_array(ranks)
    return CentredRanks.from_centred(r - r.mean(axis=1, keepdims=True))
