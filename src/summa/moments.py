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
:func:`third_moment_offdiag` centres the ranks straight into the blocks
of samples k = b mod ``JACKKNIFE_BLOCKS`` of a :class:`CentredRanks`,
with the one Gram matrix G = C C^T.  :func:`covariance_matrix` is G / N,
and :func:`summa.decomposition.recover_rank1_tensor` applies its
leave-out covariances from G and the blocks.  On rank data every centred
entry is a multiple of 1/2, so every product and partial sum of a Gram
entry is an exact float64 while N (N^2 - 1) / 12 < 2^51 (N up to about
3e5): G then equals the single product C C^T bit for bit.  On other
float input the two may differ in the last bits.

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

# Samples k mod JACKKNIFE_BLOCKS form the blocks whose leave-one-out
# fits make the tensor stage's jackknife.
JACKKNIFE_BLOCKS = 20


@dataclass(frozen=True, eq=False)
class CentredRanks:
    """The N centred rank columns of C, grouped by jackknife block.

    With B = min(``JACKKNIFE_BLOCKS``, N), ``blocks[b]`` holds the samples
    k = b mod B in order (B x M x ceil(N / B)), zero-padded where block b
    is one sample short, which adds exactly 0 to every moment.  ``gram``
    is C C^T, and ``block_sums`` and ``block_squares`` the row sums of
    each block and of its squares (B x M).  The arrays are read-only.
    """

    blocks: np.ndarray
    n: int
    gram: np.ndarray
    block_sums: np.ndarray
    block_squares: np.ndarray

    @classmethod
    def from_centred(cls, c: np.ndarray) -> "CentredRanks":
        """Group a copy of a finite, centred M x N float matrix, N >= 1."""
        c = np.asarray(c, dtype=float)
        if c.ndim != 2 or c.shape[1] < 1:
            raise InvalidInput(f"centred rank matrix of shape {c.shape} is not M x N with N >= 1")
        return cls._grouped(c, np.zeros(c.shape[0]))

    @classmethod
    def _grouped(cls, r: np.ndarray, mean: np.ndarray) -> "CentredRanks":
        """Write the rows of ``r`` less ``mean`` into their blocks."""
        m, n = r.shape
        count = min(JACKKNIFE_BLOCKS, n)
        whole, rest = divmod(n, count)
        blocks = np.zeros((count, m, whole + (rest > 0)))
        samples = blocks.transpose(1, 2, 0)  # sample k = j B + b at [:, j, b]
        np.subtract(r[:, :whole * count].reshape(m, whole, count), mean[:, None, None],
                    out=samples[:, :whole])
        if rest:
            np.subtract(r[:, whole * count:], mean[:, None], out=samples[:, whole, :rest])
        block_sums = blocks.sum(axis=2)
        # every entry is in one block, so a non-finite entry makes its block's sum non-finite
        if not np.isfinite(block_sums).all():
            raise InvalidInput("centred rank entries must be finite")
        gram = np.zeros((m, m))
        for part in blocks:
            gram += part @ part.T
        block_squares = np.einsum("bml,bml->bm", blocks, blocks)
        for arr in (blocks, gram, block_sums, block_squares):
            arr.setflags(write=False)
        return cls(blocks, n, gram, block_sums, block_squares)


def _as_rank_array(ranks) -> np.ndarray:
    if isinstance(ranks, RankMatrix):
        return np.asarray(ranks.ranks, dtype=float)
    arr = np.atleast_2d(np.asarray(ranks, dtype=float))
    if arr.ndim != 2 or arr.shape[1] < 2:
        raise InvalidInput("ranks must form an M x N matrix with N >= 2")
    return arr


def covariance_matrix(centred: CentredRanks) -> np.ndarray:
    """Population covariance (1/N) of the centred rank rows, G / N."""
    return centred.gram / centred.n


def third_moment_offdiag(ranks) -> CentredRanks:
    """The rank rows, centred into their jackknife blocks, with the block
    moments.

    The centred rows C are the sample form of the third moments: that of
    methods i, j, l is mean(c_i c_j c_l), and
    :func:`summa.decomposition.recover_rank1_tensor` takes the tensor of
    those moments straight from the blocks.
    """
    r = _as_rank_array(ranks)
    return CentredRanks._grouped(r, r.mean(axis=1))
