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
C_b of samples k = b mod ``JACKKNIFE_BLOCKS`` of a :class:`CentredRanks`,
with the one Gram matrix G = C C^T, the sum of the block Grams C_b C_b^T.
The block Grams are kept, B x M x M, where they hold no more numbers
than the blocks, that is where M <= ceil(N / B); elsewhere only G is.
:func:`covariance_matrix` is G / N, and
:func:`summa.decomposition.recover_rank1_tensor` applies its leave-out
covariances from G and :meth:`CentredRanks.block_products`.  On rank
data every centred entry is a multiple of 1/2, so every product and
partial sum of a Gram entry is an exact float64 while
N (N^2 - 1) / 12 < 2^51 (N up to about 3e5): G then equals the single
product C C^T bit for bit, and each kept block Gram its block's product.
On other float input the two may differ in the last bits.

Third moments are never stored as an M x M x M array:
:func:`summa.decomposition.recover_rank1_tensor` fits the scale of the
tensor (1/N) sum_k c_k (x) c_k (x) c_k along the covariance factor from
power sums over C, in O(MN), read from the blocks in chunks of at most
2^15 entries and at most a quarter of the blocks.  Only the tensor's
distinct-index entries follow the factorization above; an entry with a
repeated index pairs a method with itself, and the fit leaves those
entries out.
:func:`third_moment_offdiag` keeps its name, from when it returned those
moments, because the benchmark's tracing wraps it by that name.  It is
the one maker of a :class:`CentredRanks`, and checks a raw rank array
before it centres it.
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
    each block and of its squares (B x M).  ``block_grams`` holds every
    block's C_b C_b^T (B x M x M) where M <= ceil(N / B), so that it is
    no larger than ``blocks``, and is None elsewhere.  The arrays are
    read-only.
    """

    blocks: np.ndarray
    n: int
    gram: np.ndarray
    block_sums: np.ndarray
    block_squares: np.ndarray
    block_grams: np.ndarray | None

    @classmethod
    def _grouped(cls, r: np.ndarray, mean: np.ndarray) -> "CentredRanks":
        """Write the rows of the finite ``r`` less ``mean`` into their blocks."""
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
        gram = np.zeros((m, m))
        if m <= blocks.shape[2]:
            # the block Grams are no larger than the blocks: keep them
            block_grams = np.matmul(blocks, blocks.transpose(0, 2, 1))
            for part in block_grams:
                gram += part
            block_squares = block_grams.diagonal(axis1=1, axis2=2)
        else:
            block_grams = None
            for part in blocks:
                gram += part @ part.T
            block_squares = np.einsum("bml,bml->bm", blocks, blocks)
        for arr in (blocks, gram, block_sums, block_squares, block_grams):
            if arr is not None:
                arr.setflags(write=False)
        return cls(blocks, n, gram, block_sums, block_squares, block_grams)

    def block_products(self, vectors: np.ndarray) -> np.ndarray:
        """C_b C_b^T times row b of ``vectors``, for the first
        len(``vectors``) blocks: from the kept block Grams, M^2 work a
        block, or else as C_b (C_b^T v_b), two passes over the block."""
        count = len(vectors)
        if self.block_grams is not None:
            return np.matmul(self.block_grams[:count], vectors[:, :, None])[:, :, 0]
        blocks = self.blocks[:count]
        return np.matmul(np.matmul(vectors[:, None, :], blocks), blocks.transpose(0, 2, 1))[:, 0]


def _as_rank_array(ranks) -> np.ndarray:
    """The rank rows as a float array; a raw array is checked, before any
    arithmetic, to be M x N with M >= 1 and N >= 2 and finite."""
    if isinstance(ranks, RankMatrix):
        return np.asarray(ranks.ranks, dtype=float)
    arr = np.atleast_2d(np.asarray(ranks, dtype=float))
    if arr.ndim != 2 or arr.shape[1] < 2 or arr.shape[0] < 1:
        raise InvalidInput("ranks must form an M x N matrix with N >= 2 and M >= 1")
    if not np.isfinite(arr).all():
        raise InvalidInput("rank entries must be finite")
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
    those moments straight from the blocks.  ``ranks`` is a
    :class:`summa.ranking.RankMatrix` or an array, which must be M x N
    with M >= 1 and N >= 2 and finite; it is checked before it is
    centred, and copied, never kept or written.
    """
    r = _as_rank_array(ranks)
    return CentredRanks._grouped(r, r.mean(axis=1))
