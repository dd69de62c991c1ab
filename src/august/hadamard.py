"""Sylvester Hadamard matrices and the fast Walsh-Hadamard transform.

The symmetry statistics of a cell-probability vector ``p`` are
``fwht(p)[1:]``: the first coordinate is the total mass, and entry ``i``
of the rest is the contrast of Hadamard row ``i + 2``, in ``[-1, 1]``.

Row indexing is fixed to the Sylvester (natural) order: ``H_2`` is
``[[1, 1], [1, -1]]`` and ``H_{2k} = H_2 (x) H_k``.  All interpretation
output depends on this ordering being stable, e.g. row 3 at depth 3 is
always the coarse alternating pattern ``(1, 1, -1, -1, 1, 1, -1, -1)``.
"""

import numpy as np

from .errors import DepthOutOfRange, LengthNotPowerOfTwo

__all__ = ["sylvester", "fwht"]


def sylvester(depth):
    """Hadamard matrix of order ``2**depth`` in Sylvester layout."""
    if not 1 <= depth <= 20:
        raise DepthOutOfRange(f"depth must be in [1, 20], got {depth}")
    h2 = np.array([[1, 1], [1, -1]], dtype=np.int32)
    out = h2
    for _ in range(depth - 1):
        out = np.kron(h2, out)
    return out


def fwht(values):
    """Fast Walsh-Hadamard transform along the last axis.

    Equals ``sylvester(d) @ v`` for a length ``2**d`` vector but costs
    ``O(2**d * d)``.  Works on stacked inputs and preserves integer dtypes
    (the transform is exact integer arithmetic).
    """
    out = np.array(values, copy=True)
    n = out.shape[-1]
    if n < 1 or (n & (n - 1)) != 0:
        raise LengthNotPowerOfTwo(f"length {n} is not a power of two")
    shape = out.shape
    half = 1
    while half < n:
        blocks = out.reshape(shape[:-1] + (n // (2 * half), 2, half))
        top = blocks[..., 0, :].copy()
        bottom = blocks[..., 1, :].copy()
        blocks[..., 0, :] = top + bottom
        blocks[..., 1, :] = top - bottom
        out = blocks.reshape(shape)
        half *= 2
    return out

