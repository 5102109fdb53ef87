"""Conversion from a CUR representation to a compact SVD.

The conversion costs two thin QR factorizations of n x k matrices plus one
SVD of a k x k matrix, where k is the rank the core's pseudoinverse keeps,
so it scales linearly in the ambient dimension at fixed rank: with
U+ = V diag(inv_sigma) W^T held at rank k, the product C * U+ * R equals
A B^T for A = C V diag(inv_sigma) and B = R^T W.  With A = Q_A R_A and
B = Q_B R_B it is Q_A (R_A R_B^T) Q_B^T, and the SVD of the small middle
factor rotates into the final orthonormal factors.  Since
k <= min(|I|, |J|), both A and B are tall even when C or R is wide.
That SVD is :func:`matcore.pinv_factor`'s, so a singular value counts as
zero by the one rule that decides it for the core, ``PINV_CUTOFF``.
"""

from __future__ import annotations

import numpy as np

from .matcore import Matrix, SvdFactors, pinv_factor, qr_thin, tracked


def cur_to_svd(C: Matrix, core_pinv: SvdFactors, R: Matrix) -> SvdFactors:
    """Compact SVD of the product C * U+ * R without materializing it.

    W and V have orthonormal columns and W * diag(sigma) * V^T reproduces
    the product.  The pseudoinverse is applied through its factored form,
    inheriting the solver's rank truncation.  The middle factor R_A R_B^T
    is factored by :func:`matcore.pinv_factor`, and only its leading
    max(1, effective_rank) triplets are kept: a singular value at or below
    ``PINV_CUTOFF * sigma_max`` is dropped, and a zero product gives one
    zero column.  A middle factor that is not finite (the product's
    singular values overflow before its SVD) raises ValueError, and so
    does a spectrum that :class:`SvdFactors` rejects.
    """
    if C.ndim != 2 or R.ndim != 2:
        raise ValueError("C and R must be 2-D matrices")
    if C.shape[1] != core_pinv.cols:
        raise ValueError(
            f"C has {C.shape[1]} columns but the core expects {core_pinv.cols}"
        )
    if R.shape[0] != core_pinv.rows:
        raise ValueError(
            f"R has {R.shape[0]} rows but the core expects {core_pinv.rows}"
        )
    # At least one column, so a zero product still gets orthonormal W and V.
    k = max(1, core_pinv.effective_rank)
    # An L beyond the float range overflows here, before any SVD: rejected below.
    with np.errstate(over="ignore", invalid="ignore"):
        A = tracked(C @ core_pinv.V[:, :k])
        A *= core_pinv.inv_sigma[:k]
        q_c, r_c = qr_thin(A)
        q_r, r_r = qr_thin(tracked(R.T @ core_pinv.W[:, :k]))
        middle = tracked(r_c @ r_r.T)
    if not np.isfinite(middle).all():
        raise ValueError("singular values overflow the float range")
    mid = pinv_factor(middle)
    k = max(1, mid.effective_rank)
    return SvdFactors(W=tracked(q_c @ mid.W[:, :k]), sigma=mid.sigma[:k],
                      V=tracked(q_r @ mid.V[:, :k]))
