"""Conversion from a CUR representation to a compact SVD.

The conversion costs two thin QR factorizations plus one SVD of a small
matrix, so it scales linearly in the ambient dimension at fixed sampled
sizes: with C = Q_C R_C and R^T = Q_R R_R, the product C * U+ * R equals
Q_C (R_C U+ R_R^T) Q_R^T, and the SVD of the small middle factor rotates
into the final orthonormal factors.
"""

from __future__ import annotations

import numpy as np

from .matcore import Matrix, PinvFactor, SvdFactors, qr_thin, tracked

# Relative level below which converted singular values are reported as
# exact zeros and their columns dropped, yielding a compact SVD.
COMPACT_DROP = 1e-14


def cur_to_svd(C: Matrix, core_pinv: PinvFactor, R: Matrix) -> SvdFactors:
    """Compact SVD of the product C * U+ * R without materializing it.

    W and V have orthonormal columns and W * diag(sigma) * V^T reproduces
    the product.  The pseudoinverse is applied through its factored form,
    inheriting the solver's rank truncation.
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
    q_c, r_c = qr_thin(C)
    q_r, r_r = qr_thin(R.T)
    middle = core_pinv.apply_right(r_c, r_r.T)
    w_u, sigma, v_u_t = np.linalg.svd(middle, full_matrices=False)
    W = tracked(q_c @ w_u)
    V = tracked(q_r @ v_u_t.T)
    smax = sigma[0] if sigma.size else 0.0
    if smax > 0.0:
        keep = sigma >= COMPACT_DROP * smax
        W, sigma, V = W[:, keep], sigma[keep], V[:, keep]
    return SvdFactors(W=W, sigma=sigma, V=V)

