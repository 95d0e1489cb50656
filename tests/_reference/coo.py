"""Per-k COO join: the reference the vectorized ``_csr_join`` must match
bit for bit (same pairs, same order, same products)."""

import numpy as np

from repro.matrix.multiply import _COOPartial


def _coo_join(a_rows, a_ks, a_vals, b_ks, b_cols, b_vals, shape):
    """Join two COO operands on the contraction index.

    ``a`` contributes (row, k, value), ``b`` contributes (k, col,
    value); returns the COO partial of their product, or None when no
    k-index is shared (no arithmetic at all — the COO analogue of the
    bitmask AND in Fig. 5).
    """
    shared = np.intersect1d(a_ks, b_ks)
    if shared.size == 0:
        return None
    out_rows, out_cols, out_vals = [], [], []
    a_order = np.argsort(a_ks, kind="stable")
    b_order = np.argsort(b_ks, kind="stable")
    a_ks_sorted = a_ks[a_order]
    b_ks_sorted = b_ks[b_order]
    for k in shared:
        a_lo, a_hi = np.searchsorted(a_ks_sorted, [k, k + 1])
        b_lo, b_hi = np.searchsorted(b_ks_sorted, [k, k + 1])
        ar = a_rows[a_order[a_lo:a_hi]]
        av = a_vals[a_order[a_lo:a_hi]]
        bc = b_cols[b_order[b_lo:b_hi]]
        bv = b_vals[b_order[b_lo:b_hi]]
        out_rows.append(np.repeat(ar, bc.size))
        out_cols.append(np.tile(bc, ar.size))
        out_vals.append(np.outer(av, bv).ravel())
    return _COOPartial(
        np.concatenate(out_rows), np.concatenate(out_cols),
        np.concatenate(out_vals), shape,
    )
