"""Reference for the one matvec kernel: ``M × v`` and ``vᵀ × M`` written
out one orientation each, the way ``SpangleMatrix`` ran them as two
bodies. Each partition's blocks fold into one partial vector in
partition order and the partials are summed in partition order, so the
result must be bit-identical (``np.array_equal``) to the kernel's.
"""

import numpy as np

#: blocks below this density take the gather/scatter kernel
SPARSE_BELOW = 0.05


def _dot_block(block_shape, chunk, v_slice):
    block_rows, block_cols = block_shape
    if chunk.density < SPARSE_BELOW:
        offsets = chunk.indices()
        return np.bincount(offsets % block_rows,
                           weights=chunk.values()
                           * v_slice[offsets // block_rows],
                           minlength=block_rows)
    block = chunk.to_dense(0).reshape(block_shape, order="F")
    padded = np.zeros(block_cols)
    padded[:v_slice.size] = v_slice
    return block @ (padded if v_slice.size < block_cols else v_slice)


def _block_dot(block_shape, chunk, v_slice):
    block_rows, block_cols = block_shape
    if chunk.density < SPARSE_BELOW:
        offsets = chunk.indices()
        return np.bincount(offsets // block_rows,
                           weights=chunk.values()
                           * v_slice[offsets % block_rows],
                           minlength=block_cols)
    block = chunk.to_dense(0).reshape(block_shape, order="F")
    padded = np.zeros(block_rows)
    padded[:v_slice.size] = v_slice
    return (padded if v_slice.size < block_rows else v_slice) @ block


def matvec(matrix, data, orientation):
    """``matrix × data`` for a ``"col"`` vector, ``dataᵀ × matrix`` for
    a ``"row"`` one."""
    n_rows, n_cols = matrix.shape
    block_rows, block_cols = matrix.block_shape
    grid_rows = matrix.grid_rows
    n_out = n_rows if orientation == "col" else n_cols
    parts = matrix.array.rdd.map_partitions(lambda part: [list(part)])
    result = np.zeros(n_out)
    for part in parts.collect():
        partial = np.zeros(n_out)
        for chunk_id, chunk in part:
            if chunk.valid_count == 0:
                continue
            r0 = chunk_id % grid_rows * block_rows
            c0 = chunk_id // grid_rows * block_cols
            if orientation == "col":
                contrib = _dot_block(matrix.block_shape, chunk,
                                     data[c0:c0 + block_cols])
                out0, out_len = r0, min(block_rows, n_rows - r0)
            else:
                contrib = _block_dot(matrix.block_shape, chunk,
                                     data[r0:r0 + block_rows])
                out0, out_len = c0, min(block_cols, n_cols - c0)
            partial[out0:out0 + out_len] += contrib[:out_len]
        result += partial
    return result
