"""The proximal overlap through a CSR inverse source index.

This is ``PatternLayer.raw_overlaps`` as it was before the layer kept a
connection matrix: an index from every input bit to the synapse slots that
sample it, built from ``sources`` alone, with the permanences read live and
compared with ``connect_threshold`` on every call. It is kept as the
reference the connection matrix is tested against.
"""

from __future__ import annotations

import numpy as np


def source_index(sources: np.ndarray, input_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of ``sources`` in CSR form.

    ``order`` lists every flat synapse slot ``row * n_synapses + slot``
    grouped by the input bit it samples; the slots of bit ``i`` are
    ``order[indptr[i]:indptr[i + 1]]``.
    """
    keys = sources.ravel()
    if input_size <= 1 << 16:
        # numpy sorts 16-bit keys with a radix sort
        keys = keys.astype(np.uint16)
    order = np.argsort(keys, kind="stable").astype(np.int32)
    indptr = np.zeros(input_size + 1, dtype=np.intp)
    np.cumsum(np.bincount(keys, minlength=input_size), out=indptr[1:])
    return order, indptr


def raw_overlaps(layer, active, index=None) -> np.ndarray:
    """Connected synapses of every column of ``layer`` that see a bit of ``active``."""
    order, indptr = index if index is not None else source_index(layer.sources, layer.input_size)
    groups = (order[indptr[i] : indptr[i + 1]] for i in active)
    slots = np.concatenate([order[:0], *groups])  # order[:0]: an empty input has no group
    connected = layer.permanences.take(slots) >= layer.connect_threshold
    # sums of 0/1 weights are exact in float64
    counts = np.bincount(slots // layer.n_synapses, weights=connected, minlength=layer.n_columns)
    return counts.astype(np.int64)
