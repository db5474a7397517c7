"""Spatial pooling: proximal dendrites, k-WTA inhibition, Hebbian learning.

A layer of neurons each samples a random subspace of the feedforward input.
Per step the neurons are ranked by overlap and the top ``n_active`` win
(global inhibition). Winners strengthen synapses that saw an on-bit and
weaken the rest.
"""

from __future__ import annotations

import numpy as np

from .sdr import (
    DimensionError, Sdr, _as_array, _check_finite, _check_integral, _check_keys, _check_unit,
    _check_width, _rng_from_state,
)

__all__ = ["PatternLayer", "reconstruction_error"]

# Resolved parameters, in snapshot order; ``_configure`` takes them by these names.
_PATTERN_PARAMS = (
    "input_size", "n_columns", "n_active", "n_synapses", "connect_threshold", "delta_inc",
    "delta_dec", "min_overlap",
)
# The keys of a pattern layer's state, as ``to_state`` writes them.
_PATTERN_STATE = ("params", "sources", "permanences", "rng")


class _SnapshotArray(np.ndarray):
    """An array ``persistence.load`` read from a snapshot member and handed to
    one layer alone, which may hold it in place of a copy (``_own``)."""


def _own(value, array: np.ndarray, dtype) -> np.ndarray:
    """``array``, the checked ``np.asarray`` of ``value``, as a C-ordered
    ``dtype`` array that no one else holds. A ``_SnapshotArray`` already so
    is kept; anything else is copied."""
    if isinstance(value, _SnapshotArray) and array.dtype == dtype and array.flags.c_contiguous:
        return array
    return np.array(array, dtype=dtype, order="C")


class PatternLayer:
    """Layer of neurons converting feedforward bits into a sparse code.

    All per-neuron arrays are stacked: ``sources`` and ``permanences`` are
    (n_columns, n_synapses) matrices. A synapse is connected when its
    permanence is >= ``connect_threshold`` (equality connects, matching the
    learning rule's increment branch). Scoring is a pure read and may run
    concurrently; learning needs exclusive access.
    """

    def __init__(
        self,
        input_size: int,
        n_columns: int,
        *,
        n_active: int | None = None,
        sparsity: float = 0.02,
        n_synapses: int | None = None,
        potential_fraction: float = 0.5,
        connect_threshold: float = 0.2,
        delta_inc: float = 0.05,
        delta_dec: float = 0.008,
        min_overlap: int = 1,
        seed=0,
    ):
        # the sizes first: a size too large for a float cannot scale a fraction
        _check_integral(input_size=input_size, n_columns=n_columns)
        _check_finite(potential_fraction=potential_fraction)  # refuses a boolean
        if not 0.0 < sparsity < 1.0:
            raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
        if not 0.0 < potential_fraction <= 1.0:
            raise ValueError(f"potential_fraction must be in (0, 1], got {potential_fraction}")
        if n_active is None:
            n_active = int(round(sparsity * n_columns))
        if n_synapses is None:
            n_synapses = max(1, int(round(potential_fraction * input_size)))
        self._configure(
            input_size, n_columns, n_active, n_synapses, connect_threshold, delta_inc,
            delta_dec, min_overlap,
        )

        self._rng = np.random.default_rng(seed)
        sources = np.empty((self.n_columns, self.n_synapses), dtype=np.int32)
        for row in sources:
            row[:] = self._rng.choice(self.input_size, size=self.n_synapses, replace=False)
        sources.sort(axis=1)
        # Sorted, distinct and in range as drawn, so stored without the
        # setter's checks and copy; a full-potential layer drew every bit.
        self._store_sources(None if self.n_synapses == self.input_size else sources)
        # Roughly half the synapses start connected. Drawn in range, so
        # stored without the setter's checks and copy.
        low = max(0.0, self.connect_threshold - 0.1)
        high = min(1.0, self.connect_threshold + 0.1)
        self._permanences = self._rng.uniform(low, high, size=sources.shape)

    def _configure(
        self, input_size, n_columns, n_active, n_synapses, connect_threshold, delta_inc,
        delta_dec, min_overlap,
    ) -> None:
        """Check and store the resolved parameters, as snapshots hold them."""
        _check_finite(delta_inc=delta_inc, delta_dec=delta_dec)
        _check_integral(
            input_size=input_size, n_columns=n_columns, n_active=n_active, n_synapses=n_synapses,
            min_overlap=min_overlap,
        )
        if input_size <= 0 or n_columns <= 0:
            raise ValueError("input_size and n_columns must be positive")
        if not 1 <= n_active <= n_columns:
            raise ValueError(f"n_active must be in [1, {n_columns}], got {n_active}")
        if not 1 <= n_synapses <= input_size:
            raise ValueError(f"n_synapses must be in [1, {input_size}], got {n_synapses}")
        if delta_inc < 0:
            raise ValueError("delta_inc must be >= 0")
        _check_unit(delta_dec=delta_dec)
        self.input_size = int(input_size)
        self.n_columns = int(n_columns)
        self.n_active = int(n_active)
        self.n_synapses = int(n_synapses)
        self.connect_threshold = connect_threshold
        self.delta_inc = float(delta_inc)
        self.delta_dec = float(delta_dec)
        self.min_overlap = int(min_overlap)

    @property
    def sources(self) -> np.ndarray:
        """Read-only view of the (n_columns, n_synapses) int32 matrix of
        sampled input bits.

        Learning never changes it. To change it, assign a new array: the
        setter validates and copies it and drops the connection matrices
        (``_connections``). The constructor holds the matrix it drew, and
        ``persistence.load`` hands over the one it read, without a copy. A
        full-potential layer, which samples every input bit in ascending
        rows, stores one ``arange`` row broadcast over its columns.
        """
        view = self._sources.view()
        view.flags.writeable = False
        return view

    @sources.setter
    def sources(self, value) -> None:
        array = _as_array("sources", value)
        if not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"sources must be integers, got dtype {array.dtype}")
        shape = (self.n_columns, self.n_synapses)
        if array.shape != shape:
            raise ValueError(f"sources must have shape {shape}, got {array.shape}")
        if array.min() < 0 or array.max() >= self.input_size:
            raise ValueError(f"sources must lie in [0, {self.input_size})")
        ascending = bool((array[:, 1:] > array[:, :-1]).all())
        if not ascending:
            rows = np.sort(array, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():
                raise ValueError("sources must be distinct within each row")
        full_potential = ascending and self.n_synapses == self.input_size
        self._store_sources(None if full_potential else _own(value, array, np.int32))

    def _store_sources(self, sources: np.ndarray | None) -> None:
        """Hold ``sources``, a checked C-ordered int32 matrix that no one else
        holds, read-only; None stands for a full-potential layer's."""
        self._full_potential = sources is None
        if sources is None:
            # Ascending rows of every input bit are all arange(input_size), so
            # a synapse's slot is its bit: one read-only row, broadcast, holds them.
            sources = np.broadcast_to(
                np.arange(self.input_size, dtype=np.int32), (self.n_columns, self.n_synapses)
            )
        else:
            sources.flags.writeable = False
        self._sources = sources
        self._connected = self._by_column = None

    @property
    def permanences(self) -> np.ndarray:
        """Read-only view of the (n_columns, n_synapses) float64 permanences.

        Learning updates them. To change them, assign a new array: the
        setter validates and copies it and drops the connection matrices.
        """
        view = self._permanences.view()
        view.flags.writeable = False
        return view

    @permanences.setter
    def permanences(self, value) -> None:
        array = _as_array("permanences", value)
        if array.dtype != np.float64:
            raise ValueError(f"permanences must be float64, got dtype {array.dtype}")
        shape = (self.n_columns, self.n_synapses)
        if array.shape != shape:
            raise ValueError(f"permanences must have shape {shape}, got {array.shape}")
        if not ((array >= 0.0) & (array <= 1.0)).all():
            raise ValueError("permanences outside [0, 1]")
        self._permanences = _own(value, array, np.float64)
        self._connected = self._by_column = None

    @property
    def connect_threshold(self) -> float:
        """Permanence at or above which a synapse is connected."""
        return self._connect_threshold

    @connect_threshold.setter
    def connect_threshold(self, value) -> None:
        _check_unit(connect_threshold=value)
        self._connect_threshold = float(value)
        self._connected = self._by_column = None

    def _connections(self) -> np.ndarray:
        """Bool (input_size, n_columns) matrix, true at ``[i, c]`` when
        column ``c`` has a connected synapse on input bit ``i``.

        Its C-ordered transpose ``_by_column``, one row per column, is built
        with it: ``raw_overlaps`` sums input bits' rows of this one, and
        ``reconstruct`` winners' rows of that one. Both are built on first
        use after ``sources``, ``permanences`` or ``connect_threshold`` is
        assigned; ``_write_rows`` keeps both current.
        """
        if self._connected is None:
            by_column = np.zeros((self.n_columns, self.input_size), dtype=bool)
            columns = np.arange(self.n_columns)[:, None]
            by_column[columns, self._sources] = self._permanences >= self._connect_threshold
            self._by_column = by_column
            self._connected = np.ascontiguousarray(by_column.T)
        return self._connected

    def _write_rows(self, w, sources, old, new) -> None:
        """Store ``new`` as the permanences of rows ``w`` (an intp array),
        whose sources and current permanences are ``sources`` and ``old``.
        ``sources`` is None for a full-potential layer, whose slots are bits.

        Flips the entries of both connection matrices at the synapses that
        crossed ``connect_threshold``, so each stays equal to a rebuilt one.
        """
        if self._connected is not None:
            now = new >= self._connect_threshold
            flips = (now != (old >= self._connect_threshold)).ravel().nonzero()[0]
            if flips.size:
                columns = w.take(flips // self.n_synapses)
                bits = flips % self.n_synapses if sources is None else sources.take(flips)
                flipped = now.take(flips)
                # flat entries, in intp: input_size * n_columns may pass 2**31
                self._connected.put(bits * np.intp(self.n_columns) + columns, flipped)
                self._by_column.put(columns * np.intp(self.input_size) + bits, flipped)
        self._permanences[w] = new

    def _check_input(self, x_ff: Sdr, name: str = "input") -> None:
        _check_width(x_ff, self.input_size, name, "layer width")

    def _check_winners(self, winners: Sdr) -> None:
        _check_width(winners, self.n_columns, "winners", "layer size")

    def raw_overlaps(self, x_ff: Sdr) -> np.ndarray:
        """Overlap score of every neuron with the input: its connected
        synapses that see an on-bit."""
        self._check_input(x_ff)
        ids = x_ff.ids
        # a column counts each on-bit through at most one of its synapses
        return _column_counts(self._connections(), ids, min(ids.size, self.n_synapses))

    def _select(self, scores: np.ndarray, raw: np.ndarray) -> Sdr:
        """Top ``n_active`` by score among neurons passing the stimulus floor.

        Equal scores break to the lower neuron index.
        """
        eligible = (raw >= self.min_overlap).nonzero()[0]
        k = self.n_active
        if eligible.size > k:
            s = scores[eligible]
            part = s.copy()
            part.partition(s.size - k)
            kth = part[s.size - k]  # the k-th largest score
            keep = s > kth
            keep[(s == kth).nonzero()[0][: k - np.add.reduce(keep)]] = True
            eligible = eligible[keep]
        return Sdr._from_sorted(self.n_columns, eligible)

    def compute_sdr(self, x_ff: Sdr) -> Sdr:
        """Winning neurons for this input (k-WTA)."""
        raw = self.raw_overlaps(x_ff)
        return self._select(raw, raw)

    def learn(self, x_ff: Sdr, winners: Sdr) -> None:
        """Hebbian update on the winning neurons only.

        A winner's synapse that saw an on-bit is multiplied by
        (1 + delta_inc) and clamped to 1; its synapses on off-bits are
        multiplied by (1 - delta_dec). Strengthening applies whether or not
        the synapse is connected yet, so a winner's receptive field grows to
        cover its input; this is what makes recognition survive noise.
        """
        self._check_input(x_ff)
        self._learn_rows(winners, x_ff.dense(), self.delta_inc, self.delta_dec, self.delta_dec)

    def _learn_rows(self, winners: Sdr, on: np.ndarray, inc, dec, rest: float) -> None:
        """The Hebbian update of the rows of ``winners`` over the dense input
        ``on``. ``inc`` and ``dec`` are both scalars, or both per-input-bit
        arrays, read at each synapse's source.

        Every synapse first decays at the resting rate ``rest`` in one pass.
        Only the hot ones, whose source is on or whose ``dec`` differs from
        ``rest``, then take the update at their own rates; any other gets the
        same product either way.

        A full-potential layer finds its hot slots from the hot input bits
        alone, since each slot is its bit; any other gathers its winners'
        sources and the hot mask at them.
        """
        self._check_winners(winners)
        w = winners.ids
        if not w.size:
            return
        if self._full_potential:
            sources = None
            bits = (on | (dec != rest)).nonzero()[0]
            # [winner, hot bit] slots of the gathered block
            hot = np.arange(0, w.size * self.n_synapses, self.n_synapses)[:, None] + bits
        else:
            # take() gathers rows and elements ~2x faster than fancy indexing
            sources = self._sources.take(w, axis=0)
            # Gathered while ``sources`` is still in cache. Its values lie in
            # range, so "clip" only skips the bounds check.
            hot = (on | (dec != rest)).take(sources, mode="clip").ravel().nonzero()[0]
            bits = sources.take(hot)
        old = self._permanences.take(w, axis=0)
        new = old * (1.0 - rest)
        if isinstance(inc, np.ndarray):
            inc, dec = inc.take(bits), dec.take(bits)
        new.put(hot, _hebbian(old.take(hot), on.take(bits), inc, dec))
        self._write_rows(w, sources, old, new)

    def reconstruct(self, winners: Sdr) -> np.ndarray:
        """Summed back-projection of the winners' connected synapses: per
        input bit, the winners with a connected synapse on it."""
        self._check_winners(winners)
        w = winners.ids
        self._connections()  # builds both matrices when they are missing
        return _column_counts(self._by_column, w, w.size)

    def masked_reconstruct(self, winners: Sdr, x_ff: Sdr) -> np.ndarray:
        """Back-projection restricted to the input's on-bits."""
        self._check_input(x_ff)
        out = self.reconstruct(winners)
        out[~x_ff.dense()] = 0
        return out

    def to_state(self) -> dict:
        """The layer's parameters, arrays and rng state. A full-potential
        layer's ``sources`` is its one ``arange(input_size)`` row, of shape
        ``(1, input_size)``; any other layer's is the whole matrix."""
        return {
            "params": {name: getattr(self, name) for name in _PATTERN_PARAMS},
            "sources": self.sources[:1] if self._full_potential else self.sources,
            "permanences": self._permanences.copy(),
            "rng": self._rng.bit_generator.state,
        }

    def _restore_state(self, state: dict) -> None:
        """Take the arrays and rng state of ``state`` through the setters,
        which copy every array but those ``persistence.load`` read (``_own``)."""
        self.permanences = state["permanences"]
        sources = state["sources"]
        array = _as_array("sources", sources)
        shape = (self.n_columns, self.n_synapses)
        if self.n_synapses == self.input_size and array.shape == (1, self.input_size) != shape:
            # a full-potential layer's one row, as to_state writes it
            if not np.array_equal(array[0], np.arange(self.input_size)):
                raise ValueError(
                    f"a one-row sources must be arange({self.input_size}), every input bit "
                    "in order"
                )
            sources = np.broadcast_to(array, shape)
        self.sources = sources
        self._rng = _rng_from_state(state["rng"])

    @classmethod
    def from_state(cls, state: dict) -> "PatternLayer":
        """The layer ``state`` describes; its keys must be exactly those
        ``to_state`` writes. Its arrays are copied, so the layer shares none
        with the caller; only the arrays ``persistence.load`` read from a
        snapshot are held uncopied."""
        _check_keys("pattern layer state", state, _PATTERN_STATE)
        # Not through __init__: its random sources and permanences would
        # only be overwritten.
        layer = cls.__new__(cls)
        layer._configure(**state["params"])
        layer._restore_state(state)
        return layer


def _column_counts(matrix: np.ndarray, rows: np.ndarray, most: int) -> np.ndarray:
    """Per column of the bool ``matrix``, its true entries in ``rows``, as
    intp; no count exceeds ``most``. The bools are summed as their bytes, 0
    and 1, in the smallest type that holds ``most``, so up to 255 numpy adds
    them without a cast."""
    block = matrix.take(rows, axis=0).view(np.uint8)
    return np.add.reduce(block, axis=0, dtype=np.min_scalar_type(most)).astype(np.intp)


def _hebbian(p: np.ndarray, on: np.ndarray, inc, dec) -> np.ndarray:
    """The multiplicative Hebbian update of permanences ``p``.

    A synapse whose source is ``on`` is multiplied by (1 + inc) and clamped
    to 1; any other by (1 - dec). ``inc`` and ``dec`` are scalars or arrays
    shaped like ``p``. Both branches are computed for every synapse, so
    callers pass a few thousand at most: the hot synapses of a proximal
    block, or distal segments.
    """
    return np.where(on, np.minimum(1.0, p * (1.0 + inc)), p * (1.0 - dec))


def reconstruction_error(x_ff: Sdr, x_hat) -> float:
    """L1 distance between the input and the binarized reconstruction."""
    x_hat = np.asarray(x_hat)
    if x_hat.shape != (x_ff.universe_size,):
        raise DimensionError(
            f"reconstruction width {x_hat.shape} != input width {x_ff.universe_size}"
        )
    return float(np.count_nonzero(x_ff.dense() != (x_hat >= 1)))
