"""Spatial pooling: proximal dendrites, k-WTA inhibition, Hebbian learning.

A layer of neurons each samples a random subspace of the feedforward input.
Per step the neurons are ranked by overlap and the top ``n_active`` win
(global inhibition). Winners strengthen synapses that saw an on-bit and
weaken the rest.
"""

from __future__ import annotations

import math

import numpy as np

from .sdr import DimensionError, Sdr

__all__ = ["PatternLayer", "reconstruction_error"]

# Resolved parameters, in snapshot order; ``_configure`` takes them by these names.
_PATTERN_PARAMS = (
    "input_size", "n_columns", "n_active", "n_synapses", "connect_threshold", "delta_inc",
    "delta_dec", "min_overlap",
)


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
        _check_finite(potential_fraction=potential_fraction)
        if n_active is None:
            if not 0.0 < sparsity < 1.0:
                raise ValueError(f"sparsity must be in (0, 1), got {sparsity}")
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
            row[:] = np.sort(self._rng.choice(self.input_size, size=self.n_synapses, replace=False))
        self.sources = sources
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
        _check_finite(
            input_size=input_size, n_columns=n_columns, n_active=n_active, n_synapses=n_synapses,
            delta_inc=delta_inc, delta_dec=delta_dec, min_overlap=min_overlap,
        )
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
        self.connect_threshold = float(connect_threshold)
        self.delta_inc = float(delta_inc)
        self.delta_dec = float(delta_dec)
        self.min_overlap = int(min_overlap)

    @property
    def sources(self) -> np.ndarray:
        """Read-only (n_columns, n_synapses) int32 matrix of sampled input bits.

        Learning never changes it. To change it, assign a new array: the
        setter validates and copies it and drops the connection matrix that
        ``raw_overlaps`` keeps.
        """
        return self._sources

    @sources.setter
    def sources(self, value) -> None:
        value = _as_array("sources", value)
        if not np.issubdtype(value.dtype, np.integer):
            raise ValueError(f"sources must be integers, got dtype {value.dtype}")
        shape = (self.n_columns, self.n_synapses)
        if value.shape != shape:
            raise ValueError(f"sources must have shape {shape}, got {value.shape}")
        if value.min() < 0 or value.max() >= self.input_size:
            raise ValueError(f"sources must lie in [0, {self.input_size})")
        value = np.array(value, dtype=np.int32)
        if not (value[:, 1:] > value[:, :-1]).all():  # rows not strictly ascending
            rows = np.sort(value, axis=1)
            if (rows[:, 1:] == rows[:, :-1]).any():
                raise ValueError("sources must be distinct within each row")
        value.flags.writeable = False
        self._sources = value
        self._connected = None

    @property
    def permanences(self) -> np.ndarray:
        """Read-only view of the (n_columns, n_synapses) float64 permanences.

        Learning updates them. To change them, assign a new array: the
        setter validates and copies it and drops the connection matrix.
        """
        view = self._permanences.view()
        view.flags.writeable = False
        return view

    @permanences.setter
    def permanences(self, value) -> None:
        value = _as_array("permanences", value)
        if value.dtype != np.float64:
            raise ValueError(f"permanences must be float64, got dtype {value.dtype}")
        shape = (self.n_columns, self.n_synapses)
        if value.shape != shape:
            raise ValueError(f"permanences must have shape {shape}, got {value.shape}")
        if not ((value >= 0.0) & (value <= 1.0)).all():
            raise ValueError("permanences outside [0, 1]")
        self._permanences = np.array(value, order="C")
        self._connected = None

    @property
    def connect_threshold(self) -> float:
        """Permanence at or above which a synapse is connected."""
        return self._connect_threshold

    @connect_threshold.setter
    def connect_threshold(self, value) -> None:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"connect_threshold must be in [0, 1], got {value}")
        self._connect_threshold = float(value)
        self._connected = None

    def _connections(self) -> np.ndarray:
        """Bool (input_size, n_columns) matrix, true at ``[i, c]`` when
        column ``c`` has a connected synapse on input bit ``i``.

        Built on first use after ``sources``, ``permanences`` or
        ``connect_threshold`` is assigned; ``_write_rows`` keeps it current.
        """
        if self._connected is None:
            by_column = np.zeros((self.n_columns, self.input_size), dtype=bool)
            connected = self._permanences >= self._connect_threshold
            np.put_along_axis(by_column, self._sources, connected, axis=1)
            # transposed in blocks of columns: a whole-matrix transposed copy
            # reads with a stride of input_size bytes and is ~5x slower at 2048 x 2048
            self._connected = np.empty((self.input_size, self.n_columns), dtype=bool)
            for c in range(0, self.n_columns, 32):
                self._connected[:, c : c + 32] = by_column[c : c + 32].T
        return self._connected

    def _write_rows(self, w, sources, old, new) -> None:
        """Store ``new`` as the permanences of rows ``w`` (an intp array),
        whose sources and current permanences are ``sources`` and ``old``.

        Flips the connection-matrix entries of the synapses that crossed
        ``connect_threshold``, so the matrix stays equal to a rebuilt one.
        """
        if self._connected is not None:
            now = new >= self._connect_threshold
            flips = np.flatnonzero(now != (old >= self._connect_threshold))
            if flips.size:
                # flat entries, in intp: input_size * n_columns may pass 2**31
                columns = w.take(flips // self.n_synapses)
                self._connected.put(
                    sources.take(flips) * np.intp(self.n_columns) + columns, now.take(flips)
                )
        self._permanences[w] = new

    def _check_input(self, x_ff: Sdr) -> None:
        if x_ff.universe_size != self.input_size:
            raise DimensionError(
                f"input width {x_ff.universe_size} != layer width {self.input_size}"
            )

    def _check_winners(self, winners: Sdr) -> None:
        if winners.universe_size != self.n_columns:
            raise DimensionError(
                f"winners width {winners.universe_size} != layer size {self.n_columns}"
            )

    def raw_overlaps(self, x_ff: Sdr) -> np.ndarray:
        """Overlap score of every neuron with the input: its connected
        synapses that see an on-bit."""
        self._check_input(x_ff)
        rows = self._connections()[list(x_ff.active)]
        # at most n_synapses per column, so this type cannot overflow
        return rows.sum(axis=0, dtype=np.min_scalar_type(self.n_synapses)).astype(np.intp)

    def _select(self, scores: np.ndarray, raw: np.ndarray) -> Sdr:
        """Top ``n_active`` by score among neurons passing the stimulus floor.

        Equal scores break to the lower neuron index.
        """
        eligible = np.flatnonzero(raw >= self.min_overlap)
        k = self.n_active
        if eligible.size > k:
            s = scores[eligible]
            kth = np.partition(s, s.size - k)[s.size - k]  # the k-th largest score
            keep = s > kth
            keep[np.flatnonzero(s == kth)[: k - np.count_nonzero(keep)]] = True
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
        """
        self._check_winners(winners)
        if not winners.active:
            return
        w = np.array(winners.active, dtype=np.intp)
        # take() gathers rows and elements ~2x faster than fancy indexing
        sources = self._sources.take(w, axis=0)
        # Gathered while ``sources`` is still in cache. Its values lie in
        # range, so "clip" only skips the bounds check.
        hot = np.flatnonzero((on | (dec != rest)).take(sources, mode="clip"))
        old = self._permanences.take(w, axis=0)
        new = old * (1.0 - rest)
        bits = sources.take(hot)
        if isinstance(inc, np.ndarray):
            inc, dec = inc.take(bits), dec.take(bits)
        new.put(hot, _hebbian(old.take(hot), on.take(bits), inc, dec))
        self._write_rows(w, sources, old, new)

    def reconstruct(self, winners: Sdr) -> np.ndarray:
        """Summed back-projection of the winners' connected synapses."""
        self._check_winners(winners)
        w = np.array(winners.active, dtype=np.intp)
        connected = self._permanences.take(w, axis=0) >= self._connect_threshold
        return np.bincount(self._sources.take(w, axis=0)[connected], minlength=self.input_size)

    def masked_reconstruct(self, winners: Sdr, x_ff: Sdr) -> np.ndarray:
        """Back-projection restricted to the input's on-bits."""
        self._check_input(x_ff)
        out = self.reconstruct(winners)
        out[~x_ff.dense()] = 0
        return out

    def to_state(self) -> dict:
        return {
            "params": {name: getattr(self, name) for name in _PATTERN_PARAMS},
            "sources": self.sources,
            "permanences": self._permanences.copy(),
            "rng": self._rng.bit_generator.state,
        }

    def _restore_state(self, state: dict) -> None:
        self.permanences = state["permanences"]
        self.sources = state["sources"]
        self._rng = np.random.default_rng(0)
        self._rng.bit_generator.state = state["rng"]

    @classmethod
    def from_state(cls, state: dict) -> "PatternLayer":
        # Not through __init__: its random sources and permanences would
        # only be overwritten.
        layer = cls.__new__(cls)
        layer._configure(**state["params"])
        layer._restore_state(state)
        return layer


def _hebbian(p: np.ndarray, on: np.ndarray, inc, dec) -> np.ndarray:
    """The multiplicative Hebbian update of permanences ``p``.

    A synapse whose source is ``on`` is multiplied by (1 + inc) and clamped
    to 1; any other by (1 - dec). ``inc`` and ``dec`` are scalars or arrays
    shaped like ``p``. Both branches are computed for every synapse, so
    callers pass a few thousand at most: the hot synapses of a proximal
    block, or distal segments.
    """
    return np.where(on, np.minimum(1.0, p * (1.0 + inc)), p * (1.0 - dec))


def _check_finite(**params) -> None:
    """Raise ``ValueError`` naming the first parameter that is infinite or NaN."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_integral(**params) -> None:
    """Raise ``ValueError`` naming the first finite parameter that is not a
    whole number. Integral floats such as ``32.0`` pass."""
    for name, value in params.items():
        if value != int(value):
            raise ValueError(f"{name} must be an integer, got {value}")


def _check_unit(**params) -> None:
    """Raise ``ValueError`` naming the first parameter outside [0, 1]."""
    for name, value in params.items():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value}")


def _as_array(name: str, value) -> np.ndarray:
    """``np.asarray`` whose errors (ragged rows) name the field."""
    try:
        return np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def reconstruction_error(x_ff: Sdr, x_hat) -> float:
    """L1 distance between the input and the binarized reconstruction."""
    x_hat = np.asarray(x_hat)
    if x_hat.shape != (x_ff.universe_size,):
        raise DimensionError(
            f"reconstruction width {x_hat.shape} != input width {x_ff.universe_size}"
        )
    return float(np.count_nonzero(x_ff.dense() != (x_hat >= 1)))
