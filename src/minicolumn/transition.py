"""Prediction-assisted transition memory over multi-cell columns.

Each column shares one proximal dendrite; each cell carries distal segments
that detect coincidences in the previous step's cell activity. Distal input
depolarises cells ahead of their column's inhibitory sheath, so well-predicted
columns fire only their predictive cells while unpredicted columns burst.
One winner cell per active column carries the sequence context and drives
segment learning, which is how high-order sequences and anomaly signals
emerge.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import partial
from itertools import chain, repeat
from typing import Iterable, NamedTuple

import numpy as np

from .pattern import _PATTERN_PARAMS, PatternLayer, _hebbian
from .sdr import (
    Sdr, _as_array, _as_ids, _check_finite, _check_integral, _check_keys, _check_unit,
    _check_width, _refuse_booleans, _rng_from_state,
)

__all__ = [
    "P_PRED",
    "I_PRED",
    "I_FF",
    "P_BURST",
    "I_SPREAD",
    "FiringEvent",
    "FiringSequence",
    "DistalSegment",
    "LayerOutput",
    "TmLayer",
    "capacity",
    "firing_time",
    "representation_views",
]

# Firing-sequence classes, in emission order. P_* entries are cells,
# I_* entries are column sheaths.
P_PRED = "P_pred"
I_PRED = "I_pred"
I_FF = "I_ff"
P_BURST = "P_burst"
I_SPREAD = "I_spread"
# Their codes in ``FiringSequence.kinds``.
_P_PRED, _I_PRED, _I_FF, _P_BURST, _I_SPREAD = range(5)


class FiringEvent(NamedTuple):
    unit: int  # cell id for P_* classes, column id for I_* classes
    kind: str
    rate: float  # depolarisation rate; firing time = gamma / rate


class FiringSequence(Sequence):
    """One step's firing sequence: an immutable sequence of ``FiringEvent``.

    It holds three read-only arrays of equal length: ``units`` (int64),
    ``kinds`` (uint8 codes into ``KINDS``) and ``rates`` (float64). Events are
    built only when read, by iteration or indexing, with plain ``int``,
    ``str`` and ``float`` fields; a slice is a ``FiringSequence`` over views
    of the same arrays. Two records are equal when their arrays hold the same
    bits, and equal records hash equal. A record never equals a tuple;
    ``tuple(record)`` gives the events as one, and ``repr`` is that tuple's.

    A step's record orders itself on the first read of anything but its
    length, so a caller that never reads the sequence never sorts it.
    """

    __slots__ = ("_units", "_kinds", "_rates", "_pieces")
    KINDS = (P_PRED, I_PRED, I_FF, P_BURST, I_SPREAD)

    def __new__(cls, units, kinds, rates):
        """A record over checked copies of the three arrays."""
        codes = _flat("kinds", kinds, np.int64)
        if codes.size and not (codes.min() >= 0 and codes.max() < len(cls.KINDS)):
            raise ValueError(f"kinds must be codes in [0, {len(cls.KINDS)})")
        units, rates = _flat("units", units, np.int64), _flat("rates", rates, np.float64)
        if not units.size == codes.size == rates.size:
            raise ValueError("units, kinds and rates must have equal length")
        return _record(units, codes.astype(np.uint8), rates)

    units = property(lambda self: self._arrays()[0])
    kinds = property(lambda self: self._arrays()[1])
    rates = property(lambda self: self._arrays()[2])

    def __len__(self) -> int:
        if self._pieces is not None:  # the fired cells (active), one sheath per column (raw)
            return self._pieces[0].size + self._pieces[5].size
        return len(self._units)

    def __getitem__(self, index):
        units, kinds, rates = self._arrays()
        if isinstance(index, slice):
            return _record(units[index], kinds[index], rates[index])
        kind = self.KINDS[kinds.item(index)]
        return tuple.__new__(FiringEvent, (units.item(index), kind, rates.item(index)))

    def __iter__(self):
        units, kinds, rates = self._arrays()
        fields = zip(units.tolist(), map(self.KINDS.__getitem__, kinds.tolist()), rates.tolist())
        return map(tuple.__new__, repeat(FiringEvent), fields)

    def _arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._pieces is not None:
            (active, is_pred, rates, columns, predicted,
             raw, n_synapses, sheath, inactive) = self._pieces
            kinds = np.concatenate(
                (np.where(is_pred, _P_PRED, _P_BURST), np.where(predicted, _I_PRED, _I_FF))
            )
            ordered = _firing_sequence(
                np.concatenate((active, columns)),
                kinds.astype(np.uint8),
                np.concatenate((rates, sheath[columns])),
                raw, n_synapses, sheath, inactive,
            )
            for name in self.__slots__:  # ``_pieces`` last: it becomes None
                object.__setattr__(self, name, getattr(ordered, name))
        return self._units, self._kinds, self._rates

    def _key(self) -> tuple[bytes, bytes, bytes]:
        return tuple(a.tobytes() for a in self._arrays())

    def __eq__(self, other):
        if not isinstance(other, FiringSequence):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return FiringSequence, self._arrays()

    def __setattr__(self, name, value):
        raise AttributeError("FiringSequence is immutable")

    def __delattr__(self, name):
        raise AttributeError("FiringSequence is immutable")


def _record(units, kinds, rates) -> FiringSequence:
    """A record over the arrays themselves, made read-only; no copies, no checks."""
    record = object.__new__(FiringSequence)
    for name, array in zip(FiringSequence.__slots__, (units, kinds, rates)):
        array.flags.writeable = False
        object.__setattr__(record, name, array)
    object.__setattr__(record, "_pieces", None)
    return record


def _unordered(*pieces) -> FiringSequence:
    """A step's record over its unsorted pieces, ordered on the first read."""
    record = object.__new__(FiringSequence)
    object.__setattr__(record, "_pieces", pieces)
    return record


def _firing_sequence(units, kinds, rates, raw, n_synapses, sheath, inactive) -> FiringSequence:
    """The step's firing sequence: kinds in ``KINDS`` order, each fastest
    first, the stable sorts breaking rate ties to the lower unit.

    ``units``, ``kinds`` and ``rates`` are the fired cells and the active
    columns' sheaths, with ascending units within each kind. The spreading
    sheaths, last, are the ``inactive`` columns' rates in ``sheath``, which
    rise strictly with their overlaps ``raw`` (at most ``n_synapses``). So
    ``n_synapses - raw`` orders them, and in an unsigned type of 16 bits or
    less numpy's stable sort is a radix sort.
    """
    order = np.lexsort((-rates, kinds))
    key = (n_synapses - raw).astype(np.min_scalar_type(n_synapses))
    spread = np.argsort(key, kind="stable")
    spread = spread[inactive[spread]]
    return _record(
        np.concatenate((units[order], spread)),
        np.concatenate((kinds[order], np.full(spread.size, _I_SPREAD, dtype=np.uint8))),
        np.concatenate((rates[order], sheath[spread])),
    )


def _firing_times(gamma: float, rates: np.ndarray) -> np.ndarray:
    """Each of ``rates``' time to reach the firing threshold ``gamma``:
    gamma / rate, infinite where nothing depolarises (a rate not above 0)."""
    out = np.empty(rates.shape)
    out.fill(np.inf)
    return np.divide(gamma, rates, out=out, where=rates > 0)


def firing_time(rate: float, gamma: float = 1.0) -> float:
    """Time to reach firing threshold; infinite when nothing depolarises."""
    with np.errstate(all="ignore"):  # overflow gives inf, as a float division does
        return float(_firing_times(gamma, np.float64(rate)))


class DistalSegment(NamedTuple):
    """Copy of one distal segment, as listed by ``TmLayer.segments``.

    ``sources`` are cell ids (growth never picks the owning cell),
    ``permanences`` the matching strengths. The segment spikes when at least
    ``activation_threshold`` connected synapses see an active source.
    """

    sources: list[int]
    permanences: list[float]
    activation_threshold: int
    spike_size: float


@dataclass(frozen=True)
class LayerOutput:
    """One timestep's multi-level result."""

    active_columns: Sdr
    active_cells: Sdr
    predicted_cells: Sdr
    burst_cells: Sdr
    winner_cells: Sdr
    firing_sequence: FiringSequence
    predictive_cells_next: Sdr
    anomaly: float


class _Evals(NamedTuple):
    """Every distal segment scored against one activity set.

    Per segment with at least one active source (``rows``, ascending): raw
    (permanence-blind) overlap, whether the connected overlap reaches its
    activation threshold, and ``rank``, the index of its owner cell in
    ``owners``. Per owner, the ascending cells owning such a segment: ``o_pred``
    sums the spikes of active segments, ``o_sub`` those of segments at or
    above half threshold, ``best`` is the largest raw overlap, and
    ``predictive`` marks the owners whose ``o_pred`` reaches
    ``predictive_threshold``. ``owners`` ends with one more entry, the
    padding source ``n_cells``, standing for every cell that owns no such
    segment: ``o_pred``, ``o_sub`` and ``best`` 0, not predictive.
    """

    rows: np.ndarray
    raw: np.ndarray
    active: np.ndarray
    rank: np.ndarray
    owners: np.ndarray
    o_pred: np.ndarray
    o_sub: np.ndarray
    best: np.ndarray
    predictive: np.ndarray

    def lookup(self, cells):
        """Index into the per-owner arrays of each of ``cells``: its own
        entry, or the last one when it owns no scored segment."""
        at = self.owners.searchsorted(cells)
        return np.where(self.owners[at] == cells, at, len(self.owners) - 1)


def _check_spike(activation_threshold, spike_size) -> None:
    """Check one threshold and spike size, or arrays of them."""
    if np.any(np.less(activation_threshold, 1)):
        raise ValueError("activation_threshold must be >= 1")
    if not np.all(np.greater(spike_size, 0) & np.isfinite(spike_size)):
        raise ValueError("spike_size must be positive and finite")


def _check_sub_drive(gamma_p, beta_sub, spike_size) -> None:
    """Refuse spike sizes (one, or an array of them) for which a bursting
    cell can take an infinite time to fire.

    ``_fire`` times a bursting cell as gamma_p / (alpha * overlap + beta_sub
    * o_sub). In a column without feedforward overlap (``min_overlap`` 0)
    that is gamma_p / (beta_sub * o_sub), slowest at one segment of the
    smallest spike.
    """
    if beta_sub > 0:
        smallest = np.min(spike_size, initial=np.inf)
        with np.errstate(over="ignore", under="ignore", divide="ignore"):
            slowest = gamma_p / (beta_sub * smallest)
        if not np.isfinite(slowest):
            raise ValueError(
                f"gamma_p / (beta_sub * spike_size) must be finite; got beta_sub={beta_sub!r} "
                f"with spike_size={float(smallest)!r}, gamma_p={gamma_p!r}"
            )


def _flat(name: str, values, dtype) -> np.ndarray:
    """``values`` as a 1-D array of ``dtype``. Raises ``ValueError`` naming
    the field unless every value is an integer, or a real number when
    ``dtype`` is a float type."""
    array = _as_array(name, values)
    real = np.dtype(dtype).kind == "f"
    if array.ndim != 1:
        raise ValueError(f"{name} must be flat lists of numbers, got shape {array.shape}")
    if array.size and array.dtype.kind not in ("iuf" if real else "iu"):
        what = "real numbers" if real else "integers"
        raise ValueError(f"{name} must be {what}, got dtype {array.dtype}")
    return array.astype(dtype)


def _ragged(name: str, rows) -> tuple[list, np.ndarray]:
    """The concatenated ``rows``, and the length of each row."""
    try:
        lengths = np.fromiter(map(len, rows), dtype=np.intp)
        values = list(chain.from_iterable(rows))
    except TypeError as exc:
        raise ValueError(f"{name}: {exc}") from exc
    return values, lengths


def _resized(a: np.ndarray, rows: int, fill) -> np.ndarray:
    out = np.full((rows,) + a.shape[1:], fill, dtype=a.dtype)
    out[: len(a)] = a
    return out


# Constructor arguments held by the transition layer itself. Snapshot params
# list the pattern layer's, with cells_per_column after n_columns, then these.
_DISTAL_PARAMS = (
    "alpha", "beta", "beta_sub", "alpha_inh", "gamma_p", "gamma_inh", "dtau_vert",
    "predictive_threshold", "synapses_per_segment", "segments_per_cell",
    "activation_threshold", "min_match_threshold", "spike_size", "sigma_inc",
    "sigma_dec", "sigma_punish", "initial_segment_permanence", "blank_winner",
)


# The distal store as flat arrays, in ``_load_segments``'s argument order: per
# segment its owner cell and synapse count, per synapse its source and
# permanence (segment after segment), then per segment its threshold and spike.
# ``from_state`` reads a state's ``distal`` by these names.
_DISTAL_FIELDS = ("cells", "lengths", "sources", "permanences", "activation_threshold", "spike_size")
# The keys of a transition layer's state besides its ``segments`` or ``distal``.
_TM_STATE = ("params", "pattern", "prev_active", "prev_winners", "prev_predictive", "rng")


def _read_dtau_vert(params: dict) -> dict:
    """A copy of ``params`` in which a ``dtau_vert`` of ``"inf"``, the JSON
    spelling that ``TmLayer.to_state`` writes, is ``math.inf``."""
    return dict(params, dtau_vert=math.inf) if params.get("dtau_vert") == "inf" else dict(params)


class TmLayer:
    """Columns-of-cells sequence memory with prediction-assisted inhibition.

    Column selection is global top-k over alpha * feedforward overlap
    plus beta * the best member-cell predictive potential, standing in for the
    spreading-inhibition wavefront. Scoring phases are pure reads; stepping
    and learning require exclusive access.
    """

    def __init__(
        self,
        input_size: int,
        n_columns: int,
        cells_per_column: int,
        *,
        alpha: float = 1.0,
        beta: float = 0.5,
        beta_sub: float = 0.0,
        alpha_inh: float = 1.5,
        gamma_p: float = 1.0,
        gamma_inh: float = 1.0,
        dtau_vert: float = math.inf,
        predictive_threshold: float = 1.0,
        synapses_per_segment: int = 32,
        segments_per_cell: int = 32,
        activation_threshold: int = 8,
        min_match_threshold: int = 4,
        spike_size: float = 1.0,
        sigma_inc: float = 0.1,
        sigma_dec: float = 0.02,
        sigma_punish: float = 0.004,
        initial_segment_permanence: float | None = None,
        blank_winner: str = "random",
        seed: int = 0,
        **kwargs,
    ):
        """``kwargs`` are the proximal layer's keywords, as ``PatternLayer``
        takes them. ``initial_segment_permanence`` defaults to its
        ``connect_threshold`` + 0.05."""
        pattern_ss, distal_ss = np.random.SeedSequence(seed).spawn(2)
        pattern = PatternLayer(input_size, n_columns, seed=pattern_ss, **kwargs)
        if initial_segment_permanence is None:
            initial_segment_permanence = pattern.connect_threshold + 0.05
            if initial_segment_permanence > 1.0:
                raise ValueError(
                    f"initial_segment_permanence must be in [0, 1], got "
                    f"{initial_segment_permanence}, derived from connect_threshold "
                    f"{pattern.connect_threshold} + 0.05; give it explicitly"
                )
        given = locals()  # the distal arguments, by the names in _DISTAL_PARAMS
        self._configure(cells_per_column, **{name: given[name] for name in _DISTAL_PARAMS})
        self._attach(pattern, np.random.default_rng(distal_ss))

    def _configure(
        self, cells_per_column, *, alpha, beta, beta_sub, alpha_inh, gamma_p, gamma_inh,
        dtau_vert, predictive_threshold, synapses_per_segment, segments_per_cell,
        activation_threshold, min_match_threshold, spike_size, sigma_inc, sigma_dec,
        sigma_punish, initial_segment_permanence, blank_winner,
    ) -> None:
        """Check and store the layer's own resolved parameters, as snapshots
        hold them."""
        _check_finite(
            alpha=alpha, beta=beta, beta_sub=beta_sub, alpha_inh=alpha_inh, gamma_p=gamma_p,
            gamma_inh=gamma_inh, predictive_threshold=predictive_threshold, sigma_inc=sigma_inc,
        )
        _check_integral(
            cells_per_column=cells_per_column, synapses_per_segment=synapses_per_segment,
            segments_per_cell=segments_per_cell, activation_threshold=activation_threshold,
            min_match_threshold=min_match_threshold,
        )
        _refuse_booleans({"dtau_vert": dtau_vert, "spike_size": spike_size})
        if cells_per_column < 1:
            raise ValueError("cells_per_column must be >= 1")
        # dtau_vert may be +inf: an unbounded vertical window.
        if min(alpha, gamma_p, gamma_inh) <= 0 or not dtau_vert > 0:
            raise ValueError("alpha, gamma_p, gamma_inh and dtau_vert must be > 0")
        if beta < 0 or beta_sub < 0:
            raise ValueError("beta and beta_sub must be >= 0")
        # Guarantees the sheath beats any zero-prediction cell on pure
        # feedforward drive: gamma_inh/(alpha_inh*o) < gamma_p/(alpha*o).
        if not alpha_inh > alpha * gamma_inh / gamma_p:
            raise ValueError(
                "need alpha_inh > alpha * gamma_inh / gamma_p so the sheath "
                "outpaces unpredicted cells"
            )
        if blank_winner not in ("random", "lowest"):
            raise ValueError(f"blank_winner must be 'random' or 'lowest', got {blank_winner!r}")
        if synapses_per_segment < 1 or segments_per_cell < 1:
            raise ValueError("segment budgets must be >= 1")
        if activation_threshold >= 2**63:  # a grown segment holds it as int64
            raise ValueError(f"activation_threshold must be < 2**63, got {activation_threshold}")
        _check_spike(activation_threshold, spike_size)
        _check_sub_drive(gamma_p, beta_sub, spike_size)
        if sigma_inc < 0:
            raise ValueError("sigma_inc must be >= 0")
        _check_unit(
            sigma_dec=sigma_dec, sigma_punish=sigma_punish,
            initial_segment_permanence=initial_segment_permanence,
        )

        self.cells_per_column = int(cells_per_column)
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.beta_sub = float(beta_sub)
        self.alpha_inh = float(alpha_inh)
        self.gamma_p = float(gamma_p)
        self.gamma_inh = float(gamma_inh)
        self.dtau_vert = float(dtau_vert)
        self.predictive_threshold = float(predictive_threshold)
        self.synapses_per_segment = int(synapses_per_segment)
        self.segments_per_cell = int(segments_per_cell)
        self.activation_threshold = int(activation_threshold)
        self.min_match_threshold = int(min_match_threshold)
        self._match_floor = max(self.min_match_threshold, 1)  # raw overlap 0 never matches
        self.spike_size = float(spike_size)
        self.sigma_inc = float(sigma_inc)
        self.sigma_dec = float(sigma_dec)
        self.sigma_punish = float(sigma_punish)
        self.initial_segment_permanence = float(initial_segment_permanence)
        self.blank_winner = blank_winner

    def _attach(self, pattern: PatternLayer, rng: np.random.Generator) -> None:
        """Take the proximal layer and the distal rng; start with no segments
        and no sequence state."""
        n_cells = pattern.n_columns * self.cells_per_column
        if n_cells >= 2**31:  # the presynaptic index packs a source into 31 bits
            raise ValueError(f"cannot allocate a layer of {n_cells} cells: 2**31 or more")
        # _firing_sequence orders the sheaths by overlap, which is their order
        # by rate only while the rate rises strictly with the overlap; _fire
        # times a sheath as gamma_inh / rate, slowest at overlap 1. For a
        # positive alpha_inh, the rates alpha_inh * k for k up to n_synapses
        # rise strictly once the top one is finite: consecutive products
        # differ by alpha_inh, more than their rounding error for k < 2**52.
        top = self.alpha_inh * pattern.n_synapses
        if not (math.isfinite(top) and math.isfinite(self.gamma_inh / self.alpha_inh)):
            raise ValueError(
                f"alpha_inh * overlap must be finite and rise strictly for overlaps 0 to "
                f"n_synapses={pattern.n_synapses}, with gamma_inh / alpha_inh finite; got "
                f"alpha_inh={self.alpha_inh!r}"
            )
        # _select_columns scores alpha * overlap, and _fire times a bursting
        # cell as gamma_p / (alpha * overlap + ...), slowest at overlap 1.
        with np.errstate(over="ignore", divide="ignore"):
            alpha = np.float64(self.alpha)
            limits = self.gamma_p / alpha, alpha * pattern.n_synapses
        if not np.isfinite(limits).all():
            raise ValueError(
                f"alpha * n_synapses and gamma_p / alpha must be finite; got "
                f"alpha={self.alpha!r} with n_synapses={pattern.n_synapses}, "
                f"gamma_p={self.gamma_p!r}"
            )
        self.pattern = pattern
        self._rng = rng
        self.n_columns = pattern.n_columns
        self.n_cells = n_cells

        # Distal segments, one row each; the first ``_n_segments`` rows are in
        # use and capacity doubles as they fill. A cell's segments are its
        # rows in ascending order: rows are appended, or overwritten in place
        # when a full cell replaces its weakest segment. Unused synapse slots
        # hold source ``n_cells``, a cell that never fires, and permanence 0.
        self._n_segments = 0
        self._sources = np.zeros((0, self.synapses_per_segment), dtype=np.int64)
        self._permanences = np.zeros((0, self.synapses_per_segment), dtype=np.float64)
        self._owner = np.zeros(0, dtype=np.int64)
        self._thresholds = np.zeros(0, dtype=np.int64)
        self._spikes = np.zeros(0, dtype=np.float64)
        # Segments per cell, kept by _add_segments and _grow_segment.
        self._segment_counts = np.zeros(n_cells, dtype=np.int64)
        self._drop_index()
        # The evaluation of no activity, as after a reset: no segment seen,
        # only the padding entry. Built once and shared, so read-only.
        none = np.zeros(0, dtype=np.int64)
        self._idle = _Evals(
            none, none, none.astype(bool), none, np.array([n_cells]), np.zeros(1), np.zeros(1),
            np.zeros(1, dtype=np.int64), np.zeros(1, dtype=bool),
        )
        for array in self._idle:
            array.flags.writeable = False
        self.reset()

    # -- basic geometry -----------------------------------------------------

    def column_of(self, cell: int) -> int:
        return cell // self.cells_per_column

    @property
    def prev_active(self) -> Sdr:
        return self._prev_active

    @property
    def prev_winners(self) -> Sdr:
        return self._prev_winners

    @property
    def prev_predictive(self) -> Sdr:
        """Cells predictive for the next step: those that ``prev_active``
        depolarises through the current segments."""
        evals = self._previous_evals()
        return Sdr._from_sorted(self.n_cells, evals.owners[evals.predictive])

    def _previous_evals(self) -> _Evals:
        """The segments scored against ``prev_active``, cached until they change."""
        if self._prev_evals is None:
            self._prev_evals = self._eval_segments(self._prev_active.ids)
        return self._prev_evals

    # -- distal segment store -----------------------------------------------

    def distal_counts(self) -> dict[str, int]:
        """Cells owning segments, segments, and synapses on them."""
        return {
            "cells_with_segments": int(np.count_nonzero(self._segment_counts)),
            "segments": self._n_segments,
            "synapses": int(np.count_nonzero(self._sources[: self._n_segments] != self.n_cells)),
        }

    @property
    def segments(self) -> dict[int, list[DistalSegment]]:
        """Copy of every cell's segments in segment order; cells without
        segments are left out."""
        n = self._n_segments
        order = np.argsort(self._owner[:n], kind="stable")
        lengths = np.count_nonzero(self._sources[order] != self.n_cells, axis=1)
        out: dict[int, list[DistalSegment]] = {}
        for cell, k, sources, perms, threshold, spike in zip(
            self._owner[order].tolist(),
            lengths.tolist(),
            self._sources[order].tolist(),
            self._permanences[order].tolist(),
            self._thresholds[order].tolist(),
            self._spikes[order].tolist(),
        ):
            out.setdefault(cell, []).append(DistalSegment(sources[:k], perms[:k], threshold, spike))
        return out

    def add_segment(
        self,
        cell: int,
        sources,
        permanences,
        activation_threshold: int | None = None,
        spike_size: float | None = None,
    ) -> int:
        """Give ``cell`` one more distal segment and return its row.

        Thresholds default to the layer's. Raises ``ValueError`` for anything
        the layer could not hold or score. ``prev_predictive`` and the next
        step see the new segment, as they would in a saved and reloaded copy.
        """
        if activation_threshold is None:
            activation_threshold = self.activation_threshold
        if spike_size is None:
            spike_size = self.spike_size
        self._add_segments([cell], [sources], [permanences], [activation_threshold], [spike_size])
        self._prev_evals = None
        return self._n_segments - 1

    def _add_segments(self, cells, sources, permanences, thresholds, spikes) -> None:
        """Append one segment per entry of ``cells``, in order: ``sources[i]``
        and ``permanences[i]`` are sequences, ``thresholds[i]`` and
        ``spikes[i]`` numbers. Flattened, they go to ``_load_segments``.
        """
        sources, lengths = _ragged("segment sources", sources)
        permanences, perm_lengths = _ragged("segment permanences", permanences)
        if not np.array_equal(lengths, perm_lengths):
            raise ValueError("segment sources and permanences must have equal length")
        self._load_segments(cells, lengths, sources, permanences, thresholds, spikes)

    def _load_segments(self, cells, lengths, sources, permanences, thresholds, spikes) -> None:
        """Append one segment per entry of ``cells``, in order, from flat
        arrays: segment i has ``lengths[i]`` synapses, the next ones of
        ``sources`` and ``permanences``, and its own ``thresholds[i]`` and
        ``spikes[i]``.

        Every segment is checked before any is stored. Raises ``ValueError``,
        naming the field, for anything the layer could not hold or score.
        """
        n_cells, width = self.n_cells, self.synapses_per_segment
        cells = _flat("segment cells", cells, np.int64)
        lengths = _flat("segment lengths", lengths, np.int64)
        flat_sources = _flat("segment sources", sources, np.int64)
        flat_perms = _flat("segment permanences", permanences, np.float64)
        thresholds = _flat("activation_threshold", thresholds, np.int64)
        spikes = _flat("spike_size", spikes, np.float64)
        if not cells.size == lengths.size == thresholds.size == spikes.size:
            raise ValueError(
                "segment cells, lengths, activation_threshold and spike_size must have equal "
                f"counts, got {cells.size}, {lengths.size}, {thresholds.size} and {spikes.size}"
            )
        if cells.size and not (cells.min() >= 0 and cells.max() < n_cells):
            raise ValueError(f"segment cells must lie in [0, {n_cells})")
        if lengths.size and lengths.min() < 0:
            raise ValueError("segment lengths must be >= 0")
        if lengths.size and lengths.max() > width:
            raise ValueError(f"more than synapses_per_segment={width} segment sources")
        if flat_sources.size != flat_perms.size:
            raise ValueError("segment sources and permanences must have equal length")
        if lengths.sum() != flat_sources.size:
            raise ValueError(
                f"segment lengths sum to {lengths.sum()}, not to the {flat_sources.size} "
                "segment sources"
            )
        if flat_sources.size and not (flat_sources.min() >= 0 and flat_sources.max() < n_cells):
            raise ValueError(f"segment sources must lie in [0, {n_cells})")
        if not ((flat_perms >= 0.0) & (flat_perms <= 1.0)).all():
            raise ValueError("segment permanences outside [0, 1]")
        _check_spike(thresholds, spikes)
        _check_sub_drive(self.gamma_p, self.beta_sub, spikes)
        counts = self._segment_counts + np.bincount(cells, minlength=n_cells)
        if counts.max(initial=0) > self.segments_per_cell:
            cell = int(np.argmax(counts > self.segments_per_cell))
            raise ValueError(
                f"cell {cell} would have more than segments_per_cell={self.segments_per_cell} "
                "segments"
            )
        # Segment i's synapses fill the first lengths[i] slots of its row.
        rows = np.repeat(np.arange(cells.size), lengths)
        slots = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        block = np.full((cells.size, width), n_cells, dtype=np.int64)
        block[rows, slots] = flat_sources
        ordered = np.sort(block, axis=1)
        if ((ordered[:, 1:] == ordered[:, :-1]) & (ordered[:, 1:] != n_cells)).any():
            raise ValueError("segment sources must be distinct")

        start, stop = self._n_segments, self._n_segments + cells.size
        self._reserve(stop)
        self._sources[start:stop] = block
        self._permanences[start:stop] = 0.0
        self._permanences[start + rows, slots] = flat_perms
        self._owner[start:stop] = cells
        self._thresholds[start:stop] = thresholds
        self._spikes[start:stop] = spikes
        self._n_segments = stop
        self._segment_counts = counts

    def _reserve(self, rows: int) -> None:
        """Make room for ``rows`` segments; capacity at least doubles as it grows."""
        if rows > len(self._owner):
            size = max(64, 2 * len(self._owner), rows)
            self._sources = _resized(self._sources, size, self.n_cells)
            self._permanences = _resized(self._permanences, size, 0.0)
            self._owner = _resized(self._owner, size, 0)
            self._thresholds = _resized(self._thresholds, size, 0)
            self._spikes = _resized(self._spikes, size, 0.0)

    # -- presynaptic index ----------------------------------------------------
    #
    # Derived from the source slab and never saved. ``_index`` is the tuple
    # ``(order, ptr, rows)``: ``order`` lists the flat slots
    # ``row * synapses_per_segment + slot`` of the first ``rows`` rows by
    # source cell, each cell's slots ascending, and cell c's run is
    # ``order[ptr[c]:ptr[c + 1]]``. A read first merges in the rows appended
    # since. The tuple is replaced whole, never written in place, so a
    # concurrent reader sees either the old index or the new one.

    def _drop_index(self) -> None:
        """Forget the index; the next read builds it from every row."""
        self._index = np.zeros(0, dtype=np.int64), np.zeros(self.n_cells + 2, dtype=np.int64), 0

    def _hit_slots(self, cells: np.ndarray) -> np.ndarray:
        """Flat slots of every synapse on one of ``cells`` (ascending and
        distinct), in no particular order."""
        order, ptr, indexed = self._index
        if indexed < self._n_segments:
            # The new slots are larger than every indexed one, so putting
            # each after its source's run keeps the run ascending. Each key
            # packs a source over its slot, so the packed keys have no ties
            # and sort into the stable order.
            keys = self._sources[indexed : self._n_segments].reshape(-1)
            new = (keys << 32) | np.arange(keys.size)
            new.sort()
            new &= 0xFFFFFFFF
            ends = keys[new] + 1
            order = np.insert(order, ptr[ends], indexed * self.synapses_per_segment + new)
            # ptr[c] moves up by the number of new slots whose source is below
            # c, their cumulative bincount: read off the sorted sources, as a
            # cumsum over every cell costs more than the rest of the merge.
            below = np.diff(ends, prepend=0, append=ptr.size)
            ptr = ptr + np.arange(ends.size + 1).repeat(below)
            self._index = order, ptr, self._n_segments
        stops = ptr[cells + 1]
        lengths = stops - ptr[cells]
        # the runs of ``cells`` in the index, end to end
        offsets = (stops - lengths.cumsum()).repeat(lengths)
        return order[offsets + np.arange(offsets.size)]

    # -- distal evaluation --------------------------------------------------

    def _cell_ids(self, active) -> np.ndarray:
        """The cell ids of an array, ``Sdr`` or iterable, ascending and distinct.

        Raises ``DimensionError`` for an ``Sdr`` of another width, and
        ``ValueError`` for ids that are not a flat set of integers in the layer.
        """
        if isinstance(active, Sdr):
            _check_width(active, self.n_cells, "activity", "layer cells")
            return active.ids
        idx = _as_ids(active, self.n_cells, "active cells")
        return idx if (idx[1:] > idx[:-1]).all() else np.unique(idx)

    def _segment_overlaps(self, idx) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The segments seeing one of the active cells ``idx``, ascending,
        with their raw and connected overlaps.

        Only the synapses on active cells are read, through the presynaptic
        index.
        """
        slots = self._hit_slots(idx)
        hit_rows = slots // self.synapses_per_segment
        connected = self._permanences.reshape(-1)[slots] >= self.pattern.connect_threshold
        raw = np.bincount(hit_rows, minlength=self._n_segments)
        rows = raw.nonzero()[0]
        conn = np.bincount(hit_rows, connected, minlength=self._n_segments)[rows]
        return rows, raw[rows], conn.astype(np.int64)

    def _eval_segments(self, active) -> _Evals:
        """Score every segment against one activity set: ``active``, distinct
        cell ids in the layer, in an integer array or a sequence. Callers
        check ids from outside with ``_cell_ids``.

        This is the only distal scoring path. Spikes are summed per cell in
        segment order, as one-at-a-time accumulation would.
        """
        idx = np.asarray(active, dtype=np.int64)
        if not idx.size:
            return self._idle
        rows, raw, conn = self._segment_overlaps(idx)
        if not rows.size:  # no segment seen: only the padding entry
            return self._idle
        cells, thresholds, spikes = self._owner[rows], self._thresholds[rows], self._spikes[rows]
        act = conn >= thresholds
        sub = (2 * conn >= thresholds) ^ act  # at or above half threshold, not active
        # The distinct owners ascending, then the padding entry.
        ordered = cells.copy()
        ordered.sort()
        keep = np.empty(cells.size + 1, dtype=bool)
        keep[0] = keep[-1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=keep[1:-1])
        owners = np.concatenate((ordered, [self.n_cells]))[keep]
        rank = owners.searchsorted(cells)
        # Summed in row order; the 0.0 of another kind of segment changes no sum.
        o_pred = np.bincount(rank, spikes * act, owners.size)
        o_sub = np.bincount(rank, spikes * sub, owners.size)
        best = np.zeros(owners.size, dtype=np.int64)
        np.maximum.at(best, rank, raw)
        predictive = o_pred >= self.predictive_threshold
        predictive[-1] = False  # the padding entry, whatever the threshold
        return _Evals(rows, raw, act, rank, owners, o_pred, o_sub, best, predictive)

    def predictive_potential(self, cell: int, prev_active: Sdr | Iterable[int]) -> float:
        """Summed spike sizes of this cell's active segments."""
        if not 0 <= cell < self.n_cells:
            raise ValueError(f"cell must lie in [0, {self.n_cells}), got {cell}")
        evals = self._eval_segments(self._cell_ids(prev_active))
        return float(evals.o_pred[evals.lookup(cell)])

    def depolarisation_rates(
        self, x_ff: Sdr, prev_active: Sdr
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell and per-sheath depolarisation rates for given activity.

        These are the rates ``step`` fires on. A predictive cell's rate is
        alpha * column feedforward overlap + beta * predictive potential; any
        other cell's is alpha * feedforward overlap + beta_sub * sub-threshold
        potential, its rate when the column bursts. The sheath sees only
        alpha_inh * feedforward overlap.
        """
        raw = self.pattern.raw_overlaps(x_ff)
        evals = self._eval_segments(self._cell_ids(prev_active))
        _, at, _, o_ff, rates = self._drive(np.arange(self.n_columns), raw, evals)
        burst = o_ff + self.beta_sub * evals.o_sub[at]
        return np.where(evals.predictive[at], rates, burst).reshape(-1), self.alpha_inh * raw

    # -- stepping -----------------------------------------------------------

    def _select_columns(self, raw: np.ndarray, evals: _Evals) -> Sdr:
        # Each column's largest cell potential. Only owners of a scored
        # segment can have a nonzero one, and no potential is negative.
        top = np.zeros(self.n_columns)
        np.maximum.at(top, evals.owners[:-1] // self.cells_per_column, evals.o_pred[:-1])
        scores = self.alpha * raw + self.beta * top
        return self.pattern._select(scores, raw)

    def _drive(self, columns: np.ndarray, raw: np.ndarray, evals: _Evals):
        """The ``[len(columns), cells_per_column]`` block of the ``columns``' cells:
        the cells, their entries in ``evals``, their potentials ``o_pred``, each
        row's drive alpha * raw, and each cell's rate alpha * raw + beta * o_pred."""
        n = self.cells_per_column
        cells = columns[:, None] * n + np.arange(n)
        at = evals.lookup(cells)
        o_pred = evals.o_pred[at]
        o_ff = self.alpha * raw[columns][:, None]
        return cells, at, o_pred, o_ff, o_ff + self.beta * o_pred

    def _fire(self, columns: np.ndarray, raw: np.ndarray, sheath: np.ndarray, evals: _Evals):
        """Fire the active columns' cells and pick one winner per column.

        A column holding predictive cells fires just those, and the one with
        the largest potential wins. Any other column bursts: every cell whose
        drive fires within ``dtau_vert`` of the sheath. Its winner is the cell
        with the best raw segment match at or above the learning floor, else
        a cell with fewest segments (seeded-random or lowest-index per
        configuration). Ties go to the lower cell.

        Works on the ``[len(columns), cells_per_column]`` block of the active
        columns' cells, one row per column. Returns the fired cells
        (ascending), whether each was predicted and its depolarisation rate,
        which columns held a predictive cell, each row's winner offset and the
        block's entries in ``evals``.
        """
        cells, at, o_pred, o_ff, rates = self._drive(columns, raw, evals)
        fired = pred = evals.predictive[at]
        predicted_columns = np.logical_or.reduce(pred, axis=1)
        winners = np.where(pred, o_pred, -np.inf).argmax(axis=1)
        # Most steps of a trained layer burst no column; the block below
        # gives the same result for them, but with a dozen more numpy calls.
        if not np.logical_and.reduce(predicted_columns):
            bursting = ~predicted_columns
            sub = self.beta_sub * evals.o_sub[at]
            d = o_ff + sub
            t_sheath = _firing_times(self.gamma_inh, sheath[columns])
            fire = _firing_times(self.gamma_p, d) < (t_sheath + self.dtau_vert)[:, None]
            # The column won the feedforward competition; its fastest cell
            # must represent it even when the vertical window is narrower
            # than the sheath margin.
            rows = np.arange(len(columns))
            fire[rows, sub.argmax(axis=1)] |= ~np.logical_or.reduce(fire, axis=1)
            fired = pred | (fire & bursting[:, None])
            rates = np.where(pred, rates, d)

            best = evals.best[at]
            matched = best.argmax(axis=1)
            winners = np.where(bursting, matched, winners)
            blank = bursting & (best[rows, matched] < self._match_floor)
            if np.logical_or.reduce(blank):
                counts = self._segment_counts[cells[blank]]
                if self.blank_winner == "lowest":
                    winners[blank] = counts.argmin(axis=1)
                else:
                    # One draw for every row gives the values and the rng
                    # state of one scalar draw per row, in row order.
                    pool = counts == np.minimum.reduce(counts, axis=1, keepdims=True)
                    k = self._rng.integers(np.add.reduce(pool, axis=1, dtype=np.intp))
                    winners[blank] = (pool.cumsum(axis=1) > k[:, None]).argmax(axis=1)
        return cells[fired], pred[fired], rates[fired], predicted_columns, winners, at

    def _reinforce(self, rows: np.ndarray, on: np.ndarray, inc, dec) -> None:
        """The Hebbian update of segment ``rows``: synapses on sources active
        in ``on`` scale by (1 + inc), the rest by (1 - dec)."""
        on = on.take(self._sources.take(rows, axis=0))
        self._permanences[rows] = _hebbian(self._permanences.take(rows, axis=0), on, inc, dec)

    def _grow_segment(self, cell: int, prev_winners: np.ndarray) -> None:
        """Give ``cell`` a segment on a random sample of the previous winners
        (ascending int64 cell ids) other than itself. A cell at its budget
        overwrites its weakest segment, the lowest row on a tie."""
        candidates = prev_winners[prev_winners != cell]
        if not candidates.size:
            return
        k = min(self.synapses_per_segment, candidates.size)
        sources = candidates[self._rng.choice(candidates.size, size=k, replace=False)]
        sources.sort()
        if self._segment_counts[cell] >= self.segments_per_cell:
            rows = (self._owner[: self._n_segments] == cell).nonzero()[0]
            # Totals summed left to right over each row, as cumsum does;
            # padding adds 0.0. argmin takes the first of tied totals.
            row = rows[self._permanences[rows].cumsum(axis=1)[:, -1].argmin()]
            if row < self._index[2]:  # an indexed row: the next read rebuilds the index
                self._drop_index()
        else:
            row = self._n_segments
            self._reserve(row + 1)
            self._n_segments = row + 1
            self._segment_counts[cell] += 1
        self._sources[row, :k] = sources
        self._sources[row, k:] = self.n_cells
        self._permanences[row, :k] = self.initial_segment_permanence
        self._permanences[row, k:] = 0.0
        self._owner[row] = cell
        self._thresholds[row] = self.activation_threshold
        self._spikes[row] = self.spike_size

    def _learn_distal(
        self, winners: np.ndarray, at: np.ndarray, evals: _Evals, inactive: np.ndarray,
        prev_active: Sdr, prev_winners: Sdr,
    ) -> None:
        """Punish, then reinforce, then grow; ``evals`` scored the segments
        against ``prev_active``.

        Mispredicted cells (predictive, but their column is ``inactive``)
        fade their active segments' synapses on sources that fired. A winner
        (``at`` its entry in ``evals``) reinforces its active segments, else
        its lowest row at its best raw match if that reaches the match floor,
        else grows a segment from the previous winners, in winner order.
        Punished cells lie in inactive columns and winners in active ones, so
        no segment is touched twice and the batched row updates equal
        one-at-a-time ones.
        """
        on = np.zeros(self.n_cells + 1, dtype=bool)  # the padding source stays off
        on[prev_active.ids] = True
        if self.sigma_punish > 0.0:
            owners = evals.owners[evals.rank]
            punish = evals.predictive[evals.rank] & inactive[owners // self.cells_per_column]
            self._reinforce(evals.rows[evals.active & punish], on, -self.sigma_punish, 0.0)

        # The padding entry may be marked too; no scored segment ranks there.
        is_winner = np.zeros(evals.owners.size, dtype=bool)
        is_winner[at] = True
        reinforce = evals.rows[evals.active & is_winner[evals.rank]]
        quiet = evals.o_pred[at] == 0.0  # winners without an active segment
        best = evals.best[at]
        matching = quiet & (best >= self._match_floor)
        if np.logical_or.reduce(matching):
            # Matching winners own distinct entries; a raw overlap is never -1.
            target = np.empty(evals.owners.size, dtype=np.int64)
            target.fill(-1)
            target[at[matching]] = best[matching]
            hit = evals.raw == target[evals.rank]
            lowest = np.unique(evals.rank[hit], return_index=True)[1]
            reinforce = np.concatenate((reinforce, evals.rows[hit][lowest]))
        self._reinforce(reinforce, on, self.sigma_inc, self.sigma_dec)
        grow = winners[quiet & ~matching]
        # After a reset there are no previous winners to grow from.
        if grow.size and prev_winners:
            for cell in grow.tolist():
                self._grow_segment(cell, prev_winners.ids)

    def step(self, x_ff: Sdr, learn: bool = True) -> LayerOutput:
        """Run one timestep: select columns, fire cells, learn, advance state."""
        raw = self.pattern.raw_overlaps(x_ff)
        evals = self._previous_evals()
        active_columns = self._select_columns(raw, evals)
        columns = active_columns.ids
        sheath = self.alpha_inh * raw
        active, is_pred, rates, predicted_columns, offsets, at = self._fire(
            columns, raw, sheath, evals
        )
        predicted, burst = active[is_pred], active[~is_pred]
        winners = columns * self.cells_per_column + offsets

        inactive = ~active_columns.dense()  # these columns' sheaths spread
        firing_sequence = _unordered(
            active, is_pred, rates, columns, predicted_columns, raw, self.pattern.n_synapses,
            sheath, inactive,
        )

        hits = int(np.add.reduce(predicted_columns))
        anomaly = 1.0 - hits / columns.size if columns.size else 0.0

        if learn:
            at = at[np.arange(columns.size), offsets]  # the winners' entries
            self._learn_distal(winners, at, evals, inactive, self._prev_active, self._prev_winners)
            self.pattern.learn(x_ff, active_columns)

        next_evals = self._eval_segments(active)
        sdr = partial(Sdr._from_sorted, self.n_cells)
        output = LayerOutput(
            active_columns=active_columns,
            active_cells=sdr(active),
            predicted_cells=sdr(predicted),
            burst_cells=sdr(burst),
            winner_cells=sdr(winners),
            firing_sequence=firing_sequence,
            predictive_cells_next=sdr(next_evals.owners[next_evals.predictive]),
            anomaly=anomaly,
        )

        self._prev_active = output.active_cells
        self._prev_winners = output.winner_cells
        self._prev_evals = next_evals
        return output

    def reset(self) -> None:
        """Clear sequence state (learned permanences stay)."""
        self._prev_active = Sdr(self.n_cells)
        self._prev_winners = Sdr(self.n_cells)
        self._prev_evals = None

    # -- persistence ----------------------------------------------------------

    def params(self) -> dict:
        """The layer's parameters as ``to_state`` writes them, without
        walking its segments."""
        pattern = self.pattern
        params = {name: getattr(pattern, name) for name in _PATTERN_PARAMS[:2]}
        params["cells_per_column"] = self.cells_per_column
        params.update((name, getattr(pattern, name)) for name in _PATTERN_PARAMS[2:])
        params.update((name, getattr(self, name)) for name in _DISTAL_PARAMS)
        if not math.isfinite(self.dtau_vert):
            params["dtau_vert"] = "inf"
        return params

    def to_state(self) -> dict:
        return {
            "params": self.params(),
            "pattern": self.pattern.to_state(),
            "segments": [
                [cell, [seg._asdict() for seg in segs]]
                for cell, segs in self.segments.items()
            ],
            "prev_active": self._prev_active.ids.tolist(),
            "prev_winners": self._prev_winners.ids.tolist(),
            "prev_predictive": self.prev_predictive.ids.tolist(),
            "rng": self._rng.bit_generator.state,
        }

    @classmethod
    def from_state(cls, state: dict) -> "TmLayer":
        if ("segments" in state) == ("distal" in state):
            raise ValueError("a transition layer state holds either segments or distal")
        _check_keys(
            "transition layer state", state,
            _TM_STATE + (("distal",) if "distal" in state else ("segments",)),
        )
        params = _read_dtau_vert(state["params"])
        pattern_params = {name: params.pop(name) for name in _PATTERN_PARAMS}
        # The pattern state repeats its parameters; a copy must agree with these.
        _check_keys("pattern params", state["pattern"]["params"], _PATTERN_PARAMS)
        for name, value in state["pattern"]["params"].items():
            if pattern_params[name] != value:
                raise ValueError(
                    f"pattern params {name}={value!r} disagree with params "
                    f"{name}={pattern_params[name]!r}"
                )
        # Not through __init__: every array and both rngs come from the state.
        layer = cls.__new__(cls)
        layer._configure(**params)
        rng = _rng_from_state(state["rng"])
        layer._attach(PatternLayer.from_state(dict(state["pattern"], params=pattern_params)), rng)
        if "distal" in state:
            distal = state["distal"]
            _check_keys("distal", distal, _DISTAL_FIELDS)
            layer._load_segments(*(distal[name] for name in _DISTAL_FIELDS))
        else:
            cells, sources, permanences, thresholds, spikes = [], [], [], [], []
            for cell, segs in state["segments"]:
                for seg in segs:
                    _check_keys("segment", seg, DistalSegment._fields)
                    cells.append(cell)
                    sources.append(seg["sources"])
                    permanences.append(seg["permanences"])
                    thresholds.append(seg["activation_threshold"])
                    spikes.append(seg["spike_size"])
            layer._add_segments(cells, sources, permanences, thresholds, spikes)
        layer._prev_active = Sdr(layer.n_cells, state["prev_active"])
        layer._prev_winners = Sdr(layer.n_cells, state["prev_winners"])
        # A stored copy of derived state must agree with what it derives from.
        if Sdr(layer.n_cells, state["prev_predictive"]) != layer.prev_predictive:
            raise ValueError("prev_predictive disagrees with prev_active and the segments")
        return layer


def _columns_of(cells: Sdr, n_columns: int) -> Sdr:
    """The columns holding any of ``cells``, of a layer of ``n_columns``."""
    columns = cells.ids // (cells.universe_size // n_columns)
    # The cells ascend, so their columns do too: keep each column's first.
    return Sdr._from_sorted(n_columns, columns[np.diff(columns, prepend=-1) != 0])


def representation_views(output: LayerOutput) -> dict:
    """Simultaneous read-outs of one step at every level of detail."""
    n_columns = output.active_columns.universe_size
    sequence = output.firing_sequence
    cells = (sequence.kinds == _P_PRED) | (sequence.kinds == _P_BURST)
    ordered = _record(*(a[cells] for a in sequence._arrays()))
    return {
        "columnar": output.active_columns,
        "cellular": output.active_cells,
        "pred_columnar": _columns_of(output.predicted_cells, n_columns),
        "burst_columnar": _columns_of(output.burst_cells, n_columns),
        "pred_cellular": output.predicted_cells,
        "burst_cellular": output.burst_cells,
        "ordered": ordered,
    }


def capacity(n_cols: int, k: int, cells: int) -> dict:
    """log10 counts of distinct codes at each representation level.

    Columnar capacity is C(n_cols, k); each columnar code can appear in
    cells**k contexts; the cellular capacity is their product. Computed via
    log-gamma so huge counts never overflow.
    """
    _check_integral(n_cols=n_cols, k=k, cells=cells)
    if k > n_cols:
        raise ValueError(f"k must be <= n_cols, got k={k}, n_cols={n_cols}")
    if k < 0 or cells < 1:
        raise ValueError("need k >= 0 and cells >= 1")
    ln10 = math.log(10.0)
    columnar = (
        math.lgamma(n_cols + 1) - math.lgamma(k + 1) - math.lgamma(n_cols - k + 1)
    ) / ln10
    contexts = k * math.log10(cells)
    return {"columnar": columnar, "contexts": contexts, "cellular": columnar + contexts}
