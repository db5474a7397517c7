"""Hostile edits of a format-3 snapshot, shared by the persistence and CLI tests.

Each case rewrites a saved ``sequence_model`` snapshot (the format-1 fixture
saved as format 3) and names the error ``persistence.load`` must raise and
a word its message must contain.
"""

import json
import math

import numpy as np

from minicolumn.persistence import SnapshotFormatError, SnapshotValidationError

SOURCES = "state.tm.pattern.sources"
PERMANENCES = "state.tm.pattern.permanences"


def read_members(path) -> dict:
    with np.load(path, allow_pickle=False) as npz:
        return {name: npz[name] for name in npz.files}


def write_members(path, members, allow_pickle=False) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=allow_pickle, **members)


def header(members) -> dict:
    return json.loads(members["header"].tobytes())


def set_header(members, doc) -> None:
    members["header"] = np.frombuffer(json.dumps(doc).encode(), np.uint8)


def edit_header(edit):
    def change(members):
        doc = header(members)
        edit(doc["state"])
        set_header(members, doc)

    return change


def edit_array(name, edit):
    def change(members):
        members[name] = edit(members[name].copy())

    return change


def assigned(array, index, value):
    array[index] = value
    return array


def first_segment(state) -> dict:
    return state["tm"]["segments"][0][1][0]


def repeat_segments(state) -> None:
    cell, segs = state["tm"]["segments"][0]
    state["tm"]["segments"][0] = [cell, segs * (state["tm"]["params"]["segments_per_cell"] + 1)]


def overlong_segment(state) -> None:
    """Give the first segment one source more than a segment can hold."""
    params, seg = state["tm"]["params"], first_segment(state)
    n_cells = params["n_columns"] * params["cells_per_column"]
    extra = [c for c in range(n_cells) if c not in seg["sources"]]
    extra = extra[: params["synapses_per_segment"] + 1 - len(seg["sources"])]
    seg["sources"] += extra
    seg["permanences"] += [0.5] * len(extra)


def tiny_segment_spike(state) -> None:
    """Turn on sub-threshold drive and give the first segment a spike so
    small that beta_sub * spike_size underflows to 0."""
    state["tm"]["params"]["beta_sub"] = 1e-300
    first_segment(state)["spike_size"] = 1e-10


def drop_format_version(members) -> None:
    doc = header(members)
    del doc["format_version"]
    set_header(members, doc)


def object_member(members) -> None:
    members[SOURCES] = np.array(members[SOURCES].tolist(), dtype=object)


# (id, change to the members or None, error, message fragment)
CASES = [
    ("truncated-zip", None, SnapshotFormatError, "zip"),
    ("no-header", lambda m: m.pop("header"), SnapshotFormatError, "header"),
    ("no-array-member", lambda m: m.pop(PERMANENCES), SnapshotFormatError, PERMANENCES),
    (
        "header-not-json",
        lambda m: m.update(header=np.frombuffer(b"{not json", np.uint8)),
        SnapshotFormatError,
        "JSON",
    ),
    (
        "header-not-uint8",
        lambda m: m.update(header=m["header"].astype(np.int64)),
        SnapshotFormatError,
        "uint8",
    ),
    (
        "header-version",
        lambda m: set_header(m, dict(header(m), format_version=2)),
        SnapshotFormatError,
        "format_version 2",
    ),
    (
        "dangling-reference",
        edit_header(lambda s: s["tm"]["pattern"].update(sources={"$array": "state.nope"})),
        SnapshotFormatError,
        "state.nope",
    ),
    ("sources-float", edit_array(SOURCES, lambda a: a.astype(np.float64)), SnapshotValidationError, "sources"),
    ("sources-shape", edit_array(SOURCES, lambda a: a[:, :-1]), SnapshotValidationError, "sources"),
    (
        "permanences-float32",
        edit_array(PERMANENCES, lambda a: a.astype(np.float32)),
        SnapshotValidationError,
        "permanences",
    ),
    ("permanences-shape", edit_array(PERMANENCES, lambda a: a[:-1]), SnapshotValidationError, "permanences"),
    (
        "nan-permanence",
        edit_array(PERMANENCES, lambda a: assigned(a, (0, 0), math.nan)),
        SnapshotValidationError,
        "permanences",
    ),
    (
        "source-out-of-range",
        edit_array(SOURCES, lambda a: assigned(a, (0, -1), 128)),
        SnapshotValidationError,
        "sources",
    ),
    (
        "source-repeated",
        edit_array(SOURCES, lambda a: assigned(a, (0, 1), a[0, 0])),
        SnapshotValidationError,
        "sources",
    ),
    (
        "nan-segment-permanence",
        edit_header(lambda s: first_segment(s)["permanences"].__setitem__(0, math.nan)),
        SnapshotValidationError,
        "segment permanences",
    ),
    (
        "segment-source-out-of-range",
        edit_header(lambda s: first_segment(s)["sources"].__setitem__(0, 128)),
        SnapshotValidationError,
        "segment sources",
    ),
    (
        "segment-source-repeated",
        edit_header(lambda s: first_segment(s)["sources"].__setitem__(1, first_segment(s)["sources"][0])),
        SnapshotValidationError,
        "segment sources",
    ),
    ("too-many-segments", edit_header(repeat_segments), SnapshotValidationError, "segments_per_cell"),
    (
        "encoder-width",
        edit_header(lambda s: s["tm"]["params"].update(input_size=256)),
        SnapshotValidationError,
        "input_size",
    ),
    (
        "pattern-copy-delta-inc",
        edit_header(lambda s: s["tm"]["pattern"]["params"].update(delta_inc=0.9)),
        SnapshotValidationError,
        "delta_inc",
    ),
    (
        "pattern-copy-n-synapses",
        edit_header(lambda s: s["tm"]["pattern"]["params"].update(n_synapses=5)),
        SnapshotValidationError,
        "n_synapses",
    ),
    ("object-member", object_member, SnapshotFormatError, "allow_pickle"),
    (
        "header-not-object",
        lambda m: m.update(header=np.frombuffer(b"[1, 2]", np.uint8)),
        SnapshotFormatError,
        "JSON object",
    ),
    ("no-format-version", drop_format_version, SnapshotFormatError, "missing format_version"),
    (
        "segment-cell-out-of-range",
        edit_header(lambda s: s["tm"]["segments"][0].__setitem__(0, 128)),
        SnapshotValidationError,
        "segment cells",
    ),
    (
        "segment-lengths-differ",
        edit_header(lambda s: first_segment(s)["permanences"].pop()),
        SnapshotValidationError,
        "equal length",
    ),
    ("segment-too-long", edit_header(overlong_segment), SnapshotValidationError, "synapses_per_segment"),
    (
        "encoder-kind-unknown",
        edit_header(lambda s: s.update(encoder_kind="bogus")),
        SnapshotValidationError,
        "encoder_kind",
    ),
    (
        "encoder-kind-list",
        edit_header(lambda s: s.update(encoder_kind=["x"])),
        SnapshotValidationError,
        "encoder_kind",
    ),
    (
        # 1e308 * 2 overflows: the sheath rates stop rising at overlap 2 of 16
        "alpha-inh-overflows",
        edit_header(lambda s: s["tm"]["params"].update(alpha_inh=1e308)),
        SnapshotValidationError,
        "alpha_inh * overlap must be finite",
    ),
    (
        # gamma_p / alpha overflows: a bursting cell's firing time is inf
        "alpha-subnormal",
        edit_header(lambda s: s["tm"]["params"].update(alpha=5e-324)),
        SnapshotValidationError,
        "gamma_p / alpha must be finite",
    ),
    (
        # gamma_p / (beta_sub * spike_size) overflows: a bursting cell in a
        # column without feedforward overlap never fires
        "beta-sub-subnormal",
        edit_header(lambda s: s["tm"]["params"].update(beta_sub=5e-324)),
        SnapshotValidationError,
        "gamma_p / (beta_sub * spike_size) must be finite",
    ),
    (
        # the layer's beta_sub and spike_size pass; one segment's spike does not
        "segment-spike-tiny",
        edit_header(tiny_segment_spike),
        SnapshotValidationError,
        "gamma_p / (beta_sub * spike_size) must be finite",
    ),
    (
        # the fixture predicts 9 cells; the copy lists 8
        "prev-predictive-disagrees",
        edit_header(lambda s: s["tm"]["prev_predictive"].pop()),
        SnapshotValidationError,
        "prev_predictive",
    ),
]
IDS = [case[0] for case in CASES]


def apply(path, case_id) -> None:
    """Rewrite the format-3 snapshot at ``path`` as case ``case_id`` says."""
    _, change, _, _ = CASES[IDS.index(case_id)]
    if change is None:  # the only case that breaks the zip itself
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        return
    members = read_members(path)
    change(members)
    write_members(path, members, allow_pickle=case_id == "object-member")
