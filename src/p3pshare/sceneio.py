"""Scene files, delimited reports, and mesh output.

Scene files are canonical JSON with either the optical center or the
subtended-angle cosines; parse/serialize round-trips bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from math import isfinite

import numpy as np

from .errors import SceneParseError
from .geometry import ControlTriangle, ViewAngles


#: the largest float: an integer entry beyond it is not finite
_FLOAT_MAX = sys.float_info.max


def _not_finite(what: str, shape: tuple[int, ...]) -> SceneParseError:
    return SceneParseError(f"{what} must be finite numbers of shape {shape}")


def _finite_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """value as a float array of the given shape, (3,) or (3, 3): nested
    lists of that shape with a finite JSON number at every entry. numpy
    would also convert numeric strings and booleans, and raise
    OverflowError on an integer too large for a float."""
    if type(value) is not list or len(value) != shape[0]:
        raise _not_finite(what, shape)
    for row in value if len(shape) == 2 else [value]:
        if type(row) is not list or len(row) != shape[-1]:
            raise _not_finite(what, shape)
        for x in row:
            if type(x) is float:
                if isfinite(x):
                    continue
            elif type(x) is not int:  # bool is an int
                raise SceneParseError(f"{what} must be numeric: {x!r} is "
                                      "not a number")
            elif -_FLOAT_MAX <= x <= _FLOAT_MAX:  # exact for any int
                continue
            raise _not_finite(what, shape)
    return np.array(value, dtype=float)


def parse_scene(text: str):
    """-> (triangle, center-or-None, angles-or-None, label).

    Exactly one of opticalCenter / subtendedAngleCosines must be present;
    when the center is given the cosines are derived by the caller.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SceneParseError("scene document must be a JSON object")
    try:
        pts = doc["controlPoints"]
    except KeyError:
        raise SceneParseError("missing controlPoints")
    pts = _finite_array(pts, (3, 3), "controlPoints")
    has_center = "opticalCenter" in doc
    has_cos = "subtendedAngleCosines" in doc
    if has_center == has_cos:
        raise SceneParseError(
            "exactly one of opticalCenter / subtendedAngleCosines required")
    tri = ControlTriangle.from_points(pts[0], pts[1], pts[2])
    center = None
    angles = None
    if has_center:
        center = _finite_array(doc["opticalCenter"], (3,), "opticalCenter")
    else:
        cs = _finite_array(doc["subtendedAngleCosines"], (3,),
                           "subtendedAngleCosines")
        angles = ViewAngles(*cs.tolist())
    return tri, center, angles, doc.get("label")


def serialize_scene(tri: ControlTriangle, center=None, angles=None,
                    label=None) -> str:
    """Canonical JSON text for a scene (sorted keys, repr floats)."""
    doc = {"controlPoints": [[float(x) for x in p] for p in tri.points]}
    if center is not None:
        doc["opticalCenter"] = [float(x) for x in center]
    elif angles is not None:
        doc["subtendedAngleCosines"] = list(angles.cosines)
    if label is not None:
        doc["label"] = label
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_scene(path: str):
    with open(path) as fh:
        return parse_scene(fh.read())


def write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(format_csv(header, rows))


def format_csv(header: list[str], rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(header)
    w.writerows(rows)
    return buf.getvalue()


def write_obj(path: str, vertices: np.ndarray, faces) -> None:
    """Text mesh: 'v x y z' lines plus 1-based triangular 'f i j k' lines.

    faces is an integer (F, 3) array, as skew_mesh returns, or a sequence
    of index triples. The text is built whole, one %-format per section,
    and written once.
    """
    text = ("v %.17g %.17g %.17g\n" * len(vertices)) \
        % tuple(np.ravel(vertices).tolist()) \
        + ("f %d %d %d\n" * len(faces)) % tuple(np.ravel(faces).tolist())
    with open(path, "w") as fh:
        fh.write(text)


def read_obj(path: str):
    verts = []
    faces = []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(x) for x in parts[1:4]])
    return np.array(verts), faces
