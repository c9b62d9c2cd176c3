"""Scene files, delimited reports, and mesh output.

Scene files are canonical JSON with either the optical center or the
subtended-angle cosines; parse/serialize round-trips bit-identically.
"""

from __future__ import annotations

import csv
import io
import json
from math import isfinite

import numpy as np

from .errors import SceneParseError
from .geometry import ControlTriangle, ViewAngles


def _finite_floats(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """value as _finite_array returns it, in one Python pass when value is
    nested lists of the shape with a finite float at every entry, as
    serialize_scene writes them: np.array then makes the array that
    np.asarray(value, dtype=float) makes. Any other value goes to
    _finite_array, which raises its errors."""
    if type(value) is list and len(value) == shape[0]:
        flat = [] if len(shape) == 2 else value
        for row in value if len(shape) == 2 else ():
            if type(row) is not list or len(row) != shape[1]:
                return _finite_array(value, shape, what)
            flat += row
        for x in flat:
            if type(x) is not float or not isfinite(x):
                return _finite_array(value, shape, what)
        return np.array(value)
    return _finite_array(value, shape, what)


def _finite_array(value, shape: tuple[int, ...], what: str) -> np.ndarray:
    """value as a float array of the given shape with finite entries, each a
    JSON number: numpy would also convert numeric strings and booleans."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneParseError(f"{what} must be numeric: {exc}") from exc
    if arr.shape != shape or not np.isfinite(arr).all():
        raise SceneParseError(f"{what} must be finite numbers of shape {shape}")
    # the shape holds, so value is nested lists of exactly arr.size entries
    for x in value if len(shape) == 1 else [x for row in value for x in row]:
        if type(x) is not float and type(x) is not int:  # bool is an int
            raise SceneParseError(f"{what} must be numeric: {x!r} is not "
                                  "a number")
    return arr


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
    pts = _finite_floats(pts, (3, 3), "controlPoints")
    has_center = "opticalCenter" in doc
    has_cos = "subtendedAngleCosines" in doc
    if has_center == has_cos:
        raise SceneParseError(
            "exactly one of opticalCenter / subtendedAngleCosines required")
    tri = ControlTriangle.from_points(pts[0], pts[1], pts[2])
    center = None
    angles = None
    if has_center:
        center = _finite_floats(doc["opticalCenter"], (3,), "opticalCenter")
    else:
        cs = _finite_floats(doc["subtendedAngleCosines"], (3,),
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
