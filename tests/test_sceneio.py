"""Scene JSON, delimited reports, and mesh files."""

import numpy as np
import pytest

from p3pshare.errors import SceneParseError
from p3pshare.geometry import ViewAngles
from p3pshare.sceneio import (format_csv, parse_scene, read_obj,
                              serialize_scene, write_csv, write_obj)


VALID_CENTER_SCENE = """
{
  "controlPoints": [[0.5, 0.8660254037844386, 0.0],
                    [0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0]],
  "opticalCenter": [0.5, 0.28867513459481287, 1.0]
}
"""

VALID_ANGLE_SCENE = """
{
  "controlPoints": [[0.5, 0.8660254037844386, 0.0],
                    [0.0, 0.0, 0.0],
                    [1.0, 0.0, 0.0]],
  "subtendedAngleCosines": [0.625, 0.625, 0.625]
}
"""

_PTS = '"controlPoints": [[0,0,0],[1,0,0],[0,1,0]]'
#: entries that are not numbers, ragged, or not finite (JSON NaN/Infinity)
MALFORMED_SCENES = {
    "ragged_points":
        '{"controlPoints": [[1,2],[3,4,5],[6,7,8]], "opticalCenter": [0,0,1]}',
    "string_point": '{"controlPoints": [[0,0,"a"],[1,0,0],[0,1,0]],'
                    ' "opticalCenter": [0,0,1]}',
    "nan_point": '{"controlPoints": [[0,0,NaN],[1,0,0],[0,1,0]],'
                 ' "opticalCenter": [0,0,1]}',
    "inf_point": '{"controlPoints": [[0,0,0],[1,0,Infinity],[0,1,0]],'
                 ' "opticalCenter": [0,0,1]}',
    "string_center": '{' + _PTS + ', "opticalCenter": "abc"}',
    "object_in_center": '{' + _PTS + ', "opticalCenter": [0, {}, 1]}',
    "null_in_center": '{' + _PTS + ', "opticalCenter": [0, null, 1]}',
    "inf_center": '{' + _PTS + ', "opticalCenter": [0, 0, -Infinity]}',
    "string_cosine": '{' + _PTS + ', "subtendedAngleCosines": ["x", 0.5, 0.5]}',
    "nan_cosine": '{' + _PTS + ', "subtendedAngleCosines": [NaN, 0.5, 0.5]}',
    "string_cosines": '{' + _PTS + ', "subtendedAngleCosines": "abc"}',
    # numpy converts these to floats; a JSON number is neither
    "numeric_string_point": '{"controlPoints": [["1","2","0"],[0,0,0],'
                            '[1,0,0]], "opticalCenter": ["1.5","0.5","2"]}',
    "bool_center": '{' + _PTS + ', "opticalCenter": [1, 2.5, true]}',
    "bool_cosine": '{' + _PTS + ', "subtendedAngleCosines": [0.5, false, 0.5]}',
    # an integer beyond the float range
    "overflowing_int_center": '{' + _PTS + ', "opticalCenter": [0, 0, 1'
                              + '0' * 400 + ']}',
}


class TestParseScene:
    def test_center_form(self):
        tri, center, angles, label = parse_scene(VALID_CENTER_SCENE)
        assert angles is None and label is None
        np.testing.assert_allclose(center, [0.5, 0.28867513459481287, 1.0])
        assert tri.sides == pytest.approx((1.0, 1.0, 1.0))

    def test_angle_form(self):
        tri, center, angles, _ = parse_scene(VALID_ANGLE_SCENE)
        assert center is None
        assert angles.cosines == (0.625, 0.625, 0.625)

    def test_invalid_json(self):
        with pytest.raises(SceneParseError):
            parse_scene("{not json")

    def test_missing_control_points(self):
        with pytest.raises(SceneParseError):
            parse_scene('{"opticalCenter": [0, 0, 1]}')

    def test_both_forms_rejected(self):
        doc = VALID_CENTER_SCENE.replace(
            '"opticalCenter"',
            '"subtendedAngleCosines": [0.6, 0.6, 0.6], "opticalCenter"')
        with pytest.raises(SceneParseError):
            parse_scene(doc)

    def test_neither_form_rejected(self):
        with pytest.raises(SceneParseError):
            parse_scene('{"controlPoints": [[0,0,0],[1,0,0],[0,1,0]]}')

    def test_bad_shape_rejected(self):
        with pytest.raises(SceneParseError):
            parse_scene('{"controlPoints": [[0,0],[1,0],[0,1]],'
                        ' "opticalCenter": [0,0,1]}')

    @pytest.mark.parametrize("doc", list(MALFORMED_SCENES.values()),
                             ids=list(MALFORMED_SCENES))
    def test_non_numeric_or_non_finite_rejected(self, doc):
        with pytest.raises(SceneParseError):
            parse_scene(doc)

    def test_large_integers_parse(self):
        _, center, _, _ = parse_scene('{' + _PTS + ', "opticalCenter": '
                                      '[0, 100000000000000000000000, 1]}')
        assert center.tolist() == [0.0, 1e23, 1.0]


class TestSerializeScene:
    def test_round_trip_is_bit_identical(self):
        tri, center, _, _ = parse_scene(VALID_CENTER_SCENE)
        text = serialize_scene(tri, center=center)
        tri2, center2, _, _ = parse_scene(text)
        assert serialize_scene(tri2, center=center2) == text
        np.testing.assert_array_equal(center, center2)

    def test_angle_form_round_trip(self):
        tri, _, angles, _ = parse_scene(VALID_ANGLE_SCENE)
        text = serialize_scene(tri, angles=angles)
        _, _, angles2, _ = parse_scene(text)
        assert angles2.cosines == angles.cosines

    def test_label_preserved(self):
        tri, center, _, _ = parse_scene(VALID_CENTER_SCENE)
        text = serialize_scene(tri, center=center, label="fixture")
        assert parse_scene(text)[3] == "fixture"


class TestCsv:
    def test_header_and_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        write_csv(str(path), ["x", "y"], [[1, 2], [3, 4]])
        lines = path.read_text().splitlines()
        assert lines == ["x,y", "1,2", "3,4"]

    def test_format_matches_write(self, tmp_path):
        header, rows = ["a"], [[1.5]]
        path = tmp_path / "r.csv"
        write_csv(str(path), header, rows)
        assert path.read_text().replace("\r\n", "\n") == \
            format_csv(header, rows).replace("\r\n", "\n")

    def test_write_bytes_are_format_bytes(self, tmp_path):
        # quoted fields and line breaks inside a field pass untranslated
        header, rows = ["id", 'q"t'], [["a,b", "line\nbreak"], ["\r\n", 1e-300]]
        path = tmp_path / "r.csv"
        write_csv(str(path), header, rows)
        assert path.read_bytes() == format_csv(header, rows).encode()
        assert path.read_bytes() == (b'id,"q""t"\r\n"a,b","line\nbreak"\r\n'
                                     b'"\r\n",1e-300\r\n')


class TestObj:
    def test_round_trip(self, tmp_path):
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.25],
                          [0.0, 1.0, -0.125]])
        faces = [(1, 2, 3)]
        path = tmp_path / "m.obj"
        write_obj(str(path), verts, faces)
        v2, f2 = read_obj(str(path))
        np.testing.assert_array_equal(v2, verts)
        assert f2 == [[1, 2, 3]]

    @pytest.mark.parametrize("rows", [[(1, 2, 3), (3, 2, 4), (70000, 1, 2)],
                                      []], ids=["faces", "empty"])
    def test_array_faces_write_list_bytes(self, tmp_path, rows):
        """An int32 (F, 3) face array, as skew_mesh returns, writes the
        bytes of the same faces as a list of index tuples."""
        verts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.25],
                          [0.0, 1.0, -0.125], [0.1, 0.2, 0.3]])
        faces = np.array(rows, np.int32).reshape(-1, 3)
        write_obj(str(tmp_path / "a.obj"), verts, faces)
        write_obj(str(tmp_path / "l.obj"), verts, rows)
        assert (tmp_path / "a.obj").read_bytes() \
            == (tmp_path / "l.obj").read_bytes()

    def test_full_precision_written(self, tmp_path):
        x = 0.28867513459481287
        path = tmp_path / "m.obj"
        write_obj(str(path), np.array([[x, 0.0, 0.0]]), [])
        v2, _ = read_obj(str(path))
        assert v2[0, 0] == x
