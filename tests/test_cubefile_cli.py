"""Cube files on disk and the command-line entry points."""
from __future__ import annotations

import csv
import json
import os
import subprocess
import sys

import pytest

import moorecubes
from moorecubes import (
    EqualityOracle,
    Euclidean,
    Product,
    Shape,
    Sign,
    compose_lenient,
    compose_strict,
    connection,
    degeneracy,
    face,
    load_cube,
    reassociate,
    reverse,
    save_cube,
    tensor,
)
from moorecubes.cli import main
from moorecubes.cubefile import FORMAT, CubeFileError, cube_from_dict, cube_to_dict
from moorecubes.expr import cube_from_exprs

oracle = EqualityOracle()


def square_file(tmp_path, name="a.json", extent=2.0):
    cube = cube_from_exprs(1, Shape((extent,)), Euclidean(1), ["t1^2"])
    path = tmp_path / name
    save_cube(cube, str(path))
    return cube, path


def line_file(tmp_path, name="b.json", offset=4.0, extent=3.0):
    cube = cube_from_exprs(1, Shape((extent,)), Euclidean(1), [f"{offset} + t1"])
    path = tmp_path / name
    save_cube(cube, str(path))
    return cube, path


class TestRoundTrip:
    def test_primitive_cube(self, tmp_path):
        cube, path = square_file(tmp_path)
        loaded = load_cube(str(path))
        assert oracle.equals_strict(loaded, cube)
        assert loaded.provenance.exprs == ("t1^2",)

    def test_every_operator_survives_a_round_trip(self, tmp_path):
        base = cube_from_exprs(
            2, Shape((1.0, 2.0)), Euclidean(1), ["t1*t2 + sin(t1)"]
        )
        derived = {
            "face": face(base, 1, Sign.PLUS),
            "degeneracy": degeneracy(base, 2),
            "connection": connection(base, 1, Sign.MINUS),
            "reverse": reverse(base, 2),
        }
        for name, cube in derived.items():
            path = tmp_path / f"{name}.json"
            save_cube(cube, str(path))
            assert oracle.equals_strict(load_cube(str(path)), cube), name

    def test_strict_composite(self, tmp_path):
        a, _ = square_file(tmp_path)
        b, _ = line_file(tmp_path)
        h = compose_strict(a, b, 1)
        path = tmp_path / "h.json"
        save_cube(h, str(path))
        loaded = load_cube(str(path))
        assert oracle.equals_strict(loaded, h)
        assert loaded.at((4.0,)).coords == (6.0,)

    def test_lenient_composite_rebuilds_leniently(self, tmp_path):
        a = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t1"])
        b = cube_from_exprs(1, Shape((1.5,)), Euclidean(1), ["1 + t1"])
        wide = compose_lenient(degeneracy(a, 2), connection(b, 1, Sign.PLUS), 1)
        path = tmp_path / "wide.json"
        save_cube(wide, str(path))
        assert oracle.equals_strict(load_cube(str(path)), wide)

    def test_tensor_and_reassociate(self, tmp_path):
        a, _ = square_file(tmp_path)
        b, _ = line_file(tmp_path)
        c = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t1"])
        t = tensor(tensor(a, b), c)
        moved = reassociate(t, Product(a.space, Product(b.space, c.space)))
        path = tmp_path / "t.json"
        save_cube(moved, str(path))
        loaded = load_cube(str(path))
        assert loaded.space == moved.space
        assert oracle.equals_strict(loaded, moved)

    def test_declared_header_is_verified_for_derived_cubes(self, tmp_path):
        cube, _ = square_file(tmp_path)
        path = tmp_path / "conn.json"
        save_cube(connection(cube, 1, Sign.MINUS), str(path))
        data = json.loads(path.read_text())
        data["shape"] = [2.0, 3.0]
        path.write_text(json.dumps(data))
        with pytest.raises(CubeFileError):
            load_cube(str(path))

    def test_malformed_json_is_a_cubefile_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(CubeFileError):
            load_cube(str(path))

    def test_missing_file_is_a_cubefile_error(self, tmp_path):
        with pytest.raises(CubeFileError):
            load_cube(str(tmp_path / "nope.json"))

    def test_unknown_format_marker_rejected(self, tmp_path):
        _, path = square_file(tmp_path)
        data = json.loads(path.read_text())
        data["format"] = "somebody-else/9"
        path.write_text(json.dumps(data))
        with pytest.raises(CubeFileError):
            load_cube(str(path))

    def test_boolean_euclidean_dimension_is_rejected(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        data = json.loads(path.read_text())
        data["target"] = {"kind": "euclidean", "dim": True}
        path.write_text(json.dumps(data))
        with pytest.raises(CubeFileError):
            load_cube(str(path))
        assert main(["sample", "--in", str(path)]) == 2

    def test_non_list_header_shape_is_rejected(self, tmp_path, capsys):
        cube, _ = square_file(tmp_path)
        path = tmp_path / "conn.json"
        save_cube(connection(cube, 1, Sign.MINUS), str(path))
        data = json.loads(path.read_text())
        assert "provenance" in data
        data["shape"] = "x"
        path.write_text(json.dumps(data))
        with pytest.raises(CubeFileError):
            load_cube(str(path))
        assert main(["sample", "--in", str(path)]) == 2

    def test_dict_round_trip_without_filesystem(self):
        cube = cube_from_exprs(1, Shape((2.0,)), Euclidean(1), ["t1^2"])
        data = cube_to_dict(cube)
        assert data["format"] == FORMAT
        assert oracle.equals_strict(cube_from_dict(data), cube)


class TestCliApply:
    def test_chain_of_ops(self, tmp_path):
        _, path = square_file(tmp_path)
        out = tmp_path / "out.json"
        code = main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(out)])
        assert code == 0
        assert load_cube(str(out)).shape.extents == (2.0, 2.0)

    def test_same_sign_face_undoes_connection(self, tmp_path):
        cube, path = square_file(tmp_path)
        sq = tmp_path / "sq.json"
        back = tmp_path / "back.json"
        assert main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(sq)]) == 0
        assert main(["apply", "--in", str(sq), "--op", "face:-:1", "--out", str(back)]) == 0
        assert oracle.equals_strict(load_cube(str(back)), cube)

    def test_opposite_sign_face_degenerates_instead(self, tmp_path):
        cube, path = square_file(tmp_path)
        sq = tmp_path / "sq.json"
        back = tmp_path / "back.json"
        assert main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(sq)]) == 0
        assert main(["apply", "--in", str(sq), "--op", "face:+:1", "--out", str(back)]) == 0
        loaded = load_cube(str(back))
        assert not oracle.equals_strict(loaded, cube)
        assert loaded.at((0.5,)).coords == (4.0,)

    def test_stdout_when_no_out_given(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["apply", "--in", str(path), "--op", "rev:1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dim"] == 1 and data["provenance"]["kind"] == "reverse"

    def test_bad_index_exits_2(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["apply", "--in", str(path), "--op", "face:+:3"]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_bad_op_spec_exits_2(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["apply", "--in", str(path), "--op", "twist:1"]) == 2
        assert "bad op spec" in capsys.readouterr().err


class TestCliCompose:
    def test_writes_the_composite(self, tmp_path, capsys):
        _, a = square_file(tmp_path)
        _, b = line_file(tmp_path)
        out = tmp_path / "h.json"
        code = main(["compose", "--a", str(a), "--b", str(b), "--dir", "1", "--out", str(out)])
        assert code == 0
        h = load_cube(str(out))
        assert h.shape.extents == (5.0,)
        assert h.at((4.0,)).coords == (6.0,)

    def test_undefined_composition_exits_3(self, tmp_path, capsys):
        _, a = square_file(tmp_path)
        code = main(["compose", "--a", str(a), "--b", str(a), "--dir", "1"])
        assert code == 3
        err = capsys.readouterr().err
        assert "composition undefined" in err and "witness" in err

    def test_lenient_flag_rescues_shape_mismatch(self, tmp_path):
        a = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t1"])
        b = cube_from_exprs(1, Shape((1.5,)), Euclidean(1), ["1 + t1"])
        pa, pb = tmp_path / "da.json", tmp_path / "cb.json"
        save_cube(degeneracy(a, 2), str(pa))
        save_cube(connection(b, 1, Sign.PLUS), str(pb))
        strict_code = main(["compose", "--a", str(pa), "--b", str(pb), "--dir", "1"])
        assert strict_code == 3
        out = tmp_path / "wide.json"
        code = main(["compose", "--a", str(pa), "--b", str(pb), "--dir", "1", "--lenient", "--out", str(out)])
        assert code == 0
        assert load_cube(str(out)).shape.extents == (2.5, 1.5)


class TestCliTensor:
    def test_pairs_the_cubes(self, tmp_path):
        _, a = square_file(tmp_path)
        _, b = line_file(tmp_path)
        out = tmp_path / "t.json"
        assert main(["tensor", "--a", str(a), "--b", str(b), "--out", str(out)]) == 0
        t = load_cube(str(out))
        assert t.dim == 2
        assert t.at((1.5, 1.0)).coords == (2.25, 5.0)


class TestCliSample:
    def test_csv_matches_library_evaluation(self, tmp_path, capsys):
        cube, path = square_file(tmp_path)
        assert main(["sample", "--in", str(path), "--grid", "5"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[0] == ["t1", "x1"]
        assert len(rows) == 1 + 6  # header + 5 in-range + 1 beyond
        for row in rows[1:]:
            t, x = float(row[0]), float(row[1])
            assert abs(x - cube.at((t,)).coords[0]) <= 1e-12

    def test_beyond_extent_row_repeats_the_boundary(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["sample", "--in", str(path), "--grid", "3"]) == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert rows[-1][1] == rows[-2][1]

    def test_zero_dim_cube_gives_a_single_row(self, tmp_path, capsys):
        cube = cube_from_exprs(0, Shape(()), Euclidean(1), ["2.5"])
        path = tmp_path / "pt.json"
        save_cube(cube, str(path))
        assert main(["sample", "--in", str(path)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows == ["x1", "2.5"]

    def test_grid_below_two_is_a_usage_error(self, tmp_path):
        _, path = square_file(tmp_path)
        assert main(["sample", "--in", str(path), "--grid", "1"]) == 2


class TestCliCheckLaws:
    def test_prints_a_row_per_requested_law(self, tmp_path, capsys):
        code = main(
            ["check-laws", "--seed", "42", "--instances", "3", "--laws", "3.1.i,2.7.first"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "3.1.i" in out and "HOLDS_STRICT" in out
        assert "2.7.first" in out and "FAILS" in out
        assert "witness (1, 0) values 0 vs 1" in out

    def test_exit_zero_even_when_laws_fail(self, capsys):
        assert main(["check-laws", "--instances", "2", "--laws", "2.7.first"]) == 0

    def test_unknown_law_exits_2(self, capsys):
        assert main(["check-laws", "--laws", "definitely.not"]) == 2

    def test_report_file_written(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            ["check-laws", "--instances", "2", "--laws", "3.1.i", "--report", str(report)]
        )
        assert code == 0
        data = json.loads(report.read_text())
        assert data["laws"]["3.1.i"]["classification"] == "HOLDS_STRICT"
        assert data["config"]["instances"] == 2


    @pytest.mark.parametrize(
        "flag,value",
        [("--instances", "-3"), ("--instances", "0"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf")],
    )
    def test_bad_instances_or_tolerance_exit_2(self, flag, value, capsys):
        assert main(["check-laws", "--laws", "2.7.first", flag, value]) == 2
        assert capsys.readouterr().out == ""

    def test_runs_as_a_module(self):
        src = os.path.dirname(os.path.dirname(moorecubes.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "moorecubes", "check-laws", "--laws", "3.1.i", "--instances", "1"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        rows = done.stdout.splitlines()
        assert rows[0].startswith("law ")
        assert rows[1].split() == ["3.1.i", "HOLDS_STRICT", "1", "0", "0", "0"]


class TestCliSvg:
    def test_renders_a_two_cube(self, tmp_path):
        _, path = square_file(tmp_path)
        sq = tmp_path / "sq.json"
        art = tmp_path / "sq.svg"
        assert main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(sq)]) == 0
        assert main(["svg", "--in", str(sq), "--out", str(art)]) == 0
        text = art.read_text()
        assert text.startswith("<svg")
        assert "polyline" in text  # constancy elbows for the connection

    def test_rejects_other_dimensions(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["svg", "--in", str(path), "--out", str(tmp_path / "x.svg")]) == 2

    def test_composite_shows_a_seam(self, tmp_path):
        _, a = square_file(tmp_path)
        _, b = line_file(tmp_path)
        wa, wb = tmp_path / "wa.json", tmp_path / "wb.json"
        h = tmp_path / "h.json"
        art = tmp_path / "h.svg"
        assert main(["apply", "--in", str(a), "--op", "deg:2", "--out", str(wa)]) == 0
        assert main(["apply", "--in", str(b), "--op", "deg:2", "--out", str(wb)]) == 0
        assert main(["compose", "--a", str(wa), "--b", str(wb), "--dir", "1", "--out", str(h)]) == 0
        assert main(["svg", "--in", str(h), "--out", str(art)]) == 0
        assert "stroke-dasharray" in art.read_text()


class TestCliUsage:
    def test_no_command_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_command_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["sample", "--in", str(tmp_path / "ghost.json")]) == 2
