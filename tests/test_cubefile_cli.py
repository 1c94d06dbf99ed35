"""Cube files on disk and the command-line entry points."""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    render_svg,
    reverse,
    save_cube,
    tensor,
)
from moorecubes.cli import main
from moorecubes.cubefile import (
    FORMAT,
    MAX_DEPTH,
    MAX_SPACE_DEPTH,
    CubeFileError,
    _write_json,
    cube_from_dict,
    cube_to_dict,
)
from moorecubes.errors import MooreError, ParseError
from moorecubes.expr import MAX_DEPTH as EXPR_MAX_DEPTH
from moorecubes.expr import Bin, Num, Var, cube_from_exprs, parse_expr, substitute, to_source
from moorecubes.generators import extend_chain, gen_cube

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


class TestCliStdout:
    @pytest.mark.parametrize(
        "argv",
        [
            ["apply", "--in", "{a}", "--op", "conn:-:1", "--op", "rev:2"],
            ["compose", "--a", "{a}", "--b", "{b}", "--dir", "1"],
        ],
        ids=["apply", "compose"],
    )
    def test_stdout_carries_the_bytes_of_the_out_file(self, argv, tmp_path, capsys):
        _, a = square_file(tmp_path)
        _, b = line_file(tmp_path)
        argv = [arg.format(a=a, b=b) for arg in argv]
        out = tmp_path / "out.json"
        assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        assert main(argv) == 0
        assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


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

    def test_tolerance_zero_prints_the_table(self, capsys):
        """At --tol 0 the strict compositions of assoc are rejected: a failed instance."""
        assert main(["check-laws", "--seed", "42", "--instances", "5", "--tol", "0"]) == 0
        rows = {line.split()[0]: line.split()[1] for line in capsys.readouterr().out.splitlines()[1:]}
        assert len(rows) == 30 and rows["assoc"] == "FAILS"

    def test_exit_zero_even_when_laws_fail(self, capsys):
        assert main(["check-laws", "--instances", "2", "--laws", "2.7.first"]) == 0

    def test_unknown_law_exits_2(self, capsys):
        assert main(["check-laws", "--laws", "definitely.not"]) == 2

    @pytest.mark.parametrize("laws", ["", ",", " , "])
    def test_laws_naming_no_law_exits_2(self, laws, capsys):
        assert main(["check-laws", "--instances", "1", "--laws", laws]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "laws must name at least one law" in captured.err

    @pytest.mark.parametrize("laws", ["3.1.i,3.1.i", "3.1.i, 2.7.first ,3.1.i"])
    def test_laws_naming_a_law_twice_exits_2(self, laws, capsys):
        assert main(["check-laws", "--instances", "1", "--laws", laws]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "law 3.1.i is named more than once" in captured.err

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

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-5"])
    def test_scale_must_be_finite_and_positive(self, scale, tmp_path, capsys):
        _, path = square_file(tmp_path)
        sq, art = tmp_path / "sq.json", tmp_path / "sq.svg"
        assert main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(sq)]) == 0
        capsys.readouterr()
        assert main(["svg", "--in", str(sq), "--scale", scale, "--out", str(art)]) == 2
        assert "scale must be finite and > 0" in capsys.readouterr().err
        assert not art.exists()

    @pytest.mark.parametrize("out", [True, False])
    def test_a_scale_that_overflows_the_drawing_exits_2(self, out, tmp_path, capsys):
        _, path = square_file(tmp_path)
        sq, art = tmp_path / "sq.json", tmp_path / "sq.svg"
        assert main(["apply", "--in", str(path), "--op", "conn:-:1", "--out", str(sq)]) == 0
        capsys.readouterr()
        argv = ["svg", "--in", str(sq), "--scale", "1e308"] + (["--out", str(art)] if out else [])
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "infinitely large" in captured.err
        assert not art.exists()
        with pytest.raises(MooreError, match="scale 1e\\+308"):
            render_svg(load_cube(str(sq)), scale=1e308)

    def test_rejects_other_dimensions(self, tmp_path, capsys):
        _, path = square_file(tmp_path)
        assert main(["svg", "--in", str(path), "--out", str(tmp_path / "x.svg")]) == 2

    def test_the_hatches_of_a_huge_degenerate_edge_stay_finite(self, tmp_path):
        _, path = square_file(tmp_path, extent=1e308)
        flat, art = tmp_path / "flat.json", tmp_path / "flat.svg"
        assert main(["apply", "--in", str(path), "--op", "deg:2", "--out", str(flat)]) == 0
        assert main(["svg", "--in", str(flat), "--scale", "1e-300", "--out", str(art)]) == 0
        hatches = [line for line in art.read_text().splitlines() if 'stroke="#7a7a7a"' in line]
        assert len(hatches) == 7
        assert not any("inf" in line or "nan" in line for line in hatches)

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


def _node_kind_cubes() -> dict:
    """One cube per provenance node kind, built from DSL leaves."""
    e1 = Euclidean(1)
    base = cube_from_exprs(2, Shape((1.0, 2.0)), e1, ["t1*t2 + sin(t1)"])
    x = cube_from_exprs(1, Shape((2.0,)), e1, ["t1^2"])
    y = cube_from_exprs(1, Shape((3.0,)), e1, ["4 + t1"])
    z = cube_from_exprs(1, Shape((1.0,)), e1, ["t1"])
    narrow = cube_from_exprs(2, Shape((1.0, 2.0)), e1, ["t1*t2"])
    wide = cube_from_exprs(2, Shape((2.0, 3.0)), e1, ["min(t2, 2) + t1"])
    return {
        "primitive": base,
        "face": face(base, 1, Sign.PLUS),
        "degeneracy": degeneracy(base, 2),
        "connection": connection(base, 1, Sign.MINUS),
        "reverse": reverse(base, 2),
        "compose_strict": compose_strict(x, y, 1),
        "compose_lenient": compose_lenient(narrow, wide, 1),
        "tensor": tensor(x, y),
        "reassociate": reassociate(tensor(tensor(x, y), z), Product(e1, Product(e1, e1))),
    }


def _sampled_cubes() -> dict:
    """Cubes whose grid values depend on where evaluation clamps."""
    e1 = Euclidean(1)
    # lenient: the left piece is narrower in direction 2 than the composite
    lenient = _node_kind_cubes()["compose_lenient"]
    # strict: the right piece is wider by 1e-12 in direction 2
    a = cube_from_exprs(2, Shape((1.0, 2.0)), e1, ["t1 + t2"])
    b = cube_from_exprs(2, Shape((1.0, 2.0 + 1e-12)), e1, ["1 + t1*t1 + t2"])
    strict = compose_strict(a, b, 1)
    # strict: the right piece is narrower by 1e-12 in direction 2
    b = cube_from_exprs(2, Shape((1.0, 2.0 - 1e-12)), e1, ["1 + t1*t1 + t2"])
    strict_narrow = compose_strict(a, b, 1)
    # a face/degeneracy/connection/reverse/tensor/reassociate stack
    base = cube_from_exprs(2, Shape((1.0, 2.0)), e1, ["t1*t2 + sin(t1)"])
    flat = face(connection(base, 1, Sign.MINUS), 3, Sign.MINUS)
    flat = reverse(face(degeneracy(flat, 1), 2, Sign.PLUS), 2)
    x = cube_from_exprs(1, Shape((2.0,)), e1, ["t1^2"])
    y = cube_from_exprs(1, Shape((3.0,)), e1, ["4 + t1"])
    stack = reassociate(tensor(tensor(flat, x), y), Product(e1, Product(e1, e1)))
    return {"lenient": lenient, "strict": strict, "strict_narrow": strict_narrow, "stack": stack}


class TestFileAndValueDigests:
    """Saved bytes and sampled values, pinned so refactors cannot move them."""

    FILE_SHA256 = {
        "compose_lenient": "95640b0701c5ca3a1b91bfba2db225e202466df9f855f485e3b15752d33189d3",
        "compose_strict": "56a68c08abc43537aca49b435491e22cb116578ee366eec8101c09bbef82994c",
        "connection": "21e739cd305fefb7da4d69a01b8899e62a881036e208a8ba3f412720a21af77d",
        "degeneracy": "5b89f2b2b93d1b13966cbe16ab7bf6c1b62f729499f38fcc107eb89eb68ff6bc",
        "face": "065c9295dcaf8c882ee02d9b4ace5fb6f6393822ca8eabad40428ae7b29d5fe8",
        "primitive": "088082acfc0a8a78620d84a0a3e464015f34032a84eb188f3529ff2a3f60b875",
        "reassociate": "9a6f1ca7dfd6e885fd9e6d873f0c7fabd28e036bba04da7a4a3827a21bdabc38",
        "reverse": "e2ec9726c29655a3bdc0739523b52d63ccb236f0697a395bab391092ee11c372",
        "tensor": "81ae3721545f6664465c0c069249b3fa26a95053b2d8be2a63dfcc2baca27391",
    }

    VALUES_SHA256 = {
        "lenient": "4d6f8464b9f2cb72ab6f1b48c1cebda30527ff0ba60285c29b454d34290b0067",
        "strict": "8b01adbbfed05034f769ce9c7ceb84b0adadd0a1fdbb39eb4151172bd061a332",
        "strict_narrow": "65e0b400720722ab5b16111d98b4eba340523ec4e56c30424e42bf7ed06d9d1c",
        "stack": "53d8c240b5ae00cd9f7bc26d24c03b7ab71567e4d8f67816eb5c39acf50d6588",
    }

    @pytest.mark.parametrize("kind", sorted(_node_kind_cubes()))
    def test_saved_file_bytes(self, kind, tmp_path):
        path = tmp_path / f"{kind}.json"
        save_cube(_node_kind_cubes()[kind], str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.FILE_SHA256[kind]

    @pytest.mark.parametrize("kind", sorted(_node_kind_cubes()))
    def test_save_load_save_is_byte_identical(self, kind, tmp_path):
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_cube(_node_kind_cubes()[kind], str(first))
        save_cube(load_cube(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_compose_without_lenient_key_loads_strict(self):
        data = cube_to_dict(_node_kind_cubes()["compose_strict"])
        del data["provenance"]["lenient"]
        assert cube_from_dict(data).provenance.lenient is False

    @pytest.mark.parametrize("name", ["lenient", "strict", "strict_narrow", "stack"])
    def test_sampled_values(self, name):
        cube = _sampled_cubes()[name]
        rows = [(p, cube.at(p).coords) for p in EqualityOracle(samples_per_axis=5).grid(cube.shape)]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.VALUES_SHA256[name]


def _chain_text(pieces: int) -> str:
    """A left-nested chain of constant pieces, written as text without recursion."""
    leaf = json.dumps(
        {"kind": "primitive", "dim": 1, "shape": [1.0], "target": {"kind": "euclidean", "dim": 1}, "expr": ["1"]}
    )
    return "".join([
        '{"dim": 1, "format": "moore-cube/1", "provenance": ',
        '{"direction": 1, "kind": "compose", "left": ' * (pieces - 1),
        leaf,
        f', "lenient": false, "right": {leaf}}}' * (pieces - 1),
        f', "shape": [{float(pieces)!r}], "target": {{"dim": 1, "kind": "euclidean"}}}}\n',
    ])


class TestDepthLimit:
    def test_files_at_the_limit_load_save_and_sample(self, tmp_path, capsys):
        path, again = tmp_path / "chain.json", tmp_path / "again.json"
        path.write_text(_chain_text(MAX_DEPTH))
        cube = load_cube(str(path))
        assert cube.shape.extents == (float(MAX_DEPTH),)
        assert cube.at((0.5,)).coords == (1.0,)
        save_cube(cube, str(again))
        reference = json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True)
        assert again.read_text() == reference + "\n"
        assert main(["sample", "--in", str(path)]) == 0

    @pytest.mark.parametrize("pieces", [MAX_DEPTH + 1, 980, 3000])
    def test_deeper_files_exit_2_without_a_traceback(self, pieces, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(_chain_text(pieces))
        with pytest.raises(CubeFileError, match="nested too deeply"):
            load_cube(str(path))
        assert main(["sample", "--in", str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested too deeply" in err and "Traceback" not in err

    def test_deep_dict_is_a_cubefile_error(self):
        data = {"kind": "primitive", "dim": 1, "shape": [1.0], "expr": ["1"]}
        data["target"] = {"kind": "euclidean", "dim": 1}
        for _ in range(979):
            data = {"kind": "compose", "direction": 1, "left": data, "right": data}
        with pytest.raises(CubeFileError, match="nested too deeply"):
            cube_from_dict({"format": FORMAT, "provenance": data})

    def test_long_chain_cannot_be_saved(self, tmp_path):
        piece = cube_from_exprs(1, Shape((0.5,)), Euclidean(1), ["2"])
        chain = piece
        for _ in range(1599):
            chain = compose_strict(chain, piece, 1)
        with pytest.raises(CubeFileError, match="nested too deeply"):
            cube_to_dict(chain)
        path = tmp_path / "long.json"
        with pytest.raises(CubeFileError, match="nested too deeply"):
            save_cube(chain, str(path))
        assert not path.exists()


def _deep_target(levels: int) -> dict:
    """A target space levels deep: products of R^0 down to one R^1."""
    target = {"kind": "euclidean", "dim": 1}
    for _ in range(levels - 1):
        target = {"kind": "product", "left": {"kind": "euclidean", "dim": 0}, "right": target}
    return target


def _chain(pieces: int, expr: str, target: dict) -> dict:
    """A left-nested chain of equal 1-cube pieces reading expr, built without recursion."""
    leaf = {"kind": "primitive", "dim": 1, "shape": [1.0], "target": target, "expr": [expr]}
    node = leaf
    for _ in range(pieces - 1):
        node = {"kind": "compose", "direction": 1, "lenient": False, "left": node, "right": leaf}
    return {"format": FORMAT, "dim": 1, "shape": [float(pieces)], "target": target, "provenance": node}


class TestNestingLimits:
    def test_deepest_chain_target_and_expression_load_and_sample(self, tmp_path, capsys):
        n = EXPR_MAX_DEPTH - 1
        doc = _chain(MAX_DEPTH, "sin(" * n + "0" + ")" * n, _deep_target(MAX_SPACE_DEPTH))
        path = tmp_path / "deepest.json"
        path.write_text(json.dumps(doc))
        assert main(["sample", "--in", str(path), "--grid", "2"]) == 0
        rows = capsys.readouterr().out.split()
        assert rows == ["t1,x1", "0,0", f"{MAX_DEPTH},0", f"{MAX_DEPTH + 1},0"]

    @pytest.mark.parametrize("levels", [MAX_SPACE_DEPTH + 1, 350])
    def test_deeper_targets_exit_2_without_a_traceback(self, levels, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(_chain(1, "1", _deep_target(levels))))
        with pytest.raises(CubeFileError, match="nested too deeply"):
            load_cube(str(path))
        assert main(["sample", "--in", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "expr", ["t\u00b2", "(" * EXPR_MAX_DEPTH + "t1" + ")" * EXPR_MAX_DEPTH]
    )
    def test_bad_expressions_exit_2(self, expr, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(_chain(1, expr, {"kind": "euclidean", "dim": 1})))
        assert main(["sample", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_an_extent_too_large_for_a_float_is_a_cube_file_error(self):
        doc = _chain(1, "1", {"kind": "euclidean", "dim": 1})
        doc["provenance"]["shape"] = [10**400]
        with pytest.raises(CubeFileError):
            cube_from_dict(doc)


# Fuzzing vocabulary: file keys, and DSL tokens including non-ASCII digits.
_KEYS = [
    "format", "dim", "shape", "target", "expr", "provenance", "kind",
    "of", "left", "right", "i", "sign", "direction", "lenient",
]
_TOKENS = [
    "t1", "t", "2", "0.5", "e", "\u00b2", "\u0661", "\u00e9",
    "+", "-", "*", "^", "(", ")", ",", "sin", "min",
]
_TEXT = st.lists(st.sampled_from(_TOKENS), max_size=6).map("".join)
_NUMBER = st.integers() | st.floats() | st.sampled_from([0, -1, 2**63, 10**400])
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | _NUMBER
    | _TEXT
    | st.sampled_from([FORMAT, "+", "-", "primitive", "euclidean", "product", "compose", "face"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
_VALID_DOCS = [json.dumps(cube_to_dict(c)) for c in _node_kind_cubes().values()]


def _paths(value, path=()):
    """The key path of value and of everything inside it."""
    yield path
    if isinstance(value, (dict, list)):
        for key in value if isinstance(value, dict) else range(len(value)):
            yield from _paths(value[key], path + (key,))


def _replacement(old):
    """Any JSON value, or one of old's own type."""
    if isinstance(old, str):
        return _TEXT | _JSON
    if isinstance(old, (int, float)) and not isinstance(old, bool):
        return _NUMBER | _JSON
    return _JSON


class TestFuzz:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_any_document_gives_a_cube_or_a_moore_error(self, data):
        if data.draw(st.booleans()):
            doc = data.draw(_JSON)
        else:
            doc = json.loads(data.draw(st.sampled_from(_VALID_DOCS)))
            path = data.draw(st.sampled_from(list(_paths(doc))[1:]))
            owner = doc
            for key in path[:-1]:
                owner = owner[key]
            if isinstance(owner, dict) and data.draw(st.booleans()):
                del owner[path[-1]]
            else:
                owner[path[-1]] = data.draw(_replacement(owner[path[-1]]))
        try:
            cube_from_dict(doc)
        except MooreError:
            pass


class TestBuiltCubesLoad:
    def test_every_chained_cube_saves_and_loads_until_one_is_too_deep(self, tmp_path):
        rng = random.Random(3)
        prev = gen_cube(rng, 2)
        path = tmp_path / "piece.json"
        for k in range(1, 40):
            try:
                prev = extend_chain(rng, prev, 1 + k % 2)
            except ParseError as exc:
                assert "nested too deeply" in str(exc)
                break
            save_cube(prev, str(path))
            back = load_cube(str(path))
            assert back.at((0.5, 0.5)) == prev.at((0.5, 0.5))
        else:
            pytest.fail("the chain never grew too deep")
        assert k == 22
        # The error is the one parsing the rendered source gives.
        expr = parse_expr(prev.provenance.exprs[0])
        deeper = substitute(expr, 1, Bin("+", Var(1), expr))
        with pytest.raises(ParseError) as built:
            cube_from_exprs(2, prev.shape, prev.space, [deeper])
        with pytest.raises(ParseError) as parsed:
            parse_expr(to_source(deeper))
        assert str(built.value) == str(parsed.value)

    def test_a_negative_power_base_keeps_its_value(self):
        expr = Bin("^", Num(-2.0), Num(2.0))
        assert to_source(expr) == "(-2.0)^2.0"
        cube = cube_from_dict(cube_to_dict(cube_from_exprs(0, (), Euclidean(1), [expr])))
        assert cube.at(()).coords == (4.0,)

    @pytest.mark.parametrize("value,name", [(math.inf, "inf"), (-math.inf, "inf"), (math.nan, "nan")])
    def test_a_number_that_is_not_finite_is_the_parse_error_of_its_text(self, value, name, tmp_path):
        tree = Bin("+", Var(1), Num(value))
        path = tmp_path / "leaf.json"
        with pytest.raises(ParseError) as built:
            cube = cube_from_exprs(1, (1.0,), Euclidean(1), [tree])
            cube.at((0.5,))
            save_cube(cube, str(path))
            load_cube(str(path))
        with pytest.raises(ParseError) as parsed:
            parse_expr(to_source(tree))
        assert str(built.value) == str(parsed.value)
        assert str(built.value).startswith(f"unknown identifier '{name}'")
        assert not path.exists()

    def test_a_tensor_tower_past_the_target_limit_is_not_saved(self, tmp_path, capsys):
        factor = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["t1"])
        tower = factor
        for _ in range(MAX_SPACE_DEPTH - 1):
            tower = tensor(tower, factor)  # one more level of target space each
        tall = tmp_path / "tall.json"
        save_cube(tower, str(tall))
        assert load_cube(str(tall)).dim == MAX_SPACE_DEPTH
        path = tmp_path / "taller.json"
        with pytest.raises(CubeFileError, match="target space nested too deeply"):
            cube_to_dict(tensor(tower, factor))
        with pytest.raises(CubeFileError, match="target space nested too deeply"):
            save_cube(tensor(tower, factor), str(path))
        assert not path.exists()
        _, line = line_file(tmp_path)
        assert main(["tensor", "--a", str(tall), "--b", str(line), "--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert "target space nested too deeply" in err and "Traceback" not in err
        assert not path.exists()


def _rebracketed(space):
    """The other bracketing of a product of three factors, or the space itself."""
    if isinstance(space, Product) and isinstance(space.left, Product):
        return Product(space.left.left, Product(space.left.right, space.right))
    if isinstance(space, Product) and isinstance(space.right, Product):
        return Product(Product(space.left, space.right.left), space.right.right)
    return space


def _mapped(rng, name, c):
    """c under the structure map name, with indices drawn from rng."""
    i, sign = rng.randint(1, max(c.dim, 1)), rng.choice(list(Sign))
    if name == "face":
        return face(c, i, sign)
    if name == "degeneracy":
        return degeneracy(c, rng.randint(1, c.dim + 1))
    if name == "connection":
        return connection(c, i, sign)
    if name == "reverse":
        return reverse(c, i)
    if name == "strict":  # then a zero-extent piece on c's upper i-face
        return compose_strict(c, degeneracy(face(c, i, Sign.PLUS), i), i)
    if name == "lenient":  # after a zero-extent piece on c's lower i-face
        return compose_lenient(degeneracy(face(c, i, Sign.MINUS), i), c, i)
    if name == "chain":
        return compose_strict(c, extend_chain(rng, c, i), i)
    if name == "tensor":
        return tensor(c, gen_cube(rng, rng.randint(0, 1)))
    return reassociate(c, _rebracketed(c.space))


# The dimensions each structure map of the round-trip fuzz is applied at.
_MAP_DIMS = {
    "face": range(1, 5),
    "degeneracy": range(0, 4),
    "connection": range(1, 4),
    "reverse": range(1, 5),
    "strict": range(1, 4),
    "lenient": range(1, 4),
    "chain": range(1, 4),
    "tensor": range(0, 4),
    "reassociate": range(0, 5),
}


class TestRoundTripFuzz:
    @given(
        st.integers(0, 2**32),
        st.integers(0, 2),
        st.lists(st.sampled_from(sorted(_MAP_DIMS)), max_size=5),
    )
    @settings(max_examples=60, deadline=None)
    def test_save_load_save_is_byte_identical(self, tmp_path_factory, seed, dim, names):
        rng = random.Random(seed)
        cube = gen_cube(rng, dim)
        for name in names:
            if name == "chain" and getattr(cube.provenance, "exprs", None) is None:
                continue  # extend_chain takes DSL leaves only
            if cube.dim in _MAP_DIMS[name]:
                cube = _mapped(rng, name, cube)
        folder = tmp_path_factory.mktemp("roundtrip")
        first, second = folder / "first.json", folder / "second.json"
        save_cube(cube, str(first))
        save_cube(load_cube(str(first)), str(second))
        assert first.read_bytes() == second.read_bytes()


# Command-line fuzzing vocabulary: for each flag, values it accepts and edge
# values, drawn equally often.  "{x}" names one of the paths _argv_files gives.
_EDGE_NUMBERS = ["nan", "inf", "-inf", "-5", "0", "-0", "1e308", str(10**30), "", "x"]
_EDGE_FILES = ["{broken}", "{folder}", "{missing}", ""]
_EDGE_OUTS = ["{folder}", "{missing}/out", ""]
_VALUES = {
    "--in": (["{line}", "{square}"], _EDGE_FILES),
    "--a": (["{line}", "{square}"], _EDGE_FILES),
    "--b": (["{after}", "{square}"], _EDGE_FILES),
    "--out": (["{out}"], _EDGE_OUTS),
    "--report": (["{out}"], _EDGE_OUTS),
    "--op": (
        ["face:+:1", "face:-:2", "conn:-:1", "conn:+:2", "deg:1", "deg:3", "rev:1"],
        [f"rev:{10**30}", "face:+:0", "face:0:1", "twist:1", "deg:x", ""],
    ),
    "--dir": (["1"], ["2"] + _EDGE_NUMBERS),
    "--lenient": None,
    "--grid": (["2", "6"], ["-1", "0", "1", "nan", ""]),
    "--seed": (["0", "42", str(10**30), "-5"], ["nan", "inf", "", "x"]),
    "--instances": (["1", "2"], ["-3", "0", "nan", ""]),
    "--tol": (["0", "1e-9", "1e308"], _EDGE_NUMBERS),
    "--laws": (["3.1.i", "2.7.first,3.1.i", " rev.involution "], ["", ",", " , ", "definitely.not"]),
    "--scale": (["80", "0.5", "1e-300"], _EDGE_NUMBERS),
}
# Each subcommand's required flags, then its optional ones.
_COMMANDS = {
    "apply": (["--in", "--op"], ["--op", "--out"]),
    "compose": (["--a", "--b", "--dir"], ["--lenient", "--out"]),
    "tensor": (["--a", "--b"], ["--out"]),
    "sample": (["--in"], ["--grid", "--out"]),
    "check-laws": (["--instances"], ["--seed", "--instances", "--grid", "--tol", "--laws", "--report"]),
    "svg": (["--in"], ["--out", "--scale"]),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS) + ["frobnicate", ""]))
    required, optional = _COMMANDS.get(command, ([], sorted(_VALUES)))
    flags = [flag for flag in required if draw(st.integers(0, 9))]  # each dropped 1 time in 10
    flags += draw(st.lists(st.sampled_from(optional), max_size=4))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if _VALUES[flag] is not None:
            valid, edge = _VALUES[flag]
            argv.append(draw(st.sampled_from(valid) | st.sampled_from(edge)))
    if command == "check-laws" and "--instances" not in argv:
        argv += ["--instances", "1"]  # the default of 100 takes too long here
    return argv


def _argv_files(folder) -> dict:
    """Input files for the command-line fuzz, and the paths it may name."""
    square = connection(cube_from_exprs(1, Shape((2.0,)), Euclidean(1), ["t1^2"]), 1, Sign.MINUS)
    line = cube_from_exprs(1, Shape((3.0,)), Euclidean(1), ["4 + t1"])
    after = cube_from_exprs(1, Shape((1.0,)), Euclidean(1), ["7 + t1"])  # composes after line
    paths = {name: folder / f"{name}.json" for name in ("square", "line", "after", "broken", "out")}
    for name, cube in (("square", square), ("line", line), ("after", after)):
        save_cube(cube, str(paths[name]))
    paths["broken"].write_text('{"format": "moore-cube/1", "dim": 1')
    paths["folder"] = folder
    paths["missing"] = folder / "missing"
    return {name: str(path) for name, path in paths.items()}


class TestCliFuzz:
    @given(_argvs())
    @settings(max_examples=150, deadline=None)
    def test_any_argv_exits_0_2_or_3(self, tmp_path_factory, argv):
        names = _argv_files(tmp_path_factory.mktemp("argv"))
        argv = [arg.format(**names) for arg in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in (0, 2, 3), (argv, err.getvalue())


_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(10**400), 0.0, -0.0, math.nan, math.inf, -math.inf])
    | st.floats()
    | st.text()
    | st.text(st.characters(categories=["Cc", "Cs", "Zl", "Zp"]))
)
_ANY_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=30,
)


class TestWriter:
    @given(_ANY_JSON)
    @settings(max_examples=400, deadline=None)
    def test_text_is_that_of_json_dumps(self, value):
        buffer = io.StringIO()
        _write_json(value, buffer.write)
        assert buffer.getvalue() == json.dumps(value, indent=2, sort_keys=True)
