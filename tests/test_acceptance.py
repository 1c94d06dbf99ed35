"""Release acceptance gate.

Each test here covers one numbered acceptance criterion and prints a
single labeled PASS/FAIL line (kept visible under pytest's capture), so
a full run yields one line per criterion:

    [acceptance] criterion 1 (strict laws at seed 42): PASS - ...

Criteria 1-4 share a single 100-instance seed-42 law-lab run via the
module-scoped ``suite`` fixture.  The whole module is budgeted to finish
well under two minutes.
"""
from __future__ import annotations

import csv
import random

import pytest

from conftest import DSL_PARSE_ERRORS, DSL_REGRESSION_VECTOR
from moorecubes import (
    Classification,
    CompositionUndefined,
    EqualityOracle,
    Euclidean,
    ParseError,
    Shape,
    Sign,
    compose_strict,
    cube_from_exprs,
    degeneracy,
    face,
    gen_composable_pair,
    gen_cube,
    load_cube,
    make_cube,
    multi_compose,
    quadrants,
    run_suite,
    save_cube,
)
from moorecubes.cli import main
from moorecubes.expr import compile_expr, eval_expr, parse_expr
from moorecubes.lawlab import build_case, check_instance

SEED = 42
INSTANCES = 100
ORACLE = EqualityOracle(samples_per_axis=5, tol_val=1e-9, tol_shape=1e-9)

# Laws expected to hold strictly on every instance at the gate settings.
EXPECTED_STRICT = (
    "3.1.i",
    "3.1.ii",
    "3.1.iii.lt",
    "3.1.iii.gt",
    "3.1.iii.eq",
    "3.2.i",
    "3.2.ii",
    "3.2.iii",
    "3.2.iv",
    "3.2.v",
    "3.2.vi",
    "3.3.bounds",
    "3.3.other",
    "3.4",
    "3.5",
    "3.6.i",
    "assoc",
    "ident.left",
    "ident.right",
    "rev.involution",
    "rev.faces",
    "rev.antihom",
    "tensor.shape",
    "tensor.faces",
    "tensor.assoc",
)


@pytest.fixture(scope="module")
def suite():
    report = run_suite(n_instances=INSTANCES, seed=SEED, oracle=ORACLE)
    return {o.law_id: o for o in report.outcomes}


@pytest.fixture
def announce(capsys):
    def emit(label: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[acceptance] {label}: {status} - {detail}", flush=True)

    return emit


def test_criterion_1_strict_laws(suite, announce):
    bad = []
    for law_id in EXPECTED_STRICT:
        outcome = suite[law_id]
        if (
            outcome.classification is not Classification.HOLDS_STRICT
            or outcome.count_strict != outcome.instances_run
            or outcome.instances_run != INSTANCES
        ):
            bad.append(
                f"{law_id}: {outcome.classification.name} "
                f"({outcome.count_strict}/{outcome.instances_run} strict)"
            )
    detail = (
        f"{len(EXPECTED_STRICT) - len(bad)}/{len(EXPECTED_STRICT)} laws strict on "
        f"all {INSTANCES} instances"
    )
    if bad:
        detail += "; offenders: " + "; ".join(bad)
    announce("criterion 1 (strict laws at seed 42)", not bad, detail)
    assert not bad


def test_criterion_2_opposite_sign_connection_faces(suite, announce):
    problems = []
    outcome = suite["3.2.vii"]
    if outcome.classification is not Classification.HOLDS_ACTION:
        problems.append(f"classification {outcome.classification.name}")
    if outcome.count_failed:
        problems.append(f"{outcome.count_failed} instances failed outright")

    positive = zero = 0
    slot_checked = False
    for k in range(INSTANCES):
        res = check_instance("3.2.vii", SEED, k, ORACLE)
        pivot = res.meta["pivot"]
        if pivot == 0.0:
            zero += 1
            if res.status != "strict":
                problems.append(f"instance {k}: zero pivot but status {res.status}")
            continue
        positive += 1
        if res.status != "action":
            problems.append(f"instance {k}: pivot {pivot} but status {res.status}")
        elif not (res.note and "shapes" in res.note and str(pivot) in res.note):
            problems.append(f"instance {k}: note {res.note!r} misses the shape mismatch")
        if not slot_checked:
            # The strict failure must be the pivot extent against a zero
            # extent in the same slot, all other extents identical.
            case = build_case("3.2.vii", SEED, k, ORACLE)
            _, lhs, rhs = case.comparisons[0]
            diffs = [
                (l, r)
                for l, r in zip(lhs.shape.extents, rhs.shape.extents)
                if l != r
            ]
            if diffs != [(pivot, 0.0)]:
                problems.append(f"instance {k}: shape mismatch {diffs} != [(pivot, 0.0)]")
            slot_checked = True

    detail = (
        f"action-level on {positive} positive-pivot instances, strict on {zero} "
        f"zero-pivot instances; mismatch reported as pivot vs 0"
    )
    if problems:
        detail += "; problems: " + "; ".join(problems[:5])
    announce("criterion 2 (3.2.vii holds at action level)", not problems, detail)
    assert not problems


def test_criterion_3_connection_transport_lenient(suite, announce):
    problems = []
    summaries = []
    for law_id in ("3.6.ii", "3.6.iii"):
        outcome = suite[law_id]
        if outcome.classification is not Classification.NOT_CONSTRUCTIBLE_STRICTLY:
            problems.append(f"{law_id}: classification {outcome.classification.name}")
        if outcome.count_failed:
            problems.append(
                f"{law_id}: {outcome.count_failed}/{outcome.instances_run} instances "
                f"lack even action-level agreement"
            )
        nc = lenient_bad = shape_bad = strict_on_both_pos = 0
        for k in range(INSTANCES):
            res = check_instance(law_id, SEED, k, ORACLE)
            if res.not_constructible:
                nc += 1
                if not res.meta.get("lenient_ok", False):
                    lenient_bad += 1
                elif not res.meta.get("total_shape_exact", False):
                    shape_bad += 1
            elif res.meta["r"] > 0.0 and res.meta["s"] > 0.0:
                strict_on_both_pos += 1
        if lenient_bad:
            problems.append(f"{law_id}: lenient rebuild rejected on {lenient_bad} instances")
        if shape_bad:
            problems.append(f"{law_id}: rebuilt total shape inexact on {shape_bad} instances")
        if strict_on_both_pos:
            problems.append(
                f"{law_id}: strict assembly accepted on {strict_on_both_pos} "
                f"instances with both extents positive"
            )
        summaries.append(
            f"{law_id}: nc on {nc}, lenient rejected on {lenient_bad}, "
            f"inexact shape on {shape_bad}"
        )
    announce(
        "criterion 3 (3.6.ii/3.6.iii lenient transport)",
        not problems,
        "; ".join(summaries),
    )
    assert not problems, "; ".join(problems)


def test_criterion_4_cancellation_fails_with_witness(suite, announce):
    problems = []
    for law_id in ("2.7.first", "2.7.second"):
        outcome = suite[law_id]
        if outcome.classification is not Classification.FAILS:
            problems.append(f"{law_id}: classification {outcome.classification.name}")
        if outcome.witness is None:
            problems.append(f"{law_id}: no witness recorded")

    # Canonical first instance: x = (t -> t) with extent 1.  The would-be
    # inverse composite has shape (2, 1) while the degenerate square has
    # shape (1, 0), and the values split apart at the corner (1, 0).
    first = suite["2.7.first"]
    witness, note = first.witness, first.note or ""
    if witness is not None:
        if witness.instance != 0:
            problems.append(f"2.7.first witness from instance {witness.instance}, not 0")
        if witness.point != (1.0, 0.0):
            problems.append(f"2.7.first witness point {witness.point} != (1.0, 0.0)")
        if witness.left != (0.0,) or witness.right != (1.0,):
            problems.append(
                f"2.7.first witness values {witness.left} vs {witness.right} "
                f"!= (0.0,) vs (1.0,)"
            )
        if abs(witness.distance - 1.0) > 1e-12:
            problems.append(f"2.7.first witness distance {witness.distance} != 1.0")
    if "(2.0, 1.0)" not in note or "(1.0, 0.0)" not in note:
        problems.append(f"2.7.first note {note!r} misses the shape discrepancy")

    detail = (
        "both cancellation laws FAIL; canonical witness: point (1.0, 0.0), "
        "values 0 vs 1, shapes (2.0, 1.0) vs (1.0, 0.0)"
    )
    if problems:
        detail += "; problems: " + "; ".join(problems)
    announce("criterion 4 (2.7 cancellation fails)", not problems, detail)
    assert not problems


def test_criterion_5_identity_padding_exact(announce):
    rng = random.Random(SEED)
    total = 1000
    bad = 0
    for _ in range(total):
        a = gen_cube(rng, 1, allow_zero=True)
        left = compose_strict(degeneracy(face(a, 1, Sign.MINUS), 1), a, 1, ORACLE)
        right = compose_strict(a, degeneracy(face(a, 1, Sign.PLUS), 1), 1, ORACLE)
        if (
            left.shape.extents != a.shape.extents
            or right.shape.extents != a.shape.extents
            or not ORACLE.equals_strict(left, a)
            or not ORACLE.equals_strict(right, a)
        ):
            bad += 1
    announce(
        "criterion 5 (identity padding exact)",
        bad == 0,
        f"{total - bad}/{total} paths: degenerate pads compose to the original "
        f"with bit-exact shapes (0 + r = r)",
    )
    assert bad == 0


def test_criterion_6_shape_tolerance_gate(announce):
    rng = random.Random(SEED)
    total = 1000
    rejected = accepted = 0
    for _ in range(total):
        a, b = gen_composable_pair(rng, 2, 1)
        for delta, expect_compose in ((1e-3, False), (1e-12, True)):
            extents = list(b.shape.extents)
            extents[1] += delta  # perturb the side extent, not the seam
            perturbed = make_cube(2, extents, b.space, b.provenance.act)
            try:
                compose_strict(a, perturbed, 1, ORACLE)
                composed = True
            except CompositionUndefined:
                composed = False
            if expect_compose and composed:
                accepted += 1
            if not expect_compose and not composed:
                rejected += 1
    ok = rejected == total and accepted == total
    announce(
        "criterion 6 (shape tolerance gate)",
        ok,
        f"1e-3 side perturbation rejected {rejected}/{total}; "
        f"1e-12 accepted {accepted}/{total}",
    )
    assert ok


def test_criterion_7_interchange_on_2x2_grids(announce):
    rng = random.Random(SEED)
    total = 100
    bad = 0
    for _ in range(total):
        r1 = rng.uniform(1.0, 3.0)
        r2 = rng.uniform(1.0, 3.0)
        c = gen_cube(rng, 2, shape=(r1, r2))
        cut1 = rng.uniform(0.25, r1 - 0.25)
        cut2 = rng.uniform(0.25, r2 - 0.25)
        (low_low, low_high), (high_low, high_high) = quadrants(c, cut1, cut2)
        grid = [[low_low, high_low], [low_high, high_high]]
        first_then_second = multi_compose(grid, ORACLE, fold_order=(1, 2))
        second_then_first = multi_compose(grid, ORACLE, fold_order=(2, 1))
        if not (
            ORACLE.equals_strict(first_then_second, second_then_first)
            and ORACLE.equals_strict(first_then_second, c)
        ):
            bad += 1
    announce(
        "criterion 7 (2x2 interchange)",
        bad == 0,
        f"{total - bad}/{total} grids: both fold orders strict-equal "
        f"(and recover the subdivided square)",
    )
    assert bad == 0


def test_criterion_8_cli_pipeline(tmp_path, announce, capsys):
    problems = []
    x = cube_from_exprs(1, Shape((2.0,)), Euclidean(1), ["t1^2"])
    y = cube_from_exprs(1, Shape((3.0,)), Euclidean(1), ["4 + t1"])
    x_path = tmp_path / "x.json"
    y_path = tmp_path / "y.json"
    h_path = tmp_path / "h.json"
    csv_path = tmp_path / "h.csv"
    save_cube(x, str(x_path))
    save_cube(y, str(y_path))

    rc = main(
        ["compose", "--a", str(x_path), "--b", str(y_path), "--dir", "1", "--out", str(h_path)]
    )
    if rc != 0:
        problems.append(f"compose exited {rc}")
    rc = main(["sample", "--in", str(h_path), "--grid", "10", "--out", str(csv_path)])
    if rc != 0:
        problems.append(f"sample exited {rc}")
    capsys.readouterr()

    h = load_cube(str(h_path))
    if h.shape.extents != (5.0,):
        problems.append(f"composite shape {h.shape.extents} != (5.0,)")
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    if header != ["t1", "x1"]:
        problems.append(f"csv header {header}")
    if len(data) != 11:  # 10 grid positions plus the beyond-extent probe
        problems.append(f"{len(data)} csv rows != 11")
    worst = 0.0
    for row in data:
        t, value = float(row[0]), float(row[1])
        worst = max(worst, abs(value - h.at((t,))[0]))
    if worst > 1e-12:
        problems.append(f"csv drift {worst} > 1e-12")

    report_a = tmp_path / "laws-a.json"
    report_b = tmp_path / "laws-b.json"
    rc = main(["check-laws", "--seed", "42", "--report", str(report_a)])
    out_a = capsys.readouterr().out
    if rc != 0:
        problems.append(f"first check-laws exited {rc}")
    rc = main(["check-laws", "--seed", "42", "--report", str(report_b)])
    out_b = capsys.readouterr().out
    if rc != 0:
        problems.append(f"second check-laws exited {rc}")
    if report_a.read_bytes() != report_b.read_bytes():
        problems.append("report files differ between identical runs")
    if out_a != out_b:
        problems.append("table output differs between identical runs")

    detail = (
        f"compose+sample round-trip drift {worst:.1e} <= 1e-12 over {len(data)} rows; "
        f"repeated check-laws byte-identical"
    )
    if problems:
        detail += "; problems: " + "; ".join(problems)
    announce("criterion 8 (CLI pipeline)", not problems, detail)
    assert not problems


def test_criterion_9_dsl_regression(announce):
    bad = []
    for source, env, expected in DSL_REGRESSION_VECTOR:
        tree = parse_expr(source)
        interpreted = eval_expr(tree, env)
        compiled = compile_expr(tree, len(env))(env)
        if interpreted != expected:
            bad.append(f"{source!r} interpreted {interpreted!r} != {expected!r}")
        if compiled != expected:
            bad.append(f"{source!r} compiled {compiled!r} != {expected!r}")
    for source, offset in DSL_PARSE_ERRORS:
        try:
            parse_expr(source)
            bad.append(f"{source!r} parsed but should not")
        except ParseError as exc:
            if exc.offset != offset:
                bad.append(f"{source!r} error at {exc.offset} != {offset}")
    announce(
        "criterion 9 (DSL regression)",
        not bad,
        f"{len(DSL_REGRESSION_VECTOR)} value cases exact, "
        f"{len(DSL_PARSE_ERRORS)} parse errors at the expected offsets",
    )
    assert not bad
