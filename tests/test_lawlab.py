"""The law lab: registry, classification, determinism, and witnesses."""
from __future__ import annotations

import hashlib

import pytest

from moorecubes import EqualityOracle, UnknownLaw
from moorecubes.lawlab import (
    LAW_IDS,
    Classification,
    build_case,
    check_instance,
    law,
    check_law,
    reevaluate_witness,
    run_suite,
)
from moorecubes.cli import _report_json, format_table
from moorecubes.cubefile import cube_from_dict, cube_to_dict

oracle = EqualityOracle()
FAST = dict(n_instances=6, seed=42, oracle=oracle)


def test_verdicts_and_counts_do_not_depend_on_the_grid():
    """run_suite(20, 42) at grids 3, 5 and 9 gives every law the same row.

    The row is the verdict and the four counts.  A witness is a grid point,
    so a finer grid may find a farther one.
    """

    def rows(samples):
        report = run_suite(n_instances=20, seed=42, oracle=EqualityOracle(samples_per_axis=samples))
        return [
            (
                o.law_id,
                o.classification,
                o.count_strict,
                o.count_action_only,
                o.count_failed,
                o.count_not_constructible,
            )
            for o in report.outcomes
        ]

    assert rows(3) == rows(5) == rows(9)


class TestRegistry:
    def test_thirty_laws_are_registered(self):
        assert len(LAW_IDS) == 30
        assert len(set(LAW_IDS)) == 30

    def test_every_law_builds_an_instance(self):
        for law_id in LAW_IDS:
            case = build_case(law_id, seed=1, k=0, oracle=oracle)
            assert case.comparisons or case.failure is not None

    def test_unknown_law_is_rejected(self):
        with pytest.raises(UnknownLaw):
            build_case("no.such.law", seed=1, k=0, oracle=oracle)
        with pytest.raises(UnknownLaw):
            check_law("no.such.law", 1, 1, oracle)
        with pytest.raises(UnknownLaw):
            run_suite(law_ids=["3.1.i", "bogus"], n_instances=1, seed=1, oracle=oracle)

    def test_a_law_id_registers_once(self):
        with pytest.raises(ValueError):
            law("3.1.i")(lambda rng, k, oracle: None)
        assert len(LAW_IDS) == 30
        assert build_case("3.1.i", seed=1, k=0, oracle=oracle).comparisons

    def test_instance_count_below_one_is_rejected(self):
        for n in (0, -3):
            with pytest.raises(ValueError):
                check_law("2.7.first", n, 42, oracle)
            with pytest.raises(ValueError):
                run_suite(law_ids=["2.7.first"], n_instances=n, seed=42, oracle=oracle)
            with pytest.raises(ValueError):
                run_suite(law_ids=[], n_instances=n, seed=42, oracle=oracle)


class TestClassification:
    def test_face_commutation_holds_strictly(self):
        out = check_law("3.1.i", **FAST)
        assert out.classification is Classification.HOLDS_STRICT
        assert out.count_strict == out.instances_run
        assert out.witness is None

    def test_connection_collapse_holds_at_action_level_only(self):
        out = check_law("3.2.vii", **FAST)
        assert out.classification is Classification.HOLDS_ACTION
        assert out.count_failed == 0
        assert out.count_action_only > 0
        assert "shapes" in out.note

    def test_transport_laws_are_not_strictly_constructible(self):
        out = check_law("3.6.ii", **FAST)
        assert out.classification is Classification.NOT_CONSTRUCTIBLE_STRICTLY
        assert out.count_not_constructible > 0
        assert out.count_failed == 0

    def test_cancellation_fails_with_a_witness(self):
        out = check_law("2.7.first", **FAST)
        assert out.classification is Classification.FAILS
        assert out.count_failed > 0
        assert out.witness is not None

    def test_counts_partition_the_instances(self):
        for law_id in ("3.1.ii", "3.2.vii", "3.6.ii", "2.7.first"):
            out = check_law(law_id, **FAST)
            assert (
                out.count_strict + out.count_action_only + out.count_failed
                == out.instances_run
            )


class TestCanonicalCancellation:
    def test_first_instance_is_the_identity_path(self):
        case = build_case("2.7.first", seed=42, k=0, oracle=oracle)
        (name, lhs, rhs) = case.comparisons[0]
        assert lhs.shape.extents == (2.0, 1.0)
        assert rhs.shape.extents == (1.0, 0.0)

    def test_reported_witness_point_and_values(self):
        out = check_law("2.7.first", **FAST)
        w = out.witness
        assert w.instance == 0
        assert w.point == (1.0, 0.0)
        assert w.left == (0.0,)
        assert w.right == (1.0,)
        assert w.distance == 1.0

    def test_shape_discrepancy_is_reported(self):
        out = check_law("2.7.first", **FAST)
        assert "(2.0, 1.0)" in out.note and "(1.0, 0.0)" in out.note


class TestInstances:
    def test_pivot_meta_controls_strictness_of_connection_collapse(self):
        for k in range(12):
            res = check_instance("3.2.vii", seed=42, k=k, oracle=oracle)
            if res.meta["pivot"] == 0.0:
                assert res.status == "strict"
            else:
                assert res.status == "action"

    def test_transport_meta_reports_lenient_rebuild(self):
        seen_nc = False
        for k in range(8):
            res = check_instance("3.6.ii", seed=42, k=k, oracle=oracle)
            assert res.status in ("strict", "action")
            if res.not_constructible:
                seen_nc = True
                assert res.meta["lenient_ok"] is True
                assert res.meta["total_shape_exact"] is True
        assert seen_nc

    def test_failed_instances_of_fails_laws_carry_witnesses(self):
        out = check_law("2.7.second", **FAST)
        assert out.classification is Classification.FAILS
        assert out.witness is not None


class TestSidesAreFiles:
    @pytest.mark.parametrize("law_id", LAW_IDS)
    def test_every_side_saves_and_reloads_with_the_same_samples(self, law_id):
        grid = EqualityOracle(samples_per_axis=3).grid
        for k in range(20):
            for _, lhs, rhs in build_case(law_id, seed=42, k=k, oracle=oracle).comparisons:
                # tensor.shape's reference side is an opaque cube on purpose.
                for side in (lhs,) if law_id == "tensor.shape" else (lhs, rhs):
                    back = cube_from_dict(cube_to_dict(side))
                    points = list(grid(side.shape))
                    assert [back.at(p) for p in points] == [side.at(p) for p in points]


class TestWitnessReplay:
    def test_comparison_witness_reevaluates_to_its_distance(self):
        out = check_law("2.7.first", **FAST)
        d = reevaluate_witness("2.7.first", out.witness, seed=42, oracle=oracle)
        assert abs(d - out.witness.distance) <= 1e-12

    def test_construction_witness_reevaluates_too(self):
        out = check_law("3.6.iii", n_instances=10, seed=42, oracle=oracle)
        assert out.classification is Classification.FAILS
        w = out.witness
        assert w.comparison == "construction"
        d = reevaluate_witness("3.6.iii", w, seed=42, oracle=oracle)
        assert abs(d - w.distance) <= 1e-12

    def test_replay_rejects_a_wrong_instance(self):
        out = check_law("2.7.first", **FAST)
        moved = type(out.witness)(
            instance=out.witness.instance,
            comparison="nonexistent",
            point=out.witness.point,
            left=out.witness.left,
            right=out.witness.right,
            distance=out.witness.distance,
        )
        with pytest.raises(ValueError):
            reevaluate_witness("2.7.first", moved, seed=42, oracle=oracle)


class TestSuite:
    def test_runs_are_deterministic(self):
        a = run_suite(law_ids=["3.1.i", "3.2.vii", "2.7.first"], n_instances=4, seed=7, oracle=oracle)
        b = run_suite(law_ids=["3.1.i", "3.2.vii", "2.7.first"], n_instances=4, seed=7, oracle=oracle)
        assert a.as_dict() == b.as_dict()

    def test_different_seeds_draw_different_instances(self):
        a = build_case("3.1.ii", seed=1, k=0, oracle=oracle)
        b = build_case("3.1.ii", seed=2, k=0, oracle=oracle)
        shapes_a = [c[1].shape.extents for c in a.comparisons]
        shapes_b = [c[1].shape.extents for c in b.comparisons]
        assert shapes_a != shapes_b

    def test_default_suite_covers_the_whole_registry(self):
        report = run_suite(n_instances=1, seed=0, oracle=oracle)
        assert tuple(o.law_id for o in report.outcomes) == LAW_IDS

    def test_report_dict_layout(self):
        report = run_suite(law_ids=["3.1.i"], n_instances=2, seed=3, oracle=oracle)
        data = report.as_dict()
        assert set(data) == {"config", "laws"}
        assert data["config"]["seed"] == 3
        assert data["config"]["instances"] == 2
        row = data["laws"]["3.1.i"]
        assert row["classification"] == "HOLDS_STRICT"
        assert row["instances_run"] == 2


# sha256 of the seed-42 table and report JSON over all 30 laws at 5
# instances. Any change to a law's order, verdict, counts, witness or note
# changes these bytes.
TABLE_SHA256 = "a2cf433e2c06b584f8833fd74afd5ddd7e0722721f1fbe3dfcfa0beb5ac27415"
REPORT_SHA256 = "226f5ce29c3dbf32e602b2bad6e54496f5688a23766ef23232102cac00fc61f5"


class TestPinnedOutput:
    def test_seed_42_table_and_report_bytes_are_pinned(self):
        report = run_suite(n_instances=5, seed=42, oracle=oracle)
        table = hashlib.sha256(format_table(report).encode("utf-8")).hexdigest()
        data = hashlib.sha256(_report_json(report).encode("utf-8")).hexdigest()
        assert (table, data) == (TABLE_SHA256, REPORT_SHA256)


class TestRejectedConstruction:
    """A builder whose strict composition is rejected gives a failed instance."""

    tol_zero = EqualityOracle(tol_val=0.0, tol_shape=0.0)

    def test_assoc_at_tolerance_zero_fails_with_a_construction_witness(self):
        res = check_instance("assoc", 42, 0, self.tol_zero)
        assert res.status == "failed" and res.not_constructible
        assert res.witness.comparison == "construction"
        assert res.note.startswith("construction: faces in direction 1 differ")

    def test_its_witness_replays(self):
        out = check_law("assoc", n_instances=5, seed=42, oracle=self.tol_zero)
        assert out.classification is Classification.FAILS
        w = out.witness
        assert w.comparison == "construction" and w.distance > 0.0
        assert abs(reevaluate_witness("assoc", w, seed=42, oracle=self.tol_zero) - w.distance) <= 1e-12
