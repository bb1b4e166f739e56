"""Tests for the ``repro.bench`` performance subsystem.

Covers the scenario registry (lookup, tier filtering, validation), the
runner on tiny scenarios (including the error and expectation-mismatch
paths), the schema-versioned json report round-trip, the baseline
comparator's pass/fail behaviour, the CLI exit codes, and the
``SolveStats`` hooks the runner consumes.
"""

import json

import pytest

from repro.api import PebblingProblem, solve
from repro.bench import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    BenchScenario,
    ScenarioRecord,
    ScenarioTier,
    build_report,
    compare_reports,
    get_scenario,
    iter_scenarios,
    load_report,
    register_scenario,
    run_scenario,
    run_suite,
    scenario_groups,
    scenario_names,
    unregister_scenario,
    write_report,
)
from repro.bench.__main__ import main as _bench_cli
from repro.dags import figure1_gadget


# --------------------------------------------------------------------------- #
# registry: lookup, filtering, validation
# --------------------------------------------------------------------------- #


class TestRegistry:
    def test_builtin_registry_covers_every_benchmark_group(self):
        groups = scenario_groups()
        for expected in [
            "prop4.2",
            "prop4.3",
            "prop4.4",
            "prop4.5",
            "prop4.6",
            "prop4.7",
            "thm4.8",
            "lemma5.4",
            "thm6.9",
            "thm6.10",
            "thm6.11",
            "thm7.1",
            "appB",
            "machinery",
            "anytime",
            "schedule-ir",
        ]:
            assert expected in groups

    def test_at_least_twelve_scenarios(self):
        assert len(iter_scenarios()) >= 12

    def test_get_scenario_roundtrip(self):
        scenario = get_scenario("fig1-prbp-optimal")
        assert scenario.group == "prop4.2"
        assert scenario.game == "prbp"

    def test_get_unknown_scenario_lists_names(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            get_scenario("does-not-exist")

    def test_iter_scenarios_group_filter(self):
        records = iter_scenarios(group="prop4.2")
        assert records and all(s.group == "prop4.2" for s in records)

    def test_iter_scenarios_groups_and_game_filters(self):
        both = iter_scenarios(groups=["prop4.2", "prop4.5"])
        assert {s.group for s in both} == {"prop4.2", "prop4.5"}
        rbp_only = iter_scenarios(groups=["prop4.2", "prop4.5"], game="rbp")
        assert rbp_only and all(s.game == "rbp" for s in rbp_only)

    def test_scenario_names_sorted_by_group_then_name(self):
        names = scenario_names()
        assert names == [s.name for s in iter_scenarios()]

    def test_every_scenario_has_both_tiers(self):
        for scenario in iter_scenarios():
            assert set(scenario.tiers) == {"quick", "full"}

    def test_unknown_tier_raises_with_choices(self):
        with pytest.raises(KeyError, match="no tier"):
            get_scenario("fig1-prbp-optimal").tier("huge")

    def test_build_problem_materialises_the_tier(self):
        problem = get_scenario("fig1-prbp-optimal").build_problem("quick")
        assert isinstance(problem, PebblingProblem)
        assert problem.n == figure1_gadget().n
        assert problem.r == 4

    def test_scenario_requires_all_tiers(self):
        with pytest.raises(ValueError, match="missing tiers"):
            BenchScenario(
                name="incomplete",
                group="test",
                title="",
                dag_factory=figure1_gadget,
                tiers={"quick": ScenarioTier(dag_args=(), r=4)},
            )

    def test_scenario_rejects_unknown_game(self):
        with pytest.raises(ValueError, match="game"):
            BenchScenario(
                name="bad-game",
                group="test",
                title="",
                dag_factory=figure1_gadget,
                game="chess",
                tiers={
                    "quick": ScenarioTier(dag_args=(), r=4),
                    "full": ScenarioTier(dag_args=(), r=4),
                },
            )

    def test_duplicate_registration_rejected(self):
        scenario = get_scenario("fig1-prbp-optimal")
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(scenario)

    def test_callable_capacity_resolves_against_the_dag(self):
        spec = ScenarioTier(dag_args=(), r=lambda dag: dag.max_in_degree + 1)
        assert spec.capacity(figure1_gadget()) == figure1_gadget().max_in_degree + 1


# --------------------------------------------------------------------------- #
# runner
# --------------------------------------------------------------------------- #


def _tiny_scenario(name, **overrides):
    kwargs = dict(
        name=name,
        group="test-group",
        title="tiny test scenario",
        dag_factory=figure1_gadget,
        game="prbp",
        tiers={
            "quick": ScenarioTier(dag_args=(), r=4, expected_cost=2),
            "full": ScenarioTier(dag_args=(), r=4, expected_cost=2),
        },
    )
    kwargs.update(overrides)
    return BenchScenario(**kwargs)


@pytest.fixture
def scratch_registry():
    """Register-and-cleanup helper so tests cannot pollute the global registry."""
    registered = []

    def add(scenario):
        register_scenario(scenario)
        registered.append(scenario.name)
        return scenario

    yield add
    for name in registered:
        unregister_scenario(name)


class TestRunner:
    def test_run_scenario_record_fields(self):
        record = run_scenario("fig1-prbp-optimal", tier="quick")
        assert record.ok and record.error is None
        assert record.scenario == "fig1-prbp-optimal"
        assert record.tier == "quick"
        assert record.io_cost == 2 and record.expected_ok is True
        assert record.lower_bound == 2 and record.gap == 0
        assert record.optimal is True
        assert record.wall_time_s is not None and record.wall_time_s > 0
        assert record.solver_used == "exhaustive"
        assert record.states_expanded is not None and record.states_expanded > 0
        assert record.states_per_s == pytest.approx(record.states_expanded / record.wall_time_s)
        assert record.n == 10 and record.r == 4

    def test_run_scenario_structured_solver_has_no_search_states(self):
        record = run_scenario("tree-prbp-critical", tier="quick")
        assert record.ok and record.solver_used == "tree"
        assert record.states_expanded is None and record.states_per_s is None

    def test_run_scenario_accepts_scenario_object_and_repeats(self):
        record = run_scenario(get_scenario("zipper-prbp"), tier="quick", repeats=3)
        assert record.ok and record.io_cost == 17

    def test_expectation_mismatch_is_a_failure_not_an_exception(self, scratch_registry):
        scratch_registry(
            _tiny_scenario(
                "test-wrong-expectation",
                tiers={
                    "quick": ScenarioTier(dag_args=(), r=4, expected_cost=999),
                    "full": ScenarioTier(dag_args=(), r=4, expected_cost=999),
                },
            )
        )
        record = run_scenario("test-wrong-expectation", tier="quick")
        assert record.error is None
        assert record.expected_ok is False and not record.ok

    def test_expect_optimal_failure(self, scratch_registry):
        # greedy on the collection gadget one pebble short is feasible but
        # provably non-optimal, so expect_optimal must flag it
        from repro.dags import pebble_collection_gadget

        scratch_registry(
            BenchScenario(
                name="test-not-optimal",
                group="test-group",
                title="",
                dag_factory=pebble_collection_gadget,
                game="prbp",
                expect_optimal=True,
                tiers={
                    "quick": ScenarioTier(dag_args=(3, 18), r=4),
                    "full": ScenarioTier(dag_args=(3, 18), r=4),
                },
            )
        )
        record = run_scenario("test-not-optimal", tier="quick")
        assert record.error is None and record.expected_ok is False

    def test_broken_factory_becomes_error_record(self, scratch_registry):
        def explode():
            raise RuntimeError("boom")

        scratch_registry(_tiny_scenario("test-broken-factory", dag_factory=explode))
        record = run_scenario("test-broken-factory", tier="quick")
        assert record.error is not None and "boom" in record.error
        assert not record.ok and record.io_cost is None

    def test_solver_failure_becomes_error_record(self, scratch_registry):
        # r=1 cannot pebble Figure 1 exhaustively nor greedily
        scratch_registry(
            _tiny_scenario(
                "test-infeasible",
                tiers={
                    "quick": ScenarioTier(dag_args=(), r=1),
                    "full": ScenarioTier(dag_args=(), r=1),
                },
            )
        )
        record = run_scenario("test-infeasible", tier="quick")
        assert record.error is not None and "solve() failed" in record.error
        assert record.n == 10  # the problem was built before the solver died

    def test_run_suite_group_filter(self):
        records = run_suite(tier="quick", groups=["prop4.2"])
        assert {rec.group for rec in records} == {"prop4.2"}
        assert all(rec.ok for rec in records)

    def test_run_suite_names_validated_eagerly(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            run_suite(tier="quick", names=["no-such-scenario"])

    def test_run_suite_progress_callback(self):
        seen = []
        run_suite(tier="quick", names=["fig1-appA1-prbp"], progress=seen.append)
        assert len(seen) == 1 and seen[0].scenario == "fig1-appA1-prbp"


# --------------------------------------------------------------------------- #
# custom runners & the replay-throughput microbenchmark
# --------------------------------------------------------------------------- #


class TestCustomRunner:
    def _record_for(self, scenario, tier, wall=0.5):
        return ScenarioRecord(
            scenario=scenario.name,
            group=scenario.group,
            tier=tier,
            game=scenario.game,
            variant=scenario.variant.describe(),
            solver_requested=scenario.solver,
            reference=scenario.reference,
            wall_time_s=wall,
            expected_ok=True,
        )

    def test_custom_runner_owns_the_whole_run(self, scratch_registry):
        calls = []

        def runner(scenario, tier, repeats):
            calls.append((scenario.name, tier, repeats))
            return self._record_for(scenario, tier)

        scratch_registry(_tiny_scenario("test-custom", custom_runner=runner))
        record = run_scenario("test-custom", tier="quick", repeats=7)
        assert calls == [("test-custom", "quick", 7)]
        assert record.ok and record.wall_time_s == 0.5

    def test_custom_runner_exception_becomes_error_record(self, scratch_registry):
        def runner(scenario, tier, repeats):
            raise RuntimeError("bench exploded")

        scratch_registry(_tiny_scenario("test-custom-broken", custom_runner=runner))
        record = run_scenario("test-custom-broken", tier="quick")
        assert record.error is not None and "bench exploded" in record.error
        assert not record.ok

    def test_custom_runner_bad_return_becomes_error_record(self, scratch_registry):
        scratch_registry(
            _tiny_scenario("test-custom-bad-return", custom_runner=lambda s, t, n: 42)
        )
        record = run_scenario("test-custom-bad-return", tier="quick")
        assert record.error is not None and "ScenarioRecord" in record.error

    def test_parallel_suite_routes_custom_scenarios_in_order(self, scratch_registry):
        scratch_registry(
            _tiny_scenario(
                "test-custom-parallel",
                custom_runner=lambda s, t, n: self._record_for(s, t, wall=0.25),
            )
        )
        names = ["fig1-appA1-prbp", "test-custom-parallel", "zipper-prbp"]
        records = run_suite(tier="quick", names=names, jobs=2)
        assert [rec.scenario for rec in records] == names
        assert records[1].wall_time_s == 0.25 and all(rec.ok for rec in records)


class TestReplayScenarios:
    def test_replay_scenarios_are_registered_with_custom_runners(self):
        for name in ("replay-throughput", "replay-throughput-prbp-scalar"):
            scenario = get_scenario(name)
            assert scenario.group == "schedule-ir"
            assert scenario.custom_runner is not None
            assert "min_speedup" in scenario.solve_options

    def test_replay_record_reports_throughput_and_speedup(self):
        # the smaller PRBP workload keeps the test cheap; the >= 8x RBP gate
        # itself is exercised by the bench-smoke --compare run, not here
        # (asserting a hard speedup in a shared-CI sandbox would be flaky)
        record = run_scenario("replay-throughput-prbp-scalar", tier="quick", repeats=1)
        assert record.error is None
        assert record.replay_speedup is not None and record.replay_speedup > 1.0
        assert record.replay_schedules_per_s and record.replay_schedules_per_s > 0
        assert record.replay_engine_schedules_per_s and record.replay_engine_schedules_per_s > 0
        assert record.io_cost and record.io_cost > 0
        assert record.moves and record.moves > 0
        assert record.solver_used == "replay-kernel"
        doc = record.to_dict()
        for key in (
            "replay_speedup",
            "replay_schedules_per_s",
            "replay_engine_schedules_per_s",
        ):
            assert key in doc


# --------------------------------------------------------------------------- #
# report: schema round-trip
# --------------------------------------------------------------------------- #


class TestReport:
    def _records(self):
        return [
            run_scenario("fig1-appA1-prbp", tier="quick"),
            run_scenario("zipper-prbp", tier="quick"),
        ]

    def test_roundtrip(self, tmp_path):
        report = build_report(self._records(), tier="quick", repeats=2)
        path = tmp_path / "BENCH_repro.json"
        write_report(report, path)
        loaded = load_report(path)
        assert loaded["schema"] == SCHEMA_NAME
        assert loaded["schema_version"] == SCHEMA_VERSION
        assert loaded["tier"] == "quick" and loaded["repeats"] == 2
        assert loaded["summary"]["scenarios"] == 2
        assert loaded["summary"]["failures"] == 0
        assert len(loaded["scenarios"]) == 2
        first = loaded["scenarios"][0]
        for key in ("scenario", "group", "wall_time_s", "io_cost", "lower_bound", "gap"):
            assert key in first
        assert loaded["env"]["python"]

    def test_summary_counts_failures(self):
        bad = ScenarioRecord(
            scenario="x",
            group="g",
            tier="quick",
            game="prbp",
            variant="one-shot",
            solver_requested="auto",
            reference="",
            error="kaput",
        )
        report = build_report([bad], tier="quick")
        assert report["summary"]["failures"] == 1
        assert report["summary"]["failed_scenarios"] == ["x"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something-else", "scenarios": []}))
        with pytest.raises(ValueError, match="not a"):
            load_report(path)

    def test_load_rejects_wrong_version(self, tmp_path):
        # only the current schema loads: older baselines are re-recorded
        for version in (1, 2, 3, 99):
            path = tmp_path / f"v{version}.json"
            path.write_text(
                json.dumps({"schema": SCHEMA_NAME, "schema_version": version, "scenarios": []})
            )
            with pytest.raises(ValueError, match="schema_version"):
                load_report(path)

    def test_load_refuses_version_1_baselines(self, tmp_path):
        # a v1 document with records is refused, and the error names the version this build reads
        path = tmp_path / "v1.json"
        path.write_text(
            json.dumps(
                {
                    "schema": SCHEMA_NAME,
                    "schema_version": 1,
                    "scenarios": [{"scenario": "a", "tier": "quick", "io_cost": 5}],
                }
            )
        )
        with pytest.raises(ValueError, match=f"reads version {SCHEMA_VERSION}"):
            load_report(path)

    def test_load_rejects_missing_scenarios(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION}))
        with pytest.raises(ValueError, match="scenarios"):
            load_report(path)

    def test_records_carry_refinement_trajectory_fields(self):
        # a scenario whose auto dispatch lands on greedy + refinement
        record = run_scenario("random-layered-sparse", tier="quick")
        assert record.error is None
        assert record.refine_initial_cost is not None
        assert record.refine_steps is not None and record.refine_steps > 0
        assert record.io_cost <= record.refine_initial_cost
        doc = record.to_dict()
        for key in (
            "refine_initial_cost",
            "refine_steps",
            "refine_accepted",
            "refine_time_to_best_s",
        ):
            assert key in doc


# --------------------------------------------------------------------------- #
# comparator
# --------------------------------------------------------------------------- #


def _doc(records):
    return {
        "schema": SCHEMA_NAME,
        "schema_version": SCHEMA_VERSION,
        "scenarios": records,
    }


def _rec(name, wall=0.1, cost=10, error=None, expected_ok=True, tier="quick", states=None):
    return {
        "scenario": name,
        "tier": tier,
        "wall_time_s": wall,
        "io_cost": cost,
        "states_expanded": states,
        "error": error,
        "expected_ok": expected_ok,
    }


class TestComparator:
    def test_identical_reports_pass(self):
        doc = _doc([_rec("a"), _rec("b")])
        result = compare_reports(doc, doc)
        assert result.ok and not result.regressions

    def test_doctored_faster_baseline_fails_on_wall_time(self):
        current = _doc([_rec("a", wall=0.5)])
        baseline = _doc([_rec("a", wall=0.05)])
        result = compare_reports(current, baseline, threshold=1.25)
        assert not result.ok
        assert [r.kind for r in result.regressions] == ["wall-time"]

    def test_wall_time_noise_below_floor_is_ignored(self):
        current = _doc([_rec("a", wall=0.004)])
        baseline = _doc([_rec("a", wall=0.0005)])  # 8x, but both sub-floor
        result = compare_reports(current, baseline, threshold=1.25)
        assert result.ok

    def test_any_cost_increase_fails(self):
        current = _doc([_rec("a", cost=11)])
        baseline = _doc([_rec("a", cost=10)])
        result = compare_reports(current, baseline)
        assert not result.ok
        assert result.regressions[0].kind == "io-cost"

    def test_cost_decrease_is_an_improvement(self):
        current = _doc([_rec("a", cost=9)])
        baseline = _doc([_rec("a", cost=10)])
        result = compare_reports(current, baseline)
        assert result.ok and result.improvements

    def test_any_rise_in_expanded_states_fails(self):
        current = _doc([_rec("a", states=1001), _rec("b", states=None)])
        baseline = _doc([_rec("a", states=1000), _rec("b", states=None)])
        result = compare_reports(current, baseline)
        assert not result.ok
        assert [r.kind for r in result.regressions] == ["states-expanded"]
        assert (result.regressions[0].current, result.regressions[0].baseline) == (1001, 1000)

    def test_fewer_expanded_states_is_an_improvement(self):
        current = _doc([_rec("a", states=900)])
        baseline = _doc([_rec("a", states=1000)])
        result = compare_reports(current, baseline)
        assert result.ok and result.improvements

    def test_new_failure_fails(self):
        current = _doc([_rec("a", error="exploded")])
        baseline = _doc([_rec("a")])
        result = compare_reports(current, baseline)
        assert not result.ok and result.regressions[0].kind == "failure"

    def test_already_failing_baseline_is_skipped(self):
        current = _doc([_rec("a", error="still broken")])
        baseline = _doc([_rec("a", error="was broken")])
        result = compare_reports(current, baseline)
        assert result.ok and result.skipped

    def test_missing_scenario_fails(self):
        current = _doc([_rec("a")])
        baseline = _doc([_rec("a"), _rec("gone")])
        result = compare_reports(current, baseline)
        assert not result.ok and result.regressions[0].kind == "missing"

    def test_new_scenario_is_informational(self):
        current = _doc([_rec("a"), _rec("new")])
        baseline = _doc([_rec("a")])
        result = compare_reports(current, baseline)
        assert result.ok and any("new scenario" in note for note in result.skipped)

    def test_threshold_below_one_rejected(self):
        with pytest.raises(ValueError, match="threshold"):
            compare_reports(_doc([]), _doc([]), threshold=0.8)

    def test_describe_lists_findings(self):
        current = _doc([_rec("a", cost=11)])
        baseline = _doc([_rec("a", cost=10)])
        text = compare_reports(current, baseline).describe()
        assert "REGRESSION" in text and "io-cost" in text


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #


class TestCLI:
    def test_list_exits_zero(self, capsys):
        assert _bench_cli(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1-prbp-optimal" in out

    def test_run_writes_report_and_exits_zero(self, tmp_path, capsys):
        out_path = tmp_path / "BENCH_repro.json"
        code = _bench_cli(
            ["--quick", "--scenario", "fig1-appA1-prbp", "--output", str(out_path)]
        )
        assert code == 0
        doc = load_report(out_path)
        assert doc["summary"]["scenarios"] == 1

    def test_no_matching_scenarios_exits_one(self, capsys):
        assert _bench_cli(["--group", "no-such-group"]) == 1

    def test_compare_against_doctored_baseline_exits_two(self, tmp_path, capsys):
        out_path = tmp_path / "current.json"
        assert (
            _bench_cli(
                ["--quick", "--scenario", "zipper-prbp", "--output", str(out_path)]
            )
            == 0
        )
        doc = json.loads(out_path.read_text())
        doc["scenarios"][0]["wall_time_s"] /= 1000.0  # impossibly fast baseline
        doc["scenarios"][0]["io_cost"] -= 1  # and cheaper, too
        baseline_path = tmp_path / "baseline.json"
        baseline_path.write_text(json.dumps(doc))
        code = _bench_cli(
            [
                "--input",
                str(out_path),
                "--compare",
                str(baseline_path),
                "--threshold",
                "1.25",
            ]
        )
        assert code == 2

    def test_compare_refuses_v1_baseline(self, tmp_path, capsys):
        # the --compare gate refuses an old baseline rather than comparing against it
        current_path = tmp_path / "current.json"
        current_path.write_text(json.dumps(_doc([_rec("a", cost=8)])))
        baseline_path = tmp_path / "v1.json"
        baseline_path.write_text(
            json.dumps({"schema": SCHEMA_NAME, "schema_version": 1, "scenarios": [_rec("a")]})
        )
        with pytest.raises(ValueError, match="schema_version 1"):
            _bench_cli(["--input", str(current_path), "--compare", str(baseline_path)])

    def test_compare_against_self_exits_zero(self, tmp_path, capsys):
        out_path = tmp_path / "current.json"
        _bench_cli(["--quick", "--scenario", "zipper-prbp", "--output", str(out_path)])
        assert _bench_cli(["--input", str(out_path), "--compare", str(out_path)]) == 0


# --------------------------------------------------------------------------- #
# SolveStats hooks (the api-side half of the runner contract)
# --------------------------------------------------------------------------- #


class TestSolveStats:
    def test_exhaustive_result_carries_search_counters(self):
        result = solve(PebblingProblem(figure1_gadget(), 4, game="prbp"))
        stats = result.solve_stats
        assert stats is not None and stats.wall_time_s > 0
        assert stats.states_expanded > 0
        assert stats.states_frontier_peak >= 1

    def test_non_search_solver_has_no_counters(self):
        result = solve(
            PebblingProblem(figure1_gadget(), 4, game="prbp"), solver="figure1"
        )
        stats = result.solve_stats
        assert stats is not None and stats.wall_time_s > 0
        assert stats.states_expanded is None
        assert stats.states_frontier_peak is None
