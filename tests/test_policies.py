"""Tests for the unified policy subsystem: registry, ClusterView, decisions,
declarative selection through HierarchyConfig / ScenarioSpec / CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli.main import main
from repro.cluster.node import NodeState
from repro.core.placement import PlacementError
from repro.hierarchy.config import HierarchyConfig
from repro.policies import (
    AssignmentPolicy,
    BestFitPlacement,
    ClusterView,
    DispatchingPolicy,
    FirstFitPlacement,
    LeastLoadedAssignment,
    MigrationPlan,
    PlacementPolicy,
    ReconfigurationPolicy,
    RoundRobinAssignment,
    WorstFitPlacement,
    get_policy_spec,
    iter_policy_specs,
    make_policy,
    policy_kinds,
    policy_names,
    register_policy,
)
from repro.policies.registry import validate_policy_selection
from repro.scenarios import ScenarioRunner, ScenarioSpec, WorkloadPhase, run_scenario
from repro.scheduling import (
    RelocationDecision,
    ReconfigurationPlan,
    make_dispatching_policy,
    make_placement_policy,
)

from tests.conftest import make_node, make_vm

EXPECTED_KINDS = {
    "assignment",
    "dispatching",
    "overload-relocation",
    "placement",
    "reconfiguration",
    "underload-relocation",
}


class TestRegistry:
    def test_all_kinds_registered(self):
        assert EXPECTED_KINDS <= set(policy_kinds())

    def test_every_policy_constructs_from_spec_defaults(self):
        for spec in iter_policy_specs():
            policy = make_policy(spec.kind, spec.name, **spec.defaults())
            assert policy is not None
            # And again with no parameters at all: every registered policy
            # must be constructible out of the box.
            assert make_policy(spec.kind, spec.name) is not None

    def test_registry_backs_the_cli_with_no_hand_maintained_tables(self):
        assert set(policy_names("placement")) == {
            "first-fit",
            "best-fit",
            "worst-fit",
            "round-robin",
        }
        assert set(policy_names("reconfiguration")) == {
            "aco",
            "aco-vectorized",
            "distributed-aco",
            "ffd",
            "bfd",
            "wfd",
        }

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match=r"best-fit.*first-fit"):
            make_policy("placement", "nope")

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ValueError, match="placement"):
            make_policy("teleportation", "magic")

    def test_unknown_parameter_rejected_with_schema(self):
        with pytest.raises(ValueError, match="n_ants"):
            make_policy("reconfiguration", "aco", colony_size=3)

    def test_legacy_factories_list_valid_names_on_unknown(self):
        with pytest.raises(ValueError, match=r"round-robin.*worst-fit"):
            make_placement_policy("nope")
        with pytest.raises(ValueError, match=r"first-fit.*least-loaded.*round-robin"):
            make_dispatching_policy("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_policy("placement", name="first-fit")
            class Impostor:
                name = "first-fit"

    def test_validate_selection(self):
        spec = validate_policy_selection("placement", {"name": "best-fit"})
        assert spec.name == "best-fit"
        with pytest.raises(ValueError, match="dictionary"):
            validate_policy_selection("placement", "best-fit")
        with pytest.raises(ValueError, match="choose from"):
            validate_policy_selection("placement", {"name": "bogus"})


class TestClusterView:
    def make_cluster(self):
        nodes = [make_node(f"node-{i}") for i in range(4)]
        nodes[0].place_vm(make_vm(0.5, 0.5, 0.5))
        nodes[1].place_vm(make_vm(0.8, 0.8, 0.8))
        nodes[3].state = NodeState.SUSPENDED
        return nodes

    def test_view_is_sorted_by_node_id(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(reversed(nodes))
        assert list(view.node_ids) == sorted(node.node_id for node in nodes)

    def test_feasible_mask_excludes_full_and_suspended(self):
        view = ClusterView.from_nodes(self.make_cluster())
        mask = view.feasible_mask(np.array([0.3, 0.3, 0.3]))
        assert list(mask) == [True, False, True, False]

    def test_reserved_and_used_match_nodes(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(nodes)
        for node in nodes:
            index = view.index_of(node.node_id)
            assert np.allclose(view.reserved[index], node.reserved().values)
            assert np.allclose(view.capacities[index], node.capacity.values)

    def test_node_lookup(self):
        nodes = self.make_cluster()
        view = ClusterView.from_nodes(nodes)
        assert view.node_by_id("node-2") is nodes[2]
        assert view.node_by_id("missing") is None
        assert view.index_of("missing") is None

    def test_empty_view(self):
        view = ClusterView.from_nodes([])
        assert len(view) == 0
        assert view.feasible_mask(np.array([0.1, 0.1, 0.1])).size == 0

    def test_zero_capacity_dimension_yields_finite_scores(self):
        """Regression: a node advertising 0 capacity in some dimension (e.g. a
        diskless or NIC-less tier) used to make ``residual_after`` and
        ``headroom_fractions`` divide by zero and poison best/worst-fit scoring
        with NaN/inf.  Zero-capacity dimensions now contribute 0 headroom."""
        nodes = [make_node("node-0"), make_node("node-1", network=0.0)]
        nodes[0].place_vm(make_vm(0.4, 0.4, 0.1))
        view = ClusterView.from_nodes(nodes)
        residual = view.residual_after(np.array([0.2, 0.2, 0.0]))
        headroom = view.headroom_fractions()
        assert np.all(np.isfinite(residual))
        assert np.all(np.isfinite(headroom))
        # The degenerate dimension contributes nothing, the others still count.
        index = view.index_of("node-1")
        assert headroom[index] == pytest.approx(2.0)


def _reference_select(policy_name, vm, nodes):
    """The historical pure-Python policy semantics, as a parity oracle."""
    feasible = [n for n in nodes if n.is_available_for_placement and n.fits(vm)]
    if not feasible:
        return None
    if policy_name == "first-fit":
        return min(feasible, key=lambda n: n.node_id)
    if policy_name == "best-fit":
        def residual_after(n):
            return float(np.sum((n.available().values - vm.requested.values) / n.capacity.values))

        return min(feasible, key=lambda n: (residual_after(n), n.node_id))
    if policy_name == "worst-fit":
        def residual(n):
            return float(np.sum(n.available().values / n.capacity.values))

        return max(feasible, key=lambda n: (residual(n), n.node_id))
    raise AssertionError(policy_name)


class TestVectorizedPlacementParity:
    @pytest.mark.parametrize("policy_name", ["first-fit", "best-fit", "worst-fit"])
    def test_matches_reference_on_random_clusters(self, policy_name):
        rng = np.random.default_rng(42)
        policy = make_policy("placement", policy_name)
        for _ in range(25):
            nodes = [make_node(f"node-{i:02d}") for i in range(8)]
            for node in nodes:
                for _ in range(int(rng.integers(0, 4))):
                    size = float(rng.uniform(0.05, 0.3))
                    node.place_vm(make_vm(size, size, size))
                if rng.random() < 0.2:
                    node.state = NodeState.SUSPENDED
            size = float(rng.uniform(0.05, 0.6))
            vm = make_vm(size, size, size)
            expected = _reference_select(policy_name, vm, nodes)
            chosen = policy.select(vm, nodes)
            if expected is None:
                assert chosen is None
            else:
                assert chosen is expected

    def test_decision_object_carries_reason_when_nothing_fits(self):
        node = make_node("full")
        node.place_vm(make_vm(0.9, 0.9, 0.9))
        view = ClusterView.from_nodes([node])
        decision = BestFitPlacement().decide(make_vm(0.5, 0.5, 0.5), view)
        assert not decision.placed
        assert decision.reason


class TestDecisionVocabulary:
    def test_relocation_and_reconfiguration_share_migration_plan(self):
        assert RelocationDecision is MigrationPlan
        assert ReconfigurationPlan is MigrationPlan

    def test_migration_plan_defaults(self):
        plan = MigrationPlan()
        assert plan.empty
        assert plan.hosts_saved == 0
        assert len(plan) == 0


class TestAssignmentPolicies:
    def test_round_robin_rotates(self):
        policy = RoundRobinAssignment()
        gm_ids = ["gm-00", "gm-01", "gm-02"]
        chosen = [policy.choose(gm_ids, {}) for _ in range(3)]
        assert chosen == gm_ids

    def test_least_loaded_picks_fewest_lcs(self):
        policy = LeastLoadedAssignment()
        counts = {"gm-00": 5, "gm-01": 1, "gm-02": 3}
        assert policy.choose(sorted(counts), counts) == "gm-01"

    def test_empty_gm_list(self):
        assert RoundRobinAssignment().choose([], {}) is None
        assert LeastLoadedAssignment().choose([], {}) is None


class _OutOfHosts:
    """A consolidation heuristic that runs out of hosts."""

    def consolidate(self, placement, **_kwargs):
        raise PlacementError("worst-fit could not place VM 0")


class TestReconfigurationFailSafe:
    def test_heuristic_out_of_hosts_keeps_current_placement(self):
        nodes = [make_node(f"node-{i}") for i in range(3)]
        for index, node in enumerate(nodes):
            node.place_vm(make_vm(cpu=0.2, memory=0.2, vm_id=index))
        plan = ReconfigurationPolicy(algorithm=_OutOfHosts()).plan(nodes)
        assert plan.moves == [] and plan.released_nodes == []
        assert plan.hosts_after == plan.hosts_before == 3
        assert "worst-fit could not place VM 0" in plan.reason
        assert plan.reason.endswith("keeping current placement")

    @pytest.mark.parametrize(
        "reconfiguration, seed",
        [("wfd", 801148508), ("bfd", 1095513148), ("ffd", 1323436024)],
    )
    def test_policy_matrix_cells_that_ran_out_of_hosts_complete(self, reconfiguration, seed):
        """Catalog policy-matrix cells (steady-churn, best-fit placement) that
        used to die with ``PlacementError`` out of the GM's reconfiguration tick."""
        from repro.sweeps import get_sweep

        run = next(
            run
            for run in get_sweep("policy-matrix").expand()
            if run.scenario == "steady-churn"
            and run.policies["placement"]["name"] == "best-fit"
            and run.policies["reconfiguration"]["name"] == reconfiguration
        )
        result = ScenarioRunner(run.build_scenario_spec(), seed=seed, duration=run.duration).run()
        assert result.availability["leader_at_end"] is not None
        assert result.policies["reconfiguration"] == reconfiguration


class TestHierarchyConfigPolicies:
    def test_legacy_string_fields_drive_resolved_selection(self):
        config = HierarchyConfig(placement_policy="best-fit", assignment_policy="least-loaded")
        resolved = config.resolved_policies()
        assert resolved["placement"] == {"name": "best-fit"}
        assert resolved["assignment"] == {"name": "least-loaded"}
        assert resolved["reconfiguration"] == {"name": "aco"}
        # The authored block stays as written (empty here), so replace()
        # and serialization carry intent, not derived state.
        assert config.policies == {}

    def test_policy_block_wins_and_syncs_legacy_fields(self):
        config = HierarchyConfig(
            placement_policy="first-fit",
            policies={"placement": {"name": "worst-fit"}},
        )
        assert config.placement_policy == "worst-fit"
        assert config.policy_name("placement") == "worst-fit"

    def test_unknown_policy_name_rejected_at_construction(self):
        with pytest.raises(ValueError, match="choose from"):
            HierarchyConfig(placement_policy="bogus")
        with pytest.raises(ValueError, match="choose from"):
            HierarchyConfig(policies={"reconfiguration": {"name": "simulated-annealing"}})
        with pytest.raises(ValueError, match="dictionary"):
            HierarchyConfig(policies={"placement": "best-fit"})

    def test_build_policy_returns_registered_instances(self):
        config = HierarchyConfig(
            policies={
                "placement": {"name": "worst-fit"},
                "reconfiguration": {"name": "ffd"},
            }
        )
        assert isinstance(config.build_policy("placement"), WorstFitPlacement)
        reconfiguration = config.build_policy("reconfiguration")
        assert isinstance(reconfiguration, ReconfigurationPolicy)
        assert reconfiguration.algorithm.name == "ffd"

    def test_build_policy_entry_params_override_runtime_extras(self):
        config = HierarchyConfig(
            policies={"reconfiguration": {"name": "aco", "n_cycles": 3}},
            max_migrations_per_round=2,
        )
        policy = config.build_policy(
            "reconfiguration", max_migrations=config.max_migrations_per_round
        )
        assert policy.max_migrations == 2
        assert policy.algorithm.parameters.n_cycles == 3

    def test_legacy_field_mutation_after_construction_is_honored(self):
        config = HierarchyConfig()
        config.placement_policy = "best-fit"
        assert config.policy_name("placement") == "best-fit"
        assert isinstance(config.build_policy("placement"), BestFitPlacement)
        config.placement_policy = "bogus"
        with pytest.raises(ValueError, match="choose from"):
            config.build_policy("placement")

    def test_dataclasses_replace_with_legacy_field_is_honored(self):
        import dataclasses

        replaced = dataclasses.replace(HierarchyConfig(), placement_policy="best-fit")
        assert replaced.placement_policy == "best-fit"
        assert replaced.policy_name("placement") == "best-fit"

    def test_policy_block_mutation_after_construction_is_honored(self):
        config = HierarchyConfig()
        config.policies["placement"] = {"name": "best-fit"}
        assert config.policy_name("placement") == "best-fit"
        assert isinstance(config.build_policy("placement"), BestFitPlacement)
        # Reading through the policy API re-syncs the back-compat string.
        assert config.placement_policy == "best-fit"

    def test_defaults_are_backward_compatible(self):
        config = HierarchyConfig()
        assert config.policy_name("placement") == "first-fit"
        assert config.policy_name("dispatching") == "first-fit"
        assert config.policy_name("assignment") == "round-robin"
        assert config.policy_name("overload-relocation") == "greedy"
        assert config.policy_name("underload-relocation") == "all-or-nothing"


def _policy_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="policy-test",
        duration=600.0,
        local_controllers=4,
        group_managers=2,
        config={"reconfiguration_interval": 300.0},
        policies={
            "placement": {"name": "best-fit"},
            "reconfiguration": {"name": "aco", "n_ants": 4, "n_cycles": 5},
        },
        phases=[
            WorkloadPhase(
                name="churn",
                vm_count=12,
                arrival={"kind": "poisson", "rate_per_hour": 360.0},
                demand={"kind": "uniform", "low": 0.1, "high": 0.3},
                trace={"kind": "constant", "level": 0.6},
                lifetime={"kind": "exponential", "mean": 200.0, "minimum": 30.0},
            )
        ],
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestScenarioPolicies:
    def test_round_trip_through_json(self):
        spec = _policy_spec()
        decoded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert decoded == spec
        assert decoded.policies["reconfiguration"]["n_ants"] == 4

    def test_every_registered_policy_round_trips_through_scenario_json(self):
        for registered in iter_policy_specs():
            spec = _policy_spec(policies={registered.kind: {"name": registered.name}})
            decoded = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
            assert decoded == spec
            assert decoded.policies[registered.kind]["name"] == registered.name

    def test_unknown_policy_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown policy kind"):
            _policy_spec(policies={"teleportation": {"name": "magic"}})

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="choose from"):
            _policy_spec(policies={"placement": {"name": "bogus"}})

    def test_unknown_policy_parameter_rejected(self):
        with pytest.raises(ValueError, match="colony_size"):
            _policy_spec(policies={"reconfiguration": {"name": "aco", "colony_size": 9}})

    def test_runtime_parameters_rejected_declaratively(self):
        # thresholds/rng carry live runtime objects; JSON cannot express them.
        with pytest.raises(ValueError, match="runtime"):
            _policy_spec(policies={"reconfiguration": {"name": "aco", "rng": 7}})
        with pytest.raises(ValueError, match="runtime"):
            _policy_spec(
                policies={
                    "overload-relocation": {"name": "greedy", "thresholds": {"overload": 0.9}}
                }
            )
        with pytest.raises(ValueError, match="runtime"):
            HierarchyConfig(
                policies={"underload-relocation": {"name": "all-or-nothing", "thresholds": {}}}
            )

    def test_policies_not_allowed_inside_config_block(self):
        with pytest.raises(ValueError, match="top-level 'policies' section"):
            _policy_spec(config={"policies": {"placement": {"name": "best-fit"}}})

    def test_policies_reach_hierarchy_config(self):
        config = _policy_spec().hierarchy_config(seed=5)
        assert config.policy_name("placement") == "best-fit"
        assert config.policy_name("reconfiguration") == "aco"
        assert config.placement_policy == "best-fit"

    def test_same_seed_runs_with_policy_block_are_byte_identical(self):
        first = run_scenario(_policy_spec(), seed=11).canonical_json()
        second = run_scenario(_policy_spec(), seed=11).canonical_json()
        assert first == second
        decoded = json.loads(first)
        assert decoded["policies"]["placement"] == "best-fit"
        assert decoded["policies"]["reconfiguration"] == "aco"

    def test_legacy_config_strings_still_work_in_scenarios(self):
        spec = _policy_spec(
            policies={},
            config={"placement_policy": "worst-fit", "reconfiguration_interval": 300.0},
        )
        config = spec.hierarchy_config(seed=0)
        assert config.policy_name("placement") == "worst-fit"


class TestPolicyCli:
    def test_policy_list_enumerates_the_whole_registry(self, capsys):
        assert main(["policy", "list"]) == 0
        output = capsys.readouterr().out
        for spec in iter_policy_specs():
            assert spec.name in output
            assert spec.kind in output

    def test_policy_list_kind_filter(self, capsys):
        assert main(["policy", "list", "placement", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {e["kind"] for e in entries} == {"placement"}
        assert main(["policy", "list", "teleportation"]) == 1
        assert "unknown policy kind" in capsys.readouterr().err

    def test_policy_list_json(self, capsys):
        assert main(["policy", "list", "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert {(e["kind"], e["name"]) for e in entries} == {
            (s.kind, s.name) for s in iter_policy_specs()
        }

    def test_policy_describe_json_matches_registry(self, capsys):
        assert main(["policy", "describe", "reconfiguration", "aco", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == get_policy_spec("reconfiguration", "aco").describe()

    def test_policy_describe_table_without_json(self, capsys):
        assert main(["policy", "describe", "reconfiguration", "aco"]) == 0
        output = capsys.readouterr().out
        assert "reconfiguration / aco" in output
        assert "n_ants" in output

    def test_policy_list_rejects_trailing_name(self):
        with pytest.raises(SystemExit):
            main(["policy", "list", "placement", "best-fit"])

    def test_policy_describe_unknown_fails_cleanly(self, capsys):
        assert main(["policy", "describe", "placement", "bogus"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_scenario_run_with_policy_override(self, capsys):
        assert (
            main(
                [
                    "scenario",
                    "run",
                    "steady-churn",
                    "--seed",
                    "0",
                    "--duration",
                    "300",
                    "--policy",
                    "placement=worst-fit",
                    "--json",
                ]
            )
            == 0
        )
        result = json.loads(capsys.readouterr().out)
        assert result["policies"]["placement"] == "worst-fit"

    def test_same_name_override_preserves_tuned_parameters(self):
        from repro.cli.main import _apply_policy_overrides
        from repro.scenarios import get_scenario

        spec = get_scenario("aco-consolidation-cycle")
        same = _apply_policy_overrides(spec, {"reconfiguration": {"name": "aco"}})
        assert same.policies["reconfiguration"]["n_cycles"] == 12
        different = _apply_policy_overrides(spec, {"reconfiguration": {"name": "ffd"}})
        assert different.policies["reconfiguration"] == {"name": "ffd"}
        assert different.policies["placement"] == {"name": "best-fit"}

    def test_scenario_describe_previews_policy_overrides(self, capsys):
        assert (
            main(["scenario", "describe", "steady-churn", "--policy", "placement=best-fit"])
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["policies"]["placement"] == {"name": "best-fit"}
        assert main(["scenario", "describe", "steady-churn", "--policy", "placement=bogus"]) == 1
        assert "choose from" in capsys.readouterr().err

    def test_scenario_list_rejects_policy_overrides(self):
        with pytest.raises(SystemExit):
            main(["scenario", "list", "--policy", "placement=best-fit"])

    def test_scenario_run_with_bad_policy_override_fails_cleanly(self, capsys):
        assert (
            main(["scenario", "run", "steady-churn", "--policy", "placement=bogus"]) == 1
        )
        assert "choose from" in capsys.readouterr().err
        assert (
            main(["scenario", "run", "steady-churn", "--policy", "malformed"]) == 1
        )
        assert "KIND=NAME" in capsys.readouterr().err


class TestNoStringComparisonOutsidePolicies:
    def test_base_classes_expose_kind(self):
        assert PlacementPolicy.kind == "placement"
        assert DispatchingPolicy.kind == "dispatching"
        assert AssignmentPolicy.kind == "assignment"

    def test_group_manager_uses_registered_policies(self):
        from repro.hierarchy.system import SnoozeSystem, SystemSpec

        system = SnoozeSystem(
            SystemSpec(local_controllers=2, group_managers=1),
            config=HierarchyConfig(assignment_policy="least-loaded"),
        )
        gm = next(iter(system.group_managers.values()))
        assert isinstance(gm.assignment_policy, LeastLoadedAssignment)
        assert isinstance(gm.placement_policy, FirstFitPlacement)
