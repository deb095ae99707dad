import dataclasses
import itertools
import math

import numpy as np
import pytest

from convpipe.accelmodel import (ArrayAccess, BankConflict, LoopNestSpec,
                                 ResourceBudget, check_port_conflicts,
                                 default_partitions, estimate_pass, f64_words,
                                 model_transfer, pass_nests, schedule)
from convpipe.dims import DEFAULT_DIMS, ModelDims

from oracles import (_bank_demand_per_launch, count_transfer_cycles,
                     enumerate_bank_conflicts, make_random_nest,
                     simulate_nest_cycles)

BUDGET = ResourceBudget()
UNBOUNDED = ResourceBudget(max_multipliers=10 ** 9, max_adders=10 ** 9)
DEFAULT_NESTS = {n.name: n for n in pass_nests("training")}
NO_PARTITIONS = {}


# -- port conflicts -----------------------------------------------------------

def _reads(name, offsets, dim_size=32):
    return [ArrayAccess(name, (dim_size,), 0, tuple(offsets), "read")]


def test_four_reads_factor_four_no_conflict():
    report = check_port_conflicts(
        _reads("v", range(4)), {("v", 0): 4})
    assert report.conflicts == []
    assert report.stall_cycles == 1


def test_four_reads_factor_two_double_hits_two_banks():
    report = check_port_conflicts(
        _reads("v", range(4)), {("v", 0): 2})
    assert len(report.conflicts) == 2
    assert {(c.bank, c.excess) for c in report.conflicts} == {(0, 1), (1, 1)}
    assert report.stall_cycles == 2


def test_single_read_factor_one_no_conflict():
    report = check_port_conflicts(
        _reads("v", [0]), {("v", 0): 1})
    assert report.conflicts == []


def test_unpartitioned_array_rejected():
    with pytest.raises(ValueError, match="partition"):
        check_port_conflicts(_reads("v", range(4)),
                             {("w", 0): 4})


def test_factor_below_one_rejected():
    with pytest.raises(ValueError, match="factor of v dim 0 must be >= 1"):
        check_port_conflicts(_reads("v", range(4)), {("v", 0): 0})


def test_a_dimension_without_a_factor_has_one_bank():
    # v's dim 0 has a factor and its dim 1 none, so dim 1's reads share a bank
    accesses = [ArrayAccess("v", (4, 32), 1, (0, 1, 2, 3), "read")]
    report = check_port_conflicts(accesses, {("v", 0): 4})
    assert report.conflicts == [BankConflict("v", 1, 0, "read", 3)]
    assert report.stall_cycles == 4


@pytest.mark.parametrize("args, message", [
    (((32,), 0, (0,), "load"), "kind must be read or write, got 'load'"),
    (((32,), 1, (0,), "read"),
     r"accessed_dim 1 out of range for dims \(32,\)"),
    (((32,), -1, (0,), "read"),
     r"accessed_dim -1 out of range for dims \(32,\)"),
    (((32,), 0, (0, 32), "read"), r"offset 32 outside dim of size 32 \(v\)"),
    (((32,), 0, (-1,), "write"), r"offset -1 outside dim of size 32 \(v\)"),
], ids=["kind", "dim_past_the_end", "negative_dim", "offset_past_the_end",
        "negative_offset"])
def test_array_access_rejects_a_bad_reference(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ArrayAccess("v", *args)


def test_dual_port_serves_one_read_and_one_write():
    accesses = [ArrayAccess("h1", (32,), 0, (0, 1), "read"),
                ArrayAccess("h1", (32,), 0, (0, 1), "write")]
    dual = check_port_conflicts(accesses, {("h1", 0): 2})
    assert dual.conflicts == []


def test_conflicts_match_brute_force_enumeration():
    for unroll, factor in ((4, 4), (10, 10), (4, 2), (8, 4), (3, 2), (2, 1)):
        brute = enumerate_bank_conflicts(40, unroll, factor)
        report = check_port_conflicts(
            _reads("arr", range(unroll), dim_size=40),
            {("arr", 0): factor})
        assert bool(brute) == bool(report.conflicts)
        if brute:
            worst = max(n for _, _, n in brute) + 1
            assert report.stall_cycles == worst


def test_partition_sufficiency_for_stride1():
    rng = np.random.default_rng(1)
    for _ in range(30):
        unroll = int(rng.integers(1, 9))
        factor = int(rng.integers(unroll, 13))
        report = check_port_conflicts(
            _reads("arr", range(unroll)),
            {("arr", 0): factor})
        assert report.conflicts == []


def _oracle_conflicts(accesses, parts):
    """(conflicts, stall) implied by the oracle's per-bank demand. Conflicts
    come in order of array, dim, read before write, bank."""
    port_order = {"read": 0, "write": 1}
    demand = _bank_demand_per_launch(accesses, parts)
    conflicts = sorted(
        ((name, dim, bank, port, n - 1)
         for (name, dim, port, bank), n in demand.items() if n > 1),
        key=lambda c: (c[0], c[1], port_order[c[3]], c[2]))
    return conflicts, max(demand.values(), default=1)


def _conflict_tuples(conflicts):
    return [(c.array, c.dim, c.bank, c.kind, c.excess) for c in conflicts]


def test_conflict_list_matches_oracle_bank_demand():
    rng = np.random.default_rng(6)
    for i in range(600):
        nest, parts = make_random_nest(rng, name=f"p{i}")
        want, stall = _oracle_conflicts(nest.accesses, parts)
        report = check_port_conflicts(nest.accesses, parts)
        assert _conflict_tuples(report.conflicts) == want, nest
        assert report.stall_cycles == stall, nest
    # through estimate_pass on the default partitions: large unrolls stall,
    # so both the listing and the conflict-free path run
    parts = default_partitions()
    stalled = clean = 0
    for mode in ("inference", "training"):
        for cap in (8, 16, 25, 64):
            budget = ResourceBudget(max_multipliers=cap)
            for fc_unroll in itertools.product((1, 2, 4, 8, 16, 32), repeat=2):
                est = estimate_pass(mode, budget, fc_unroll=fc_unroll)
                nests = pass_nests(mode, fc_unroll=fc_unroll)
                for nest, report in zip(nests, est.reports, strict=True):
                    want, stall = _oracle_conflicts(nest.accesses, parts)
                    assert _conflict_tuples(report.stall_events) == want
                    assert report.effective_ii == max(
                        math.ceil(report.multipliers_demanded / cap),
                        math.ceil(report.adders_demanded / budget.max_adders),
                        stall), (mode, cap, fc_unroll, nest.name)
                    stalled += bool(want)
                    clean += not want
    assert stalled and clean


# -- schedule -----------------------------------------------------------------

def test_fc_nest_schedule_matches_frozen_value_and_oracle():
    nest = DEFAULT_NESTS["fc_forward"]
    parts = default_partitions()
    report = schedule(nest, parts, BUDGET)
    assert report.cycles == simulate_nest_cycles(nest, parts, BUDGET) == 45056
    assert report.effective_ii == 1
    assert report.multipliers_demanded == 16
    assert report.multipliers_used == 16
    assert report.tiles == 256 and report.launches_per_tile == 169


def test_out_nest_schedule_matches_frozen_value_and_oracle():
    nest = DEFAULT_NESTS["out_forward"]
    parts = default_partitions()
    report = schedule(nest, parts, BUDGET)
    assert report.cycles == simulate_nest_cycles(nest, parts, BUDGET) == 2096
    assert report.effective_ii == 2  # 40 multipliers demanded, 25 available
    assert report.multipliers_demanded == 40
    assert report.multipliers_used == 25
    assert report.tiles == 8 and report.launches_per_tile == 128


def test_unrolled_out_nest_relaxes_with_more_multipliers():
    nest = DEFAULT_NESTS["out_forward"]
    parts = default_partitions()
    report = schedule(nest, parts, ResourceBudget(max_multipliers=40,
                                                  max_adders=40))
    assert report.effective_ii == 1


def test_no_unroll_degenerate_formula():
    nest = LoopNestSpec("plain", (6, 9), (1, 1), 1, (), 1, 1)
    report = schedule(nest, NO_PARTITIONS, BUDGET)
    assert report.effective_ii == 1
    assert report.cycles == 6 * ((9 - 1) + BUDGET.pipeline_depth)
    assert report.cycles == simulate_nest_cycles(nest, NO_PARTITIONS, BUDGET)


def test_zero_trip_count_rejected():
    with pytest.raises(ValueError):
        LoopNestSpec("bad", (4, 0), (1, 1), 0)


@pytest.mark.parametrize("args, message", [
    (((4, 4), (1,), 0), "trip_counts and unroll_factors differ in length"),
    (((), (), 0), "empty loop nest"),
    (((4, 4), (1, 0), 0), r"unroll factors must be >= 1: \(1, 0\)"),
    (((4, 4), (1, 1), 2), "pipelined_level 2 out of range"),
    (((4, 4), (1, 1), -1), "pipelined_level -1 out of range"),
], ids=["lengths_differ", "empty", "zero_unroll",
        "level_past_the_end", "negative_level"])
def test_loop_nest_spec_rejects_a_bad_nest(args, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        LoopNestSpec("bad", *args)


def test_pipeline_level_everything_pipelined():
    nest = LoopNestSpec("flat", (5, 4), (1, 1), 0, (), 1, 1)
    report = schedule(nest, NO_PARTITIONS, BUDGET)
    assert report.tiles == 1
    assert report.launches_per_tile == 20
    assert report.cycles == (20 - 1) + BUDGET.pipeline_depth


def test_unroll_clamped_to_trip_count():
    nest = LoopNestSpec("clamp", (2, 8), (4, 1), 1, (), 1, 0)
    report = schedule(nest, NO_PARTITIONS, BUDGET)
    assert report.multipliers_demanded == 2  # unroll 4 clamped to trip 2
    assert report.cycles == simulate_nest_cycles(nest, NO_PARTITIONS, BUDGET)


def test_ragged_unroll_pads_partial_tiles():
    nest = LoopNestSpec("ragged", (7, 10), (2, 4), 1, (), 1, 1)
    report = schedule(nest, NO_PARTITIONS, BUDGET)
    assert report.tiles == 4          # ceil(7/2)
    assert report.launches_per_tile == 3  # ceil(10/4)
    assert report.cycles == simulate_nest_cycles(nest, NO_PARTITIONS, BUDGET)


def test_cycles_never_below_post_unroll_iteration_count():
    rng = np.random.default_rng(2)
    for i in range(40):
        nest, parts = make_random_nest(rng, name=f"n{i}")
        report = schedule(nest, parts, BUDGET)
        assert report.cycles >= report.tiles * report.launches_per_tile
        assert report.effective_ii >= 1


def test_schedule_sweep_matches_event_simulator():
    rng = np.random.default_rng(3)
    budgets = [ResourceBudget(max_multipliers=4, max_adders=4),
               BUDGET, UNBOUNDED]
    for i in range(60):
        nest, parts = make_random_nest(rng, name=f"s{i}")
        for budget in budgets:
            assert schedule(nest, parts, budget).cycles == \
                simulate_nest_cycles(nest, parts, budget), (nest, budget)


def test_more_unroll_never_slower_without_cap():
    rng = np.random.default_rng(4)
    for i in range(30):
        nest, _ = make_random_nest(rng, name=f"m{i}", access_probability=0.0)
        base = schedule(nest, NO_PARTITIONS, UNBOUNDED).cycles
        for lvl in range(len(nest.trip_counts)):
            bumped = list(nest.unroll_factors)
            bumped[lvl] *= 2
            faster = LoopNestSpec(nest.name, nest.trip_counts, tuple(bumped),
                                  nest.pipelined_level, (),
                                  nest.mults_per_body, nest.adds_per_body)
            assert schedule(faster, NO_PARTITIONS, UNBOUNDED).cycles <= base


def test_more_multipliers_never_slower():
    rng = np.random.default_rng(5)
    for i in range(30):
        nest, parts = make_random_nest(rng, name=f"c{i}")
        caps = [1, 2, 4, 25, 10 ** 9]
        cycles = [schedule(nest, parts,
                           ResourceBudget(max_multipliers=c, max_adders=c)).cycles
                  for c in caps]
        assert all(a >= b for a, b in zip(cycles, cycles[1:]))


# -- transfers ----------------------------------------------------------------

def test_transfer_zero_words():
    assert model_transfer(0, BUDGET) == 0


def test_transfer_one_feature_block():
    words = f64_words(32 * 169)
    assert words == 10816
    assert model_transfer(words, BUDGET) == \
        count_transfer_cycles(words, BUDGET.interface_cycles_per_word) == 21632


def test_transfer_linearity():
    assert model_transfer(2 * 777, BUDGET) == 2 * model_transfer(777, BUDGET)
    with pytest.raises(ValueError):
        model_transfer(-1, BUDGET)


# -- whole-pass estimates -----------------------------------------------------

def test_training_pass_costs_at_least_inference():
    infer = estimate_pass("inference", BUDGET)
    train = estimate_pass("training", BUDGET)
    assert train.total_cycles >= infer.total_cycles
    assert train.transfer_cycles == infer.transfer_cycles


def test_inference_pass_matches_oracle_sum():
    parts = default_partitions()
    expected = sum(simulate_nest_cycles(n, parts, BUDGET)
                   for n in pass_nests("inference"))
    expected += count_transfer_cycles(
        f64_words(32 * 169) + 2 * f64_words(32 * 10),
        BUDGET.interface_cycles_per_word)
    assert estimate_pass("inference", BUDGET).total_cycles == expected


@pytest.mark.parametrize("dims", [
    pytest.param(DEFAULT_DIMS, id="default"),
    pytest.param(ModelDims(batch=8, hidden=16, classes=4), id="reduced"),
    pytest.param(ModelDims(batch=2, hidden=3, classes=3), id="small_axes"),
])
def test_training_pass_matches_oracle_sum(dims):
    parts = default_partitions(dims)
    nests = pass_nests("training", dims)
    expected = sum(simulate_nest_cycles(n, parts, BUDGET) for n in nests)
    expected += count_transfer_cycles(
        f64_words(dims.batch * dims.pool_map)
        + 2 * f64_words(dims.batch * dims.classes),
        BUDGET.interface_cycles_per_word)
    assert estimate_pass("training", BUDGET, dims).total_cycles == expected


def test_multiplier_peak_within_cap_at_defaults():
    for mode in ("inference", "training"):
        est = estimate_pass(mode, BUDGET)
        assert est.peak_multipliers <= 25
        assert est.peak_adders <= 25


def test_default_nests_have_no_bank_conflicts():
    parts = default_partitions()
    for nest in DEFAULT_NESTS.values():
        report = check_port_conflicts(nest.accesses, parts)
        assert report.conflicts == [], nest.name


@pytest.mark.parametrize("mode", ["inference", "training"])
@pytest.mark.parametrize("dims", [DEFAULT_DIMS,
                                  ModelDims(batch=8, hidden=16, classes=4)],
                         ids=["default", "reduced"])
def test_storage_totals_count_every_accessed_array(mode, dims):
    est = estimate_pass(mode, BUDGET, dims)
    words = {acc.array_name: math.prod(acc.dim_sizes)
             for nest in pass_nests(mode, dims) for acc in nest.accesses}
    assert sum(est.storage_totals.values()) == sum(words.values())
    # weights in the fast tier, host-transferred blocks in interface
    # registers, every other array in block RAM; in report order
    assert list(est.storage_totals) == ["fast-uram", "block-ram",
                                        "interface-register"]
    assert est.storage_totals["fast-uram"] == words["W1"] + words["W2"]
    assert est.storage_totals["interface-register"] == \
        words["v"] + words["outActual"]
    if dims == DEFAULT_DIMS:
        assert est.storage_totals["fast-uram"] == 169 * 128 + 128 * 10
    assert dataclasses.asdict(est)["storage_totals"] == est.storage_totals
    # each estimate gets its own dict, so none can change the next
    want = dict(est.storage_totals)
    est.storage_totals["fast-uram"] = 0
    assert estimate_pass(mode, BUDGET, dims).storage_totals == want


def test_estimate_rejects_unknown_mode():
    with pytest.raises(ValueError):
        estimate_pass("both", BUDGET)


def test_timing_model_is_isolated_from_numerics():
    # the module analyses loop structure only: no array math imported at all
    import convpipe.accelmodel as m

    assert "np" not in vars(m) and "numpy" not in vars(m)
    assert "neuralcore" not in vars(m)


def test_fc_unroll_override_increases_cycles():
    base = estimate_pass("inference", BUDGET).total_cycles
    slow = estimate_pass("inference", BUDGET, fc_unroll=(1, 1)).total_cycles
    assert slow > base


def test_default_partitions_pinned():
    parts = [(name, dim, factor)
             for (name, dim), factor in default_partitions().items()]
    assert parts == [
        ("W1", 0, 4), ("W1", 1, 4), ("W2", 0, 4), ("W2", 1, 10),
        ("h1", 0, 4), ("h1", 1, 4), ("h2", 0, 4), ("h2", 1, 10),
        ("v", 0, 4), ("v", 1, 4), ("outActual", 0, 4), ("outActual", 1, 10),
        ("dZ", 0, 4), ("dZ", 1, 10), ("dH1", 0, 4), ("dH1", 1, 4),
        ("gW1", 0, 4), ("gW1", 1, 4), ("gW2", 0, 4), ("gW2", 1, 10),
        ("mW1", 0, 4), ("mW1", 1, 4), ("vW1", 0, 4), ("vW1", 1, 4),
        ("mW2", 0, 4), ("mW2", 1, 10), ("vW2", 0, 4), ("vW2", 1, 10),
    ]


def test_fc_unroll_override_keeps_default_partitions():
    # the 8x8 body spreads over 4-way banks: reads and writes stall
    budget = ResourceBudget(max_multipliers=64, max_adders=64)
    est = estimate_pass("inference", budget, fc_unroll=(8, 8))
    fc = est.reports[0]
    nest = pass_nests("inference", fc_unroll=(8, 8))[0]
    assert fc.name == nest.name == "fc_forward"
    assert fc.cycles == simulate_nest_cycles(nest, default_partitions(), budget) \
        == 22016
    assert fc.effective_ii == 2
    assert len(fc.stall_events) == 24


def test_stalled_report_keeps_its_stall_event_keys():
    # the report schema of a stalled nest: each stall event is keyed
    # array, dim, bank, kind, excess, in that order
    budget = ResourceBudget(max_adders=10)
    fc = estimate_pass("training", budget, fc_unroll=(8, 8)).reports[0].as_dict()
    assert fc["name"] == "fc_forward"
    assert fc["effective_ii"] == 7  # 64 adders demanded, 10 available
    assert len(fc["stall_events"]) == 24
    assert list(fc["stall_events"][0]) == ["array", "dim", "bank", "kind",
                                           "excess"]
