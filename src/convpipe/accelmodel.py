"""Cycle/resource model of the accelerator: loop-nest schedules under
unroll + pipeline directives, cyclic-partition port checking, and per-pass
cycle estimates under a shared multiplier/adder cap.

The reference accelerator is two tables: ARRAYS gives each array's axes and
storage class, and NESTS gives each loop nest as one row (pass, loops,
unrolled loops, arrays read and written, ops per body). Nest specs,
partitions and a pass's per-class storage words are derived from them.
Every unroll is clamped to its axis's size. Each array dimension is
partitioned cyclically by the default unroll of its axis over the nests
touching the array; an fc_unroll override changes fc_forward's unroll but
never the partitions. The partitions are a read-only (array, dim) -> factor
mapping, built once per dims, and the storage words are built once per
(dims, mode). estimate_pass itself caches nothing and schedules every nest
on every call.

Nothing in this module reads or writes numeric weights or activations;
it only analyses loop structure, so functional results can never depend
on it.

Scheduling semantics
--------------------
A nest is scheduled as `tiles * (II * (K - 1) + depth)` cycles:

* loops outside the pipelined level contribute ceil(trip/unroll) "tiles",
  each of which restarts (and therefore refills) the pipeline;
* loops at or inside the pipelined level contribute K = prod ceil(trip/unroll)
  pipelined body launches per tile;
* the initiation interval II is 1 unless the unrolled body over-subscribes
  the multiplier cap, the adder cap, or a memory bank port, in which case
  launches are spaced by the worst ceil(demand/capacity);
* `depth` covers the launch-to-result latency of the last body.

Bank ports: every bank is dual-port, serving one read and one write per
cycle. A body launch's accesses are counted into one list of per-bank counts
for each (array, dim, access kind) they touch, offset o landing in bank
o mod factor (cyclic partitioning, Cong et al., ICCAD 2009). The largest
count is the port stall.

Ragged edges (unroll not dividing the trip count) are padded: a partial
tile reserves the same resources and cycles as a full one.
"""

import functools
import math
from dataclasses import asdict, dataclass, field, fields
from types import MappingProxyType
from typing import NamedTuple

from .dims import DEFAULT_DIMS

F64_INTERFACE_WORDS = 2  # one float64 crosses the interface as two 32-bit words


@dataclass(frozen=True)
class ResourceBudget:
    max_multipliers: int = 25
    max_adders: int = 25
    pipeline_depth: int = 8
    clock_ns: float = 10.0
    interface_cycles_per_word: int = 2

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:
                raise ValueError(f"{f.name} must be positive and finite, "
                                 f"got {value}")


@dataclass(frozen=True)
class ArrayAccess:
    """One reference to an array inside the unrolled loop body.

    stride_pattern lists the offsets touched along accessed_dim by the body
    replicas of a single launch, e.g. (0, 1, 2, 3) for a 4x unrolled
    stride-1 reference.
    """

    array_name: str
    dim_sizes: tuple
    accessed_dim: int
    stride_pattern: tuple
    kind: str  # "read" | "write"

    def __post_init__(self):
        if self.kind not in ("read", "write"):
            raise ValueError(f"kind must be read or write, got {self.kind!r}")
        if not 0 <= self.accessed_dim < len(self.dim_sizes):
            raise ValueError(f"accessed_dim {self.accessed_dim} out of range "
                             f"for dims {self.dim_sizes}")
        size = self.dim_sizes[self.accessed_dim]
        for off in self.stride_pattern:
            if not 0 <= off < size:
                raise ValueError(f"offset {off} outside dim of size {size} "
                                 f"({self.array_name})")


@dataclass(frozen=True)
class LoopNestSpec:
    name: str
    trip_counts: tuple
    unroll_factors: tuple
    pipelined_level: int
    accesses: tuple = ()
    mults_per_body: int = 0
    adds_per_body: int = 0

    def __post_init__(self):
        if len(self.trip_counts) != len(self.unroll_factors):
            raise ValueError("trip_counts and unroll_factors differ in length")
        if not self.trip_counts:
            raise ValueError("empty loop nest")
        if any(t <= 0 for t in self.trip_counts):
            raise ValueError(f"zero or negative trip count in {self.trip_counts}")
        if any(u < 1 for u in self.unroll_factors):
            raise ValueError(f"unroll factors must be >= 1: {self.unroll_factors}")
        if not 0 <= self.pipelined_level < len(self.trip_counts):
            raise ValueError(f"pipelined_level {self.pipelined_level} out of range")

    def clamped_unrolls(self):
        # unroll beyond the trip count buys nothing; clamp it
        return tuple(min(u, t) for u, t in zip(self.unroll_factors,
                                               self.trip_counts))


@dataclass(frozen=True)
class BankConflict:
    array: str
    dim: int
    bank: int
    kind: str
    excess: int  # accesses beyond the one a bank's port serves per cycle


@dataclass
class ConflictReport:
    conflicts: list
    stall_cycles: int  # cycles needed to serialize the worst bank, >= 1


@dataclass
class ScheduleReport:
    name: str
    cycles: int
    effective_ii: int
    tiles: int
    launches_per_tile: int
    multipliers_demanded: int
    adders_demanded: int
    multipliers_used: int
    adders_used: int
    stall_events: list = field(default_factory=list)

    def as_dict(self):
        return asdict(self)


def check_port_conflicts(accesses, partitions) -> ConflictReport:
    """Count the accesses of one body launch on each bank port.

    partitions maps (array, dim) to its cyclic factor, which must be >= 1;
    a dimension of a partitioned array without one has a single bank. Every
    bank is dual-port, serving one read and one write per cycle, so each
    (array, dim, kind) gets one list of per-bank counts, and an offset lands
    in bank offset mod factor. References along the same dimension are
    assumed base-aligned. The stall is the largest count, or 1 when nothing is
    accessed. Every count above 1 is a conflict with excess count - 1,
    listed in order of array, dim, kind and bank; the list is built only
    when the stall exceeds 1.
    """
    counts = {}
    for acc in accesses:
        key = (acc.array_name, acc.accessed_dim, acc.kind)
        banks = counts.get(key)
        if banks is None:
            factor = partitions.get(key[:2])
            if factor is None:
                if all(name != acc.array_name for name, _ in partitions):
                    raise ValueError(f"array {acc.array_name!r} referenced but "
                                     f"has no partition spec (factor 1 is "
                                     f"allowed)")
                factor = 1
            elif factor < 1:
                raise ValueError(f"partition factor of {acc.array_name} dim "
                                 f"{acc.accessed_dim} must be >= 1, got {factor}")
            banks = counts[key] = [0] * factor
        factor = len(banks)
        for off in acc.stride_pattern:
            banks[off % factor] += 1
    stall = max([1, *map(max, counts.values())])
    conflicts = []
    if stall > 1:
        conflicts = [BankConflict(name, dim, bank, kind, n - 1)
                     for (name, dim, kind), banks in sorted(counts.items())
                     for bank, n in enumerate(banks) if n > 1]
    return ConflictReport(conflicts, stall)


def schedule(nest: LoopNestSpec, partitions, budget: ResourceBudget) -> ScheduleReport:
    """Cycle estimate for one nest under the budget; partitions is the
    (array, dim) -> factor mapping of check_port_conflicts. See the module
    docstring for the exact semantics; tests hold this to exact agreement
    with an event-driven simulation."""
    unrolls = nest.clamped_unrolls()
    body_copies = math.prod(unrolls)
    mult_demand = nest.mults_per_body * body_copies
    add_demand = nest.adds_per_body * body_copies
    ports = check_port_conflicts(nest.accesses, partitions)
    ii = max(math.ceil(mult_demand / budget.max_multipliers),
             math.ceil(add_demand / budget.max_adders),
             ports.stall_cycles)

    per_level = [math.ceil(t / u) for t, u in zip(nest.trip_counts, unrolls)]
    tiles = math.prod(per_level[:nest.pipelined_level])
    launches = math.prod(per_level[nest.pipelined_level:])
    cycles = tiles * (ii * (launches - 1) + budget.pipeline_depth)

    return ScheduleReport(
        name=nest.name,
        cycles=cycles,
        effective_ii=ii,
        tiles=tiles,
        launches_per_tile=launches,
        multipliers_demanded=mult_demand,
        adders_demanded=add_demand,
        multipliers_used=min(mult_demand, budget.max_multipliers),
        adders_used=min(add_demand, budget.max_adders),
        stall_events=ports.conflicts,
    )


def model_transfer(words, budget: ResourceBudget):
    """Interface cost: every 32-bit word pays the same per-word cycle price."""
    if words < 0:
        raise ValueError(f"words must be >= 0, got {words}")
    return words * budget.interface_cycles_per_word


def f64_words(count):
    return count * F64_INTERFACE_WORDS


def cycles_to_seconds(cycles, budget: ResourceBudget):
    return cycles * budget.clock_ns * 1e-9


# ---------------------------------------------------------------------------
# The reference accelerator as data. Axes: b = batch, p = pool_map, h =
# hidden, c = classes. Unrolled b, p and h loops unroll by DEFAULT_UNROLL,
# unrolled c loops fully; no unroll exceeds its axis's size. Op counts are
# coarse (divide/sqrt/exp are billed to the multiplier class).
# ---------------------------------------------------------------------------

DEFAULT_UNROLL = 4

# array -> (axis of each dimension, storage class)
ARRAYS = {
    "W1": ("ph", "fast-uram"),
    "W2": ("hc", "fast-uram"),
    "h1": ("bh", "block-ram"),
    "h2": ("bc", "block-ram"),
    "v": ("bp", "interface-register"),
    "outActual": ("bc", "interface-register"),
    "dZ": ("bc", "block-ram"),
    "dH1": ("bh", "block-ram"),
    "gW1": ("ph", "block-ram"),
    "gW2": ("hc", "block-ram"),
    "mW1": ("ph", "block-ram"),
    "vW1": ("ph", "block-ram"),
    "mW2": ("hc", "block-ram"),
    "vW2": ("hc", "block-ram"),
}


class NestRow(NamedTuple):
    name: str
    pass_: str      # "inference" | "training"
    loops: str      # loop axes, outer to inner
    unrolled: str   # the unrolled loops, outer to inner
    reads: str      # arrays read, space-separated
    writes: str     # arrays written, space-separated
    mults: int      # per body
    adds: int


# One row per nest, in execution order; a training pass runs the inference
# nests first. Op counts: softmax_loss bills exp + divide and two
# accumulators, delta_out a 1/batch scale and a subtract; adam_moments two
# decays, two blends and a square, adam_apply two corrections, sqrt, divide
# and the learning-rate scale. delta_hidden reads h1 for the ReLU mask.
NESTS = tuple(NestRow(*row) for row in (
    # name              pass         loops unrolled reads     writes    mults adds
    ("fc_forward",      "inference", "bhp", "bh", "v W1 h1",      "h1",      1, 1),
    ("out_forward",     "inference", "bch", "bc", "h1 W2 h2",     "h2",      1, 1),
    ("softmax_loss",    "inference", "bc",  "bc", "h2 outActual", "h2",      2, 2),
    ("delta_out",       "training",  "bc",  "bc", "h2 outActual", "dZ",      1, 1),
    ("grad_w2",         "training",  "hcb", "hc", "h1 dZ gW2",    "gW2",     1, 1),
    ("delta_hidden",    "training",  "bhc", "bh", "dZ W2 h1 dH1", "dH1",     1, 1),
    ("grad_w1",         "training",  "phb", "ph", "v dH1 gW1",    "gW1",     1, 1),
    ("adam_moments_w2", "training",  "hc",  "hc", "gW2 mW2 vW2",  "mW2 vW2", 5, 2),
    ("adam_apply_w2",   "training",  "hc",  "hc", "mW2 vW2 W2",   "W2",      5, 2),
    ("adam_moments_w1", "training",  "ph",  "ph", "gW1 mW1 vW1",  "mW1 vW1", 5, 2),
    ("adam_apply_w1",   "training",  "ph",  "ph", "mW1 vW1 W1",   "W1",      5, 2),
))


def _axis_sizes(dims):
    return {"b": dims.batch, "p": dims.pool_map, "h": dims.hidden,
            "c": dims.classes}


def _default_unrolls(sizes):
    return {a: n if a == "c" else min(DEFAULT_UNROLL, n)
            for a, n in sizes.items()}


def _touched(row):
    return set(row.reads.split()) | set(row.writes.split())


def _pass_rows(mode):
    if mode not in ("inference", "training"):
        raise ValueError(f"mode must be inference or training, got {mode!r}")
    return [r for r in NESTS if r.pass_ == "inference" or mode == "training"]


def _nest_spec(row, sizes, unroll):
    """LoopNestSpec of one table row; unroll maps each axis to its factor
    where the row unrolls it, clamped here to the axis's size. Each array
    dimension along an unrolled loop gets one access per kind, touching
    offsets 0..factor-1."""
    unroll = {a: min(unroll[a], sizes[a]) for a in row.unrolled}
    plain = [i for i, a in enumerate(row.loops) if a not in row.unrolled]
    accesses = tuple(
        ArrayAccess(name, tuple(sizes[a] for a in ARRAYS[name][0]), dim,
                    tuple(range(unroll[axis])), kind)
        for kind, names in (("read", row.reads), ("write", row.writes))
        for name in names.split()
        for dim, axis in enumerate(ARRAYS[name][0]) if axis in row.unrolled)
    return LoopNestSpec(
        name=row.name,
        trip_counts=tuple(sizes[a] for a in row.loops),
        unroll_factors=tuple(unroll.get(a, 1) for a in row.loops),
        pipelined_level=plain[-1] if plain else len(row.loops) - 1,
        accesses=accesses,
        mults_per_body=row.mults,
        adds_per_body=row.adds,
    )


@functools.cache
def _build_nests(mode, dims, fc_unroll):
    sizes = _axis_sizes(dims)
    defaults = _default_unrolls(sizes)
    nests = []
    for row in _pass_rows(mode):
        unroll = defaults
        if row.name == "fc_forward" and fc_unroll is not None:
            unroll = {**defaults, **dict(zip(row.unrolled, fc_unroll, strict=True))}
        nests.append(_nest_spec(row, sizes, unroll))
    return tuple(nests)


def pass_nests(mode, dims=DEFAULT_DIMS, fc_unroll=None):
    """The LoopNestSpecs of one pass, in execution order. fc_unroll
    overrides fc_forward's (batch, hidden) unroll; partitions stay at the
    defaults, so an override can cause bank stalls."""
    return _build_nests(mode, dims,
                        None if fc_unroll is None else tuple(fc_unroll))


@functools.cache
def default_partitions(dims=DEFAULT_DIMS):
    """The cyclic factor of every array dimension, as a read-only
    (array, dim) -> factor mapping built once per dims. The factor is the
    axis's default unroll when some nest touching the array unrolls that
    axis, else 1; a class dimension so split has one bank per class."""
    defaults = _default_unrolls(_axis_sizes(dims))
    return MappingProxyType({
        (name, dim): defaults[axis] if any(
            axis in r.unrolled and name in _touched(r) for r in NESTS) else 1
        for name, (axes, _) in ARRAYS.items()
        for dim, axis in enumerate(axes)})


@functools.cache
def _storage_words(dims, mode):
    """(storage class, float64 words) of the arrays a pass's nests touch,
    summed per class in the order the array table first names each class."""
    sizes = _axis_sizes(dims)
    touched = set().union(*map(_touched, _pass_rows(mode)))
    totals = {}
    for name, (axes, storage) in ARRAYS.items():
        if name in touched:
            totals[storage] = totals.get(storage, 0) + math.prod(
                sizes[a] for a in axes)
    return tuple(totals.items())


@dataclass
class PassEstimate:
    mode: str
    reports: list            # ScheduleReport per nest, in execution order
    transfer_cycles: int
    compute_cycles: int
    total_cycles: int
    peak_multipliers: int
    peak_adders: int
    storage_totals: dict       # storage class -> words

    def as_dict(self):
        return {
            "mode": self.mode,
            "transfer_cycles": self.transfer_cycles,
            "compute_cycles": self.compute_cycles,
            "total_cycles": self.total_cycles,
            "peak_multipliers": self.peak_multipliers,
            "peak_adders": self.peak_adders,
            "storage_totals": dict(self.storage_totals),
            "nests": [r.as_dict() for r in self.reports],
        }


def estimate_pass(mode, budget: ResourceBudget, dims=DEFAULT_DIMS,
                  fc_unroll=None) -> PassEstimate:
    """Per-batch accelerator cycles for one inference or training pass.

    Sums the constituent nest schedules plus the interface transfers for the
    feature block and label block in and the output block back out.
    """
    partitions = default_partitions(dims)
    reports = [schedule(nest, partitions, budget)
               for nest in pass_nests(mode, dims, fc_unroll)]

    words = f64_words(dims.batch * dims.pool_map)   # features in
    words += f64_words(dims.batch * dims.classes)   # labels in
    words += f64_words(dims.batch * dims.classes)   # probabilities out
    transfer = model_transfer(words, budget)

    compute = sum(r.cycles for r in reports)
    return PassEstimate(
        mode=mode,
        reports=reports,
        transfer_cycles=transfer,
        compute_cycles=compute,
        total_cycles=compute + transfer,
        peak_multipliers=max(r.multipliers_used for r in reports),
        peak_adders=max(r.adders_used for r in reports),
        storage_totals=dict(_storage_words(dims, mode)),
    )
