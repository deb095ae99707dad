"""Independent reference implementations used as test oracles.

Everything here is deliberately naive: scalar loops, per-cycle resource
draining, explicit state machines. None of it shares code with the package
paths it checks.
"""

import itertools
import math
from collections import Counter

import numpy as np


# -- dense math ---------------------------------------------------------------

def naive_conv2d(image, kernel):
    ih, iw = image.shape
    kh, kw = kernel.shape
    out = np.zeros((ih - kh + 1, iw - kw + 1))
    for r in range(out.shape[0]):
        for c in range(out.shape[1]):
            acc = 0.0
            for a in range(kh):
                for b in range(kw):
                    acc += kernel[a, b] * image[r + a, c + b]
            out[r, c] = acc
    return out


def naive_maxpool2x2(feature):
    h, w = feature.shape
    out = np.zeros((h // 2, w // 2))
    for i in range(h // 2):
        for j in range(w // 2):
            block = [feature[2 * i, 2 * j], feature[2 * i, 2 * j + 1],
                     feature[2 * i + 1, 2 * j], feature[2 * i + 1, 2 * j + 1]]
            out[i, j] = max(block)
    return out


def naive_matmul(a, b):
    """Triple loop, accumulating over k in ascending order."""
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_rows_highprec(z):
    """Row softmax evaluated in extended precision, rounded to float64."""
    z = np.asarray(z, dtype=np.longdouble)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return np.asarray(e / e.sum(axis=1, keepdims=True), dtype=np.float64)


def naive_accuracy(h2, out_actual):
    hits = 0
    for i in range(h2.shape[0]):
        pred = 0
        for j in range(1, h2.shape[1]):
            if h2[i, j] > h2[i, pred]:
                pred = j
        want = 0
        for j in range(1, out_actual.shape[1]):
            if out_actual[i, j] > out_actual[i, want]:
                want = j
        hits += pred == want
    return hits / h2.shape[0]


def finite_diff_gradient(loss_fn, w, step_scale=1e-6):
    """Central differences of a scalar loss w.r.t. every entry of w."""
    g = np.zeros_like(w)
    it = np.nditer(w, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        h = step_scale * max(1.0, abs(w[idx]))
        orig = w[idx]
        w[idx] = orig + h
        up = loss_fn()
        w[idx] = orig - h
        down = loss_fn()
        w[idx] = orig
        g[idx] = (up - down) / (2.0 * h)
    return g


# -- optimizer ----------------------------------------------------------------

def scalar_adam_step(w, m, v, g, t, beta1=0.9, beta2=0.999, eta=0.01, eps=1e-7):
    """One update of a single scalar weight, pure Python floats."""
    c1 = 1.0 / (1.0 - beta1 ** t)
    c2 = 1.0 / (1.0 - beta2 ** t)
    m = beta1 * m + (1.0 - beta1) * g
    v = beta2 * v + (1.0 - beta2) * (g * g)
    w = w - eta * (m * c1) / (math.sqrt(v * c2) + eps)
    return w, m, v


def scalar_adam_run(w0, grads, beta1=0.9, beta2=0.999, eta=0.01, eps=1e-7):
    """A whole gradient sequence through scalar_adam_step."""
    w, m, v = w0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        w, m, v = scalar_adam_step(w, m, v, g, t, beta1, beta2, eta, eps)
    return w, m, v


def reference_adam_arrays(w1, w2, grad_seq, beta1=0.9, beta2=0.999,
                          eta=0.01, eps=1e-7):
    """Monolithic elementwise-loop reference for a sequence of batch updates.

    grad_seq is a list of (g_w1, g_w2); both layers share one step counter.
    Returns updated copies of the weight arrays.
    """
    w1 = w1.copy()
    w2 = w2.copy()
    m1 = np.zeros_like(w1)
    v1 = np.zeros_like(w1)
    m2 = np.zeros_like(w2)
    v2 = np.zeros_like(w2)
    for t, (g1, g2) in enumerate(grad_seq, start=1):
        for w, m, v, g in ((w2, m2, v2, g2), (w1, m1, v1, g1)):
            for idx in np.ndindex(w.shape):
                w[idx], m[idx], v[idx] = scalar_adam_step(
                    w[idx], m[idx], v[idx], g[idx], t, beta1, beta2, eta, eps)
    return w1, w2


# -- accelerator schedule -----------------------------------------------------

def _bank_demand_per_launch(accesses, partitions):
    """Concrete per-bank access counts for one unrolled body launch.

    partitions maps (array, dim) to a cyclic factor. Returns
    {(array, dim, port, bank): count}; every bank is dual-port, so the port
    is the access's kind.
    """
    arrays = {name for name, _ in partitions}
    demand = Counter()
    for acc in accesses:
        if acc.array_name not in arrays:
            raise ValueError(f"no partition for {acc.array_name}")
        factor = partitions.get((acc.array_name, acc.accessed_dim), 1)
        for off in acc.stride_pattern:
            bank = off % factor
            demand[(acc.array_name, acc.accessed_dim, acc.kind, bank)] += 1
    return demand


def simulate_nest_cycles(nest, partitions, budget):
    """Event-driven brute-force schedule: walk every tile, issue every body
    launch's operations cycle by cycle against finite pools (multipliers,
    adders, one access per bank port per cycle)."""
    unrolls = [min(u, t) for u, t in zip(nest.unroll_factors, nest.trip_counts)]
    per_level = [math.ceil(t / u) for t, u in zip(nest.trip_counts, unrolls)]
    lvl = nest.pipelined_level
    outer_counts = per_level[:lvl]
    inner_counts = per_level[lvl:]
    copies = math.prod(unrolls)
    mult_ops = nest.mults_per_body * copies
    add_ops = nest.adds_per_body * copies
    demand = _bank_demand_per_launch(nest.accesses, partitions) \
        if nest.accesses else Counter()

    total = 0
    for _tile in itertools.product(*[range(c) for c in outer_counts]):
        issued = 0      # cycles spent launching bodies in this tile
        last_cost = 0
        for _launch in itertools.product(*[range(c) for c in inner_counts]):
            pending_m = mult_ops
            pending_a = add_ops
            pending_banks = dict(demand)
            cost = 0
            while True:
                cost += 1
                pending_m = max(0, pending_m - budget.max_multipliers)
                pending_a = max(0, pending_a - budget.max_adders)
                for key in list(pending_banks):
                    pending_banks[key] -= 1  # one access per port per cycle
                    if pending_banks[key] <= 0:
                        del pending_banks[key]
                if pending_m == 0 and pending_a == 0 and not pending_banks:
                    break
            issued += cost
            last_cost = cost
        # the final launch's issue cycles are covered by the drain latency
        total += issued - last_cost + budget.pipeline_depth
    return total


def enumerate_bank_conflicts(dim_size, unroll, factor, ports=1):
    """Sweep a stride-1 unrolled loop across a dimension and list, for every
    launch, banks hit more often than their port count serves."""
    conflicts = []
    for base in range(0, dim_size - unroll + 1, unroll):
        counts = Counter((base + j) % factor for j in range(unroll))
        for bank, n in sorted(counts.items()):
            if n > ports:
                conflicts.append((base, bank, n - ports))
    return conflicts


def count_transfer_cycles(words, cycles_per_word):
    """Unit-at-a-time counting loop (checks the multiply in model_transfer)."""
    total = 0
    for _ in range(words):
        total += cycles_per_word
    return total


def make_random_nest(rng, name="nest", max_loops=3, max_trip=16,
                     unroll_choices=(1, 2, 4), access_probability=0.7):
    """Random small LoopNestSpec (plus a matching (array, dim) -> factor
    map) for sweeps."""
    from convpipe.accelmodel import ArrayAccess, LoopNestSpec

    n_loops = int(rng.integers(1, max_loops + 1))
    trips = tuple(int(rng.integers(1, max_trip + 1)) for _ in range(n_loops))
    unrolls = tuple(int(rng.choice(unroll_choices)) for _ in range(n_loops))
    level = int(rng.integers(0, n_loops))
    accesses = []
    partitions = {}
    if rng.random() < access_probability:
        for a in range(int(rng.integers(1, 4))):
            arr = f"{name}_a{a}"
            width = int(rng.integers(1, 9))
            offsets = tuple(sorted(rng.choice(32, size=width, replace=False)))
            kind = "read" if rng.random() < 0.7 else "write"
            accesses.append(ArrayAccess(arr, (32,), 0, offsets, kind))
            partitions[(arr, 0)] = int(rng.choice([1, 2, 4, 8]))
    nest = LoopNestSpec(
        name=name,
        trip_counts=trips,
        unroll_factors=unrolls,
        pipelined_level=level,
        accesses=tuple(accesses),
        mults_per_body=int(rng.integers(0, 4)),
        adds_per_body=int(rng.integers(0, 4)),
    )
    return nest, partitions


# -- two-stage pipeline -------------------------------------------------------

def simulate_two_stage(host_times, accel_times):
    """Discrete-event simulation of producer/consumer with a 1-deep buffer.

    The producer computes the next batch while the previous one sits in the
    buffer, and blocks when the buffer is full. Returns total completion time.
    """
    n = len(host_times)
    assert n == len(accel_times)
    if n == 0:
        return 0.0
    now = 0.0
    next_compute = 0         # index the host will compute next
    host_done_at = None      # completion time of the batch being computed
    blocked = None           # batch computed but waiting for buffer space
    buffered = None          # batch sitting in the buffer
    accel_done_at = None
    accel_next = 0           # index the accelerator will process next
    finished = 0

    while finished < n:
        # fire all enabling rules that need no time to pass
        progress = True
        while progress:
            progress = False
            if blocked is not None and buffered is None:
                buffered = blocked
                blocked = None
                progress = True
            if host_done_at is None and blocked is None and next_compute < n:
                host_done_at = now + host_times[next_compute]
                progress = True
            if accel_done_at is None and buffered is not None:
                accel_done_at = now + accel_times[accel_next]
                buffered = None
                progress = True
        times = [t for t in (host_done_at, accel_done_at) if t is not None]
        assert times, "pipeline deadlocked"
        now = min(times)
        if host_done_at is not None and host_done_at <= now:
            blocked = next_compute
            next_compute += 1
            host_done_at = None
        if accel_done_at is not None and accel_done_at <= now:
            accel_next += 1
            finished += 1
            accel_done_at = None
    return now
