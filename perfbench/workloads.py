"""The benchmark's workloads.

Each drives convpipe only through its public entry points, on the
synthetic fixture of the workload seed, and reports per operation its wall
time, the images and ``estimate_pass`` results it produced, and outputs the
correctness gate compares with the reference (see ``reference.py``).  Why
each workload exists is in README.md.
"""

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from time import perf_counter
from types import SimpleNamespace

from convpipe import accelmodel, checkpoint, cli, pipeline
from convpipe.dims import DEFAULT_DIMS
from convpipe.neuralcore import ModelState

import calibration
import reference


@dataclass
class Op:
    """What a timed call did.  The call also returns its outputs for the
    gate, a dict of gate key -> value in which each key is one operation."""

    wall_s: float
    samples: int     # images through host + accelerator (estimate_sweep: images costed)
    estimates: int   # estimate_pass results the call delivered
    slowdown: float = 1.0  # machine speed just after the call, see calibration.py


def _nests(pairs):
    return tuple((name, cycles) for name, cycles in pairs)


def _report_nests(estimate_dict):
    return (_nests((n["name"], n["cycles"]) for n in estimate_dict["nests"]),
            estimate_dict["total_cycles"])


def _pinned_estimate(mode, max_multipliers, fc_unroll):
    pinned = reference.load_pinned()["estimates"][
        reference.estimate_key(mode, max_multipliers, fc_unroll)]
    return _nests(pinned["nest_cycles"]), pinned["total_cycles"]


def _quiet_cli(argv):
    """cli.main in-process with its console output dropped."""
    with contextlib.redirect_stdout(io.StringIO()):
        t0 = perf_counter()
        code = cli.main(argv)
        wall = perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"convpipe {argv[0]} exited with status {code}")
    return wall


class TrainEpochs:
    """Operation: one training epoch (``run_epoch``) from the seed's initial
    weights, so every epoch must end in the same checkpoint bytes."""

    primary = "samples_per_s"
    probe = staticmethod(calibration.numpy_probe)

    def __init__(self, mode):
        self.mode = mode

    def describe(self):
        cfg = pipeline.RunConfig()
        return (f"{self.mode} training epochs of {cfg.synthetic_train} synthetic "
                f"images in batches of {cfg.batch_size}")

    def setup(self, seed, workdir):
        cfg = pipeline.RunConfig(seed=seed, mode=self.mode)
        train_batches, _ = pipeline.load_datasets(cfg)
        ctx = SimpleNamespace(cfg=cfg, batches=train_batches, ckpt=workdir / "epoch.ckpt")
        self.op(ctx)  # warm-up
        return ctx

    def op(self, ctx):
        cfg = ctx.cfg
        state = ModelState.initial(cfg.seed, cfg.dims, cfg.hyper)
        t0 = perf_counter()
        state, res = pipeline.run_epoch(ctx.batches, state, cfg.mode, True,
                                        cfg.budget, cfg.dims)
        wall = perf_counter() - t0
        checkpoint.save_checkpoint(ctx.ckpt, state)
        digest = hashlib.sha256(ctx.ckpt.read_bytes()).hexdigest()
        return Op(wall, res.n_batches * cfg.batch_size, 1), {"epoch": (
            res.n_batches, res.accel_cycles, res.mean_loss, res.accuracy, digest)}

    def verify(self, ctx):
        return {}

    def expected(self, ctx):
        ref = reference.seed_outputs(ctx.cfg.seed)
        _, per_batch = _pinned_estimate("training", *reference.DEFAULT_POINT)
        n = reference.N_TRAIN // reference.BATCH
        return {"epoch": (n, n * per_batch, ref["train_loss"], ref["train_accuracy"],
                          ref["checkpoint_sha256"])}


class Infer:
    """Operation: one ``convpipe test --synthetic`` run scoring a checkpoint
    that set-up trained for one epoch with ``run_training``."""

    primary = "samples_per_s"
    probe = staticmethod(calibration.numpy_probe)

    def describe(self):
        cfg = pipeline.RunConfig()
        return (f"convpipe test on {cfg.synthetic_test} synthetic images in batches "
                f"of {cfg.batch_size} (the run also builds the "
                f"{cfg.synthetic_train}-image training fixture)")

    def setup(self, seed, workdir):
        ckpt, report = workdir / "trained.ckpt", workdir / "test.json"
        run = pipeline.run_training(pipeline.RunConfig(seed=seed, checkpoint_path=str(ckpt)))
        epoch = run.epochs[0]
        ctx = SimpleNamespace(
            seed=seed, report=report,
            argv=["test", "--synthetic", "--seed", str(seed), "--checkpoint", str(ckpt),
                  "--report", str(report)],
            trained={"setup_run": (
                epoch["train_loss"], epoch["train_accuracy"], epoch["test_loss"],
                epoch["test_accuracy"], hashlib.sha256(ckpt.read_bytes()).hexdigest())})
        self.op(ctx)  # warm-up
        return ctx

    def op(self, ctx):
        wall = _quiet_cli(ctx.argv)
        rep = json.loads(ctx.report.read_text())
        return Op(wall, rep["images"], 1), {"test": (
            rep["images"], rep["test_accuracy"], _report_nests(rep["inference"]))}

    def verify(self, ctx):
        return ctx.trained

    def expected(self, ctx):
        ref = reference.seed_outputs(ctx.seed)
        return {
            "test": (reference.N_TEST, ref["cli_test_accuracy"],
                     _pinned_estimate("inference", *reference.DEFAULT_POINT)),
            "setup_run": (ref["train_loss"], ref["train_accuracy"], ref["test_loss"],
                          ref["test_accuracy"], ref["checkpoint_sha256"]),
        }


class EstimateSweep:
    """Operation: one ``estimate_pass`` at one grid point; a timed call runs
    the whole grid, in an order the seed shuffles."""

    primary = "estimates_per_s"
    probe = staticmethod(calibration.python_probe)

    def describe(self):
        return (f"estimate_pass over {len(reference.PASSES)} passes x multiplier caps "
                f"{list(reference.MULTIPLIERS)} x fc unrolls "
                f"{[list(u) for u in reference.FC_UNROLLS]}; no dataset")

    def setup(self, seed, workdir):
        grid = [(reference.estimate_key(mode, mults, unroll), mode,
                 accelmodel.ResourceBudget(max_multipliers=mults), unroll)
                for mode in reference.PASSES for mults in reference.MULTIPLIERS
                for unroll in reference.FC_UNROLLS]
        random.Random(seed).shuffle(grid)
        ctx = SimpleNamespace(grid=grid, report=workdir / "estimate.json")
        self.op(ctx)  # warm-up
        return ctx

    def op(self, ctx):
        t0 = perf_counter()
        ests = [accelmodel.estimate_pass(mode, budget, fc_unroll=unroll)
                for _, mode, budget, unroll in ctx.grid]
        wall = perf_counter() - t0
        outputs = {key: (_nests((r.name, r.cycles) for r in est.reports), est.total_cycles)
                   for (key, *_), est in zip(ctx.grid, ests)}
        return Op(wall, len(ests) * DEFAULT_DIMS.batch, len(ests)), outputs

    def verify(self, ctx):
        """``convpipe estimate`` at the default design point, both passes."""
        _quiet_cli(["estimate", "--report", str(ctx.report)])
        rep = json.loads(ctx.report.read_text())
        return {f"cli/{mode}": _report_nests(rep[mode]) for mode in reference.PASSES}

    def expected(self, ctx):
        exp = {reference.estimate_key(mode, mults, unroll): _pinned_estimate(mode, mults, unroll)
               for mode in reference.PASSES for mults in reference.MULTIPLIERS
               for unroll in reference.FC_UNROLLS}
        for mode in reference.PASSES:
            exp[f"cli/{mode}"] = _pinned_estimate(mode, *reference.DEFAULT_POINT)
        return exp


WORKLOADS = {
    "train_seq": TrainEpochs(pipeline.SEQUENTIAL),
    "train_pipe": TrainEpochs(pipeline.PIPELINED),
    "infer": Infer(),
    "estimate_sweep": EstimateSweep(),
}
