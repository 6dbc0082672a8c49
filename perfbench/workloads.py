"""Seeded job mixes for the benchmark's three workloads, plus the code that
runs one job and checks its output.

A workload is an endless stream of jobs built from blocks. Every block holds
the same fixed design of job slots (model, objective, method, SHA shape,
fault plan, constraint multiple); ``--seed`` jitters each multiple and draws
each job's simulation seed. Keeping the design fixed keeps the mix of cheap
and expensive jobs, and of tight and loose constraints, the same from seed to
seed, so a seed changes the inputs without changing what the benchmark
weighs.

Nothing here imports ``repro`` at module level: the generator is pure and
testable without the program, and the worker imports the program itself so
that its import time is what ``setup_s`` measures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("train-adaptive", "tune-sha", "train-observed")

# The seven catalogue models (paper Table IV), in a fixed order so the design
# does not depend on the program's own registry.
MODELS = (
    "lr-higgs",
    "svm-higgs",
    "lr-yfcc",
    "svm-yfcc",
    "mobilenet-cifar10",
    "resnet50-cifar10",
    "bert-imdb",
)
OBJECTIVES = ("min-jct", "min-cost")

# tune-sha's SHA shapes, (n_trials, eta) per model for (min-jct, min-cost):
# 128-1024 trials and eta in {2, 3}. Planning cost depends on the model and
# objective as much as on the trial count, so the largest shapes go where the
# search is short; that keeps a block near 8 s of host time and leaves enough
# jobs in a run for a tail percentile.
TUNE_SHAPES = {
    "lr-higgs": ((243, 3), (729, 3)),
    "svm-higgs": ((162, 3), (128, 2)),
    "lr-yfcc": ((162, 3), (512, 2)),
    "svm-yfcc": ((243, 3), (1024, 2)),
    "mobilenet-cifar10": ((128, 2), (243, 3)),
    "resnet50-cifar10": ((256, 2), (162, 3)),
    "bert-imdb": ((1024, 2), (243, 3)),
}
SHA_EPOCHS_PER_STAGE = 1

# Constraint multiples: a budget is a multiple of the cheapest possible
# spend, a QoS limit a multiple of the fastest possible JCT.
MULTIPLE_RANGES = {
    ("train", "min-jct"): (1.8, 3.0),
    ("train", "min-cost"): (2.0, 4.0),
    ("tune", "min-jct"): (1.3, 2.0),
    ("tune", "min-cost"): (1.5, 3.0),
}
MULTIPLE_JITTER = 0.01
# fig12's tolerance on a budget; a QoS limit has none.
BUDGET_TOLERANCE = 1.05


@dataclass(frozen=True)
class Job:
    """One generated job: everything the program is told about it."""

    index: int
    kind: str  # "train" (run_training), "tune" (run_tuning), "cli-train" (repro train)
    model: str
    method: str
    objective: str
    multiple: float
    seed: int
    trials: int = 0
    eta: int = 0
    faults: bool = False


def design(workload: str) -> list[dict]:
    """The fixed slots of one block of ``workload``."""
    slots: list[dict] = []
    if workload == "train-adaptive":
        # Every model under both objectives; CE-scaling and modified Cirrus
        # alternate so each method sees every model once per block.
        for i, model in enumerate(MODELS):
            for j, objective in enumerate(OBJECTIVES):
                slots.append(dict(
                    kind="train", model=model, objective=objective,
                    method=("ce-scaling", "cirrus")[(i + j) % 2],
                ))
    elif workload == "tune-sha":
        for model in MODELS:
            for objective, (trials, eta) in zip(OBJECTIVES, TUNE_SHAPES[model]):
                slots.append(dict(
                    kind="tune", model=model, objective=objective,
                    method="ce-scaling", trials=trials, eta=eta,
                ))
    elif workload == "train-observed":
        # The three never-refitting schedulers on every model; one job in
        # three also runs under the chaos fault plan.
        for i, model in enumerate(MODELS):
            for k, method in enumerate(("siren", "cirrus-static", "lambdaml")):
                slots.append(dict(
                    kind="cli-train", model=model, method=method,
                    objective=OBJECTIVES[(i + k) % 2],
                    faults=(i + k) % 3 == 0,
                ))
    else:
        raise ValueError(f"unknown workload {workload!r}; use one of {WORKLOADS}")
    return slots


def block_size(workload: str) -> int:
    return len(design(workload))


def job_stream(workload: str, seed: int):
    """Yield the workload's jobs forever, block after block, from ``seed``.

    Slots keep their design order, and each slot's constraint multiple sits
    at a fixed point of its range (the models are spread evenly over it).
    The seed jitters that multiple by up to MULTIPLE_JITTER. A job's
    simulation seed depends only on its block and slot: the simulator's
    noise moves a block's JCT and cost geomeans by about 15% from one
    simulation seed to the next, more than any bound a benchmark could
    hold, so two benchmark seeds differ in the constraints their jobs are
    given, not in the noise those jobs meet.
    """
    slots = design(workload)
    index = 0
    block = 0
    while True:
        rng = random.Random(f"{workload}/{seed}/{block}")
        noise = random.Random(f"{workload}/{block}")
        for slot in slots:
            kind = "tune" if slot["kind"] == "tune" else "train"
            lo, hi = MULTIPLE_RANGES[(kind, slot["objective"])]
            at = (MODELS.index(slot["model"]) * 3 % len(MODELS) + 0.5) / len(MODELS)
            base = lo + (hi - lo) * at
            yield Job(
                index=index,
                multiple=round(base * (1.0 + rng.uniform(-MULTIPLE_JITTER, MULTIPLE_JITTER)), 6),
                seed=noise.randrange(2**31),
                **slot,
            )
            index += 1
        block += 1


def first_jobs(workload: str, seed: int, n: int) -> list[Job]:
    stream = job_stream(workload, seed)
    return [next(stream) for _ in range(n)]


@dataclass
class Outcome:
    """What one job returned, and what the output checks found."""

    job: Job
    wall_s: float = 0.0
    ok: bool = False
    error: str = ""
    jct_s: float = float("nan")
    cost_usd: float = float("nan")
    sim_epochs: int = 0
    converged: bool | None = None
    constraint_met: bool = False
    decisions: list = field(default_factory=list)
    faults_injected: int = 0
    recoveries: int = 0

    def simulated(self) -> tuple:
        """The deterministic part, compared bit for bit between runs."""
        return (self.jct_s, self.cost_usd, self.sim_epochs, self.converged,
                self.constraint_met, self.decisions)


class JobRunner:
    """Runs jobs in this process through the program's public entry points.

    ``scratch`` is a directory for the ``train-observed`` run stores and the
    fault plan; every store is removed once its bundle has been checked.
    ``tracer`` (a :class:`layers.LayerTracer`, installed by the caller) gets
    one root span per job around exactly the timed region.
    """

    def __init__(self, scratch: Path, cli: bool, tracer=None) -> None:
        self.scratch = Path(scratch)
        self.tracer = tracer
        if cli:
            import repro.cli

            self._cli = repro.cli
            self.scratch.mkdir(parents=True, exist_ok=True)
            self.plan_path = self.scratch / "faults-plan.json"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = self._cli.main(["faults", "template", "--out", str(self.plan_path)])
            if rc != 0:
                raise RuntimeError(f"repro faults template exited {rc}")

    @contextlib.contextmanager
    def _timed(self, out: Outcome):
        """Time the program's work for one job (and trace it, if tracing)."""
        tracer = self.tracer
        span = tracer.job(out.job.index) if tracer is not None else contextlib.nullcontext()
        with span:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                out.wall_s = time.perf_counter() - t0

    def run(self, job: Job) -> Outcome:
        """Run one job, timing only the program's work, then check it."""
        out = Outcome(job=job)
        try:
            if job.kind == "train":
                self._train(job, out)
            elif job.kind == "tune":
                self._tune(job, out)
            else:
                self._cli_train(job, out)
        except Exception as exc:  # a failed job is counted, not fatal
            out.ok = False
            out.error = f"{type(exc).__name__}: {exc}"
        return out

    # -- the three job kinds -------------------------------------------------

    def _train(self, job: Job, out: Outcome) -> None:
        from repro.tuning.plan import Objective
        from repro.workflow.job import training_envelope
        from repro.workflow.runner import profile_workload, run_training
        from repro.ml.models import workload

        with self._timed(out):
            w = workload(job.model)
            profile = profile_workload(w)
            env = training_envelope(w, profile)
            if job.objective == "min-jct":
                run = run_training(
                    w, method=job.method, objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=env.budget(job.multiple), seed=job.seed, profile=profile,
                )
            else:
                run = run_training(
                    w, method=job.method, objective=Objective.MIN_COST_GIVEN_QOS,
                    qos_s=env.qos(job.multiple), seed=job.seed, profile=profile,
                )
        _check_training(run, out)

    def _tune(self, job: Job, out: Outcome) -> None:
        from repro.tuning.plan import Objective
        from repro.tuning.sha import SHASpec
        from repro.workflow.job import tuning_envelope
        from repro.workflow.runner import profile_workload, run_tuning
        from repro.ml.models import workload

        budget = qos = None
        with self._timed(out):
            w = workload(job.model)
            spec = SHASpec(job.trials, job.eta, SHA_EPOCHS_PER_STAGE)
            profile = profile_workload(w)
            env = tuning_envelope(profile, spec)
            if job.objective == "min-jct":
                budget = env.budget(job.multiple)
                run = run_tuning(
                    w, spec, objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=job.seed, profile=profile,
                )
            else:
                qos = env.qos(job.multiple)
                run = run_tuning(
                    w, spec, objective=Objective.MIN_COST_GIVEN_QOS,
                    qos_s=qos, seed=job.seed, profile=profile,
                )
        r = run.result
        out.jct_s, out.cost_usd = r.jct_s, r.cost_usd
        out.sim_epochs = sum(s.n_trials * s.epochs_per_trial for s in r.stages)
        out.constraint_met = _met(r.jct_s, r.cost_usd, budget, qos)
        out.decisions = [
            [s.allocation.describe(), s.n_trials, s.waves] for s in r.stages
        ]
        problems = []
        if not math.isclose(r.cost_usd, sum(s.cost_usd for s in r.stages), rel_tol=1e-12):
            problems.append("cost_usd != sum of stage costs")
        expected_jct = sum(s.jct_s for s in r.stages) + r.scheduling_overhead_s
        if not math.isclose(r.jct_s, expected_jct, rel_tol=1e-12):
            problems.append("jct_s != sum of stage JCTs + scheduling overhead")
        if r.winner is None:
            problems.append("no tuning winner")
        if not r.stages:
            problems.append("no SHA stages ran")
        _finish(out, problems)

    def _cli_train(self, job: Job, out: Outcome) -> None:
        from repro.runs import RunStore

        store = self.scratch / f"store-{job.index}"
        shutil.rmtree(store, ignore_errors=True)
        argv = ["train", job.model, "--method", job.method, "--seed", str(job.seed),
                "--save-run", str(store)]
        flag = "--budget-multiple" if job.objective == "min-jct" else "--qos-multiple"
        argv += [flag, repr(job.multiple)]
        if job.faults:
            argv += ["--faults", str(self.plan_path)]
        captured: list = []
        original = self._cli.run_training

        def capture(*args, **kwargs):
            run = original(*args, **kwargs)
            captured.append(run)
            return run

        self._cli.run_training = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()), self._timed(out):
                try:
                    rc = self._cli.main(argv)
                except SystemExit as exc:  # argparse rejecting the generated argv
                    rc = exc.code
        finally:
            self._cli.run_training = original
        try:
            problems = []
            if rc not in (0, 1):
                problems.append(f"repro train exited {rc}")
            runs = RunStore(store)
            ids = runs.run_ids()
            if len(ids) != 1:
                problems.append(f"expected one saved run, found {len(ids)}")
            else:
                manifest = runs.load(ids[0])
                for entry in manifest["artifacts"]:
                    runs.read_artifact(manifest, entry["kind"])  # raises on a bad digest
            if len(captured) != 1:
                problems.append("repro train did not run exactly one training job")
                _finish(out, problems)
                return
            _check_training(captured[0], out, problems)
        finally:
            shutil.rmtree(store, ignore_errors=True)


def _met(jct_s: float, cost_usd: float, budget_usd, qos_s) -> bool:
    if budget_usd is not None:
        return cost_usd <= budget_usd * BUDGET_TOLERANCE
    return jct_s <= qos_s


def _check_training(run, out: Outcome, problems: list | None = None) -> None:
    problems = [] if problems is None else problems
    r = run.result
    out.jct_s, out.cost_usd = r.jct_s, r.cost_usd
    out.sim_epochs = len(r.epochs)
    out.converged = bool(r.converged)
    out.constraint_met = _met(r.jct_s, r.cost_usd, run.budget_usd, run.qos_s)
    out.decisions = [[e.allocation.describe(), bool(e.restarted)] for e in r.epochs]
    if run.fault_ledger is not None:
        summary = run.fault_ledger.summary()
        out.faults_injected = summary["n_faults"]
        out.recoveries = summary["n_recoveries"]
    if not math.isclose(r.cost_usd, sum(e.cost.total_usd for e in r.epochs), rel_tol=1e-12):
        problems.append("cost_usd != sum of epoch cost breakdowns")
    if r.converged and not r.final_loss <= run.workload.target_loss:
        problems.append("converged but final_loss above the target loss")
    if not r.epochs:
        problems.append("no epochs ran")
    _finish(out, problems)


def _finish(out: Outcome, problems: list) -> None:
    out.ok = not problems
    out.error = "; ".join(problems)


def decision_digest(outcomes: list[Outcome]) -> str:
    """sha256 over every job's allocation and restart (or stage) sequence."""
    payload = [[o.job.index, o.decisions] for o in outcomes]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()
