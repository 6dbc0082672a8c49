"""Command-line interface.

Usage examples::

    python -m repro list-workloads
    python -m repro profile mobilenet-cifar10
    python -m repro train lr-higgs --budget 2.0 --method ce-scaling
    python -m repro train lr-higgs --telemetry out.json --events out.events.jsonl
    python -m repro diagnose out.json --events out.events.jsonl
    python -m repro diagnose lr-higgs --budget 2.0 --format json
    python -m repro tune lr-higgs --trials 256 --budget-multiple 1.3
    python -m repro train lr-higgs --timeseries ts.json
    python -m repro dash --replay ts.json
    python -m repro timeseries diff base.json target.json
    python -m repro experiment fig09 --scale small
    python -m repro experiments
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import math
import shutil
import sys
from pathlib import Path

from repro.common.errors import ReproError, SLOError, ValidationError
from repro.common.validation import require_field, require_list, require_parent_dir
from repro.common.types import StorageKind
from repro.common.units import format_duration, format_usd
from repro.ml.models import WORKLOADS, workload
from repro.runs import BUNDLE_KINDS, DEFAULT_STORE_ROOT, Instruments
from repro.runs.compare import KINDS, compare, compare_to_json, exit_code, render_compare
from repro.telemetry.exporters import from_json_payload
from repro.tuning.plan import Objective
from repro.tuning.sha import SHASpec
from repro.experiments.registry import REGISTRY, run_experiment
from repro.workflow.job import training_envelope, tuning_envelope
from repro.workflow.runner import (
    TRAINING_METHODS,
    TUNING_METHODS,
    profile_workload,
    run_training,
    run_tuning,
    workload_profiler,
)


def _parse_storage(value: str | None) -> StorageKind | None:
    if value is None:
        return None
    return StorageKind(value)


def _seed(text: str) -> int:
    """``--seed``'s type: a non-negative integer (numpy rejects negative
    seeds), else one stderr line and exit 2."""
    if not text.isdecimal():
        print(f"repro: --seed expects a non-negative integer, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2)
    return int(text)


def _number(flag: str, ok, expects: str):
    """A float flag's type: a number ``ok`` accepts, else one stderr line
    (``flag expects ...``) and exit 2."""

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not ok(value):
            print(f"repro: {flag} expects {expects}, got {text!r}",
                  file=sys.stderr)
            raise SystemExit(2)
        return value

    return parse


def _positive(flag: str):
    """The type of a ``--budget`` / ``--*-multiple`` flag: a finite number
    above 0. A multiple below 1 is valid: it asks for a constraint no
    allocation can meet."""
    return _number(flag, lambda v: math.isfinite(v) and v > 0,
                   "a finite number > 0")


#: ``--tuning-fraction``'s type: a number strictly between 0 and 1 (``nan``
#: fails both comparisons).
_tuning_fraction = _number("--tuning-fraction", lambda v: 0 < v < 1,
                           "a number in (0, 1)")


def _straggler(text: str) -> tuple[int, float]:
    """``--straggler``'s type: ``RANK:FACTOR``, else one stderr line and
    exit 2."""
    rank, _, factor = text.partition(":")
    try:
        return int(rank), float(factor)
    except ValueError:
        print(f"repro: --straggler expects RANK:FACTOR, got {text!r}",
              file=sys.stderr)
        raise SystemExit(2) from None


def _capture_error(command: str, exc: Exception) -> int:
    """The unified bad-capture/bad-input path: one stderr line, exit 2.

    Every subcommand that loads a versioned artifact (diagnose, profile
    --diff/--validate, timeseries diff|validate, dash --replay, runs ...)
    routes its failures here so the contract stays pinned in one place.
    """
    print(f"repro {command}: {exc}", file=sys.stderr)
    return 2


def _stamp(args, command: str, workload_name: str | None = None):
    """The run's :class:`~repro.runs.ProvenanceStamp` from CLI context."""
    from repro.runs import ProvenanceStamp

    return ProvenanceStamp.collect(
        command,
        workload=(
            workload_name
            if workload_name is not None
            else getattr(args, "workload", "") or ""
        ),
        method=getattr(args, "method", "") or "",
        seed=getattr(args, "seed", 0),
        argv=getattr(args, "_argv", ()),
    )


def _instruments(args, command: str) -> Instruments:
    """The capture context of one run command (inert without flags).

    ``--save-run`` adds the bundle's default kinds; ``--slo`` loads the
    spec here and ``--save-run`` opens its store, so a bad spec file or
    store root fails before the run starts.
    """
    spec = None
    if args.slo:
        from repro.slo import SLOSpec

        spec = SLOSpec.load(args.slo)
    if args.save_run:
        from repro.runs import RunStore

        RunStore(args.save_run)
    kinds = ("telemetry", "trace", "events", "profile", "flamegraph", "timeseries")
    paths = {kind: getattr(args, kind) for kind in kinds}
    paths["faults"] = args.fault_report
    return Instruments(
        _stamp(args, command),
        kinds=BUNDLE_KINDS if args.save_run else (),
        paths=paths,
        slo=spec,
    )


def _finish(args, ins: Instruments, commit=None) -> int:
    """After a clean run: print the ride-along lines, save the --save-run
    bundle, call ``commit`` once it is durable, and print the SLO report.

    Returns the SLO exit code: 1 if any objective was violated, else 0.
    """
    if ins.ledger is not None:
        s = ins.ledger.summary()
        print(
            f"faults : {s['n_faults']} injected, {s['n_recoveries']} recovery "
            f"action(s); lost {format_duration(s['fault_time_s'])}, recovery "
            f"overhead {format_duration(s['recovery_time_s'])}"
        )
    if ins.profiler is not None:
        totals = ins.payloads["profile"]["totals"]
        wrote = [str(ins.paths[k]) for k in ("profile", "flamegraph") if k in ins.paths]
        print(
            f"profile : {totals['n_frames']} frame(s), {totals['n_calls']} "
            f"call(s) -> {', '.join(wrote)}"
        )
    if ins.sampler is not None and "timeseries" in ins.paths:
        sampler = ins.sampler
        print(
            f"timeseries : {len(sampler.series)} series, "
            f"{sampler.n_points()} point(s), {len(sampler.markers)} marker(s) "
            f"-> {ins.paths['timeseries']}"
        )
    if args.save_run:
        from repro.runs import RunStore

        bundle = ins.save(RunStore(args.save_run))
        print(
            f"run    : {bundle.run_id} ({len(bundle.artifacts)} artifact(s)) "
            f"-> {args.save_run}"
        )
    if commit is not None:
        commit()
    if ins.slo_report is None:
        return 0
    print()
    print(ins.slo_report.render())
    return 1 if ins.slo_report.violated else 0


def _fault_plan(args):
    """The FaultPlan named by --faults, or None (raises on a bad file)."""
    from repro.faults import FaultPlan

    return FaultPlan.load(args.faults) if args.faults else None


#: The capture and fault flags every run command takes, in --help order:
#: (flag, metavar, help).
_RUN_FLAGS = (
    ("--telemetry", "PATH", "write JSON telemetry (metrics + run summary) to PATH; "
                            "break it down later with `repro diagnose PATH`"),
    ("--trace", "PATH", "write a Chrome trace (load in Perfetto) to PATH"),
    ("--slo", "SPEC", "guard the run against a repro-slo/v1 spec file; prints the "
                      "SLO report and exits 1 on violation"),
    ("--events", "PATH", "write the repro-events/v1 JSONL event log to PATH"),
    ("--faults", "PLAN", "inject faults from a repro-faults/v1 plan file and enable "
                         "the resilience layer (retries, checkpoints, replanning)"),
    ("--fault-report", "PATH", "write the fault/recovery ledger as "
                               "repro-faults-report/v1 JSON to PATH"),
    ("--profile", "PATH", "profile the run's hot paths; write the repro-profile/v1 "
                          "capture to PATH (diff later with `repro profile --diff`)"),
    ("--flamegraph", "PATH", "write a collapsed-stack flamegraph (flamegraph.pl / "
                             "inferno / speedscope input) to PATH"),
    ("--timeseries", "PATH", "sample resource time-series (concurrency, warm pool, "
                             "storage bandwidth, cost, ...) on the simulated clock; "
                             "write the repro-timeseries/v1 capture to PATH (view "
                             "with `repro dash --replay PATH`)"),
)


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    for flag, metavar, text in _RUN_FLAGS:
        parser.add_argument(flag, metavar=metavar, help=text)
    parser.add_argument(
        "--save-run", nargs="?", const=DEFAULT_STORE_ROOT, metavar="STORE",
        help="bundle every enabled capture (plus telemetry, trace, events "
             "and timeseries, forced on) into the content-addressed run "
             f"store (default {DEFAULT_STORE_ROOT}); inspect with "
             "`repro runs list|show|compare`",
    )


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    """The training job's flags, shared by ``train`` and live ``diagnose``."""
    parser.add_argument("--method", default="ce-scaling", choices=TRAINING_METHODS)
    parser.add_argument("--budget", type=_positive("--budget"),
                        help="absolute budget in USD")
    parser.add_argument("--budget-multiple", type=_positive("--budget-multiple"),
                        default=2.5,
                        help="budget as multiple of the cheapest possible spend")
    parser.add_argument("--qos-multiple", type=_positive("--qos-multiple"),
                        help="switch to cost-min with this deadline multiple")
    parser.add_argument("--storage", choices=[s.value for s in StorageKind])
    parser.add_argument("--seed", type=_seed, default=0)


def cmd_list_workloads(_args) -> int:
    print(f"{'name':20s} {'model MB':>10s} {'dataset MB':>12s} "
          f"{'batch':>8s} {'target loss':>12s}")
    for name, w in sorted(WORKLOADS.items()):
        print(f"{name:20s} {w.model_mb:>10.3f} {w.dataset_mb:>12.0f} "
              f"{w.batch_size:>8d} {w.target_loss:>12.3f}")
    return 0


@functools.cache
def _help_width() -> int:
    """argparse's own default help width, read from the terminal once."""
    return shutil.get_terminal_size().columns - 2


class _Parser(argparse.ArgumentParser):
    """An argument parser that sizes its help to the terminal only once.

    argparse makes a help formatter in every ``add_argument`` to check the
    metavar, and each one asks the terminal for its width: a fifth of
    building the parser, which every command pays.
    """

    def _get_formatter(self):
        return self.formatter_class(prog=self.prog, width=_help_width())

    def error(self, message):
        """A bad argument is bad input: one stderr line and exit 2 (``-h``
        prints the usage)."""
        self.exit(2, f"{self.prog}: error: {message}\n")


class _IntermixedParser(_Parser):
    """A parser without subcommands that takes its options anywhere among
    its positionals: argparse's intermixed parse, which refuses a parser
    with subcommands, run one level below them."""

    _parsing = False

    def parse_known_args(self, args=None, namespace=None):
        if self._parsing:  # one of the intermixed parse's own two passes
            return super().parse_known_args(args, namespace)
        self._parsing = True
        try:
            return self.parse_known_intermixed_args(args, namespace)
        finally:
            self._parsing = False


def _add_actions(parser: argparse.ArgumentParser, actions: tuple[str, ...],
                 add_options) -> argparse.ArgumentParser:
    """Make ``parser``'s first positional one of ``actions`` and return the
    parser for everything after it, shared by every action.

    A choice positional followed by an ``nargs="*"`` one would take no
    option between them (argparse matches both at the action and rejects
    the paths after the option), so the action is a subcommand, and its
    parser takes options anywhere among the paths. The options are
    accepted before the action, with their defaults, and after it, where
    they override only when given.
    """
    add_options(parser, lambda value: value)
    prog = f"{parser.prog} {{{','.join(actions)}}}"
    leaf = parser.add_subparsers(
        dest="action", required=True, prog=prog, parser_class=_IntermixedParser
    ).add_parser(actions[0], aliases=actions[1:], prog=prog)
    add_options(leaf, lambda value: argparse.SUPPRESS)
    return leaf


def _bad_out(command: str, path: str | None) -> bool:
    """True, after one stderr line, when ``--out`` names a file in a
    missing directory. Checked before any work."""
    try:
        if path:
            require_parent_dir(path, "--out")
    except ReproError as exc:
        _capture_error(command, exc)
        return True
    return False


def _emit(args, doc: str, render, rc: int = 0) -> int:
    """The one output path of a report command: write the JSON ``doc`` to
    ``--out``, print it (``--format json``) or ``render()``, return ``rc``."""
    if args.out:
        Path(args.out).write_text(doc)
    if args.format == "json":
        print(doc, end="")
    else:
        print(render())
    return rc


def _compare(kind: str, args, load, base: str, target: str, **params) -> int:
    """``profile --diff``, ``timeseries diff`` and ``runs compare`` (the
    command is named after its kind): load both sides with ``load``,
    compare them, emit the report; the exit code comes from the report."""
    if _bad_out(kind, args.out):
        return 2
    try:
        report = compare(
            kind, load(base), load(target),
            meta={"base": base, "target": target}, **params,
        )
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error(kind, exc)
    return _emit(
        args, compare_to_json(report), lambda: render_compare(report),
        exit_code(report),
    )


def _profile_validate(args) -> int:
    """``repro profile --validate PATH``: check a capture's schema contract
    and print its frame table."""
    from repro.profiling import load_capture, render_capture

    try:
        payload = load_capture(Path(args.validate).read_text())
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("profile", exc)
    totals = payload["totals"]
    print(
        f"valid {payload['schema']} capture: {totals['n_frames']} frame(s), "
        f"{totals['n_calls']} call(s), "
        f"{format_duration(totals['wall_s'])} attributed"
    )
    print(render_capture(payload, top=args.top))
    return 0


def cmd_profile(args) -> int:
    if args.diff:
        from repro.profiling import load_capture

        return _compare(
            "profile", args,
            lambda path: load_capture(Path(path).read_text()), *args.diff,
            threshold=args.threshold, min_s=args.min_s,
        )
    if args.validate:
        return _profile_validate(args)
    if not args.workload:
        print(
            "repro profile: a workload name is required unless --diff or "
            "--validate is given",
            file=sys.stderr,
        )
        return 2
    try:
        profile = profile_workload(
            workload(args.workload), storage_pin=_parse_storage(args.storage)
        )
    except ReproError as exc:
        return _capture_error("profile", exc)
    print(f"{profile.feasible.sum()} feasible allocations, "
          f"{len(profile.pareto)} on the Pareto boundary "
          f"({profile.profile_time_s * 1e3:.1f} ms)\n")
    print(f"{'allocation':28s} {'epoch time':>12s} {'epoch cost':>12s}")
    for p in sorted(profile.pareto, key=lambda q: q.time_s):
        print(f"{p.allocation.describe():28s} "
              f"{format_duration(p.time_s):>12s} {format_usd(p.cost_usd):>12s}")
    return 0


def _journal_header(args, command: str) -> dict:
    """The ``repro-journal/v1`` header payload: everything ``repro
    resume`` needs to re-execute the run under the original identity
    (flags *and* argv, since provenance metadata embeds argv)."""
    saved = {k: v for k, v in vars(args).items() if k != "fn"}
    saved["_argv"] = [str(a) for a in saved.get("_argv", ())]
    return {"command": command, "args": saved}


def _constraint(args, env) -> tuple[Objective, float | None, float | None]:
    """A training run's (objective, budget, QoS deadline): ``--qos-multiple``
    minimises cost under a deadline, else ``--budget`` (or
    ``--budget-multiple``) caps the spend."""
    if args.qos_multiple is not None:
        return Objective.MIN_COST_GIVEN_QOS, None, env.qos(args.qos_multiple)
    budget = args.budget if args.budget is not None else env.budget(args.budget_multiple)
    return Objective.MIN_JCT_GIVEN_BUDGET, budget, None


def _train_summary(r, objective: Objective, budget, qos) -> dict:
    """A training run's telemetry ``run`` block."""
    return {
        "jct_s": r.jct_s,
        "cost_usd": r.cost_usd,
        "converged": r.converged,
        "n_epochs": len(r.epochs),
        "n_restarts": r.n_restarts,
        "comm_overhead_s": r.comm_overhead_s,
        "scheduling_overhead_s": r.scheduling_overhead_s,
        "storage_cost_usd": r.storage_cost_usd,
        # Constraint context, so `repro diagnose` on this capture can
        # re-judge the scheduler's decisions (ex-post regret).
        "objective": objective.value,
        "budget_usd": budget,
        "qos_s": qos,
    }


def _train_workload(args, name: str):
    """The workload ``name``, once it is known to have a feasible point
    under ``--storage``: a pin that has none fails here, before any
    capture, bundle or journal file exists."""
    w = workload(name)
    workload_profiler(storage_pin=_parse_storage(args.storage)).require_feasible(w)
    return w


def _run_train(args, ins: Instruments, w, plan, **run_options):
    """``train``'s run step, shared with live ``diagnose``: profile ``w``,
    resolve the constraint, run the job under ``ins`` and attach its run
    summary. Returns ``(run, budget, qos)``.

    ``run_training`` is looked up as this module's global at call time,
    so a caller that wraps ``repro.cli.run_training`` sees every run.
    """
    with ins:
        storage = _parse_storage(args.storage)
        profile = profile_workload(w, storage_pin=storage)
        objective, budget, qos = _constraint(args, training_envelope(w, profile))
        run = run_training(
            w, method=args.method, objective=objective, budget_usd=budget,
            qos_s=qos, seed=args.seed, profile=profile, storage_pin=storage,
            fault_plan=plan, **run_options,
        )
        ins.set_run_summary(
            _train_summary(run.result, objective, budget, qos),
            ledger=run.fault_ledger, plan=plan,
        )
    return run, budget, qos


def cmd_train(args, journal=None) -> int:
    try:
        w = _train_workload(args, args.workload)
        ins = _instruments(args, "train")
        plan = _fault_plan(args)
        journal_path = getattr(args, "journal", None)
        if journal is None and journal_path:
            from repro.kernel import RunJournal

            journal = RunJournal.create(
                journal_path, run=_journal_header(args, "train")
            )
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("train", exc)
    run, budget, qos = _run_train(args, ins, w, plan, journal=journal)
    r = run.result
    print(f"objective: min cost, QoS {format_duration(qos)}" if qos is not None
          else f"objective: min JCT, budget {format_usd(budget)}")
    print(f"method={args.method}  converged={r.converged}  "
          f"epochs={len(r.epochs)}  restarts={r.n_restarts}")
    print(f"JCT  {format_duration(r.jct_s)}   cost {format_usd(r.cost_usd)}")
    print(f"comm {format_duration(r.comm_overhead_s)}   "
          f"storage {format_usd(r.storage_cost_usd)}   "
          f"scheduling {format_duration(r.scheduling_overhead_s)}")

    def commit() -> None:
        # Commit only after the bundle is durable: an interrupted save
        # leaves the journal resumable, and resume regenerates the exact
        # same bundle (content-addressed store; identical bytes dedup).
        journal.commit(
            {"jct_s": r.jct_s, "cost_usd": r.cost_usd,
             "n_epochs": len(r.epochs), "converged": r.converged}
        )
        journal.close()
        print(f"journal: {len(r.epochs)} epoch boundary(ies) committed")

    return _finish(args, ins, commit if journal is not None else None)


def _journaled_train_args(run: dict) -> argparse.Namespace:
    """The arguments a journal header's argv parses to, by the same parser
    as any other invocation; raises ValidationError unless they are a
    ``train`` command's."""
    argv = require_list(
        require_field(require_field(run, "args", "journal run"), "_argv", "journal args"),
        "journal argv",
    )
    if not all(isinstance(arg, str) for arg in argv):
        raise ValidationError(f"journal argv must hold strings, got {argv!r:.60}")
    said = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(said):
            args = build_parser().parse_args(argv)
    except SystemExit:
        reason = (said.getvalue().splitlines() or ["it asks for help"])[-1]
        raise ValidationError(f"journal argv does not parse: {reason}") from None
    if args.command != "train":
        raise ValidationError(f"journal argv is not a train command: {argv!r:.60}")
    args._argv = tuple(argv)
    return args


def cmd_resume(args) -> int:
    """``repro resume JOURNAL``: continue an interrupted journaled run.

    Reopens the write-ahead log (truncating any torn tail the crash left),
    re-parses the journaled argv and re-executes the run under it,
    validates every replayed epoch boundary against the journaled prefix,
    and continues past it — finishing to the same run id and the same
    deterministic-artifact bytes as an uninterrupted run.
    """
    from repro.kernel import JournalError, RunJournal

    try:
        journal = RunJournal.open_resume(args.journal)
    except (OSError, ReproError) as exc:
        return _capture_error("resume", exc)
    with journal:
        run = journal.header.get("run")
        command = run.get("command") if isinstance(run, dict) else None
        if command != "train":
            print(
                f"repro resume: journal command {command!r:.40} is not resumable",
                file=sys.stderr,
            )
            return 2
        if journal.committed and not args.force:
            print(
                f"journal: already committed ({journal.n_epochs_journaled} epoch "
                "boundary(ies)); nothing to resume (use --force to re-execute)"
            )
            return 0
        try:
            train_args = _journaled_train_args(run)
        except ValidationError as exc:
            return _capture_error("resume", exc)
        print(
            f"resume : replaying {journal.n_epochs_journaled} journaled epoch "
            f"boundary(ies) from {args.journal}"
        )
        try:
            return cmd_train(train_args, journal=journal)
        except JournalError as exc:
            return _capture_error("resume", exc)


def cmd_tune(args) -> int:
    try:
        w = workload(args.workload)
        spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
        ins = _instruments(args, "tune")
        plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("tune", exc)
    with ins:
        profile = profile_workload(w)
        env = tuning_envelope(profile, spec)
        budget = env.budget(args.budget_multiple)
        run = run_tuning(
            w, spec, method=args.method,
            objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=args.seed, profile=profile,
            fault_plan=plan,
        )
        r = run.result
        ins.set_run_summary(
            {
                "jct_s": r.jct_s,
                "cost_usd": r.cost_usd,
                "comm_overhead_s": r.comm_overhead_s,
                "scheduling_overhead_s": r.scheduling_overhead_s,
                "n_stages": len(r.stages),
            },
            ledger=run.fault_ledger, plan=plan,
        )
    print(f"SHA {spec.n_trials} trials / {spec.n_stages} stages; "
          f"budget {format_usd(budget)}")
    print(f"method={args.method}  JCT {format_duration(r.jct_s)}  "
          f"cost {format_usd(r.cost_usd)}")
    print(f"winner: lr={r.winner.learning_rate:.2e} "
          f"momentum={r.winner.momentum:.2f} (quality {r.winner.quality:.2f})")
    return _finish(args, ins)


def cmd_workflow(args) -> int:
    from repro.workflow.campaign import run_workflow

    try:
        workload(args.workload)  # an unknown name fails here, not mid-run
        spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
        ins = _instruments(args, "workflow")
        plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("workflow", exc)
    with ins:
        result = run_workflow(
            args.workload, spec, budget_usd=args.budget,
            tuning_fraction=args.tuning_fraction, seed=args.seed,
            fault_plan=plan,
        )
        ins.set_run_summary(
            {
                "jct_s": result.total_jct_s,
                "cost_usd": result.total_cost_usd,
                "converged": result.training.converged,
                "comm_overhead_s": (
                    result.tuning.comm_overhead_s
                    + result.training.comm_overhead_s
                ),
                "scheduling_overhead_s": (
                    result.tuning.scheduling_overhead_s
                    + result.training.scheduling_overhead_s
                ),
            },
            ledger=result.fault_ledger, plan=plan,
        )
    print(f"tuning : JCT {format_duration(result.tuning.jct_s)}  "
          f"cost {format_usd(result.tuning.cost_usd)}  "
          f"winner lr={result.winner.learning_rate:.2e} "
          f"(quality {result.winner.quality:.2f})")
    print(f"training: JCT {format_duration(result.training.jct_s)}  "
          f"cost {format_usd(result.training.cost_usd)}  "
          f"converged={result.training.converged}")
    print(f"total  : JCT {format_duration(result.total_jct_s)}  "
          f"cost {format_usd(result.total_cost_usd)} / "
          f"{format_usd(args.budget)}")
    return _finish(args, ins)


def cmd_dash(args) -> int:
    """``repro dash --replay CAPTURE``: terminal dashboard of a saved
    time-series capture (``train``/``tune``/``workflow --timeseries``)."""
    from repro.timeseries import load_capture, render_dashboard

    if not args.replay:
        print("repro dash: --replay CAPTURE is required (write one with "
              "`repro train WORKLOAD --timeseries CAPTURE`)", file=sys.stderr)
        return 2
    try:
        payload = load_capture(Path(args.replay).read_text())
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("dash", exc)
    print(render_dashboard(payload, width=args.width), end="")
    return 0


def cmd_timeseries(args) -> int:
    """``repro timeseries``: validate and diff saved captures."""
    from repro.timeseries import load_capture

    if args.action == "validate":
        if len(args.paths) != 1:
            print(
                "repro timeseries: validate needs exactly one capture PATH",
                file=sys.stderr,
            )
            return 2
        try:
            payload = load_capture(Path(args.paths[0]).read_text())
        except (OSError, ValueError, ReproError) as exc:
            return _capture_error("timeseries", exc)
        totals = payload["totals"]
        print(
            f"valid {payload['schema']} capture: {totals['n_series']} "
            f"series, {totals['n_points']} point(s) from "
            f"{totals['n_samples']} sample(s), {len(payload['markers'])} "
            f"marker(s)"
        )
        return 0
    # diff
    if len(args.paths) != 2:
        print(
            "repro timeseries: diff needs BASE and TARGET capture paths",
            file=sys.stderr,
        )
        return 2
    return _compare(
        "timeseries", args,
        lambda path: load_capture(Path(path).read_text()), *args.paths,
        threshold=args.threshold,
    )


def cmd_diagnose(args) -> int:
    from repro.diagnostics import RunObservation, diagnose
    from repro.faults import FaultLedger
    from repro.slo import EventLog, SLOSpec
    from repro.timeseries import load_capture

    if _bad_out("diagnose", args.out):
        return 2
    target = Path(args.target)
    faults = ts_payload = candidates = ins = None
    try:
        slo_spec = SLOSpec.load(args.slo) if args.slo else None
        fault_plan = _fault_plan(args)
        if args.fault_report:
            # A saved repro-faults-report/v1 (written with --fault-report
            # on the original run) supplies the fault attribution; its
            # records give the recovery totals a live run reports.
            ledger, report = FaultLedger.load(args.fault_report)
            faults = {**ledger.recovery_counts(), **(report.get("summary") or {})}
        if target.exists():
            # Capture mode: a telemetry JSON written by --telemetry, plus
            # (optionally) the same run's event log for the epoch timeline
            # and a saved repro-timeseries/v1 capture for the anomaly rules.
            log = EventLog.from_jsonl(Path(args.events).read_text()) if args.events else None
            obs = RunObservation.from_capture(from_json_payload(target.read_text()), log)
            if args.timeseries:
                ts_payload = load_capture(Path(args.timeseries).read_text())
        elif target.suffix in (".json", ".jsonl") or "/" in args.target:
            # Looks like a capture path, not a workload name: don't fall
            # through to live mode on a typo'd filename.
            raise ValidationError(f"capture file {args.target} does not exist")
        else:
            w = _train_workload(args, args.target)
            # --timeseries samples the live run into that path.
            ins = Instruments(
                _stamp(args, "diagnose", workload_name=args.target),
                kinds={"telemetry", "events"}, paths={"timeseries": args.timeseries},
            )
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("diagnose", exc)
    if ins is not None:
        # Live mode: run the training job through train's own run step,
        # under the collectors a `train --telemetry --events` capture uses,
        # then read them back through the one builder; live mode adds the
        # Pareto candidates.
        run = _run_train(
            args, ins, w, fault_plan, straggler_factors=dict(args.straggler)
        )[0]
        ts_payload = ins.payloads.get("timeseries")
        obs = RunObservation.from_capture(from_json_payload(ins.texts["telemetry"]), ins.log)
        candidates = run.profile.candidates
        faults = run.result.extra.get("faults", faults)
    report = diagnose(
        obs, candidates=candidates, top_k=args.top_k, z=args.z,
        drift_threshold=args.drift_threshold, slo_spec=slo_spec,
        faults=faults, timeseries=ts_payload,
    )
    return _emit(args, report.to_json(), report.render)


def _evaluate_capture(spec, capture: str):
    """Judge a spec against a saved capture (events log or telemetry)."""
    from repro.slo import evaluate_summary, replay_events

    path = Path(capture)
    if path.is_dir():
        events = path / "events.jsonl"
        telemetry = path / "telemetry.json"
        if events.exists():
            path = events
        elif telemetry.exists():
            path = telemetry
        else:
            raise SLOError(
                f"capture directory {capture} has neither events.jsonl "
                "nor telemetry.json"
            )
    if path.suffix == ".jsonl":
        return replay_events(spec, path.read_text())
    payload = from_json_payload(path.read_text())
    run = payload.get("run") or {}
    if "jct_s" not in run:
        raise SLOError(f"telemetry capture {path} has no run summary to judge")
    return evaluate_summary(
        spec,
        float(run["jct_s"]),
        run.get("cost_usd"),
        meta=dict(payload.get("meta") or {}),
    )


def cmd_slo(args) -> int:
    from repro.slo import SLOSpec

    if _bad_out("slo", args.out):
        return 2
    try:
        spec = SLOSpec.load(args.spec)
        if not args.capture:
            raise SLOError(
                "provide --capture PATH (write one with `repro train WORKLOAD "
                "--slo SPEC --events PATH`)"
            )
        report = _evaluate_capture(spec, args.capture)
    except (OSError, ValueError, SLOError) as exc:
        print(f"repro slo: {exc}", file=sys.stderr)
        return 2
    return _emit(args, report.to_json(), report.render,
                 1 if report.violated else 0)


def cmd_faults(args) -> int:
    from repro.faults import FaultLedger, FaultPlan

    try:
        if args.action == "template":
            text = FaultPlan.default_profile().to_json()
            if args.out:
                Path(args.out).write_text(text)
                print(f"wrote default chaos profile to {args.out}")
            else:
                print(text, end="")
            return 0
        if not args.path:
            print(f"repro faults: {args.action} needs a PATH", file=sys.stderr)
            return 2
        if args.action == "validate":
            plan = FaultPlan.load(args.path)
            state = "empty (injects nothing)" if plan.is_empty else "active"
            print(f"valid repro-faults/v1 plan {plan.name!r} ({state})")
            print(f"  crash_prob={plan.crash_prob:g}  "
                  f"cold_start_failure_prob={plan.cold_start_failure_prob:g}  "
                  f"invocation_timeout_s={plan.invocation_timeout_s}")
            print(f"  storage backends: "
                  f"{', '.join(sorted(plan.storage)) or '-'}  "
                  f"permanent losses: {len(plan.permanent_loss)}")
            print(f"  retry: max_attempts={plan.retry.max_attempts}  "
                  f"base_backoff_s={plan.retry.base_backoff_s:g}  "
                  f"factor={plan.retry.backoff_factor:g}")
            return 0
        # summarize: render a saved repro-faults-report/v1 document.
        ledger, payload = FaultLedger.load(args.path)
        if args.format == "json":
            print(
                ledger.to_json(
                    payload.get("plan") or None,
                    dict(payload.get("meta") or {}),
                ),
                end="",
            )
        else:
            print(ledger.render())
        return 0
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro faults: {exc}", file=sys.stderr)
        return 2


def cmd_runs(args) -> int:
    """``repro runs``: the local run registry and cross-run observatory."""
    from repro.runs import RunStore, load_run, manifest_to_json, render_manifest

    try:
        store = RunStore(args.store)
        if args.action == "list":
            manifests = store.list()
            if args.format == "ids":
                for manifest in manifests:
                    print(manifest["run_id"])
                return 0
            if args.format == "json":
                from repro.common.jsontext import indented_json

                print(indented_json(manifests))
                return 0
            if not manifests:
                print(f"no runs in {store.root}")
                return 0
            print(
                f"{'run id':>13s}  {'command':10s} {'workload':18s} "
                f"{'method':12s} {'seed':>4s} {'arts':>4s} "
                f"{'jct_s':>10s} {'cost_usd':>10s}"
            )
            for manifest in manifests:
                meta = manifest["meta"]
                summary = manifest.get("summary") or {}
                jct = summary.get("jct_s")
                cost = summary.get("cost_usd")
                print(
                    f"{manifest['run_id']:>13s}  "
                    f"{(meta.get('command') or '-'):10s} "
                    f"{(meta.get('workload') or '-'):18s} "
                    f"{(meta.get('method') or '-'):12s} "
                    f"{meta.get('seed', 0):>4d} "
                    f"{len(manifest['artifacts']):>4d} "
                    + (f"{jct:>10.3f} " if jct is not None else f"{'-':>10s} ")
                    + (f"{cost:>10.4f}" if cost is not None else f"{'-':>10s}")
                )
            return 0
        if args.action == "show":
            if len(args.refs) != 1:
                raise ValueError("show needs exactly one RUN id (or prefix)")
            manifest = store.load(args.refs[0])
            if args.format == "json":
                print(manifest_to_json(manifest), end="")
            else:
                print(render_manifest(manifest))
            return 0
        if args.action == "compare":
            if len(args.refs) != 2:
                raise ValueError("compare needs BASE and TARGET run ids")
            return _compare(
                "runs", args, lambda ref: load_run(store, ref),
                *args.refs, threshold=args.threshold,
            )
        if args.action == "export":
            if len(args.refs) != 2:
                raise ValueError("export needs RUN and DEST arguments")
            written = store.export(args.refs[0], args.refs[1])
            print(f"exported {len(written)} file(s) to {args.refs[1]}")
            return 0
        # gc: optionally remove named runs first, then sweep orphans.
        for ref in args.refs:
            print(f"removed {store.remove(ref)}")
        stats = store.gc()
        print(
            f"gc: {stats['n_removed']} object(s) removed, "
            f"{stats['n_kept']} kept across {stats['n_runs']} run(s)"
        )
        return 0
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("runs", exc)


def cmd_experiment(args) -> int:
    try:
        REGISTRY[args.experiment]  # an unknown id fails here, not mid-run
    except ReproError as exc:
        return _capture_error("experiment", exc)
    result = run_experiment(args.experiment, scale=args.scale, seed=args.seed)
    print(result.render())
    return 0


def cmd_experiments(_args) -> int:
    for exp_id in REGISTRY.available():
        print(exp_id)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repro",
        description="CE-scaling reproduction (IPDPS 2023): profile, train, "
                    "tune, and regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True, prog="repro")

    sub.add_parser("list-workloads", help="show the Table IV workloads").set_defaults(
        fn=cmd_list_workloads
    )

    p = sub.add_parser(
        "profile",
        help="Pareto boundary, and validation and diffs of profiler captures",
        description="Without flags, print WORKLOAD's Pareto boundary. "
                    "--diff compares two saved repro-profile/v1 captures "
                    "(exit 1 when a frame regressed past --threshold); "
                    "--validate checks a capture against the schema "
                    "registry and prints its frame table. Write a capture "
                    "with `repro train|tune|workflow WORKLOAD --profile PATH`.",
    )
    p.add_argument("workload", nargs="?",
                   help="workload name (omit with --diff / --validate)")
    p.add_argument("--storage", choices=[s.value for s in StorageKind])
    p.add_argument("--out", metavar="PATH",
                   help="--diff: also write the repro-compare/v2 report to PATH")
    p.add_argument("--top", type=int, default=20,
                   help="--validate: frame-table rows to print (0 = all)")
    p.add_argument("--diff", nargs=2, metavar=("BASE", "TARGET"),
                   help="compare two saved repro-profile/v1 captures")
    p.add_argument("--validate", metavar="PATH",
                   help="validate a saved capture against the schema registry")
    p.add_argument("--threshold", type=float,
                   default=KINDS["profile"].params["threshold"],
                   help="--diff: flag frames slower than BASE by this ratio")
    p.add_argument("--min-s", type=float, default=KINDS["profile"].params["min_s"],
                   help="--diff: ignore timing deltas on frames whose base "
                        "time is below this (timer noise)")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("train", help="run one training job")
    p.add_argument("workload")
    _add_train_flags(p)
    p.add_argument(
        "--journal", metavar="PATH",
        help="write the crash-consistent repro-journal/v1 write-ahead log "
             "to PATH; an interrupted run continues with `repro resume`",
    )
    _add_run_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser(
        "resume",
        help="continue an interrupted journaled run",
        description="Reopen a repro-journal/v1 write-ahead log written by "
                    "`repro train --journal`, truncate any torn tail the "
                    "crash left, replay to the last consistent epoch "
                    "boundary, and continue the run to the same run id and "
                    "deterministic-artifact bytes as an uninterrupted run.",
    )
    p.add_argument("journal", help="path to the repro-journal/v1 file")
    p.add_argument("--force", action="store_true",
                   help="re-execute even if the journal is already committed")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("tune", help="run one hyperparameter-tuning job")
    p.add_argument("workload")
    p.add_argument("--method", default="ce-scaling", choices=TUNING_METHODS)
    p.add_argument("--trials", type=int, default=256)
    p.add_argument("--eta", type=int, default=2)
    p.add_argument("--epochs-per-stage", type=int, default=2)
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"), default=1.3)
    p.add_argument("--seed", type=_seed, default=0)
    _add_run_flags(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser("workflow", help="run the full tune-then-train pipeline")
    p.add_argument("workload")
    p.add_argument("--budget", type=_positive("--budget"), default=25.0)
    p.add_argument("--tuning-fraction", type=_tuning_fraction, default=0.4)
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--eta", type=int, default=2)
    p.add_argument("--epochs-per-stage", type=int, default=1)
    p.add_argument("--seed", type=_seed, default=0)
    _add_run_flags(p)
    p.set_defaults(fn=cmd_workflow)

    p = sub.add_parser(
        "diagnose",
        help="critical path, cost breakdown, stragglers, model drift, and "
             "regret for a run",
        description="Diagnose a run: where its time and money went (the "
                    "critical path and the cost, activity and peaks "
                    "breakdown), stragglers, model drift and ex-post regret. "
                    "TARGET is either a workload name (the job runs here, "
                    "then gets diagnosed) or a telemetry JSON file saved "
                    "with --telemetry by train, tune or workflow (pair a "
                    "train capture with its --events log for the epoch "
                    "timeline).",
    )
    p.add_argument("target", metavar="TARGET",
                   help="workload name, or path to a saved telemetry JSON")
    p.add_argument("--events", metavar="PATH",
                   help="repro-events/v1 log saved alongside the telemetry "
                        "capture, for the epoch timeline")
    _add_train_flags(p)
    p.add_argument("--straggler", action="append", default=[], type=_straggler,
                   metavar="RANK:FACTOR",
                   help="inject a compute slowdown on one worker rank "
                        "(repeatable; live mode only)")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON document to PATH")
    p.add_argument("--top-k", type=int, default=5,
                   help="bottleneck spans to report")
    p.add_argument("--z", type=float, default=4.0,
                   help="straggler threshold in robust sigmas")
    p.add_argument("--drift-threshold", type=float, default=0.15,
                   help="relative residual band for the model-drift audit")
    p.add_argument("--slo", metavar="SPEC",
                   help="attribute error-budget consumption against this "
                        "repro-slo/v1 spec file")
    p.add_argument("--faults", metavar="PLAN",
                   help="live mode: inject faults from this repro-faults/v1 "
                        "plan and diagnose the recovery behaviour")
    p.add_argument("--fault-report", metavar="PATH",
                   help="attribute faults from this saved repro-faults-report/v1 "
                        "document (a live --faults run uses its own ledger)")
    p.add_argument("--timeseries", metavar="PATH",
                   help="feed resource time-series to the anomaly detector: "
                        "a saved repro-timeseries/v1 capture (capture mode) "
                        "or the path to sample this run into (live mode)")
    p.set_defaults(fn=cmd_diagnose)

    p = sub.add_parser(
        "dash",
        help="terminal dashboard of a run's resource time-series",
        description="Render sparkline time-series (in-flight invocations, "
                    "warm pool, storage bandwidth, allocation, cost, ...) "
                    "plus event markers from a saved repro-timeseries/v1 "
                    "capture, as written by `repro train|tune|workflow "
                    "--timeseries PATH`.",
    )
    p.add_argument("--replay", metavar="CAPTURE",
                   help="the repro-timeseries/v1 capture to render (required)")
    p.add_argument("--width", type=int, default=60,
                   help="sparkline width in characters")
    p.set_defaults(fn=cmd_dash)

    p = sub.add_parser(
        "timeseries",
        help="validate and diff repro-timeseries/v1 captures",
        description="Work with saved time-series captures: `validate PATH` "
                    "checks the schema contract (exit 2 on a bad capture); "
                    "`diff BASE TARGET` compares them series by series "
                    "into a repro-compare/v2 report (identical / noise / "
                    "changed / added / removed) and exits 1 when any series "
                    "drifted past --threshold.",
    )
    def timeseries_options(q, default) -> None:
        q.add_argument("--threshold", type=float,
                       default=default(KINDS["timeseries"].params["threshold"]),
                       help="diff: relative drift tolerance on mean/peak/last")
        q.add_argument("--format", default=default("table"),
                       choices=("table", "json"))
        q.add_argument("--out", metavar="PATH", default=default(None),
                       help="diff: also write the JSON report to PATH")

    p = _add_actions(p, ("diff", "validate"), timeseries_options)
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="one capture (validate) or BASE TARGET (diff)")
    p.set_defaults(fn=cmd_timeseries)

    p = sub.add_parser(
        "slo",
        help="evaluate an SLO spec against a saved capture",
        description="Judge a repro-slo/v1 spec against a saved capture "
                    "(--capture pointing at an events.jsonl, a telemetry "
                    "JSON, or a directory holding one), as written by "
                    "`repro train|tune|workflow --events PATH` or "
                    "`--telemetry PATH`; `repro train --slo SPEC` guards a "
                    "run live. Exits 0 when every objective is met, 1 on "
                    "violation, 2 on errors.",
    )
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="repro-slo/v1 spec file")
    p.add_argument("--capture", metavar="PATH",
                   help="saved events.jsonl / telemetry JSON / capture dir "
                        "(required)")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", metavar="PATH",
                   help="also write the JSON report to PATH")
    p.set_defaults(fn=cmd_slo)

    p = sub.add_parser(
        "faults",
        help="validate fault plans and summarize fault/recovery ledgers",
        description="Work with repro-faults/v1 plans and repro-faults-"
                    "report/v1 ledgers: validate a plan file, summarize a "
                    "saved fault report as a table or JSON, or emit the "
                    "default chaos profile as a starting template.",
    )
    p.add_argument("action", choices=("validate", "summarize", "template"))
    p.add_argument("path", nargs="?",
                   help="plan file (validate) or fault report (summarize)")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", metavar="PATH",
                   help="write the template to PATH instead of stdout")
    p.set_defaults(fn=cmd_faults)

    p = sub.add_parser(
        "runs",
        help="list, inspect, compare, export and gc saved run bundles",
        description="The content-addressed run registry written by "
                    "--save-run: `list` the stored bundles, `show RUN` one "
                    "manifest, `compare BASE TARGET` two runs (composing "
                    "summary, SLO, fault, timeseries and profile deltas "
                    "into a repro-compare/v2 verdict; exit 1 on "
                    "regression), `export RUN DEST` a bundle's artifacts, "
                    "or `gc [RUN...]` to drop runs and sweep orphaned "
                    "objects. Run ids may be unique prefixes.",
    )
    def runs_options(q, default) -> None:
        q.add_argument("--store", default=default(DEFAULT_STORE_ROOT), metavar="DIR",
                       help=f"run-store root (default {DEFAULT_STORE_ROOT})")
        q.add_argument("--threshold", type=float,
                       default=default(KINDS["runs"].params["threshold"]),
                       help="compare: relative tolerance on summary metrics")
        q.add_argument("--format", default=default("table"),
                       choices=("table", "json", "ids"),
                       help="ids applies to `list` (one run id per line)")
        q.add_argument("--out", metavar="PATH", default=default(None),
                       help="compare: also write the JSON report to PATH")

    p = _add_actions(
        p, ("list", "show", "compare", "gc", "export"), runs_options
    )
    p.add_argument("refs", nargs="*", metavar="RUN",
                   help="run ids/prefixes (show: RUN; compare: BASE TARGET; "
                        "export: RUN DEST; gc: runs to remove first)")
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser("experiment", help="regenerate one paper figure/table")
    p.add_argument("experiment")
    p.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_experiment)

    sub.add_parser("experiments", help="list experiment ids").set_defaults(
        fn=cmd_experiments
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    # Provenance stamping records the exact invocation in the bundle
    # manifest and the journal header only: capture documents, whose bytes
    # the run id digests, carry the stamp without argv.
    args._argv = tuple(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early — not an error.
        # close() can only fail with the OS re-raising the broken pipe
        # (OSError) or the stream already being closed (ValueError).
        try:
            sys.stdout.close()
        except (OSError, ValueError):
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
