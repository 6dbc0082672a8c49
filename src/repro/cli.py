"""Command-line interface.

Usage examples::

    python -m repro list-workloads
    python -m repro profile mobilenet-cifar10
    python -m repro train lr-higgs --budget 2.0 --method ce-scaling
    python -m repro train lr-higgs --telemetry out.json --trace out.trace.json
    python -m repro report out.json
    python -m repro diagnose lr-higgs --budget 2.0
    python -m repro diagnose out.json --trace out.trace.json --format json
    python -m repro tune lr-higgs --trials 256 --budget-multiple 1.3
    python -m repro train lr-higgs --timeseries ts.json
    python -m repro dash --replay ts.json
    python -m repro timeseries diff base.json target.json
    python -m repro experiment fig09 --scale small
    python -m repro experiments
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from repro.common.errors import ReproError, SLOError
from repro.common.types import StorageKind
from repro.common.units import format_duration, format_usd
from repro.ml.models import WORKLOADS, workload
from repro.runs.store import DEFAULT_STORE_ROOT
from repro.telemetry.exporters import from_json_payload
from repro.telemetry.report import RunReport
from repro.telemetry.session import TelemetrySession
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

    Every subcommand that loads a versioned artifact (report, diagnose,
    profile --diff/--validate, timeseries diff|validate, dash --replay,
    runs ...) routes its failures here so the contract stays pinned in
    one place.
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


def _save_store(args) -> str | None:
    """The --save-run store root, or None when the flag was not given."""
    return getattr(args, "save_run", None)


def _session(args, command: str) -> TelemetrySession:
    """Telemetry capture scoped to one CLI command (no-op without flags).

    ``--save-run`` forces the collectors on (without file writes) so the
    bundle saver can snapshot them after exit.
    """
    return TelemetrySession(
        metrics_path=getattr(args, "telemetry", None),
        trace_path=getattr(args, "trace", None),
        meta=_stamp(args, command),
        force_install=bool(_save_store(args)),
    )


def _slo_session(args, command: str):
    """SLO guarding scoped to one CLI command (inert without flags)."""
    from repro.slo import SLOSession

    return SLOSession(
        spec=getattr(args, "slo", None),
        events_path=getattr(args, "events", None),
        meta=_stamp(args, command),
        force_log=bool(_save_store(args)),
    )


def _finish_slo(slo) -> int:
    """Print the guard's report after a run; 1 if any SLO was violated."""
    if slo.guard is None:
        return 0
    from repro.slo import evaluate_guard

    report = evaluate_guard(slo.guard, meta=slo.meta)
    print()
    print(report.render())
    return 1 if report.violated else 0


def _add_slo_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--slo", metavar="SPEC",
        help="guard the run against a repro-slo/v1 spec file; prints the "
             "SLO report and exits 1 on violation",
    )
    parser.add_argument(
        "--events", metavar="PATH",
        help="write the repro-events/v1 JSONL event log to PATH",
    )


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--faults", metavar="PLAN",
        help="inject faults from a repro-faults/v1 plan file and enable "
             "the resilience layer (retries, checkpoints, replanning)",
    )
    parser.add_argument(
        "--fault-report", metavar="PATH",
        help="write the fault/recovery ledger as repro-faults-report/v1 "
             "JSON to PATH",
    )


def _fault_plan(args):
    """The FaultPlan named by --faults, or None (raises on a bad file)."""
    path = getattr(args, "faults", None)
    if not path:
        return None
    from repro.faults import FaultPlan

    return FaultPlan.load(path)


def _finish_faults(args, ledger, plan, command: str) -> None:
    """Print the one-line fault summary; write --fault-report if asked."""
    if ledger is None:
        return
    s = ledger.summary()
    print(
        f"faults : {s['n_faults']} injected, {s['n_recoveries']} recovery "
        f"action(s); lost {format_duration(s['fault_time_s'])}, recovery "
        f"overhead {format_duration(s['recovery_time_s'])}"
    )
    out = getattr(args, "fault_report", None)
    if out:
        Path(out).write_text(
            ledger.to_json(
                plan.to_payload() if plan is not None else None,
                meta=_stamp(args, command),
            )
        )


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry", metavar="PATH",
        help="write JSON telemetry (metrics + run summary) to PATH; "
             "inspect later with `repro report PATH`",
    )
    parser.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace (load in Perfetto) to PATH",
    )


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile", metavar="PATH",
        help="profile the run's hot paths; write the repro-profile/v1 "
             "capture to PATH (diff later with `repro profile --diff`)",
    )
    parser.add_argument(
        "--flamegraph", metavar="PATH",
        help="write a collapsed-stack flamegraph (flamegraph.pl / inferno "
             "/ speedscope input) to PATH",
    )


def _profile_session(args, command: str):
    """Hot-path profiling scoped to one CLI command (inert without flags)."""
    from repro.profiling.session import ProfileSession

    return ProfileSession(
        profile_path=getattr(args, "profile", None),
        flamegraph_path=getattr(args, "flamegraph", None),
        meta=_stamp(args, command),
    )


def _finish_profile(args, prof) -> None:
    """Report capture paths; merge profiler frames into a --trace file.

    Runs after the telemetry session has written the Chrome trace, so the
    profiler's host-time spans are appended to the finished document.
    """
    if prof.profiler is None:
        return
    trace = getattr(args, "trace", None)
    if trace:
        from repro.profiling import augment_chrome_trace

        path = Path(trace)
        path.write_text(augment_chrome_trace(path.read_text(), prof.profiler))
    totals = prof.payload()["totals"]
    wrote = [str(p) for p in (prof.profile_path, prof.flamegraph_path) if p]
    print(
        f"profile : {totals['n_frames']} frame(s), {totals['n_calls']} "
        f"call(s) -> {', '.join(wrote)}"
    )


def _add_timeseries_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeseries", metavar="PATH",
        help="sample resource time-series (concurrency, warm pool, storage "
             "bandwidth, cost, ...) on the simulated clock; write the "
             "repro-timeseries/v1 capture to PATH (view with `repro dash "
             "--replay PATH`)",
    )


def _timeseries_session(args, command: str):
    """Time-series sampling scoped to one CLI command (inert without flags).

    Must enter *after* the SLO session so a live event bus is already
    installed when the sampler subscribes its marker hook.
    """
    from repro.timeseries import TimeSeriesSession

    return TimeSeriesSession(
        capture_path=getattr(args, "timeseries", None),
        meta=_stamp(args, command),
        force_install=bool(_save_store(args)),
    )


def _peaks(summary: dict, tser) -> dict:
    """Attach high-water marks to a run summary when sampling was live.

    Sampler-off runs keep their exact pre-existing telemetry bytes; the
    ``peaks`` block only exists when ``--timeseries`` was given.
    """
    if tser.sampler is not None:
        from repro.timeseries import peaks_summary

        summary["peaks"] = peaks_summary(tser.sampler)
    return summary


def _finish_timeseries(tser) -> None:
    """One-line confirmation of what the sampler captured and wrote."""
    if tser.sampler is None or tser.capture_path is None:
        return
    sampler = tser.sampler
    print(
        f"timeseries : {len(sampler.series)} series, "
        f"{sampler.n_points()} point(s), {len(sampler.markers)} marker(s) "
        f"-> {tser.capture_path}"
    )


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--save-run", nargs="?", const=DEFAULT_STORE_ROOT, metavar="STORE",
        help="bundle every enabled capture (plus telemetry, trace, events "
             "and timeseries, forced on) into the content-addressed run "
             f"store (default {DEFAULT_STORE_ROOT}); inspect with "
             "`repro runs list|show|compare`",
    )


def _save_run_bundle(
    args, command: str, session, slo, prof, tser, ledger=None, plan=None
) -> None:
    """The ``--save-run`` ride-along: snapshot the sessions into the store."""
    store_root = _save_store(args)
    if not store_root:
        return
    from repro.runs import RunStore, save_run

    bundle = save_run(
        RunStore(store_root),
        _stamp(args, command),
        telemetry=session,
        slo=slo,
        profile=prof,
        timeseries=tser,
        fault_ledger=ledger,
        fault_plan=plan,
    )
    print(
        f"run    : {bundle.run_id} ({len(bundle.artifacts)} artifact(s)) "
        f"-> {store_root}"
    )


def cmd_list_workloads(_args) -> int:
    print(f"{'name':20s} {'model MB':>10s} {'dataset MB':>12s} "
          f"{'batch':>8s} {'target loss':>12s}")
    for name, w in sorted(WORKLOADS.items()):
        print(f"{name:20s} {w.model_mb:>10.3f} {w.dataset_mb:>12.0f} "
              f"{w.batch_size:>8d} {w.target_loss:>12.3f}")
    return 0


def _profile_diff(args) -> int:
    """``repro profile --diff BASE TARGET``: per-frame deltas; 1 on regression."""
    from repro.profiling import (
        diff_captures,
        diff_to_json,
        has_regressions,
        load_capture,
        render_diff,
    )

    base_path, target_path = args.diff
    try:
        base = load_capture(Path(base_path).read_text())
        target = load_capture(Path(target_path).read_text())
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("profile", exc)
    report = diff_captures(
        base, target, threshold=args.threshold, min_s=args.min_s,
        meta={"base": base_path, "target": target_path},
    )
    if args.out:
        Path(args.out).write_text(diff_to_json(report))
    if args.format == "json":
        print(diff_to_json(report), end="")
    else:
        print(render_diff(report))
    return 1 if has_regressions(report) else 0


def _profile_validate(args) -> int:
    """``repro profile --validate PATH``: check a capture's schema contract."""
    from repro.profiling import load_capture
    from repro.analysis.rules.schema import SCHEMA_KEYS

    try:
        payload = load_capture(Path(args.validate).read_text())
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("profile", exc)
    # Belt and braces: the capture must also match the REP006 registry's
    # pinned key set, so a drifted registry fails loudly here, not in lint.
    expected = SCHEMA_KEYS.get(payload["schema"])
    if expected is None or set(payload) != expected:
        print(
            f"repro profile: capture keys {sorted(payload)} disagree with "
            f"the REP006 registry entry for {payload['schema']!r}",
            file=sys.stderr,
        )
        return 2
    totals = payload["totals"]
    print(
        f"valid {payload['schema']} capture: {totals['n_frames']} frame(s), "
        f"{totals['n_calls']} call(s), "
        f"{format_duration(totals['wall_s'])} attributed"
    )
    return 0


def _profile_run(args) -> int:
    """``repro profile WORKLOAD --run MODE``: profile one entry point."""
    from repro.profiling import render_capture
    from repro.profiling.session import ProfileSession

    if not args.workload:
        print(
            f"repro profile: --run {args.run} needs a workload name",
            file=sys.stderr,
        )
        return 2
    prof = ProfileSession(
        profile_path=args.out,
        flamegraph_path=args.flamegraph,
        sample_memory=args.memory,
        force_install=True,
        meta=_stamp(args, f"profile --run {args.run}"),
    )
    try:
        with prof:
            if args.run == "train":
                w = workload(args.workload)
                wprofile = profile_workload(
                    w, storage_pin=_parse_storage(args.storage)
                )
                env = training_envelope(w, wprofile)
                budget = (
                    args.budget if args.budget is not None
                    else env.budget(args.budget_multiple or 2.5)
                )
                run_training(
                    w, method=args.method,
                    objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=args.seed, profile=wprofile,
                    storage_pin=_parse_storage(args.storage),
                )
            elif args.run == "tune":
                w = workload(args.workload)
                spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
                wprofile = profile_workload(w)
                env = tuning_envelope(wprofile, spec)
                budget = (
                    args.budget if args.budget is not None
                    else env.budget(args.budget_multiple or 1.3)
                )
                run_tuning(
                    w, spec, method=args.method,
                    objective=Objective.MIN_JCT_GIVEN_BUDGET,
                    budget_usd=budget, seed=args.seed, profile=wprofile,
                )
            else:  # workflow
                from repro.workflow.campaign import run_workflow

                spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
                run_workflow(
                    args.workload, spec,
                    budget_usd=args.budget if args.budget is not None else 25.0,
                    tuning_fraction=args.tuning_fraction, seed=args.seed,
                )
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro profile: {exc}", file=sys.stderr)
        return 2
    print(render_capture(prof.payload(), top=args.top))
    return 0


def cmd_profile(args) -> int:
    if args.diff:
        return _profile_diff(args)
    if args.validate:
        return _profile_validate(args)
    if args.run:
        return _profile_run(args)
    if not args.workload:
        print(
            "repro profile: a workload name is required unless --diff or "
            "--validate is given",
            file=sys.stderr,
        )
        return 2
    try:
        w = workload(args.workload)
    except ReproError as exc:
        return _capture_error("profile", exc)
    profile = profile_workload(w, storage_pin=_parse_storage(args.storage))
    print(f"{len(profile.all_points)} feasible allocations, "
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


def cmd_train(args, journal=None) -> int:
    try:
        w = workload(args.workload)
        slo = _slo_session(args, "train")
        plan = _fault_plan(args)
        journal_path = getattr(args, "journal", None)
        if journal is None and journal_path:
            from repro.kernel import RunJournal

            journal = RunJournal.create(
                journal_path, run=_journal_header(args, "train")
            )
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("train", exc)
    prof = _profile_session(args, "train")
    tser = _timeseries_session(args, "train")
    with _session(args, "train") as session, slo, prof, tser:
        profile = profile_workload(w, storage_pin=_parse_storage(args.storage))
        env = training_envelope(w, profile)
        if args.qos_multiple is not None:
            objective = Objective.MIN_COST_GIVEN_QOS
            budget, qos = None, env.qos(args.qos_multiple)
            print(f"objective: min cost, QoS {format_duration(qos)}")
        else:
            objective = Objective.MIN_JCT_GIVEN_BUDGET
            budget = (
                args.budget if args.budget is not None
                else env.budget(args.budget_multiple)
            )
            qos = None
            print(f"objective: min JCT, budget {format_usd(budget)}")
        run = run_training(
            w, method=args.method, objective=objective, budget_usd=budget,
            qos_s=qos, seed=args.seed, profile=profile,
            storage_pin=_parse_storage(args.storage),
            fault_plan=plan,
            journal=journal,
        )
        r = run.result
        session.set_run_summary(
            _peaks(
                {
                    "jct_s": r.jct_s,
                    "cost_usd": r.cost_usd,
                    "converged": r.converged,
                    "n_epochs": len(r.epochs),
                    "n_restarts": r.n_restarts,
                    "comm_overhead_s": r.comm_overhead_s,
                    "scheduling_overhead_s": r.scheduling_overhead_s,
                    "storage_cost_usd": r.storage_cost_usd,
                    # Constraint context, so `repro diagnose` on this capture
                    # can re-judge the scheduler's decisions (ex-post regret).
                    "objective": objective.value,
                    "budget_usd": budget,
                    "qos_s": qos,
                },
                tser,
            )
        )
    print(f"method={args.method}  converged={r.converged}  "
          f"epochs={len(r.epochs)}  restarts={r.n_restarts}")
    print(f"JCT  {format_duration(r.jct_s)}   cost {format_usd(r.cost_usd)}")
    print(f"comm {format_duration(r.comm_overhead_s)}   "
          f"storage {format_usd(r.storage_cost_usd)}   "
          f"scheduling {format_duration(r.scheduling_overhead_s)}")
    _finish_faults(args, run.fault_ledger, plan, "train")
    _finish_profile(args, prof)
    _finish_timeseries(tser)
    _save_run_bundle(
        args, "train", session, slo, prof, tser,
        ledger=run.fault_ledger, plan=plan,
    )
    if journal is not None:
        # Commit only after the bundle is durable: an interrupted save
        # leaves the journal resumable, and resume regenerates the exact
        # same bundle (content-addressed store; identical bytes dedup).
        journal.commit(
            {"jct_s": r.jct_s, "cost_usd": r.cost_usd,
             "n_epochs": len(r.epochs), "converged": r.converged}
        )
        journal.close()
        print(f"journal: {len(r.epochs)} epoch boundary(ies) committed")
    return _finish_slo(slo)


def cmd_resume(args) -> int:
    """``repro resume JOURNAL``: continue an interrupted journaled run.

    Reopens the write-ahead log (truncating any torn tail the crash left),
    re-executes the run from its journal header under the original argv,
    validates every replayed epoch boundary against the journaled prefix,
    and continues past it — finishing to the same run id and the same
    deterministic-artifact bytes as an uninterrupted run.
    """
    from repro.kernel import RunJournal

    try:
        journal = RunJournal.open_resume(args.journal)
    except (OSError, ReproError) as exc:
        return _capture_error("resume", exc)
    run = journal.header.get("run") or {}
    command = run.get("command")
    if command != "train":
        print(
            f"repro resume: journal command {command!r} is not resumable",
            file=sys.stderr,
        )
        journal.close()
        return 2
    if journal.committed and not args.force:
        print(
            f"journal: already committed ({journal.n_epochs_journaled} epoch "
            "boundary(ies)); nothing to resume (use --force to re-execute)"
        )
        journal.close()
        return 0
    saved = dict(run.get("args") or {})
    saved.pop("fn", None)
    saved["_argv"] = tuple(saved.get("_argv") or ())
    print(
        f"resume : replaying {journal.n_epochs_journaled} journaled epoch "
        f"boundary(ies) from {args.journal}"
    )
    with journal:
        return cmd_train(argparse.Namespace(**saved), journal=journal)


def cmd_tune(args) -> int:
    try:
        w = workload(args.workload)
        spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
        slo = _slo_session(args, "tune")
        plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("tune", exc)
    prof = _profile_session(args, "tune")
    tser = _timeseries_session(args, "tune")
    with _session(args, "tune") as session, slo, prof, tser:
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
        session.set_run_summary(
            _peaks(
                {
                    "jct_s": r.jct_s,
                    "cost_usd": r.cost_usd,
                    "comm_overhead_s": r.comm_overhead_s,
                    "scheduling_overhead_s": r.scheduling_overhead_s,
                    "n_stages": len(r.stages),
                },
                tser,
            )
        )
    print(f"SHA {spec.n_trials} trials / {spec.n_stages} stages; "
          f"budget {format_usd(budget)}")
    print(f"method={args.method}  JCT {format_duration(r.jct_s)}  "
          f"cost {format_usd(r.cost_usd)}")
    print(f"winner: lr={r.winner.learning_rate:.2e} "
          f"momentum={r.winner.momentum:.2f} (quality {r.winner.quality:.2f})")
    _finish_faults(args, run.fault_ledger, plan, "tune")
    _finish_profile(args, prof)
    _finish_timeseries(tser)
    _save_run_bundle(
        args, "tune", session, slo, prof, tser,
        ledger=run.fault_ledger, plan=plan,
    )
    return _finish_slo(slo)


def cmd_workflow(args) -> int:
    from repro.workflow.campaign import run_workflow

    try:
        workload(args.workload)  # an unknown name fails here, not mid-run
        spec = SHASpec(args.trials, args.eta, args.epochs_per_stage)
        slo = _slo_session(args, "workflow")
        plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("workflow", exc)
    prof = _profile_session(args, "workflow")
    tser = _timeseries_session(args, "workflow")
    with _session(args, "workflow") as session, slo, prof, tser:
        result = run_workflow(
            args.workload, spec, budget_usd=args.budget,
            tuning_fraction=args.tuning_fraction, seed=args.seed,
            fault_plan=plan,
        )
        session.set_run_summary(
            _peaks(
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
                tser,
            )
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
    _finish_faults(args, result.fault_ledger, plan, "workflow")
    _finish_profile(args, prof)
    _finish_timeseries(tser)
    _save_run_bundle(
        args, "workflow", session, slo, prof, tser,
        ledger=result.fault_ledger, plan=plan,
    )
    return _finish_slo(slo)


def cmd_report(args) -> int:
    try:
        payload = from_json_payload(Path(args.path).read_text())
    except (OSError, ValueError) as exc:
        return _capture_error("report", exc)
    if args.format == "prometheus":
        from repro.telemetry.exporters import payload_to_snapshots, to_prometheus_text

        print(to_prometheus_text(payload_to_snapshots(payload["metrics"])), end="")
    elif args.format == "json":
        print(RunReport.from_payload(payload).to_json(), end="")
    else:
        print(RunReport.from_payload(payload).render())
    return 0


def cmd_dash(args) -> int:
    """``repro dash``: terminal dashboard, from a live run or a capture."""
    from repro.timeseries import TimeSeriesSession, load_capture, render_dashboard

    if args.replay:
        try:
            payload = load_capture(Path(args.replay).read_text())
        except (OSError, ValueError, ReproError) as exc:
            return _capture_error("dash", exc)
        print(render_dashboard(payload, width=args.width), end="")
        return 0
    if not args.workload:
        print(
            "repro dash: a workload name is required unless --replay is given",
            file=sys.stderr,
        )
        return 2
    try:
        plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro dash: {exc}", file=sys.stderr)
        return 2
    tser = TimeSeriesSession(
        capture_path=args.out,
        force_install=True,
        meta=_stamp(args, "dash"),
    )
    try:
        with tser:
            w = workload(args.workload)
            profile = profile_workload(w)
            env = training_envelope(w, profile)
            budget = (
                args.budget if args.budget is not None
                else env.budget(args.budget_multiple)
            )
            run_training(
                w, method=args.method,
                objective=Objective.MIN_JCT_GIVEN_BUDGET,
                budget_usd=budget, seed=args.seed, profile=profile,
                fault_plan=plan,
            )
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro dash: {exc}", file=sys.stderr)
        return 2
    print(render_dashboard(tser.payload(), width=args.width), end="")
    return 0


def cmd_timeseries(args) -> int:
    """``repro timeseries``: validate and diff saved captures."""
    from repro.timeseries import (
        diff_captures,
        diff_to_json,
        has_drift,
        load_capture,
        render_diff,
    )

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
        # Belt and braces, as in `repro profile --validate`: the capture
        # must also match the REP006 registry's pinned key set.
        from repro.analysis.rules.schema import SCHEMA_KEYS

        expected = SCHEMA_KEYS.get(payload["schema"])
        if expected is None or set(payload) != expected:
            print(
                f"repro timeseries: capture keys {sorted(payload)} disagree "
                f"with the REP006 registry entry for {payload['schema']!r}",
                file=sys.stderr,
            )
            return 2
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
    base_path, target_path = args.paths
    try:
        base = load_capture(Path(base_path).read_text())
        target = load_capture(Path(target_path).read_text())
    except (OSError, ValueError, ReproError) as exc:
        return _capture_error("timeseries", exc)
    report = diff_captures(
        base, target, threshold=args.threshold,
        meta={"base": base_path, "target": target_path},
    )
    if args.out:
        Path(args.out).write_text(diff_to_json(report))
    if args.format == "json":
        print(diff_to_json(report), end="")
    else:
        print(render_diff(report))
    return 1 if has_drift(report) else 0


def cmd_diagnose(args) -> int:
    import json

    from repro.diagnostics import RunObservation, diagnose
    from repro.telemetry import get_registry, set_registry
    from repro.telemetry.metrics import MetricsRegistry

    slo_spec = None
    if getattr(args, "slo", None):
        from repro.slo import SLOSpec

        try:
            slo_spec = SLOSpec.load(args.slo)
        except (OSError, ValueError, SLOError) as exc:
            print(f"repro diagnose: {exc}", file=sys.stderr)
            return 2
    try:
        fault_plan = _fault_plan(args)
    except (OSError, ValueError, ReproError) as exc:
        print(f"repro diagnose: {exc}", file=sys.stderr)
        return 2
    faults_summary = None
    ts_payload = None
    target = Path(args.target)
    candidates = None
    if target.exists():
        # Capture mode: a telemetry JSON written by --telemetry, plus
        # (optionally) the matching Chrome trace for the epoch timeline.
        try:
            payload = from_json_payload(target.read_text())
            trace = json.loads(Path(args.trace).read_text()) if args.trace else None
            obs = RunObservation.from_capture(payload, trace)
        except (OSError, ValueError) as exc:
            return _capture_error("diagnose", exc)
        if getattr(args, "timeseries", None):
            # Capture mode: --timeseries names a saved repro-timeseries/v1
            # capture; its series feed the anomaly detector.
            from repro.timeseries import load_capture

            try:
                ts_payload = load_capture(Path(args.timeseries).read_text())
            except (OSError, ValueError, ReproError) as exc:
                return _capture_error("diagnose", exc)
    elif target.suffix in (".json", ".jsonl") or "/" in args.target:
        # Looks like a capture path, not a workload name: don't fall
        # through to live mode on a typo'd filename.
        print(
            f"repro diagnose: capture file {args.target} does not exist",
            file=sys.stderr,
        )
        return 2
    else:
        # Live mode: run the training job here, then diagnose it in full
        # fidelity (per-worker timings, restart split, Pareto candidates).
        try:
            w = workload(args.target)
        except ReproError as exc:
            return _capture_error("diagnose", exc)
        profile = profile_workload(w, storage_pin=_parse_storage(args.storage))
        env = training_envelope(w, profile)
        if args.qos_multiple is not None:
            objective = Objective.MIN_COST_GIVEN_QOS
            budget, qos = None, env.qos(args.qos_multiple)
        else:
            objective = Objective.MIN_JCT_GIVEN_BUDGET
            budget = (
                args.budget if args.budget is not None
                else env.budget(args.budget_multiple)
            )
            qos = None
        registry = MetricsRegistry()
        prev = get_registry()
        set_registry(registry)
        # Live mode: --timeseries samples this run and writes the capture
        # to that path; the fresh series feed the anomaly detector.
        from repro.timeseries import TimeSeriesSession

        tser = TimeSeriesSession(
            capture_path=getattr(args, "timeseries", None),
            meta=_stamp(args, "diagnose", workload_name=args.target),
        )
        try:
            with tser:
                run = run_training(
                    w, method=args.method, objective=objective,
                    budget_usd=budget,
                    qos_s=qos, seed=args.seed, profile=profile,
                    storage_pin=_parse_storage(args.storage),
                    straggler_factors=dict(args.straggler),
                    fault_plan=fault_plan,
                )
        finally:
            set_registry(prev)
        if tser.sampler is not None:
            ts_payload = tser.payload()
        obs = RunObservation.from_training_run(run, registry=registry)
        candidates = run.profile.candidates
        faults_summary = run.result.extra.get("faults")
    if faults_summary is None and getattr(args, "fault_report", None):
        # A saved repro-faults-report/v1 (written with --fault-report on
        # the original run) supplies the attribution for capture mode.
        try:
            payload = json.loads(Path(args.fault_report).read_text())
            faults_summary = dict(payload.get("summary") or {})
        except (OSError, ValueError) as exc:
            return _capture_error("diagnose", exc)
    report = diagnose(
        obs, candidates=candidates, top_k=args.top_k, z=args.z,
        drift_threshold=args.drift_threshold, slo_spec=slo_spec,
        faults=faults_summary, timeseries=ts_payload,
    )
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.render())
    return 0


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


def _run_guarded(spec, args):
    """Run one training job under the guard; returns the SLO report."""
    from repro.slo import SLOSession, evaluate_guard

    w = workload(args.workload)
    profile = profile_workload(w)
    env = training_envelope(w, profile)
    budget = (
        args.budget if args.budget is not None
        else env.budget(args.budget_multiple)
    )
    session = SLOSession(
        spec=spec,
        events_path=getattr(args, "events", None),
        meta=_stamp(args, "slo"),
    )
    with session:
        run_training(
            w, method=args.method, objective=Objective.MIN_JCT_GIVEN_BUDGET,
            budget_usd=budget, seed=args.seed, profile=profile,
        )
    return evaluate_guard(session.guard, meta=session.meta)


def cmd_slo(args) -> int:
    from repro.slo import SLOSpec

    try:
        spec = SLOSpec.load(args.spec)
        if args.capture:
            report = _evaluate_capture(spec, args.capture)
        elif args.workload:
            report = _run_guarded(spec, args)
        else:
            raise SLOError("provide --capture PATH or a workload name to run")
    except (OSError, ValueError, SLOError) as exc:
        print(f"repro slo: {exc}", file=sys.stderr)
        return 2
    if args.out:
        Path(args.out).write_text(report.to_json())
    if args.format == "json":
        print(report.to_json(), end="")
    else:
        print(report.render())
    return 1 if report.violated else 0


def cmd_faults(args) -> int:
    import json

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
        payload = json.loads(Path(args.path).read_text())
        ledger = FaultLedger.from_payload(payload)
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
    from repro.runs import (
        RunStore,
        compare_runs,
        compare_to_json,
        has_regression,
        manifest_to_json,
        render_compare,
        render_manifest,
    )

    store = RunStore(args.store)
    try:
        if args.action == "list":
            manifests = store.list()
            if args.format == "ids":
                for manifest in manifests:
                    print(manifest["run_id"])
                return 0
            if args.format == "json":
                import json

                print(
                    json.dumps(manifests, indent=2, sort_keys=True)
                )
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
            report = compare_runs(
                store, args.refs[0], args.refs[1], threshold=args.threshold
            )
            if args.out:
                Path(args.out).write_text(compare_to_json(report))
            if args.format == "json":
                print(compare_to_json(report), end="")
            else:
                print(render_compare(report))
            return 1 if has_regression(report) else 0
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


def cmd_lint(args) -> int:
    # Imported lazily: the analysis package is pure stdlib but only the
    # lint subcommand needs it.
    from repro import analysis
    from repro.common.errors import AnalysisError

    catalogue = analysis.all_rules()
    if args.flow:
        catalogue = catalogue + analysis.flow_rules()
    by_id = {r.rule_id: r for r in catalogue}
    flow_ids = set(analysis.flow_rules_by_id())

    def pick(spec: str | None) -> set[str]:
        if not spec:
            return set()
        ids = {part.strip().upper() for part in spec.split(",") if part.strip()}
        unknown = sorted(ids - by_id.keys())
        if unknown:
            raise SystemExit(
                f"repro lint: unknown rule id(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(by_id))})"
            )
        return ids

    selected = pick(args.select) or set(by_id)
    selected -= pick(args.ignore)
    rules = [r for r in catalogue if r.rule_id in selected]

    if args.list_rules:
        print(analysis.render_rule_list(rules))
        return 0

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        analyzer = analysis.Analyzer(
            [r for r in rules if r.rule_id not in flow_ids]
        )
        result = analyzer.analyze_paths(paths)
        if args.flow:
            flow_result = analysis.analyze_flow(paths, select=selected)
            # REP000 would double-report: the per-file walker already
            # surfaced any syntax errors on this same path list.
            result.findings.extend(
                f for f in flow_result.findings if f.rule != "REP000"
            )
            result.findings.sort(key=analysis.Finding.sort_key)
            result.suppressed += flow_result.suppressed

        if args.write_baseline:
            target = Path(args.baseline) if args.baseline else (
                Path.cwd() / analysis.DEFAULT_BASELINE_NAME
            )
            analysis.Baseline.from_findings(result.findings).save(target)
            print(
                f"wrote {len(result.findings)} finding(s) to baseline {target}"
            )
            return 0

        if args.no_baseline:
            baseline = analysis.Baseline.empty()
        else:
            found = analysis.find_baseline(
                Path(paths[0]), explicit=args.baseline
            )
            baseline = (
                analysis.Baseline.load(found)
                if found is not None
                else analysis.Baseline.empty()
            )
        new, baselined = baseline.apply(result.findings)
    except AnalysisError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(analysis.to_json(result, rules, new, baselined), end="")
    else:
        print(analysis.render_table(result, new, baselined))
    return 1 if new else 0


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_analyze(args) -> int:
    # Lazy import, same as cmd_lint: only this subcommand needs analysis.
    from repro import analysis
    from repro.common.errors import AnalysisError

    paths = args.paths or [str(Path(__file__).resolve().parent)]
    try:
        if args.target == "graph":
            index, errors, _, _ = analysis.build_index(paths)
            graph = analysis.build_callgraph(index)
            if args.format == "dot":
                _emit(analysis.callgraph_to_dot(graph), args.out)
            else:
                _emit(analysis.callgraph_to_json(graph), args.out)
            for finding in errors:
                print(
                    f"{finding.path}:{finding.line}: {finding.message}",
                    file=sys.stderr,
                )
            return 1 if errors else 0

        result = analysis.analyze_flow(paths)
        if args.no_baseline:
            baseline = analysis.Baseline.empty()
        else:
            found = analysis.find_baseline(
                Path(paths[0]), explicit=args.baseline
            )
            baseline = (
                analysis.Baseline.load(found)
                if found is not None
                else analysis.Baseline.empty()
            )
        new, baselined = baseline.apply(result.findings)
    except AnalysisError as exc:
        print(f"repro analyze: {exc}", file=sys.stderr)
        return 2

    rules = analysis.flow_rules()
    if args.format == "json":
        print(analysis.to_json(result, rules, new, baselined), end="")
    else:
        print(analysis.render_table(result, new, baselined))
    return 1 if new else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CE-scaling reproduction (IPDPS 2023): profile, train, "
                    "tune, and regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-workloads", help="show the Table IV workloads").set_defaults(
        fn=cmd_list_workloads
    )

    p = sub.add_parser(
        "profile",
        help="Pareto boundary, hot-path profiling runs, and profile diffs",
        description="Without flags, print WORKLOAD's Pareto boundary. With "
                    "--run MODE, execute that entry point under the "
                    "deterministic hot-path profiler and print the frame "
                    "table (write the repro-profile/v1 capture with --out). "
                    "--diff compares two saved captures (exit 1 when a "
                    "frame regressed past --threshold); --validate checks "
                    "a capture against the schema registry.",
    )
    p.add_argument("workload", nargs="?",
                   help="workload name (omit with --diff / --validate)")
    p.add_argument("--storage", choices=[s.value for s in StorageKind])
    p.add_argument("--run", choices=("train", "tune", "workflow"),
                   help="profile this entry point on WORKLOAD")
    p.add_argument("--out", metavar="PATH",
                   help="write the repro-profile/v1 capture (--run) or the "
                        "repro-profile-diff/v1 report (--diff) to PATH")
    p.add_argument("--flamegraph", metavar="PATH",
                   help="write a collapsed-stack flamegraph to PATH (--run)")
    p.add_argument("--memory", action="store_true",
                   help="also sample tracemalloc peak memory per frame")
    p.add_argument("--top", type=int, default=20,
                   help="frame-table rows to print (0 = all)")
    p.add_argument("--diff", nargs=2, metavar=("BASE", "TARGET"),
                   help="compare two saved repro-profile/v1 captures")
    p.add_argument("--validate", metavar="PATH",
                   help="validate a saved capture against the schema registry")
    p.add_argument("--threshold", type=float, default=1.2,
                   help="--diff: flag frames slower than BASE by this ratio")
    p.add_argument("--min-s", type=float, default=0.001,
                   help="--diff: ignore timing deltas on frames whose base "
                        "time is below this (timer noise)")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--method", default="ce-scaling",
                   help="training/tuning method for --run")
    p.add_argument("--budget", type=_positive("--budget"), help="absolute budget in USD")
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"),
                   help="budget as a multiple of the cheapest spend "
                        "(default: train 2.5, tune 1.3)")
    p.add_argument("--trials", type=int, default=32)
    p.add_argument("--eta", type=int, default=2)
    p.add_argument("--epochs-per-stage", type=int, default=1)
    p.add_argument("--tuning-fraction", type=_tuning_fraction, default=0.4)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("train", help="run one training job")
    p.add_argument("workload")
    p.add_argument("--method", default="ce-scaling", choices=TRAINING_METHODS)
    p.add_argument("--budget", type=_positive("--budget"), help="absolute budget in USD")
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"), default=2.5,
                   help="budget as multiple of the cheapest possible spend")
    p.add_argument("--qos-multiple", type=_positive("--qos-multiple"),
                   help="switch to cost-min with this deadline multiple")
    p.add_argument("--storage", choices=[s.value for s in StorageKind])
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument(
        "--journal", metavar="PATH",
        help="write the crash-consistent repro-journal/v1 write-ahead log "
             "to PATH; an interrupted run continues with `repro resume`",
    )
    _add_telemetry_flags(p)
    _add_slo_flags(p)
    _add_fault_flags(p)
    _add_profile_flags(p)
    _add_timeseries_flags(p)
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
    _add_telemetry_flags(p)
    _add_slo_flags(p)
    _add_fault_flags(p)
    _add_profile_flags(p)
    _add_timeseries_flags(p)
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
    _add_telemetry_flags(p)
    _add_slo_flags(p)
    _add_fault_flags(p)
    _add_profile_flags(p)
    _add_timeseries_flags(p)
    _add_run_flags(p)
    p.set_defaults(fn=cmd_workflow)

    p = sub.add_parser(
        "report", help="print the breakdown report for a saved telemetry file"
    )
    p.add_argument("path", help="JSON file written by --telemetry")
    p.add_argument("--format", default="table",
                   choices=("table", "json", "prometheus"),
                   help="breakdown tables, versioned JSON, or Prometheus "
                        "text exposition")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "diagnose",
        help="critical path, stragglers, model drift, and regret for a run",
        description="Diagnose a run: TARGET is either a workload name (the "
                    "job runs here, then gets diagnosed) or a telemetry JSON "
                    "file saved with --telemetry (pair with --trace for the "
                    "epoch timeline).",
    )
    p.add_argument("target", metavar="TARGET",
                   help="workload name, or path to a saved telemetry JSON")
    p.add_argument("--trace", metavar="PATH",
                   help="Chrome trace saved alongside the telemetry capture")
    p.add_argument("--method", default="ce-scaling", choices=TRAINING_METHODS)
    p.add_argument("--budget", type=_positive("--budget"), help="absolute budget in USD")
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"), default=2.5)
    p.add_argument("--qos-multiple", type=_positive("--qos-multiple"),
                   help="switch to cost-min with this deadline multiple")
    p.add_argument("--storage", choices=[s.value for s in StorageKind])
    p.add_argument("--seed", type=_seed, default=0)
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
                   help="capture mode: attribute faults from this saved "
                        "repro-faults-report/v1 document")
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
                    "plus event markers. Either replay a saved "
                    "repro-timeseries/v1 capture (--replay) or run a "
                    "training job here under the live sampler (optionally "
                    "writing the capture with --out).",
    )
    p.add_argument("workload", nargs="?",
                   help="workload name for a live sampled run "
                        "(omit with --replay)")
    p.add_argument("--replay", metavar="CAPTURE",
                   help="render a saved repro-timeseries/v1 capture")
    p.add_argument("--out", metavar="PATH",
                   help="live mode: also write the capture to PATH")
    p.add_argument("--width", type=int, default=60,
                   help="sparkline width in characters")
    p.add_argument("--method", default="ce-scaling", choices=TRAINING_METHODS)
    p.add_argument("--budget", type=_positive("--budget"), help="absolute budget in USD")
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"), default=2.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--faults", metavar="PLAN",
                   help="live mode: inject faults from this repro-faults/v1 "
                        "plan so their signatures show on the dashboard")
    p.set_defaults(fn=cmd_dash)

    p = sub.add_parser(
        "timeseries",
        help="validate and diff repro-timeseries/v1 captures",
        description="Work with saved time-series captures: `validate PATH` "
                    "checks the schema contract (exit 2 on a bad capture); "
                    "`diff BASE TARGET` classifies per-series drift "
                    "(identical / level_shift / peak_shift / resampled / "
                    "jitter / divergent) and exits 1 when any series "
                    "drifted past --threshold.",
    )
    p.add_argument("action", choices=("diff", "validate"))
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="one capture (validate) or BASE TARGET (diff)")
    p.add_argument("--threshold", type=float, default=0.05,
                   help="diff: relative drift tolerance on mean/peak/last")
    p.add_argument("--format", default="table", choices=("table", "json"))
    p.add_argument("--out", metavar="PATH",
                   help="diff: also write the JSON report to PATH")
    p.set_defaults(fn=cmd_timeseries)

    p = sub.add_parser(
        "slo",
        help="evaluate an SLO spec against a live run or a saved capture",
        description="Judge a repro-slo/v1 spec: either replay a saved "
                    "capture (--capture pointing at an events.jsonl, a "
                    "telemetry JSON, or a directory holding one) or run a "
                    "training job here under the live guard. Exits 0 when "
                    "every objective is met, 1 on violation, 2 on errors.",
    )
    p.add_argument("workload", nargs="?",
                   help="workload name for a live guarded run "
                        "(omit with --capture)")
    p.add_argument("--spec", required=True, metavar="PATH",
                   help="repro-slo/v1 spec file")
    p.add_argument("--capture", metavar="PATH",
                   help="saved events.jsonl / telemetry JSON / capture dir")
    p.add_argument("--method", default="ce-scaling", choices=TRAINING_METHODS)
    p.add_argument("--budget", type=_positive("--budget"), help="absolute budget in USD")
    p.add_argument("--budget-multiple", type=_positive("--budget-multiple"), default=2.5)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--events", metavar="PATH",
                   help="write the live run's event log to PATH")
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
                    "into a repro-compare/v1 verdict; exit 1 on "
                    "regression), `export RUN DEST` a bundle's artifacts, "
                    "or `gc [RUN...]` to drop runs and sweep orphaned "
                    "objects. Run ids may be unique prefixes.",
    )
    p.add_argument("action",
                   choices=("list", "show", "compare", "gc", "export"))
    p.add_argument("refs", nargs="*", metavar="RUN",
                   help="run ids/prefixes (show: RUN; compare: BASE TARGET; "
                        "export: RUN DEST; gc: runs to remove first)")
    p.add_argument("--store", default=DEFAULT_STORE_ROOT, metavar="DIR",
                   help=f"run-store root (default {DEFAULT_STORE_ROOT})")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="compare: relative tolerance on summary metrics")
    p.add_argument("--format", default="table",
                   choices=("table", "json", "ids"),
                   help="ids applies to `list` (one run id per line)")
    p.add_argument("--out", metavar="PATH",
                   help="compare: also write the JSON report to PATH")
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser("experiment", help="regenerate one paper figure/table")
    p.add_argument("experiment")
    p.add_argument("--scale", default="small", choices=("tiny", "small", "paper"))
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(fn=cmd_experiment)

    sub.add_parser("experiments", help="list experiment ids").set_defaults(
        fn=cmd_experiments
    )

    p = sub.add_parser(
        "lint",
        help="static determinism & simulation-safety checks (REP001-REP008, "
             "plus REP009-REP013 with --flow)",
        description="AST-based lint for the repository's reproducibility "
                    "invariants: seeded randomness only, no wall-clock in "
                    "simulated packages, event-loop safety, unit-suffix "
                    "consistency, exception hygiene, schema discipline, "
                    "deterministic iteration order, and bounded retries. "
                    "--flow adds the interprocedural passes: clock-domain "
                    "taint, RNG stream hygiene, and schema producer "
                    "cross-checks.",
    )
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze "
                        "(default: the installed repro package)")
    p.add_argument("--select", metavar="IDS",
                   help="comma-separated rule ids to run (default: all)")
    p.add_argument("--ignore", metavar="IDS",
                   help="comma-separated rule ids to skip")
    p.add_argument("--format", default="table", choices=("table", "json"),
                   help="human-readable table or repro-lint/v1 JSON")
    p.add_argument("--baseline", metavar="PATH",
                   help="baseline file (default: nearest lint-baseline.json "
                        "above the first path)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline; report every finding as new")
    p.add_argument("--write-baseline", action="store_true",
                   help="accept all current findings into the baseline file "
                        "and exit 0")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("--flow", action="store_true",
                   help="also run the interprocedural flow rules "
                        "(REP009-REP013)")
    p.set_defaults(fn=cmd_lint)

    p = sub.add_parser(
        "analyze",
        help="whole-program flow analysis: call graph, clock/RNG taint",
        description="Interprocedural analyses over the project call graph. "
                    "'graph' exports the deterministic repro-callgraph/v1 "
                    "document (or DOT); 'taint' runs the clock-domain and "
                    "RNG dataflow rules (REP009-REP011, REP013).",
    )
    p.add_argument("target", choices=("graph", "taint"),
                   help="which analysis to run")
    p.add_argument("paths", nargs="*",
                   help="files or directories to analyze "
                        "(default: the installed repro package)")
    p.add_argument("--format", default="table",
                   choices=("table", "json", "dot"),
                   help="output format (dot applies to 'graph' only; "
                        "'graph' table output falls back to JSON)")
    p.add_argument("--out", metavar="PATH",
                   help="write the document to PATH instead of stdout")
    p.add_argument("--baseline", metavar="PATH",
                   help="baseline file (default: nearest lint-baseline.json "
                        "above the first path)")
    p.add_argument("--no-baseline", action="store_true",
                   help="ignore any baseline; report every finding as new")
    p.set_defaults(fn=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    # Provenance stamping records the exact invocation (informational
    # only: argv never feeds run-id derivation).
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
