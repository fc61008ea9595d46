"""Command-line frontend.

Exit codes: 0 clean, 1 diagnostics / distinguished / violations, 2 usage or
internal error. `--format json` emits machine-readable records carrying every
fact the text mode prints.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

from .classtable import Designations, WellFormednessError, load_table
from .confine import ConfinementMonitor, ConfinementViolation, confine_heap, to_dot
from .corpus import load_corpus, replay
from .coupling import load_sim_manifest, run_sim_manifest
from .equivalence import ComparabilityError, ManifestError, load_manifest, run_manifest
from .interp import LOOP_CAP, MAX_FUEL, Bottom, EntryClassError, HookChain, TraceHooks, collect, format_state, run
from .parser import ParseError
from .safety import safe_table
from .typecheck import check_table


def _load_table(path, args):
    if not args.own and (args.rep or args.rep2):
        raise SystemExit2(f"--{'rep' if args.rep else 'rep2'} requires --own")
    if args.own and not args.rep:
        raise SystemExit2("--own requires --rep")
    return load_table(path, Designations(args.own, args.rep, args.rep2) if args.own else None)


class SystemExit2(Exception):
    pass


class IllTyped(Exception):
    """A program `run` and `dot` will not interpret; the message lists its
    type issues as `check` prints them."""


def _check_head(path, issues):
    return f"{path}: {len(issues)} issue(s)" if issues else f"{path}: ok"


def _load_well_typed(path, args):
    ct = _load_table(path, args)
    issues = check_table(ct).issues
    if issues:
        raise IllTyped("\n".join([_check_head(path, issues)] + [f"  {i.render()}" for i in issues]))
    return ct


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


def _issue_json(path, issue):
    return {
        "file": path,
        "rule": issue.rule,
        "message": issue.message,
        "class": issue.class_name,
        "method": issue.method_name,
        "span": str(issue.span) if issue.span else None,
    }


def _report_files(args, verdict) -> int:
    """Load each file and report what `verdict(path, table)` finds, a headline
    and a list of diagnostics; a file that does not load reports its error.
    JSON mode prints a per-file summary record, then one record per
    diagnostic. A file that cannot be read prints its `error:` line on
    stderr, and the exit code is then 2."""
    failed = unreadable = False
    for path in args.files:
        try:
            ct = _load_table(path, args)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            unreadable = True
            continue
        except (ParseError, WellFormednessError) as exc:
            ok, records, lines = False, [{"file": path, "error": str(exc)}], [f"{path}: {exc}"]
        else:
            head, issues = verdict(path, ct)
            ok, records = not issues, [_issue_json(path, i) for i in issues]
            lines = [head] + [f"  {i.render()}" for i in issues]
        if args.format == "json":
            print(json.dumps({"file": path, "ok": ok}))
            for rec in records:
                print(json.dumps(rec))
        else:
            for line in lines:
                print(line)
        failed = failed or not ok
    return 2 if unreadable else 1 if failed else 0


def cmd_check(args) -> int:
    def verdict(path, ct):
        issues = check_table(ct).issues
        return _check_head(path, issues), issues

    return _report_files(args, verdict)


def cmd_analyze(args) -> int:
    def verdict(path, ct):
        if ct.designations is None:
            raise SystemExit2("analyze requires --own and --rep")
        issues = check_table(ct).issues
        if issues:
            return f"{path}: ill-typed", issues
        diags = safe_table(ct).diagnostics
        return (f"{path}: {len(diags)} diagnostic(s)" if diags else f"{path}: safe"), diags

    return _report_files(args, verdict)


def _parse_entry(spec: str):
    if "." not in spec:
        raise SystemExit2("--entry must look like Class.method")
    return spec.rsplit(".", 1)


def cmd_run(args) -> int:
    ct = _load_well_typed(args.file, args)
    entry_class, entry_method = _parse_entry(args.entry)
    tracer = TraceHooks() if args.trace else None
    monitor = None
    if args.monitor != "off":
        if ct.designations is None:
            raise SystemExit2("--monitor requires --own and --rep")
        monitor = ConfinementMonitor(ct, "every" if args.monitor == "every" else "calls")
    hooks = HookChain(monitor, tracer) if (monitor or tracer) else None
    result = run(ct, entry_class, entry_method, max_fuel=args.max_fuel,
                 loop_cap=args.loop_cap, hooks=hooks)
    violations = monitor.violations if monitor else []
    payload = {"file": args.file, "entry": args.entry, "fuel": result.fuel_used,
               "violations": [v.render() for v in violations],
               "trace": tracer.lines if tracer else None}
    lines = []
    if isinstance(result.outcome, Bottom):
        payload["outcome"] = result.outcome.reason
        payload["detail"] = result.outcome.detail
        lines.append(f"bottom: {result.outcome.reason} ({result.outcome.detail}) at fuel {result.fuel_used}")
        if result.outcome.stack:
            lines.append("  in " + " > ".join(result.outcome.stack))
    else:
        h, eta = collect(*result.outcome)
        payload["outcome"] = "ok"
        payload["state"] = format_state(h, eta)
        lines += [f"ok at fuel {result.fuel_used}", payload["state"]]
    if tracer:
        lines.extend(f"trace: {t}" for t in tracer.lines)
    for v in violations:
        lines.append(f"violation: {v.render()}")
    _emit(args, payload, lines)
    return 1 if violations else 0


def cmd_equiv(args) -> int:
    manifest = load_manifest(args.manifest)
    verdict = run_manifest(manifest)
    payload = verdict.to_json()
    lines = [f"verdict: {verdict.kind} (fuel {verdict.fuel_used})"]
    if verdict.witness:
        lines.append(f"witness: {verdict.witness}")
    if verdict.sigma:
        lines.append("bijection: " + ", ".join(f"{a}->{b}" for a, b in verdict.sigma))
    _emit(args, payload, lines)
    return 0 if verdict.equivalent else 1


def cmd_simtest(args) -> int:
    manifest = load_sim_manifest(args.manifest)
    report = run_sim_manifest(manifest)
    cov = report.method_coverage()
    payload = {
        "coupling": report.coupling,
        "ok": report.ok,
        "note": report.note,
        "vectors": len(report.vectors),
        "failing": len(report.failures()),
        "establishment": [{"class": c, "ok": ok, "message": m} for c, ok, m in report.establishment],
        "methods": {m: {"pass": p, "fail": f} for m, (p, f) in cov.items()},
        "failures": [
            {"fuel": v.fuel, "step": v.failed_at, "message": v.message, "replay": v.replay()}
            for v in report.failures()[:20]
        ],
    }
    lines = [f"coupling {report.coupling}: {'all pass' if report.ok else 'FAILURES'} ({report.note})"]
    for c, ok, m in report.establishment:
        lines.append(f"  establish {c}: {'ok' if ok else 'FAIL ' + m}")
    lines.append(f"  {'method':<16} {'pass':>6} {'fail':>6}")
    for m, (p, f) in cov.items():
        lines.append(f"  {m:<16} {p:>6} {f:>6}")
    for v in report.failures()[:5]:
        lines.append(f"  counterexample at fuel {v.fuel}, step {v.failed_at}: {v.message}")
    _emit(args, payload, lines)
    return 0 if report.ok else 1


def cmd_dot(args) -> int:
    ct = _load_well_typed(args.file, args)
    if ct.designations is None:
        raise SystemExit2("dot requires --own and --rep")
    entry_class, entry_method = _parse_entry(args.entry)
    result = run(ct, entry_class, entry_method, max_fuel=args.max_fuel, loop_cap=args.loop_cap)
    if isinstance(result.outcome, Bottom):
        print(f"cannot render: execution bottomed ({result.outcome.reason})", file=sys.stderr)
        return 1
    h, _ = result.outcome  # uncollected: island structure is the point here
    part = confine_heap(ct, h)
    if isinstance(part, ConfinementViolation):
        print(f"cannot render: final heap is not confined ({part.render()})", file=sys.stderr)
        return 1
    text = to_dot(h, part)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        print(text, end="")
    return 0


def cmd_corpus(args) -> int:
    records = load_corpus()
    if args.action == "list":
        lines = [f"{r.name:28s} own={r.own} rep={r.rep} {r.notes}" for r in records]
        extra = []
        if args.extra:
            if not os.path.isdir(args.extra):
                raise SystemExit2(f"extra corpus directory {args.extra} does not exist")
            extra = sorted(glob.glob(os.path.join(args.extra, "*.jcore")))
            lines += [f"{os.path.basename(p)[:-6]:28s} (extra, no expectations)" for p in extra]
        _emit(args, {"programs": [r.name for r in records], "extra": extra}, lines)
        return 0
    failures = replay()
    lines = [f"{len(records)} programs, {len(failures)} failures"] + [f"  {f}" for f in failures]
    _emit(args, {"programs": len(records), "failures": failures}, lines)
    return 1 if failures else 0


def _add_designations(p):
    p.add_argument("--own", help="owner class name")
    p.add_argument("--rep", help="rep class name")
    p.add_argument("--rep2", help="second rep class name (comparison mode)")


class _AtLeastZero(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be at least 0, got {value}")
        setattr(namespace, self.dest, value)


def _add_budget(p):
    p.add_argument("--max-fuel", type=int, default=MAX_FUEL, action=_AtLeastZero)
    p.add_argument("--loop-cap", type=int, default=LOOP_CAP, action=_AtLeastZero)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jcore", description=__doc__)
    ap.add_argument("--format", choices=["text", "json"], default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse, desugar, and type-check source files")
    p.add_argument("files", nargs="+")
    _add_designations(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("analyze", help="static confinement safety analysis")
    p.add_argument("files", nargs="+")
    _add_designations(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("run", help="interpret an entry point")
    p.add_argument("file")
    p.add_argument("--entry", required=True, help="entry point, Class.method")
    p.add_argument("--monitor", choices=["off", "calls", "every"], default="off")
    p.add_argument("--trace", action="store_true", help="print one line per executed command")
    _add_designations(p)
    _add_budget(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("equiv", help="client-program equivalence from a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("simtest", help="bounded simulation harness from a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_simtest)

    p = sub.add_parser("dot", help="render the final heap's island structure as DOT")
    p.add_argument("file")
    p.add_argument("--entry", required=True)
    p.add_argument("-o", "--output")
    _add_designations(p)
    _add_budget(p)
    p.set_defaults(func=cmd_dot)

    p = sub.add_parser("corpus", help="list or replay the built-in corpus")
    p.add_argument("action", choices=["list", "run-all"])
    p.add_argument("--extra", help="directory of additional .jcore files to list")
    p.set_defaults(func=cmd_corpus)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, WellFormednessError, ComparabilityError, IllTyped) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ManifestError, EntryClassError, OSError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
