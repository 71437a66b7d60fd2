"""Command-line front end.

Exit codes: 0 pass, 1 predicate or suite failure, 2 input error,
3 resource limit.
"""

from __future__ import annotations

import gc
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

from . import files, properties, verifier
from .errors import InputError, OrderkitError, SizeLimitError
from .generators import NAME_RE, check_ceiling, enumerate_lattices, enumerate_posets, named
from .poset import FinitePoset
from .scott import scott_closed_lattice, scott_opens

# the objects made at import live as long as the process: no collection
# need walk them, and one would otherwise fall inside the first command
gc.freeze()

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_LIMIT = 3


def load_input(spec: str) -> FinitePoset:
    """A named instance, '-' for stdin, or a poset file path.  A file is
    read as bytes and decoded once, as stdin is: ``files.parse`` breaks
    lines at CR LF and at a lone CR itself, so the text layer's newline
    translation would only repeat that work."""
    if NAME_RE.fullmatch(spec):
        return named(spec)
    if spec == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(spec, "rb") as fh:
            data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{'stdin' if spec == '-' else spec}: {exc}") from None
    return files.parse(text)


def _write_out(text, out=None):
    """Write ``text`` as UTF-8 to the file ``out``, or to stdout.  Stdout is
    written as bytes because its text layer encodes with the locale's codec,
    which need not hold every label."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _write_json(payload):
    """Write ``payload`` as indented JSON to stdout, UTF-8 as ``_write_out``
    does, in pieces as it is encoded: a report can be tens of megabytes,
    and neither the whole text nor its bytes are held."""
    sys.stdout.flush()
    out = io.TextIOWrapper(sys.stdout.buffer, encoding="utf-8", newline="\n")
    try:
        json.dump(payload, out, indent=2, sort_keys=True)
        out.write("\n")
    finally:
        out.detach()  # flushes, and leaves stdout open


def _check_report(P, names):
    report = {"name": P.name, "n": P.n, "properties": {}, "witnesses": {}}
    profile = verifier.InstanceProfile(P)
    for prop in names:
        verdict = profile.verdict(prop)
        if verdict is None:
            report["properties"][prop] = "skipped"
            continue
        report["properties"][prop] = verdict.holds
        if not verdict.holds and verdict.witness is not None:
            report["witnesses"][prop] = verdict.witness.as_dict()
    return report


def _format_witness(w):
    parts = []
    if w["elements"]:
        parts.append("x=" + ",".join(w["elements"]))
    for s in w["subsets"]:
        parts.append("S={" + ",".join(s) + "}")
    if w["lhs"] is not None:
        parts.append(f"lhs={w['lhs']}")
    if w["rhs"] is not None:
        parts.append(f"rhs={w['rhs']}")
    return "; ".join(parts)


def cmd_check(args):
    P = load_input(args.input)
    if args.properties == "all":
        names = list(properties.PREDICATE_NAMES)
    else:
        names = [s for s in dict.fromkeys(map(str.strip, args.properties.split(","))) if s]
        for prop in names:
            if prop not in properties.PREDICATE_NAMES:
                raise InputError(f"unknown property {prop!r}")
        if not names:
            raise InputError(f"--properties {args.properties!r} names no property")
    report = _check_report(P, names)
    if args.json:
        _write_json(report)
    else:
        lines = [f"poset {P.name or '<unnamed>'} (n={P.n})"]
        for prop in names:
            value = report["properties"][prop]
            shown = value if value == "skipped" else str(bool(value)).lower()
            line = f"  {prop}: {shown}"
            if args.witness and prop in report["witnesses"]:
                line += "   witness: " + _format_witness(report["witnesses"][prop])
            lines.append(line)
        _write_out("".join(line + "\n" for line in lines))
    failed = any(v is False for v in report["properties"].values())
    if failed and not args.no_assert:
        return EXIT_FAIL
    return EXIT_PASS


def cmd_dual(args):
    P = load_input(args.input)
    family = scott_closed_lattice(P) if args.scott_closed else scott_opens(P)
    _write_out(files.emit(family.lattice.base), args.output)
    return EXIT_PASS


def cmd_enumerate(args):
    evaluate = None if args.filter is None else verifier.compile_expression(args.filter)
    if args.emit:
        check_ceiling(args.kind, args.n)  # a refused size makes no directory
        out_dir = Path(args.emit)
        out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    stream = enumerate_lattices(args.n) if args.kind == "lattices" else enumerate_posets(args.n)
    for obj in stream:
        if evaluate is not None and not evaluate(verifier.InstanceProfile(obj)):
            continue
        count += 1
        if args.emit:
            P = obj.base if hasattr(obj, "base") else obj
            _write_out(files.emit(P), out_dir / f"{P.name}.poset")
    _write_out(f"{count}\n")
    return EXIT_PASS


def _suite_dict(report, deterministic):
    def record(rec):
        out = {
            "name": rec.name,
            "n": rec.n,
            "poset": rec.text,
            "holds": rec.verdict.holds,
        }
        if rec.verdict.witness is not None:
            out["witness"] = rec.verdict.witness.as_dict()
        if rec.verdict.profile:
            out["profile"] = rec.verdict.profile_dict()
        return out

    out = {
        "suite": report.suite,
        "universe": report.universe,
        "instances": report.instances,
        "failures": [record(r) for r in report.failures],
        "expected_failures": [record(r) for r in report.expected_failures],
        "trivialized": list(report.trivialized),
        "pass": report.passed,
    }
    if not deterministic:
        out["wall_time"] = round(report.wall_time, 6)
    return out


def _detail(rec):
    w = rec.verdict.witness
    return f" ({_format_witness(w.as_dict())})" if w else ""


def cmd_verify(args):
    suites = verifier.SUITE_ORDER if args.suite == "full" else (args.suite,)
    reports = verifier.run_suites(suites, args.max_n)
    if args.json:
        _write_json({"max_n": args.max_n,
                     "suites": [_suite_dict(r, args.deterministic) for r in reports]})
    else:
        lines = []
        for r in reports:
            line = (
                f"suite {r.suite}: {r.universe}, {r.instances} instances, "
                f"{len(r.failures)} failures"
            )
            if r.trivialized:
                line += " [trivialized at finite scale: " + ", ".join(r.trivialized) + "]"
            lines.append(line)
            for rec in r.failures:
                lines.append(f"  FAIL {rec.name} (n={rec.n}){_detail(rec)}")
            for rec in r.expected_failures:
                lines.append(f"  outside hypothesis, equation fails: {rec.name}{_detail(rec)}")
        _write_out("".join(line + "\n" for line in lines))
    if any(r.failures for r in reports):
        return EXIT_FAIL
    return EXIT_PASS


def cmd_export_dot(args):
    P = load_input(args.input)
    _write_out(files.export_dot(P), args.output)
    return EXIT_PASS


# name -> (help, handler, arguments), each argument the (flags, settings)
# of one add_argument call: build_parser and _read_argv both read this
COMMANDS = {
    "check": ("run predicates on one poset", cmd_check, (
        (("input",), {"help": "poset file, '-' for stdin, or a named "
                              "instance such as M3, chain(4), boolean(2)"}),
        (("--properties",), {"default": "all",
                             "help": "comma-separated predicate names, or 'all'"}),
        (("--witness",), {"action": "store_true", "help": "show failure witnesses"}),
        (("--json",), {"action": "store_true"}),
        (("--no-assert",), {"action": "store_true",
                            "help": "exit 0 even when a predicate is false"}),
    )),
    "dual": ("emit the Scott open or closed set lattice", cmd_dual, (
        (("--scott-closed",), {"action": "store_true",
                               "help": "emit the closed-set lattice instead of the opens"}),
        (("input",), {}),
        (("-o", "--output"), {}),
    )),
    "enumerate": ("enumerate posets or lattices up to isomorphism", cmd_enumerate, (
        (("--n",), {"type": int, "required": True}),
        (("--kind",), {"choices": ("posets", "lattices"), "default": "posets"}),
        (("--filter",), {"help": "predicate expression, e.g. 'lattice & !distributive'"}),
        (("--emit",), {"metavar": "DIR",
                       "help": "also write one poset file per instance into DIR"}),
    )),
    "verify": ("run verification suites over enumerated universes", cmd_verify, (
        (("--suite",), {"default": "full", "choices": verifier.SUITE_ORDER + ("full",)}),
        (("--max-n",), {"type": int, "default": 5}),
        (("--json",), {"action": "store_true"}),
        (("--deterministic",), {"action": "store_true",
                                "help": "omit wall times so identical runs are byte-identical"}),
    )),
    "export-dot": ("write the Hasse diagram in DOT syntax", cmd_export_dot, (
        (("input",), {}),
        (("-o", "--output"), {}),
    )),
}


def build_parser():
    """The argument parser of every command, for help, usage and argument
    errors: ``main`` reads a well-formed command line without it."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="orderkit",
        description="Finite poset and lattice toolkit: predicates, Scott "
        "topology duals, exhaustive verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, settings in arguments:
            p.add_argument(*flags, **settings)
        p.set_defaults(func=handler)
    return parser


def _read_argv(argv):
    """The namespace argparse would give for ``argv``, or None unless
    ``argv`` is well formed in the plain way: the command word first,
    option strings exactly as declared, option values not starting with
    "-", and the declared positionals, "-" or not starting with "-".
    Argparse reads everything else, and prints the help, usage and errors:
    building its parser costs more than deciding a small instance."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[argv[0]]
    values = {"command": argv[0], "func": handler}
    options = {}  # option string -> (dest, is a flag, type, choices)
    positionals, required = [], []  # required: the dests a command line must give
    for flags, settings in arguments:
        if not flags[0].startswith("-"):
            positionals.append(flags[0])
            required.append(flags[0])
            continue
        # argparse's dest: the first long option string, else the first
        dest = next((f for f in flags if f.startswith("--")), flags[0])
        dest = dest.lstrip("-").replace("-", "_")
        is_flag = settings.get("action") == "store_true"
        if settings.get("required"):
            required.append(dest)
        else:
            values[dest] = False if is_flag else settings.get("default")
        for flag in flags:
            options[flag] = (dest, is_flag, settings.get("type"), settings.get("choices"))
    positionals = iter(positionals)
    words = iter(argv[1:])
    for word in words:
        if word in options:
            dest, is_flag, convert, choices = options[word]
            if is_flag:
                values[dest] = True
                continue
            value = next(words, None)
            if value is None or value.startswith("-"):
                return None
            if convert is not None:
                try:
                    value = convert(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
            values[dest] = value
        elif word.startswith("-") and word != "-":
            return None
        else:
            dest = next(positionals, None)
            if dest is None:
                return None
            values[dest] = word
    if not all(dest in values for dest in required):
        return None
    return SimpleNamespace(**values)


# argparse takes an empty path, which Path reads as the working directory
_EMPTY_PATHS = {
    "input": "input '' names no file",
    "output": "--output '' names no file",
    "emit": "--emit '' names no directory",
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        for dest, message in _EMPTY_PATHS.items():
            if getattr(args, dest, None) == "":
                raise InputError(message)
        return args.func(args)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except OrderkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
