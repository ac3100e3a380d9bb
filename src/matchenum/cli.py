"""Command-line interface.

Subcommands:
  count     exact matching count of a region file by a chosen method
  ratio     containment ratio of one edge (forced / total), exact
  spectrum  Kasteleyn matrix spectrum report for a region file
  verify    run one named claim and emit its report

Every report is one JSON document; count and ratio print only their
decimal value unless given --format json.  Counts always serialize as
decimal strings.  Exit codes: 0 for PASS or REPORT_ONLY, 1 for FAIL, 2 for
usage, input, output or bound errors.

The options of each subcommand are one table, ``COMMANDS``, which also
gives the usage and --help text; verify's options are the parameters of
the claim functions in ``claims.CLAIMS``, typed by their defaults.
``parse_args`` reads argv from it with argparse's conventions: ``--opt
value`` or ``--opt=value``, any unique prefix of an option's name, the last
repeat of an option wins, and -h/--help prints help to stdout and exits 0.
A usage error prints the usage and one ``error:`` line to stderr and exits
2.  The token after an option that takes a value is its value, whatever
it starts with (``--edge -1:2``).  argparse is not used: importing it,
with gettext, and building its parsers cost every process several
milliseconds, as much as many commands' own work.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

from .claims import CLAIMS, FAIL
from .counting import BoundError, COUNTERS, containment_counts, count_auto
from .graphs import GraphError, Record
from .regions import RegionError, RegionSpec, central_rhombus_edge
from .spectra import kasteleyn_matrix, kk_star_charpoly, singular_values
from .transfer import transfer_count

_PROG = "matchenum"


class Option(Record):
    """One option of a subcommand, spelled ``flag``.  ``kind`` converts its
    value: ``str`` or ``int``, or ``bool`` for a flag, which takes no value
    and reads True when given.  A str option with ``choices`` takes only
    those.  An option not given reads ``default``."""

    __slots__ = ("flag", "kind", "required", "default", "choices", "metavar", "help")

    def __init__(self, flag: str, kind: type = str, required: bool = False,
                 default=None, choices: tuple = (), metavar: Optional[str] = None,
                 help: str = ""):
        Record.__init__(self, flag, kind, required, default, choices, metavar, help)

    @property
    def dest(self) -> str:
        """The attribute of the parsed arguments that holds the value."""
        return self.flag[2:].replace("-", "_")

    def invocation(self) -> str:
        if self.kind is bool:
            return self.flag
        if self.choices:
            return f"{self.flag} {{{','.join(self.choices)}}}"
        return f"{self.flag} {self.metavar or self.dest.upper()}"


def _claim_parameters(fn) -> dict:
    """The parameter names of ``fn`` with their defaults (None where there
    is none), read from its code object; a wrapper made with
    ``functools.wraps`` is looked through to the function it wraps, as
    ``inspect.signature`` does."""
    while hasattr(fn, "__wrapped__"):
        fn = fn.__wrapped__
    code = fn.__code__
    names = code.co_varnames[:code.co_argcount + code.co_kwonlyargcount]
    positional = fn.__defaults__ or ()
    defaults = dict(zip(names[code.co_argcount - len(positional):], positional))
    defaults.update(fn.__kwdefaults__ or {})
    return {name: defaults.get(name) for name in names}


def _claim_options() -> tuple[Option, ...]:
    """verify's claim options: each parameter of a claim function, a flag
    where its default is a bool and an int option otherwise."""
    found: dict[str, tuple[type, list[str]]] = {}
    for claim, fn in CLAIMS.items():
        for name, default in _claim_parameters(fn).items():
            _, takers = found.setdefault(name, (bool if isinstance(default, bool) else int, []))
            takers.append(f"{claim} (default {default})")
    return tuple(Option("--" + name.replace("_", "-"), kind, help=", ".join(takers))
                 for name, (kind, takers) in found.items())


_HELP = Option("--help", bool, help="show this help message and exit")
_REGION = Option("--region", required=True, metavar="FILE", help="region JSON file")
# count and ratio print the bare value unless JSON is requested
_OUTPUT = (
    Option("--format", choices=("json",), help="report format (JSON is the only one)"),
    Option("--out", metavar="PATH", help="write the output to PATH instead of stdout"),
)

# each subcommand: its help line and its options, in usage order
COMMANDS = {
    "count": ("count perfect matchings of a region", (
        _REGION,
        Option("--method", default="auto", choices=(*sorted(COUNTERS), "transfer"),
               help="counting engine (default auto)"),
        *_OUTPUT)),
    "ratio": ("containment ratio of one edge", (
        _REGION,
        Option("--edge", required=True, metavar="SELECTOR",
               help="'central' (symmetric hexagons) or 'I:J' vertex indices"),
        *_OUTPUT)),
    "spectrum": ("Kasteleyn matrix spectrum of a region", (_REGION, *_OUTPUT)),
    "verify": ("run one named claim", (
        Option("--claim", required=True, choices=tuple(CLAIMS), help="claim id"),
        *_claim_options(),
        *_OUTPUT)),
}


def _usage(command: Optional[str]) -> str:
    """The usage of the program (command None) or of one subcommand, its
    lines wrapped before 80 columns."""
    if command is None:
        prog, parts = _PROG, ["[-h]", f"{{{','.join(COMMANDS)}}}", "..."]
    else:
        prog = f"{_PROG} {command}"
        parts = ["[-h]"] + [option.invocation() if option.required
                            else f"[{option.invocation()}]"
                            for option in COMMANDS[command][1]]
    lines, line = [], f"usage: {prog}"
    indent = " " * (len(line) + 1)
    for part in parts:
        if len(line) + 1 + len(part) >= 80:
            lines.append(line)
            line = indent + part
        else:
            line += " " + part
    return "\n".join([*lines, line])


def _rows(pairs) -> str:
    """Two-column help rows: each name, and its text from column 24."""
    lines = []
    for name, text in pairs:
        if len(name) > 20:
            lines += [f"  {name}", " " * 24 + text]
        else:
            lines.append(f"  {name:<20}  {text}".rstrip())
    return "\n".join(lines)


def _help(command: Optional[str]) -> str:
    helps = [("-h, --help", _HELP.help)]
    if command is None:
        return (f"{_usage(None)}\n\n"
                "Exact perfect-matching enumeration of lattice regions.\n\n"
                f"commands:\n{_rows((name, text) for name, (text, _) in COMMANDS.items())}\n\n"
                f"options:\n{_rows(helps)}\n")
    text, options = COMMANDS[command]
    helps += [(option.invocation(), option.help) for option in options]
    return f"{_usage(command)}\n\n{text}\n\noptions:\n{_rows(helps)}\n"


def _fail(command: Optional[str], message: str):
    """A usage error: the usage and one error line on stderr, exit 2."""
    prog = _PROG if command is None else f"{_PROG} {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _print_help(command: Optional[str]):
    sys.stdout.write(_help(command))
    raise SystemExit(0)


def _choices(values) -> str:
    return ", ".join(repr(value) for value in values)


def _lookup(command: str, options: Sequence[Option], name: str) -> Optional[Option]:
    """The option ``name`` spells, else the one it is a unique prefix of;
    None when it names none."""
    for option in options:
        if option.flag == name:
            return option
    hits = [option for option in options if option.flag.startswith(name)]
    if len(hits) > 1:
        _fail(command, f"ambiguous option: {name} could match "
                       f"{', '.join(option.flag for option in hits)}")
    return hits[0] if hits else None


def _convert(command: str, option: Option, value: str):
    if option.kind is int:
        try:
            return int(value)
        except ValueError:
            pass
        _fail(command, f"argument {option.flag}: invalid int value: {value!r}")
    if option.choices and value not in option.choices:
        _fail(command, f"argument {option.flag}: invalid choice: {value!r} "
                       f"(choose from {_choices(option.choices)})")
    return value


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """The command of ``argv`` (the arguments after the program name) as
    ``command``, and the value of each of its options under the option's
    ``dest``; raises SystemExit(0) after printing help, SystemExit(2) after
    a usage error."""
    if not argv:
        _fail(None, "the following arguments are required: command")
    command, *rest = argv
    if command == "-h" or (len(command) > 2 and _HELP.flag.startswith(command)):
        _print_help(None)
    if command not in COMMANDS:
        _fail(None, f"argument command: invalid choice: {command!r} "
                    f"(choose from {_choices(COMMANDS)})")
    options = (_HELP, *COMMANDS[command][1])
    values = {"command": command}
    values.update((option.dest, option.default) for option in options[1:])
    extras = []
    tokens = iter(rest)
    for token in tokens:
        if token == "-h":
            _print_help(command)
        name, given, value = token.partition("=")
        option = (_lookup(command, options, name)
                  if len(name) > 2 and name.startswith("--") else None)
        if option is None:
            extras.append(token)
        elif option.kind is bool:
            if given:
                _fail(command, f"argument {option.flag}: ignored explicit argument {value!r}")
            if option is _HELP:
                _print_help(command)
            values[option.dest] = True
        else:
            if not given:
                value = next(tokens, None)
                if value is None:
                    _fail(command, f"argument {option.flag}: expected one argument")
            values[option.dest] = _convert(command, option, value)
    missing = [option.flag for option in options
               if option.required and values[option.dest] is None]
    if missing:
        _fail(command, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


class OutputError(Exception):
    """The --out file, or standard output, cannot be written."""


class UsageError(Exception):
    """An option the chosen claim does not take."""


def _load_spec(path: str) -> RegionSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise RegionError(f"cannot read region file {path!r}: {exc}") from None
    return RegionSpec.from_json(text)


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        try:
            print(text, flush=True)
        except OSError as exc:  # a closed pipe or a full device
            # the interpreter flushes stdout once more at exit; pointed at
            # devnull, that flush takes what is left and cannot fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise OutputError(f"cannot write to standard output: {exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as exc:
        raise OutputError(f"cannot write output file {out!r}: {exc}") from None


# Each handler returns (doc, flat): the JSON-ready report, and the bare
# decimal string that count and ratio print without --format, else None.


def _cmd_count(args):
    spec = _load_spec(args.region)
    if args.method == "transfer":
        value = transfer_count(spec)
    else:
        value = COUNTERS[args.method](spec.build())
    return {"kind": spec.kind, "method": args.method, "count": str(value)}, str(value)


def _resolve_edge(spec: RegionSpec, g, selector: str):
    if selector == "central":
        if spec.kind != "HEXAGON":
            raise RegionError("'central' edge selection needs a HEXAGON region")
        cell_up, cell_down = central_rhombus_edge(spec.params["sides"])
        return g.edge_by_labels(cell_up, cell_down)
    try:
        u, v = (int(part) for part in selector.split(":"))
    except ValueError:
        raise RegionError(
            f"edge selector {selector!r} is neither 'central' nor 'I:J'"
        ) from None
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise RegionError(f"edge selector {selector!r} out of vertex range")
    if not g.has_edge(u, v):
        raise RegionError(f"vertices {u} and {v} are not adjacent")
    return (u, v) if u < v else (v, u)


def _label_doc(label):
    return list(label) if isinstance(label, tuple) else label


def _cmd_ratio(args):
    spec = _load_spec(args.region)
    g = spec.build()
    edge = _resolve_edge(spec, g, args.edge)
    containing, total = containment_counts(g, edge)
    ratio = Fraction(containing, total)
    doc = {
        "kind": spec.kind,
        "edge": [_label_doc(g.labels[i]) for i in edge],
        "containing": str(containing),
        "total": str(total),
        "ratio": str(ratio),
    }
    return doc, str(ratio)


def _cmd_spectrum(args):
    spec = _load_spec(args.region)
    g = spec.build()
    k = kasteleyn_matrix(g)
    cp = kk_star_charpoly(k)
    sv = singular_values(k)
    doc = {
        "kind": spec.kind,
        "dimension": k.dimension,
        "count": str(count_auto(g)),
        "charpoly": [str(c) for c in cp.coeffs],
        "singular_values": sv,
    }
    return doc, None


def _cmd_verify(args):
    verify = CLAIMS[args.claim]
    # the claim options given; the claim must take each, and keeps its
    # defaults for the rest
    given = {name: value for name, value in vars(args).items() if value is not None
             and name not in ("command", "claim", "format", "out")}
    extra = sorted(given.keys() - _claim_parameters(verify).keys())
    if extra:
        raise UsageError(f"claim {args.claim} takes no --{extra[0].replace('_', '-')}")
    return verify(**given).to_dict(), None


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    handlers = {
        "count": _cmd_count,
        "ratio": _cmd_ratio,
        "spectrum": _cmd_spectrum,
        "verify": _cmd_verify,
    }
    try:
        doc, flat = handlers[args.command](args)
        _emit(flat if flat is not None and args.format is None
              else json.dumps(doc, indent=2), args.out)
    except (RegionError, GraphError, BoundError, OutputError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if doc.get("verdict") == FAIL else 0


def main() -> None:  # console-script entry point
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
