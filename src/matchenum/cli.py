"""Command-line interface.

Subcommands:
  count     exact matching count of a region file by a chosen method
  ratio     containment ratio of one edge (forced / total), exact
  spectrum  Kasteleyn matrix spectrum report for a region file
  verify    run one named claim and emit its report

Every report is one JSON document; count and ratio print only their
decimal value unless given --format json.  Counts always serialize as
decimal strings.  Exit codes: 0 for PASS or REPORT_ONLY, 1 for FAIL, 2 for
usage, input or bound errors.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .claims import CLAIMS, FAIL
from .counting import BoundError, COUNTERS, containment_counts, count_auto
from .graphs import GraphError
from .regions import RegionError, RegionSpec, central_rhombus_edge
from .spectra import kasteleyn_matrix, kk_star_charpoly, singular_values
from .transfer import transfer_count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on its first use; parsing does
    not change it, so every ``cli_main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="matchenum",
        description="Exact perfect-matching enumeration of lattice regions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        # count/ratio print the bare value unless JSON is requested
        sp.add_argument("--format", choices=("json",), default=None,
                        help="report format (JSON is the only one)")
        sp.add_argument("--out", metavar="PATH", default=None,
                        help="write the output to PATH instead of stdout")

    sp = sub.add_parser("count", help="count perfect matchings of a region")
    sp.add_argument("--region", required=True, metavar="FILE",
                    help="region JSON file")
    sp.add_argument("--method", default="auto",
                    choices=(*sorted(COUNTERS), "transfer"))
    common(sp)

    sp = sub.add_parser("ratio", help="containment ratio of one edge")
    sp.add_argument("--region", required=True, metavar="FILE")
    sp.add_argument("--edge", required=True, metavar="SELECTOR",
                    help="'central' (symmetric hexagons) or 'I:J' vertex indices")
    common(sp)

    sp = sub.add_parser("spectrum", help="Kasteleyn matrix spectrum of a region")
    sp.add_argument("--region", required=True, metavar="FILE")
    common(sp)

    sp = sub.add_parser("verify", help="run one named claim")
    sp.add_argument("--claim", required=True, choices=CLAIMS)
    sp.add_argument("--n", type=int,
                    help="problem1: hexagon index; problem19-orbits: cube dimension")
    sp.add_argument("--n-max", type=int,
                    help="problem19-parity/asymptotic: largest cube dimension")
    sp.add_argument("--w", type=int, help="problem14: ring thickness")
    sp.add_argument("--x-to", type=int, help="problem14: largest inner order")
    sp.add_argument("--off-center", action="store_true", default=None,
                    help="problem1: negative control at a non-central edge")
    sp.add_argument("--seed", type=int, help="oracles: corpus seed")
    sp.add_argument("--cases", type=int, help="oracles: corpus size")
    common(sp)

    return parser


class OutputError(Exception):
    """The --out file cannot be written."""


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
        print(text)
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
    extra = sorted(given.keys() - inspect.signature(verify).parameters.keys())
    if extra:
        raise UsageError(f"claim {args.claim} takes no --{extra[0].replace('_', '-')}")
    return verify(**given).to_dict(), None


def cli_main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
