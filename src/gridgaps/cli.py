"""Command-line surface: count | classify | verify | gen.

Exit codes: 0 success, 2 input error (bad file, bad flags), 3 internal
disagreement between the gap-counting methods (always an engine bug), 4
resource cap exceeded. ``--json`` switches count/classify/verify to a
machine-readable report with frozen keys; all numbers are exact integers.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from itertools import chain
from math import prod
from typing import Any, Callable, Iterator

from . import dvo
from .gaps import (
    HubTag,
    _window_counts,
    classification_histogram,
    count_gaps_block_formula,
    count_gaps_formula,
)
from .identities import ALL_IDENTITIES, IdentityResult
from .objects import DigitalObject, census
from .shapes import ShapeSpec, describe, generate

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DISAGREEMENT = 3
EXIT_CAP = 4

#: the commands refuse larger inputs: per voxel, verify's census visits 3^n
#: faces, and the window pass of count and classify folds 2^n vertices in n steps
MAX_VOXELS = 10**6
MAX_CENSUS_DIM = 8


class ResourceCapError(RuntimeError):
    pass


def _check_caps(
    n: int | None = None, voxels: int = 0, sites: tuple[int, ...] = ()
) -> None:
    """Refuse work beyond the caps; ``sites`` holds the extents whose product
    is the site count. As ``dvo.load``'s check this runs before every voxel
    line, so the voxel count is tested first and the product only for extents."""
    if voxels > MAX_VOXELS:
        raise ResourceCapError(f"{voxels} voxels exceed the cap of {MAX_VOXELS}")
    if n is not None and n > MAX_CENSUS_DIM:
        raise ResourceCapError(
            f"n={n} exceeds the full-census cap n <= {MAX_CENSUS_DIM}"
        )
    if sites and (count := prod(sites)) > MAX_VOXELS:
        raise ResourceCapError(f"{count} sites exceed the cap of {MAX_VOXELS}")


def _load(path: str) -> DigitalObject:
    # n is refused at the header, the voxel count at voxel line MAX_VOXELS + 1
    return dvo.load(path, _check_caps)


def _rows(rows: list[list[int]], first: str, sep: str, last: str, between: str) -> str:
    """Rows of ints of one length, each written as ``first``, its ints
    joined by ``sep`` and ``last``, the rows joined by ``between``: one
    ``%d`` template formats them all."""
    row = first + sep.join(["%d"] * len(rows[0])) + last
    return between.join([row] * len(rows)) % tuple(chain.from_iterable(rows))


def _json(value: Any, pad: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for a
    value whose lines start with ``pad``. A dict with str keys is written
    key by key, and a list of equal-length int rows (count's hubs) through
    ``_rows``; each key and every other value goes to ``json.dumps``, its
    lines indented by ``pad``, which is exact since JSON escapes every
    newline inside a string. ``%d`` would print a bool as a digit, so each
    row entry must be exactly an int."""
    if type(value) is dict and value and all(type(k) is str for k in value):
        inner = pad + "  "
        items = (json.dumps(k) + ": " + _json(v, inner) for k, v in sorted(value.items()))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if (
        type(value) is list
        and set(map(type, value)) == {list}
        and len(set(map(len, value))) == 1
        and set(map(type, chain.from_iterable(value))) == {int}
    ):
        inner, entry = pad + "  ", pad + "    "
        rows = _rows(value, "[" + entry, "," + entry, inner + "]", "," + inner)
        return "[" + inner + rows + pad + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", pad)


def _emit(payload: dict[str, Any], as_json: bool, text: Callable[[], str]) -> None:
    """Write the payload as JSON, or else the text report, built only then."""
    if as_json:
        sys.stdout.write(_json(payload) + "\n")
    else:
        sys.stdout.write(text())


def build_count_report(obj: DigitalObject, include_hubs: bool = False) -> dict[str, Any]:
    """The count report as plain data; keys are part of the format.

    Every number comes from one pass over vertex windows: "oracle" is its
    count of (n-2)-hubs, the gap tandems of its tag histogram, each read off
    the cell's own block trace, and the two formulas are evaluated on its
    c, c* and beta. The hubs are decoded only to be listed.
    """
    win = _window_counts(obj, decode_hubs=include_hubs)
    report: dict[str, Any] = {
        "n": obj.n,
        "voxels": len(obj),
        "census": {
            "c": list(win.c),
            "c_star": list(win.c_star),
            "c_prime": list(win.c_prime),
            "beta": list(win.beta),
        },
    }
    if obj.n >= 2:
        counts = {
            "oracle": win.histogram[HubTag.GAP_TANDEM],
            "formula": count_gaps_formula(obj, win),
            "block_formula": count_gaps_block_formula(obj, win),
        }
        report["gaps"] = counts
        report["agreement"] = len(set(counts.values())) == 1
    else:
        report["gaps"] = None
        report["agreement"] = True
    if include_hubs:  # the window pass finds no hubs below n = 2
        report["hubs"] = [list(e) for e in win.hubs]
    return report


def _count_text(report: dict[str, Any]) -> str:
    lines = [f"n:      {report['n']}", f"voxels: {report['voxels']}"]
    lines.append("dim        c       c*       c'     beta")
    cen = report["census"]
    for i in range(report["n"] + 1):
        lines.append(
            f"{i:3d} {cen['c'][i]:8d} {cen['c_star'][i]:8d}"
            f" {cen['c_prime'][i]:8d} {cen['beta'][i]:8d}"
        )
    gaps = report["gaps"]
    if gaps is None:
        lines.append("gaps: not defined for n=1")
    else:
        agree = "yes" if report["agreement"] else "NO (engine bug)"
        lines.append(
            f"gaps at dim {report['n'] - 2}: oracle={gaps['oracle']}"
            f" formula={gaps['formula']} block_formula={gaps['block_formula']}"
            f" agreement={agree}"
        )
    if "hubs" in report:
        hubs = report["hubs"]
        lines.append("hubs: " + (_rows(hubs, "(", ",", ")", " ") if hubs else "none"))
    return "\n".join(lines) + "\n"


def cmd_count(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    report = build_count_report(obj, include_hubs=args.hubs)
    _emit(report, args.json, lambda: _count_text(report))
    return EXIT_OK if report["agreement"] else EXIT_DISAGREEMENT


def cmd_classify(args: argparse.Namespace) -> int:
    obj = _load(args.file)
    hist = classification_histogram(obj)
    payload = {
        "n": obj.n,
        "cell_dim": obj.n - 2,
        "total": sum(hist.values()),
        "histogram": {tag.value: hist[tag] for tag in HubTag},
    }
    def text() -> str:
        lines = [
            f"classification of {payload['cell_dim']}-cells"
            f" (total {payload['total']}):"
        ]
        for tag in HubTag:
            lines.append(f"  {tag.value:<18} {hist[tag]}")
        return "\n".join(lines) + "\n"

    _emit(payload, args.json, text)
    return EXIT_OK


def _verify_objects(args: argparse.Namespace) -> Iterator[tuple[str, DigitalObject]]:
    """The labelled objects to verify, each built only when it is wanted;
    every argument is checked before the first is built."""
    if args.random is not None and args.file is not None:
        raise ValueError("give verify a FILE or --random, not both")
    if args.random is not None:
        values = []
        for raw, kind in zip(args.random, (int, int, float, int, int)):
            try:
                values.append(kind(raw))
            except ValueError:
                raise ValueError(
                    "--random expects integers n, extent, seed, trials and a float"
                    f" density, got {raw!r}"
                ) from None
        n, extent, density, seed, trials = values
        if trials < 1:
            raise ValueError("--random needs at least one trial")
        _check_caps(n=n)
        first = ShapeSpec("random", n, extents=(extent,) * n, density=density, seed=seed)
        _check_caps(sites=first.extents)
        last = seed + trials - 1
        if last >= 1 << 64:
            raise ValueError(
                f"--random's last trial would have seed {last}, past the 64-bit unsigned range"
            )
        return (
            (f"random trial {t} (seed {seed + t})", generate(replace(first, seed=seed + t)))
            for t in range(trials)
        )
    if args.file is None:
        raise ValueError("verify needs a FILE or --random")
    return iter([(args.file, _load(args.file))])


def cmd_verify(args: argparse.Namespace) -> int:
    summary: dict[str, dict[str, Any]] = {}
    objects = 0
    for label, obj in _verify_objects(args):
        objects += 1
        cen = census(obj)
        for identity in ALL_IDENTITIES:
            result: IdentityResult = identity(obj, cen)
            agg = summary.setdefault(
                result.name, {"passed": True, "checked": 0, "witness": ""}
            )
            agg["checked"] += result.checked
            if not result.passed and agg["passed"]:
                agg["passed"] = False
                agg["witness"] = f"{label}: {result.witness}"
        del cen  # so no two censuses are ever alive at once
    all_passed = all(agg["passed"] for agg in summary.values())
    payload = {
        "objects": objects,
        "identities": summary,
        "passed": all_passed,
    }
    def text() -> str:
        lines = []
        for name, agg in summary.items():
            if agg["passed"]:
                lines.append(f"PASS {name} (checked {agg['checked']})")
            else:
                lines.append(f"FAIL {name}: {agg['witness']}")
        lines.append(
            f"{'all identities hold' if all_passed else 'IDENTITY FAILURE'}"
            f" on {objects} object(s)"
        )
        return "\n".join(lines) + "\n"

    _emit(payload, args.json, text)
    return EXIT_OK if all_passed else EXIT_DISAGREEMENT


def cmd_gen(args: argparse.Namespace) -> int:
    extents = None
    if args.extents is not None:
        try:
            extents = tuple(int(t) for t in args.extents.split(","))
        except ValueError:
            raise ValueError(f"bad extents {args.extents!r}") from None
    spec = ShapeSpec(
        kind=args.shape,
        n=args.n,
        extents=extents,
        density=args.density,
        seed=args.seed,
    )
    _check_caps(n=spec.n, sites=spec.extents or ())
    obj = generate(spec)
    comments = [describe(spec)]
    if args.out is None:
        sys.stdout.write(dvo.dumps(obj, comments))
    else:
        dvo.dump(obj, args.out, comments)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridgaps",
        description="Cell census, free-cell classification and gap counting "
        "for digital n-objects.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="census and (n-2)-gap counts")
    p_count.add_argument("file", help=".dvo object file")
    p_count.add_argument("--json", action="store_true", help="machine-readable output")
    p_count.add_argument("--hubs", action="store_true", help="list hub cells")
    p_count.set_defaults(func=cmd_count)

    p_classify = sub.add_parser(
        "classify", help="five-way classification of all (n-2)-cells"
    )
    p_classify.add_argument("file", help=".dvo object file")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run the identity suite")
    p_verify.add_argument("file", nargs="?", help=".dvo object file")
    p_verify.add_argument(
        "--random",
        nargs=5,
        metavar=("N", "EXTENT", "DENSITY", "SEED", "TRIALS"),
        help="check TRIALS random objects (seeds SEED, SEED+1, ...)",
    )
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser("gen", help="generate a deterministic object file")
    p_gen.add_argument("--shape", required=True, help="shape kind")
    p_gen.add_argument("--n", required=True, type=int, help="ambient dimension")
    p_gen.add_argument("--extents", help="comma-separated, e.g. 3,3,3")
    p_gen.add_argument("--density", type=float, help="fill probability in [0,1]")
    p_gen.add_argument("--seed", type=int, help="64-bit unsigned seed")
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except MemoryError:
        print("error: out of memory; try a smaller object", file=sys.stderr)
        return EXIT_CAP
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run() -> None:
    sys.exit(main())
