"""The benchmark's workloads: the input each builds from a seed, the
gridgaps command it times, and the checks every report must pass.

Why each workload exists is written in ``BENCHMARK.json`` and README.md.
Checks never trust the program: every one of them either compares two
numbers the report must agree on or compares against what the benchmark
itself built.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any

#: the seed the pinned report digests were recorded at
DEFAULT_SEED = 1
#: a second seed with pinned digests, kept out of day-to-day tuning so a
#: claimed gain can be re-checked on inputs it was not tuned on
HELD_OUT_SEED = 104729

#: count-n3 adds a copy of its blob this far away along every axis, so a
#: census that allocates over the bounding box rather than over the cells
#: pays for it in time or memory
FAR_SHIFT = 2**40

VERIFY_TRIALS = 12

#: every workload this file can build, all of them gated in ``BENCHMARK.json``
WORKLOADS = ("count-n3", "classify-n6", "verify-n4")


@dataclass
class Expect:
    """What the benchmark knows about an input, independent of gridgaps' report."""

    n: int
    voxels: int | None = None
    objects: int | None = None


@dataclass
class Tally:
    """Commands attempted and failed, with the first few failure reasons."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{label}: " + "; ".join(problems))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def command(workload: str) -> str:
    return workload.split("-")[0]


def build_input(workload: str, seed: int, work: Path) -> tuple[list[str], Expect]:
    """Write the workload's input under ``work``; return its CLI argv and facts.

    Uses only the public ``shapes``, ``objects`` and ``dvo`` API.
    """
    from gridgaps import dvo
    from gridgaps.objects import DigitalObject
    from gridgaps.shapes import ShapeSpec, generate

    if workload == "count-n3":
        blob = generate(ShapeSpec("random", 3, (24,) * 3, 0.5, seed))
        far = blob.translate((FAR_SHIFT,) * 3)
        obj = DigitalObject(3, [*blob.voxels, *far.voxels])
        path = work / "count-n3.dvo"
        dvo.dump(obj, str(path))
        return ["count", str(path), "--json", "--hubs"], Expect(n=3, voxels=len(obj))
    if workload == "classify-n6":
        obj = generate(ShapeSpec("random", 6, (4,) * 6, 0.5, seed))
        path = work / "classify-n6.dvo"
        dvo.dump(obj, str(path))
        return ["classify", str(path), "--json"], Expect(n=6, voxels=len(obj))
    if workload == "verify-n4":
        argv = ["verify", "--random", "4", "5", "0.5", str(seed), str(VERIFY_TRIALS), "--json"]
        return argv, Expect(n=4, objects=VERIFY_TRIALS)
    raise ValueError(f"unknown workload {workload!r}")


def _check_count(report: dict[str, Any], expect: Expect) -> list[str]:
    problems = []
    if report["n"] != expect.n or report["voxels"] != expect.voxels:
        problems.append(
            f"n={report['n']} voxels={report['voxels']}, built n={expect.n} voxels={expect.voxels}"
        )
    if report["agreement"] is not True:
        problems.append("agreement is not true")
    gaps = report["gaps"]
    if not gaps["oracle"] == gaps["formula"] == gaps["block_formula"]:
        problems.append(f"gap counts differ: {gaps}")
    if len(report["hubs"]) != gaps["oracle"]:
        problems.append(f"{len(report['hubs'])} hubs listed, oracle counts {gaps['oracle']}")
    cen = report["census"]
    for i in range(expect.n + 1):
        if cen["c"][i] != cen["c_star"][i] + cen["c_prime"][i]:
            problems.append(f"dim {i}: c != c_star + c_prime")
    return problems


def _check_classify(report: dict[str, Any], expect: Expect) -> list[str]:
    problems = []
    if report["n"] != expect.n or report["cell_dim"] != expect.n - 2:
        problems.append(f"n={report['n']} cell_dim={report['cell_dim']}, built n={expect.n}")
    if sum(report["histogram"].values()) != report["total"]:
        problems.append(f"histogram sums to {sum(report['histogram'].values())}, total {report['total']}")
    return problems


def _check_verify(report: dict[str, Any], expect: Expect) -> list[str]:
    problems = []
    if report["objects"] != expect.objects:
        problems.append(f"{report['objects']} objects checked, asked for {expect.objects}")
    if report["passed"] is not True:
        problems.append("passed is not true")
    if not report["identities"]:
        problems.append("no identities reported")
    for name, agg in report["identities"].items():
        if agg["passed"] is not True or agg["checked"] <= 0:
            problems.append(f"identity {name}: passed={agg['passed']} checked={agg['checked']}")
    return problems


_CHECKS = {"count": _check_count, "classify": _check_classify, "verify": _check_verify}


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def judge(
    workload: str,
    exit_code: int | None,
    stdout: bytes,
    expect: Expect,
    pinned: str | None = None,
) -> list[str]:
    """Every reason one command's result is wrong; empty when it is right.

    ``exit_code`` is None when the command timed out. ``pinned`` is the
    sha256 the stdout must have, when one is recorded for this input.
    """
    if exit_code is None:
        return ["timed out"]
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        report = json.loads(stdout)
        problems = _CHECKS[command(workload)](report, expect)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]
    if pinned is not None and digest(stdout) != pinned:
        problems.append(f"stdout sha256 {digest(stdout)} differs from pinned {pinned}")
    return problems



def main(argv: list[str]) -> None:
    """``python3 workloads.py WORKLOAD SEED WORKDIR``: build the input and
    print ``[cli_argv, facts]`` as JSON. run.py times this as set-up."""
    workload, seed, work = argv
    cli_argv, expect = build_input(workload, int(seed), Path(work))
    print(json.dumps([cli_argv, asdict(expect)]))


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
