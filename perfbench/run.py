"""Benchmark of the gridgaps CLI: end-to-end runs and a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload count-n3 --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats, for as long as ``--seconds`` allow and at least
``MIN_SAMPLES`` times: build the workload's input from the seed and start
the CLI once cold (set-up), then run the real CLI on the input, each as a
child process, one at a time. It reports the median ``wall_s``, the median
``peak_rss_mb`` and the median ``setup_s``. Times are scaled to the
reference speed of the processor that launch.py measures while each child
runs, so that the shared host's fast and slow phases cancel out.

``--trace 1`` runs the command once as a child, then calls ``cli.main``
in-process after a warm-up, alternating untraced and traced calls for as
long as ``--seconds`` allow, and reports the per-layer metrics of
``tracing.Tracer``.

Every report is checked. Untraced runs also compare the report at the
default seed with its sha256 pinned in ``digests.json``; traced runs compare
each in-process report with the child's. The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import COMMAND, Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Expect, Tally, build_input, command, digest, judge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

#: the median of fewer runs than this is too noisy, however long they take
MIN_SAMPLES = 3
#: a command still running after this long is killed and counted as failed
COMMAND_TIMEOUT_S = 60


@dataclass
class Child:
    exit_code: int | None  # None when the command timed out
    stdout: bytes
    stderr: bytes
    wall_s: float
    speed: float  # the processor's speed while it ran, 1.0 at the reference
    probes: int  # how many probes the speed is the mean of
    peak_rss_mb: float
    cpu_s: float

    @property
    def ref_s(self) -> float:
        """The wall time at the processor's reference speed."""
        return self.wall_s * self.speed


class Launcher:
    """The small process (launch.py) that starts every gridgaps child."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launch.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=ROOT,
            text=True,
        )

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=COMMAND_TIMEOUT_S + 10)

    def run(self, argv: list[str], work: Path) -> Child:
        """Run ``gridgaps ARGV`` from the checkout's sources and wait for it."""
        return self.spawn([sys.executable, "-m", "gridgaps", *argv], work)

    def spawn(self, argv: list[str], work: Path) -> Child:
        """Run the program ``argv[0]`` with its arguments and wait for it."""
        out_path, err_path = work / "stdout", work / "stderr"
        request = [argv, str(out_path), str(err_path), COMMAND_TIMEOUT_S]
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = json.loads(self._proc.stdout.readline())
        return Child(
            exit_code=reply["exit_code"],
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
            wall_s=reply["wall_s"],
            speed=reply["speed"],
            probes=reply["probes"],
            peak_rss_mb=reply["maxrss_kb"] / 1024,
            cpu_s=reply["cpu_s"],
        )


@dataclass
class Run:
    """One benchmark run: its arguments, its children and what it found."""

    workload: str
    seed: int
    seconds: float
    pins: dict[str, str]
    work: Path
    launcher: Launcher
    tally: Tally = field(default_factory=Tally)
    out: list[str] = field(default_factory=list)

    def child(self, label: str, argv: list[str], expect: Expect, pinned: str | None) -> Child:
        """Run one command as a child and record whether its report is right."""
        child = self.launcher.run(argv, self.work)
        problems = judge(self.workload, child.exit_code, child.stdout, expect, pinned)
        if problems and child.stderr.strip():
            problems.append("stderr: " + child.stderr.decode(errors="replace").strip().splitlines()[-1])
        self.tally.record(label, problems)
        return child


def tail(samples: list[float]) -> str:
    """The highest of p99/p95/p90 that has at least ten samples beyond it."""
    for p in (99, 95, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return "no tail percentile (fewer than 10 samples beyond p90)"


def setup(r: Run) -> tuple[list[str], Expect, float]:
    """Build the input in a child of its own, then start the CLI cold once.

    Returns the command's argv, what the input is known to hold, and the
    set-up time at the processor's reference speed.
    """
    build = r.launcher.spawn(
        [sys.executable, str(HERE / "workloads.py"), r.workload, str(r.seed), str(r.work)], r.work
    )
    if build.exit_code != 0:
        raise RuntimeError("building the input failed: " + build.stderr.decode(errors="replace"))
    argv, facts = json.loads(build.stdout)
    cold = r.launcher.run(["--help"], r.work)
    r.tally.record("gridgaps --help", [] if cold.exit_code == 0 else [f"exit code {cold.exit_code}"])
    return argv, Expect(**facts), build.ref_s + cold.ref_s


def timed_run(r: Run) -> dict[str, float]:
    # every report of one input must be byte-identical: the first one is the
    # reference when no digest is pinned for this seed
    reference = r.pins.get(str(r.seed))
    check_pin = reference is None
    setups, walls, raw, speeds, rss, cpu = [], [], [], [], [], []
    start = perf_counter()
    while True:
        # set-up is repeated before every timed command, so that its median,
        # like the timed commands, spans the whole run
        argv, expect, setup_s = setup(r)
        setups.append(setup_s)

        child = r.child(f"seed {r.seed}", argv, expect, reference)
        walls.append(child.ref_s)
        raw.append(child.wall_s)
        speeds.append(child.speed)
        rss.append(child.peak_rss_mb)
        cpu.append(child.cpu_s)
        if reference is None and child.exit_code == 0:
            reference = digest(child.stdout)
        # stop when the next step, and the pinned check, would overrun
        elapsed = perf_counter() - start
        step = elapsed / len(walls)
        if len(walls) >= MIN_SAMPLES and elapsed + step * (1 + check_pin) > r.seconds:
            break
    if check_pin:
        argv, expect = build_input(r.workload, DEFAULT_SEED, r.work)
        r.child(f"pinned seed {DEFAULT_SEED}", argv, expect, r.pins[str(DEFAULT_SEED)])

    r.out.append(
        f"wall_s: median {statistics.median(walls):.4f} s of {len(walls)} samples"
        f" at the reference speed; {tail(walls)}"
    )
    r.out.append("wall samples at the reference speed: " + " ".join(f"{w:.3f}" for w in walls))
    r.out.append("wall samples as measured: " + " ".join(f"{w:.3f}" for w in raw))
    r.out.append("processor speed during each: " + " ".join(f"{v:.3f}" for v in speeds))
    r.out.append(f"peak_rss_mb: median {statistics.median(rss):.1f} MiB over {len(rss)} samples")
    r.out.append(f"setup_s: median {statistics.median(setups):.4f} s of {len(setups)} set-ups")
    r.out.append(f"not gated: child CPU mean {statistics.mean(cpu):.4f} s as measured")
    r.out.append(f"report sha256 {reference}")
    return {
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
    }


def call_main(cli, argv: list[str]) -> tuple[int | None, bytes, float]:
    """``cli.main(argv)`` in this process: exit code, captured stdout, seconds."""
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf), redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc(file=sys.__stderr__)
            code = 1
    return code, buf.getvalue().encode(), perf_counter() - start


def layer_metrics(tracer: Tracer, setup: int, root: int, cmd: str) -> dict[str, float]:
    """Per-layer numbers of one set-up plus one traced command."""
    m = tracer.totals({setup, root})
    m[f"cli.{cmd}_self_s"] = tracer.self_seconds(root)
    if m.get("objects.closure_faces"):
        m["objects.census_ns_per_face"] = m["objects.census_s"] / m["objects.closure_faces"] * 1e9
    if m.get("gaps.is_gap_calls"):
        m["gaps.hub_ratio"] = m.get("gaps.is_gap_hits", 0) / m["gaps.is_gap_calls"]
    return m


def traced_run(r: Run) -> dict[str, float]:
    from gridgaps import cli

    tracer = Tracer()
    tracer.install()
    try:
        setup = tracer.root("setup")
        argv, expect = build_input(r.workload, r.seed, r.work)
        tracer.close(setup)
    finally:
        tracer.remove()

    start = perf_counter()
    pinned = r.pins.get(str(r.seed))
    child = r.child(f"child seed {r.seed}", argv, expect, pinned)
    reference = pinned or digest(child.stdout)

    def checked_call(label: str) -> float:
        code, stdout, wall = call_main(cli, argv)
        r.tally.record(label, judge(r.workload, code, stdout, expect, reference))
        return wall

    checked_call("warm-up")
    untraced, traced = [], []
    while True:
        untraced.append(checked_call("untraced"))
        tracer.install()
        try:
            traced.append(checked_call("traced"))
        finally:
            tracer.remove()
        pair = (sum(untraced) + sum(traced)) / len(traced)
        if perf_counter() - start + pair > r.seconds:
            break

    cmd = command(r.workload)
    roots = [i for i, s in enumerate(tracer.spans) if s.name == COMMAND and s.parent is None]
    per_command = [layer_metrics(tracer, setup, i, cmd) for i in roots]
    metrics = {k: statistics.median(m.get(k, 0) for m in per_command) for k in per_command[0]} if per_command else {}
    metrics["cli.child_cpu_s"] = child.cpu_s
    # each traced call follows its untraced one, so the pair shares the
    # processor's phase on a shared host
    metrics["trace.overhead_s"] = statistics.median(t - u for u, t in zip(untraced, traced))

    if per_command:
        span = metrics[COMMAND + "_s"]
        self_s = metrics[f"cli.{cmd}_self_s"]
        r.out.append(
            f"traced command span {span:.4f} s = child spans and per-cell calls"
            f" {span - self_s:.4f} s + cli.{cmd}_self_s {self_s:.4f} s"
            f" (medians of {len(traced)} traced calls; {len(untraced)} untraced)"
        )
    if tracer.missing:
        r.out.append("functions no longer found, their metrics absent: " + ", ".join(sorted(tracer.missing)))
    trace_file = WORK / f"trace-{r.workload}-{r.seed}.json"
    trace_file.write_text(json.dumps({
        "spans": [[s.name, s.start, s.end, s.parent, s.counts] for s in tracer.spans],
        "counters": [[p, name, c.calls, c.seconds, c.hits] for (p, name), c in tracer.counters.items()],
    }))
    r.out.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return metrics


def machine() -> str:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), model)
    except OSError:
        pass
    return f"python {platform.python_version()}, nproc {len(os.sched_getaffinity(0))}, cpu {model}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the gridgaps CLI on one workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gridgaps" / "cli.py").is_file():
        print(f"error: no gridgaps sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2^63)")
    sys.path.insert(0, str(ROOT / "src"))
    pins = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[args.workload]

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        with Launcher() as launcher:
            r = Run(args.workload, args.seed, args.seconds, pins, work, launcher)
            measured = (traced_run if args.trace else timed_run)(r)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    unmeasured = [m["name"] for m in declared if m["name"] not in measured]
    print(f"machine: {machine()}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(r.out))
    if unmeasured:
        print("not measured on this workload, reported as 0: " + ", ".join(unmeasured))
    print(f"error_rate: {r.tally.failed}/{r.tally.attempted} = {r.tally.error_rate:.4f}")
    for problem in r.tally.problems:
        print("FAILED " + problem)
    print(json.dumps({
        "correct": r.tally.failed == 0,
        "attempted": r.tally.attempted,
        "failed": r.tally.failed,
        "metrics": {
            m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
