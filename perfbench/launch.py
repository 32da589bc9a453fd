"""Start commands for run.py and report their wall time, resource usage and
the speed the processor ran at while they ran.

A child's peak RSS (``ru_maxrss``) never reads lower than the peak of the
memory it was started from. run.py imports gridgaps and builds objects, so
it starts its commands through this small process instead: their peak RSS
then reads no lower than an idle interpreter's.

On a shared host the processor runs in fast and slow phases, which last from
a few seconds to over a minute and differ by up to 2x in speed. So this
process pins itself, and with it every command it starts, to one CPU, and
every ``PROBE_INTERVAL_S`` it times a fixed piece of pure-Python work (a
probe) on that CPU. A command's ``speed`` is the mean over the probes taken
while it ran of ``REFERENCE_PROBE_S / probe time``: 1.0 when the processor
ran at the reference speed, 0.6 when it ran at 60% of it. ``wall_s * speed``
is the wall time the command would have taken at the reference speed.

Reads one request per line on stdin, a JSON list
``[argv, stdout_path, stderr_path, timeout_s]``, and answers each with one
JSON line ``{"exit_code", "wall_s", "speed", "probes", "maxrss_kb",
"cpu_s"}``. ``exit_code`` is null when the command was killed at its
timeout. Each command is waited for before the next is read. Between
requests it keeps probing, so a command too short for ``MIN_PROBES`` probes
of its own borrows the most recent earlier ones.
"""

import json
import os
import select
import signal
import sys
from collections import deque
from time import perf_counter

#: how often the speed of the CPU is probed; each probe takes about 1% of it
PROBE_INTERVAL_S = 0.02
#: a probe's time at the reference speed: about its time in the fast phase
#: of a shared 2-core Intel Xeon under CPython 3.11.7
REFERENCE_PROBE_S = 2.0e-4
#: a command's speed is averaged over at least this many probes
MIN_PROBES = 5
#: probes kept for commands too short to get MIN_PROBES of their own
_recent: deque = deque(maxlen=MIN_PROBES)


def probe() -> float:
    """Time one fixed piece of work shaped like gridgaps' census: tuple keys
    into a dict. Returns the processor's speed relative to the reference."""
    start = perf_counter()
    counts: dict = {}
    for i in range(900):
        key = (i & 255, i >> 3)
        counts[key] = counts.get(key, 0) + 1
    speed = REFERENCE_PROBE_S / (perf_counter() - start)
    _recent.append(speed)
    return speed


def launch(argv: list[str], stdout_path: str, stderr_path: str, timeout_s: float) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644),
    ]
    earlier = list(_recent)
    speeds: list[float] = []
    start = perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    finished = False
    try:
        pidfd = os.pidfd_open(pid)
        try:
            deadline = start + timeout_s
            while not finished and perf_counter() < deadline:
                wait = min(PROBE_INTERVAL_S, max(0.0, deadline - perf_counter()))
                finished = bool(select.select([pidfd], [], [], wait)[0])
                if not finished:
                    speeds.append(probe())
        finally:
            os.close(pidfd)
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        wall = perf_counter() - start
    if len(speeds) < MIN_PROBES:
        speeds = earlier[-(MIN_PROBES - len(speeds)):] + speeds
    return {
        "exit_code": os.waitstatus_to_exitcode(status) if finished else None,
        "wall_s": wall,
        "speed": sum(speeds) / len(speeds) if speeds else 1.0,
        "probes": len(speeds),
        "maxrss_kb": usage.ru_maxrss,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }


def requests():
    """Yield the request lines on stdin, probing while none is waiting."""
    pending = b""
    while True:
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            yield line
        if not select.select([0], [], [], PROBE_INTERVAL_S)[0]:
            probe()
            continue
        chunk = os.read(0, 65536)
        if not chunk:
            return
        pending += chunk


def main() -> None:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for line in requests():
        sys.stdout.write(json.dumps(launch(*json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
