"""Self-test of the benchmark: tampered reports must fail its checks, and
its tracing must survive a traced function going away.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench -p "test_*.py"

Real reports come from the gridgaps CLI on tiny inputs; each test tampers
with one and checks that the check fails and the error rate goes up.
"""

from __future__ import annotations

import importlib
import json
import sys
import tempfile
import unittest
from pathlib import Path

import launch
import run
from tracing import COMMAND, Tracer
from workloads import DEFAULT_SEED, Expect, Tally, digest, judge


def _dump(report: dict) -> bytes:
    """Serialize the way the CLI does, so only the tampered value differs."""
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


class TamperedReports(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        run.WORK.mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=run.WORK)
        cls.work = Path(cls._tmp.name)
        cls.launcher = run.Launcher()
        pair = str(cls.work / "pair.dvo")
        gen = cls.launcher.run(["gen", "--shape", "diagonal_pair", "--n", "3", "--out", pair], cls.work)
        assert gen.exit_code == 0, gen.stderr
        cls.reports = {
            "count-n3": (["count", pair, "--json", "--hubs"], Expect(n=3, voxels=2)),
            "classify-n6": (["classify", pair, "--json"], Expect(n=3)),
            "verify-n4": (["verify", "--random", "3", "3", "0.5", "1", "2", "--json"], Expect(n=3, objects=2)),
        }
        cls.stdout = {w: cls.launcher.run(argv, cls.work).stdout for w, (argv, _) in cls.reports.items()}

    @classmethod
    def tearDownClass(cls) -> None:
        cls.launcher.close()
        cls._tmp.cleanup()

    def assert_caught(self, workload: str, stdout: bytes, exit_code: int | None = 0) -> list[str]:
        """The genuine report passes; the tampered one fails and raises the error rate."""
        expect = self.reports[workload][1]
        pinned = digest(self.stdout[workload])
        tally = Tally()
        tally.record("genuine", judge(workload, 0, self.stdout[workload], expect, pinned))
        self.assertEqual(tally.error_rate, 0.0, tally.problems)
        problems = judge(workload, exit_code, stdout, expect, pinned)
        tally.record("tampered", problems)
        self.assertTrue(problems)
        self.assertEqual(tally.error_rate, 0.5)
        return problems

    def test_changed_gap_count(self) -> None:
        report = json.loads(self.stdout["count-n3"])
        report["gaps"]["oracle"] += 1
        problems = self.assert_caught("count-n3", _dump(report))
        self.assertTrue(any("gap counts differ" in p for p in problems), problems)

    def test_changed_census(self) -> None:
        report = json.loads(self.stdout["count-n3"])
        report["census"]["c_star"][0] += 1
        problems = self.assert_caught("count-n3", _dump(report))
        self.assertTrue(any("c != c_star + c_prime" in p for p in problems), problems)

    def test_changed_histogram(self) -> None:
        report = json.loads(self.stdout["classify-n6"])
        report["histogram"]["simple"] += 1
        problems = self.assert_caught("classify-n6", _dump(report))
        self.assertTrue(any("histogram sums" in p for p in problems), problems)

    def test_identity_not_checked(self) -> None:
        report = json.loads(self.stdout["verify-n4"])
        next(iter(report["identities"].values()))["checked"] = 0
        self.assert_caught("verify-n4", _dump(report))

    def test_changed_byte(self) -> None:
        # one more space of indentation: the same JSON, different bytes
        stdout = self.stdout["count-n3"].replace(b'\n  "', b'\n   "', 1)
        self.assertEqual(json.loads(stdout), json.loads(self.stdout["count-n3"]))
        problems = self.assert_caught("count-n3", stdout)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_nonzero_exit(self) -> None:
        r = run.Run("count-n3", DEFAULT_SEED, 0, {}, self.work, self.launcher)
        child = r.child("missing file", ["count", str(self.work / "missing.dvo"), "--json"], Expect(n=3), None)
        self.assertEqual(child.exit_code, 2)
        self.assertEqual((r.tally.attempted, r.tally.failed, r.tally.error_rate), (1, 1, 1.0))
        self.assertIn("exit code 2", r.tally.problems[0])

    def test_timeout(self) -> None:
        self.assertEqual(judge("count-n3", None, b"", Expect(n=3)), ["timed out"])

    def test_speed_is_probed(self) -> None:
        """Every child comes back with the processor's speed while it ran,
        from at least MIN_PROBES probes, borrowed ones for a short child."""
        for argv in (["--help"], self.reports["classify-n6"][0]):
            child = self.launcher.run(argv, self.work)
            self.assertEqual(child.exit_code, 0)
            self.assertGreaterEqual(child.probes, launch.MIN_PROBES)
            self.assertGreater(child.speed, 0)
            self.assertAlmostEqual(child.ref_s, child.wall_s * child.speed)


class TracingSurvivesRefactors(unittest.TestCase):
    ARGV = ["verify", "--random", "3", "3", "0.5", "1", "2", "--json"]

    def setUp(self) -> None:
        sys.path.insert(0, str(run.ROOT / "src"))
        self.addCleanup(sys.path.remove, str(run.ROOT / "src"))
        self.cli = importlib.import_module("gridgaps.cli")
        self.gaps = importlib.import_module("gridgaps.gaps")
        self.identities = importlib.import_module("gridgaps.identities")

    def traced(self, tracer: Tracer) -> None:
        """One traced verify, whose report must match an untraced one."""
        untraced = run.call_main(self.cli, self.ARGV)
        tracer.install()
        try:
            traced = run.call_main(self.cli, self.ARGV)
        finally:
            tracer.remove()
        self.assertEqual(traced[:2], untraced[:2])

    def test_every_binding_is_traced_and_restored(self) -> None:
        tracer = Tracer()
        self.traced(tracer)
        root = next(i for i, s in enumerate(tracer.spans) if s.name == COMMAND)
        children = [s.name for s in tracer.spans if s.parent == root]
        # census and the identities are called through cli's own bindings
        self.assertEqual(children.count("objects.census"), 2)
        self.assertEqual(children.count("shapes.generate"), 2)
        self.assertEqual(sum(name.startswith("identities.") for name in children), 16)
        totals = tracer.totals({root})
        self.assertGreater(totals["gaps.is_gap_calls"], 0)
        self.assertGreater(totals["identities.hub_nub_degree_checked"], 0)
        self.assertLess(tracer.self_seconds(root), totals[COMMAND + "_s"])
        self.assertIs(self.cli.ALL_IDENTITIES, self.identities.ALL_IDENTITIES)
        self.assertIs(self.cli.census, self.identities.census)

    def test_missing_function_is_recorded_not_fatal(self) -> None:
        original = self.gaps.is_gap_by_adjacency
        del self.gaps.is_gap_by_adjacency
        try:
            tracer = Tracer()
            self.traced(tracer)
        finally:
            self.gaps.is_gap_by_adjacency = original
        self.assertEqual(tracer.missing, {"gaps.is_gap_by_adjacency"})
        self.assertNotIn("gaps.is_gap_by_adjacency_calls", tracer.totals(set(range(len(tracer.spans)))))


if __name__ == "__main__":
    unittest.main()
