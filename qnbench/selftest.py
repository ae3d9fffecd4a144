"""Self-tests of the benchmark itself (not of qnbudget).

    python3 qnbench/selftest.py
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest

import numpy as np

import calibrate
from run import ROOT, WORK_ROOT, Runner, declared_metrics, import_program

import_program()

from qnbudget import default_config  # noqa: E402
import qnbudget.ifo  # noqa: E402
import qnbudget.limits  # noqa: E402
from reference import check_budget, check_validate, load_reference  # noqa: E402
from spans import SPAN_NAMES, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, make_request, pool_order  # noqa: E402

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def first_requests(w, seed, count, workdir="wd"):
    order = pool_order(w, seed)
    return [make_request(w, next(order), workdir) for _ in range(count)]


class TestInputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in WORKLOADS.values():
            a = first_requests(w, 7, 5)
            b = first_requests(w, 7, 5)
            self.assertEqual([(r.calls, r.config) for r in a],
                             [(r.calls, r.config) for r in b], w.name)

    def test_different_seeds_differ(self):
        for w in WORKLOADS.values():
            a = first_requests(w, 7, 5)
            b = first_requests(w, 8, 5)
            self.assertNotEqual([r.calls for r in a], [r.calls for r in b],
                                w.name)

    def test_no_repeat_within_pool(self):
        for w in WORKLOADS.values():
            order = pool_order(w, 3)
            seen = {next(order) for _ in range(w.pool)}
            self.assertEqual(len(seen), w.pool, w.name)


class TestMetricNames(unittest.TestCase):
    def test_emitted_names_declared(self):
        declared = declared_metrics()
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = subprocess.run(
                [sys.executable, "qnbench/run.py", "--workload",
                 "validate_random", "--seed", "1", "--seconds", "0.2",
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=True,
                timeout=120)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            self.assertEqual(set(result), {"correct", "attempted", "failed",
                                           "metrics"})
            self.assertEqual(set(result["metrics"]), set(declared[kind]))
            for name in result["metrics"]:
                self.assertRegex(name, NAME_RE)

    def test_declared_names_valid(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
                 for m in spec[key]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME_RE)


class TestSelfTime(unittest.TestCase):
    def test_synthetic_tree(self):
        # 0: root [0, 10] with children 1: [1, 4] and 2: [5, 9];
        # 3: [2, 3] is a child of 1; 4: [11, 12] is a second root
        start = [0.0, 1.0, 5.0, 2.0, 11.0]
        end = [10.0, 4.0, 9.0, 3.0, 12.0]
        parent = [-1, 0, 0, 1, -1]
        np.testing.assert_allclose(self_times(start, end, parent),
                                   [10 - 3 - 4, 3 - 1, 4, 1, 1])

    def test_wraps_imported_references(self):
        orig = qnbudget.limits.effective_internal_loss
        tracer = Tracer(1000)
        tracer.install()
        try:
            qnbudget.limits.loss_limit(default_config(), 600.0, 0.25)
        finally:
            tracer.uninstall()
        self.assertIs(qnbudget.limits.effective_internal_loss, orig)
        names = [SPAN_NAMES[i] for i in tracer.name_id]
        self.assertEqual(names, ["limits.loss_limit",
                                 "ifo.effective_internal_loss",
                                 "ifo.effective_src_loss"])
        self.assertEqual(list(tracer.parent), [-1, 0, 1])
        self.assertEqual(tracer.ifo_errors, 0)

    def test_error_counted_once(self):
        # a negative frequency raises in effective_internal_loss, and the
        # error then leaves io_relation and optimal_spectrum as well
        tracer = Tracer(1000)
        tracer.install()
        try:
            with self.assertRaises(ValueError):
                qnbudget.ifo.optimal_spectrum(default_config(), -1.0)
            with self.assertRaises(ValueError):
                qnbudget.ifo.optimal_spectrum(default_config(), -2.0)
        finally:
            tracer.uninstall()
        names = {SPAN_NAMES[i] for i in tracer.name_id}
        self.assertTrue({"ifo.optimal_spectrum", "ifo.io_relation",
                         "ifo.effective_internal_loss"} <= names)
        self.assertEqual(tracer.ifo_errors, 2)


class TestCalibration(unittest.TestCase):
    def test_scaled_between_samples(self):
        ref = calibrate.REF_S
        clock = calibrate.SpeedClock()
        # samples at reference speed, except one at half speed at t=1
        clock.at.extend([0.0, 1.0, 2.0, 3.0])
        clock.took.extend([ref, 2 * ref, ref, ref])
        # [0.5, 1.5] runs at 0.75 of reference speed, the mean of the
        # samples on each side, and holds the kernel run at t=1, which is
        # taken out; [2.25, 2.75] runs at reference speed
        np.testing.assert_allclose(
            clock.scaled([(0.5, 1.5), (2.25, 2.75)]),
            [0.75 - 2 * ref * 0.75, 0.5])
        with self.assertRaises(ValueError):
            clock.scaled([(-1.0, 0.5)])

    def test_clock_samples_while_running(self):
        with calibrate.SpeedClock(period=0.005) as clock:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                pass
            t1 = time.perf_counter()
            with clock.paused():
                t2 = time.perf_counter()
                time.sleep(0.05)
                t3 = time.perf_counter()
        self.assertGreater(len(clock.took), 5)
        self.assertFalse([t for t in clock.at if t2 <= t <= t3])
        self.assertGreater(min(clock.scaled([(t0, t1), (t2, t3)])), 0.0)


class TestReferenceGate(unittest.TestCase):
    def setUp(self):
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(dir=WORK_ROOT)

    def tearDown(self):
        shutil.rmtree(self.workdir)

    def test_budget_perturbed_output_fails(self):
        w = WORKLOADS["tabulated_ponderomotive"]
        runner = Runner(w, load_reference(w), self.workdir)
        req = first_requests(w, 5, 1, self.workdir)[0]
        runner.run(req)
        self.assertEqual(runner.failures, [])
        with open(req.outputs[0]) as fh:
            doc = json.load(fh)
        doc["columns"]["full_optimal"][17] *= 1 + 1e-7
        with open(req.outputs[0], "w") as fh:
            json.dump(doc, fh)
        reasons = check_budget(w, runner.ref, req, [0])
        self.assertEqual(len(reasons), 1)
        self.assertIn("full_optimal[17]", reasons[0])
        self.assertTrue(check_budget(w, runner.ref, req, [3]))

    def test_validate_perturbed_output_fails(self):
        w = WORKLOADS["validate_random"]
        ref = load_reference(w)
        req = first_requests(w, 5, 1, self.workdir)[0]
        rc, status, _ = ref["entries"][req.index]
        lines = [f"{'PASS' if s == 'P' else 'FAIL'}  {name} max rel deviation"
                 for name, s in zip(ref["checks"], status)]
        self.assertEqual(check_validate(ref, req, rc, "\n".join(lines)), [])
        flipped = "\n".join(lines).replace("PASS", "FAIL", 1)
        self.assertTrue(check_validate(ref, req, rc, flipped))
        self.assertTrue(check_validate(ref, req, 1 - rc, "\n".join(lines)))


if __name__ == "__main__":
    unittest.main()
