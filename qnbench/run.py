"""qnbudget benchmark: one workload, closed loop, one client, one process.

    python3 qnbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each request is one or more in-process calls
to qnbudget.cli.main(argv) with stdout and stderr captured, checked against
the stored reference outputs.  The last stdout line is the JSON result; a
result document with the machine note goes to qnbench/out/results/.

--trace 0 reports the end-to-end metrics.  --trace 1 spends half the time
untraced and half traced (see spans.py) and reports the per-layer metrics
and the tracing overhead.  Request and set-up times are scaled to a
reference host speed (see calibrate.py); self times are wall times.
"""

from __future__ import annotations

import os

# one thread: pin BLAS before numpy loads; set-up probes inherit this
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib.metadata  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
from reference import check_budget, check_validate, load_reference  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, make_request, pool_order  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(BENCH_DIR, "out")
RESULTS = os.path.join(WORK_ROOT, "results")

SETUP_PROBES = 11
MAX_SPANS = 1_500_000
KEPT_FAILURES = 5


def import_program():
    """Import qnbudget from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import qnbudget.cli
    except ImportError as exc:
        raise SystemExit(f"cannot import qnbudget from {SRC}: {exc}")
    if not os.path.abspath(qnbudget.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"qnbudget was imported from {qnbudget.__file__}, "
                         f"not from {SRC}")


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def machine_note() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu": cpu,
            "blas_threads": {var: os.environ[var] for var in BLAS_ENV}}


def write_inputs(req, workdir: str) -> None:
    if req.config is not None:
        with open(os.path.join(workdir, "config.json"), "wb") as fh:
            fh.write(req.config)


class Runner:
    """Runs, times and checks the requests of one workload."""

    def __init__(self, w, ref, workdir: str):
        self.w, self.ref, self.workdir = w, ref, workdir
        self.attempted = 0
        self.failures = []
        self.output_bytes = []
        self.tracer = None

    def run(self, req) -> tuple[float, float]:
        """perf_counter times at the start and end of one request; the
        outcome is checked and counted."""
        cli = sys.modules["qnbudget.cli"]
        write_inputs(req, self.workdir)
        if self.tracer is not None:
            self.tracer.request_id = self.attempted
        stdout, stderr = io.StringIO(), io.StringIO()
        codes, reasons = [], []
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            t0 = time.perf_counter()
            try:
                for argv in req.calls:
                    codes.append(cli.main(argv))
            except SystemExit as exc:
                codes.append(exc.code)
            except Exception:
                reasons.append("raised: " + traceback.format_exc(limit=-3))
            t1 = time.perf_counter()
        if not reasons:
            if self.w.kind == "validate":
                reasons = check_validate(self.ref, req, codes[0],
                                         stdout.getvalue())
            else:
                reasons = check_budget(self.w, self.ref, req, codes)
        self.attempted += 1
        if reasons:
            self.failures.append({"pool_index": req.index,
                                  "argv": list(req.calls), "reasons": reasons})
        self.output_bytes.append(
            len(stdout.getvalue()) + len(stderr.getvalue())
            + sum(os.path.getsize(p) for p in req.outputs if os.path.exists(p)))
        return t0, t1

    def loop(self, requests, seconds: float, stop=lambda: False,
             probe=None, probes: int = 0) -> tuple[list, list, dict]:
        """Closed loop for `seconds` of wall time.

        Returns request times and set-up probe times, both scaled to the
        reference host speed (calibrate.py), and a dict of their wall
        times and the kernel time quartiles.  `probe` runs `probes` times at
        even intervals of the loop, outside the loop's clock, so that its
        samples see the same stretch of machine time as the requests.
        """
        spans, setups = [], []
        start, paused = time.perf_counter(), 0.0
        with calibrate.SpeedClock() as clock:
            while True:
                busy = time.perf_counter() - start - paused
                if spans and (busy >= seconds or stop()):
                    break
                if (len(setups) < probes
                        and busy >= (len(setups) + 0.5) * seconds / probes):
                    t0 = time.perf_counter()
                    with clock.paused():
                        setups.append(probe())
                    paused += time.perf_counter() - t0
                    continue
                spans.append(self.run(next(requests)))
            while len(setups) < probes:
                with clock.paused():
                    setups.append(probe())
        # a probe runs in a process of its own, on either core, while this
        # one waits: it is scaled by the median speed of the whole loop,
        # which its evenly spread samples share
        speed = calibrate.REF_S / statistics.median(clock.took)
        return clock.scaled(spans), [wall * speed for wall in setups], {
            "request_wall_s": [end - start for start, end in spans],
            "setup_wall_s": setups,
            "kernel_s": {"samples": len(clock.took),
                         "quartiles": statistics.quantiles(clock.took, n=4)}}


def setup_probe(w, index: int, workdir: str):
    """Returns a function timing one fresh interpreter that imports
    qnbudget, loads the config and builds the request of pool entry
    `index`, with inputs of its own under `workdir`."""
    probe_dir = os.path.join(workdir, "probe")
    os.makedirs(probe_dir)
    req = make_request(w, index, probe_dir)
    write_inputs(req, probe_dir)
    cmd = [sys.executable, os.path.join(BENCH_DIR, "probe.py"), SRC, "--",
           *req.calls[0]]

    def probe() -> float:
        # no timeout: a wait with one polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0
    return probe


def end_to_end(w, times, setups, units) -> tuple[dict, dict]:
    tail = float(np.percentile(times, w.tail_pct))
    return {
        "setup_s": statistics.median(setups),
        "request_s.p50": statistics.median(times),
        "request_s.tail": tail,
        "points_per_s": units * len(times) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"tail_percentile": w.tail_pct, "samples": len(times),
        "samples_beyond_tail": sum(t > tail for t in times),
        "request_times_s": times}


def per_layer(tracer, traced_times, traced_wall, untraced_times, runner,
              cache_info):
    n = len(traced_times)
    summary = tracer.summary()
    metrics, busy_by_layer = {}, {}
    for name, (calls, busy) in summary.items():
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.self_s"] = busy / n
        layer = name.split(".")[0]
        busy_by_layer[layer] = busy_by_layer.get(layer, 0.0) + busy
    hits, misses = cache_info
    metrics["ifo.effective_src_loss.cache_hit_ratio"] = (
        hits / (hits + misses) if hits + misses else 0.0)
    metrics["ifo.errors"] = tracer.ifo_errors / n
    metrics["cli.output_bytes"] = statistics.median(runner.output_bytes)
    traced_p50 = statistics.median(traced_times)
    metrics["trace.request_s.p50"] = traced_p50
    metrics["trace.overhead_ratio"] = traced_p50 / statistics.median(untraced_times)
    # self times are wall times, so their shares are of traced wall time
    total = sum(traced_wall)
    shares = {layer: busy / total for layer, busy in busy_by_layer.items()}
    shares["benchmark"] = 1.0 - sum(shares.values())
    return metrics, {"layer_share_of_traced_request_time": shares,
                     "traced_requests": n, "spans": len(tracer.start)}


def src_loss_cache_info():
    """(hits, misses) of the band-loss cache in ifo, (0, 0) if it has none."""
    cached = getattr(sys.modules["qnbudget.ifo"], "_effective_src_loss_cached",
                     None)
    if cached is None or not hasattr(cached, "cache_info"):
        return 0, 0
    info = cached.cache_info()
    return info.hits, info.misses


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    w = WORKLOADS[args.workload]
    declared = declared_metrics()
    ref = load_reference(w)
    units = len(ref["checks"]) if w.kind == "validate" else w.points * len(w.curves)

    workdir = os.path.join(WORK_ROOT, f"{w.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    try:
        order = pool_order(w, args.seed)
        requests = (make_request(w, i, workdir) for i in order)
        runner = Runner(w, ref, workdir)
        first = next(requests)
        info = {}
        if args.trace == 0:
            probe = setup_probe(w, first.index, workdir)
            runner.run(first)   # warm-up: lazy imports and first-call costs
            times, setups, raw = runner.loop(requests, args.seconds,
                                             probe=probe, probes=SETUP_PROBES)
            metrics, info = end_to_end(w, times, setups, units)
            info.update(setup_samples_s=setups, **raw)
            kind = "end_to_end"
        else:
            runner.run(first)
            untraced, _, _ = runner.loop(requests, args.seconds / 2)
            runner.output_bytes.clear()
            tracer = Tracer(MAX_SPANS)
            hits0, misses0 = src_loss_cache_info()
            runner.tracer = tracer
            tracer.install()
            try:
                traced, _, raw = runner.loop(requests, args.seconds / 2,
                                             stop=lambda: tracer.full)
            finally:
                tracer.uninstall()
            hits1, misses1 = src_loss_cache_info()
            metrics, info = per_layer(tracer, traced, raw["request_wall_s"],
                                      untraced, runner,
                                      (hits1 - hits0, misses1 - misses0))
            tracer.save(os.path.join(RESULTS, f"{w.name}.spans.npz"))
            kind = "per_layer"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if set(metrics) != set(declared[kind]):
        raise SystemExit(f"emitted {kind} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(declared[kind]))}")
    failed = len(runner.failures)
    doc = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_note(),
        "attempted": runner.attempted, "failed": failed,
        "error_rate": failed / runner.attempted,
        "metrics": {name: {"value": metrics[name], "unit": declared[kind][name]}
                    for name in sorted(metrics)},
        **info,
        "failures": runner.failures[:KEPT_FAILURES],
    }
    with open(os.path.join(RESULTS, f"{w.name}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
    for name, m in doc["metrics"].items():
        print(f"{w.name}  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"{w.name}  error_rate {doc['error_rate']:.6g} "
          f"({failed} of {runner.attempted} requests failed)")
    for f in runner.failures[:KEPT_FAILURES]:
        print(f"FAILED pool entry {f['pool_index']}: {f['reasons'][0]}",
              file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted,
                      "failed": failed, "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
