#!/usr/bin/env python3
"""Benchmark of fockops: three workloads, timed from outside the package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``fockops`` from
``src/`` and installs nothing.  Workloads (see perfbench/README.md):

  verify-default    ``fockops verify`` at the default configuration
  cli-batch         ``eval`` kernel (10k points), ``eval`` weighted
                    transform (1k points), ``truncate`` at maxN 10^6
  two-route-ladder  closed-form and quadrature routes of the weighted
                    Segal-Bargmann transform over four (n, degree) rungs

One parent process runs one child at a time, each a fresh interpreter
with BLAS pinned to one thread, under ``probed.py``, which samples the
speed of the CPU while the child runs.  With ``--trace 0`` it times
repetitions until ``--seconds`` have passed (at least three), scales
each time to a reference host speed and prints the end-to-end
metrics; with ``--trace 1`` it runs the workload in-process, untraced
and traced, and prints the per-layer metrics and the tracing overhead.
Every output is checked; a miss counts as a failed operation and makes
``correct`` false.  The last line of stdout is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracer  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
PROBED = os.path.join(HERE, "probed.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_run")
SETUPS_PER_REP = 2
MIN_REPS = 3
CHILD_TIMEOUT_S = 150
AGREE_TOL = 1e-6
L2_TOL = 1e-9
C2W_TOL = 1e-9
# Time of one probed.py probe at the reference host speed, about what it
# takes in the fast state of the 2-vCPU Xeon the benchmark was built on.
# Changing it rescales every time metric.
PROBE_REF_S = 60e-6

# name: (unit, better)
END_TO_END = {"setup_s": ("s", "lower"), "scaled_wall_s": ("s", "lower"),
              "peak_rss_mb": ("MB", "lower")}


@dataclass
class Outcome:
    """One finished child process, measured from outside."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    probes: list  # [perf_counter, seconds] pairs from probed.py

    def speed(self, t0: float = -math.inf, t1: float = math.inf) -> float:
        """Mean of PROBE_REF_S / probe over the probes taken in [t0, t1]
        (all probes if none fall there): the factor that turns a time
        measured in this process into one at the reference host speed.
        A child without probes was killed and counts as failed; 1.0 then."""
        window = [p for t, p in self.probes if t0 <= t <= t1] or [p for _, p in self.probes]
        return statistics.fmean(PROBE_REF_S / p for p in window) if window else 1.0

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed()


class Tally:
    """Operations attempted and failed, with the first few misses."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.misses) < 20:
                self.misses.append(what)
        return ok


class Runner:
    def __init__(self, workload: str, workdir: str):
        self.workload = workload
        self.workdir = workdir
        self.log = os.path.join(workdir, "children.log")
        self.tally = Tally()
        self.env = dict(os.environ)
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.env.pop("FOCK_LOG", None)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def spawn(self, argv: list[str]) -> Outcome:
        """Run one Python child to completion under probed.py; wall time,
        CPU and peak RSS from outside, host-speed probes from inside."""
        probes_path = self.path("probes.json")
        argv = [sys.executable, PROBED, probes_path, *argv]
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(probes_path, encoding="utf-8") as fh:
                probes = json.load(fh)
            os.remove(probes_path)
        except (OSError, ValueError):
            probes = []
        self.tally.check(bool(probes), f"no host-speed probes from {argv[3:5]}")
        return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                       proc.returncode, probes)

    def child(self, *args: str) -> Outcome:
        return self.spawn([CHILD, *args])

    def child_json(self, name: str, *args: str) -> dict | None:
        out = self.path(name)
        done = self.child(*args, out)
        if not self.tally.check(done.code == 0, f"child {args[0]} exited {done.code}"):
            return None
        with open(out, encoding="utf-8") as fh:
            return json.load(fh)

    # -- checks ---------------------------------------------------------------

    def check_verify(self, report_path: str, code: int) -> str | None:
        """Gates on one verify report; returns the report's SHA-256."""
        t = self.tally
        t.check(code == 0, f"verify exited {code}")
        try:
            with open(report_path, "rb") as fh:
                raw = fh.read()
            report = json.loads(raw)
        except (OSError, ValueError) as err:
            t.check(False, f"verify report unreadable: {err}")
            return None
        t.check(report.get("pass") is True, "verify report pass is not true")
        t.check(report.get("checkCount") == inputs.VERIFY_CHECKS,
                f"verify checkCount {report.get('checkCount')}")
        for group, checks in report.get("groups", {}).items():
            for c in checks:
                t.check(c.get("pass") is True and _finite(c.get("residual")),
                        f"verify check {group}/{c.get('name')} failed")
        return hashlib.sha256(raw).hexdigest()

    def check_eval(self, name: str, report_path: str, code: int, total: int,
                   reference: dict) -> None:
        t = self.tally
        t.check(code == 0, f"eval {name} exited {code}")
        try:
            with open(report_path, encoding="utf-8") as fh:
                values = json.load(fh)["values"]
        except (OSError, ValueError, KeyError) as err:
            t.check(False, f"eval {name} report unreadable: {err}")
            return
        t.check(len(values) == total, f"eval {name} has {len(values)} values, not {total}")
        for i, row in enumerate(values):
            value = row.get("value", {})
            t.check("error" not in row and _finite(value.get("re")) and _finite(value.get("im")),
                    f"eval {name} point {i}: {row.get('error', value)}")
        for key, (re, im) in reference.items():
            i = int(key)
            value = values[i].get("value", {}) if i < len(values) else {}
            got = complex(value.get("re", math.nan), value.get("im", math.nan))
            want = complex(re, im)
            t.check(abs(got - want) <= AGREE_TOL * max(1.0, abs(want)),
                    f"eval {name} point {i}: {got} vs independent route {want}")

    def check_truncate(self, report_path: str, code: int) -> None:
        t = self.tally
        t.check(code == 0, f"truncate exited {code}")
        try:
            with open(report_path, encoding="utf-8") as fh:
                seq = json.load(fh)["sequence"]["logCaInv"]
        except (OSError, ValueError, KeyError) as err:
            t.check(False, f"truncate report unreadable: {err}")
            return
        ok = (len(seq) == inputs.TRUNCATE_MAX_N and all(map(_finite, seq))
              and all(b >= a for a, b in zip(seq, seq[1:])))
        t.check(ok, "truncate logCaInv is not a finite non-decreasing sequence of length maxN")

    def check_ladder(self, result: dict) -> None:
        t = self.tally
        for (n, degree), closed, quad, l2, c2w in zip(
                inputs.LADDER_RUNGS, result["closed"], result["quadrature"],
                result["l2"], result["c2w_residual"]):
            for j, (a, b) in enumerate(zip(closed, quad)):
                a, b = complex(*a), complex(*b)
                t.check(abs(a - b) <= AGREE_TOL * max(1.0, abs(a)),
                        f"ladder ({n},{degree}) point {j}: closed {a} vs quadrature {b}")
            exact = (2.0**degree * math.factorial(degree) * math.sqrt(math.pi)) ** n
            got = complex(*l2)
            t.check(abs(got - exact) <= L2_TOL * exact,
                    f"ladder ({n},{degree}) l2 norm {got} vs exact {exact}")
            t.check(c2w <= C2W_TOL, f"ladder ({n},{degree}) classical_to_weighted residual {c2w}")

    # -- one repetition ---------------------------------------------------------

    def check_cli(self, reports: dict[str, str], codes: dict[str, int],
                  reference: dict | None) -> str | None:
        digest = None
        if self.workload == "verify-default":
            digest = self.check_verify(reports["verify"], codes["verify"])
        else:
            self.check_eval("kernel", reports["kernel"], codes["kernel"],
                            inputs.KERNEL_POINTS, reference["kernel"])
            self.check_eval("transform", reports["transform"], codes["transform"],
                            inputs.TRANSFORM_POINTS, reference["transform"])
            self.check_truncate(reports["truncate"], codes["truncate"])
        for path in reports.values():
            if os.path.exists(path):
                os.remove(path)
        return digest

    def repetition(self, index: int, reference: dict | None) -> dict:
        """One timed repetition; every process a fresh interpreter.  Each
        time is also scaled to the reference host speed by the probes taken
        while it ran (``Outcome.speed``)."""
        if self.workload == "two-route-ladder":
            out = self.path(f"ladder-rep{index}.json")
            done = self.child("ladder", self.workdir, out)
            if not self.tally.check(done.code == 0, f"ladder child exited {done.code}"):
                return {"wall_s": done.wall_s, "scaled_wall_s": done.scaled_s,
                        "cpu_s": done.cpu_s, "rss_mb": done.rss_mb, "stages": {}}
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            os.remove(out)
            self.check_ladder(result)
            t0, t1, t2 = result["clock"]
            closed = result["closed_s"] * done.speed(t0, t1)
            quad = result["quadrature_s"] * done.speed(t1, t2)
            return {
                "wall_s": result["closed_s"] + result["quadrature_s"],
                "scaled_wall_s": closed + quad,
                "cpu_s": result["closed_cpu_s"] + result["quadrature_cpu_s"],
                "rss_mb": done.rss_mb,
                "stages": {"closed_form_s": closed, "quadrature_route_s": quad},
            }
        tag = f"rep{index}"
        invocations = inputs.cli_invocations(self.workload, self.workdir, tag)
        done = {name: self.spawn(["-m", "fockops.cli", *argv])
                for name, argv in invocations.items()}
        reports = {name: inputs.report_path(self.workdir, name, tag) for name in invocations}
        digest = self.check_cli(reports, {k: v.code for k, v in done.items()}, reference)
        if self.workload == "verify-default":
            stages = {"verify_s": done["verify"].scaled_s}
        else:
            stages = {
                "eval_kernel_pts_per_s": inputs.KERNEL_POINTS / done["kernel"].scaled_s,
                "eval_transform_pts_per_s": inputs.TRANSFORM_POINTS / done["transform"].scaled_s,
                "truncate_s": done["truncate"].scaled_s,
            }
        return {
            "wall_s": sum(d.wall_s for d in done.values()),
            "scaled_wall_s": sum(d.scaled_s for d in done.values()),
            "cpu_s": sum(d.cpu_s for d in done.values()),
            "rss_mb": max(d.rss_mb for d in done.values()),
            "stages": stages,
            "digest": digest,
        }

    def traced_pair(self, index: int, reference: dict | None) -> dict | None:
        """The workload in-process, untraced then traced, in fresh interpreters."""
        runs = {}
        for tag in ("untraced", "traced"):
            extra = ["--trace"] if tag == "traced" else []
            runs[tag] = self.child_json(f"inproc-{tag}{index}.json", "inproc", self.workload,
                                        self.workdir, *extra)
            if runs[tag] is None:
                return None
            if self.workload == "two-route-ladder":
                self.check_ladder(runs[tag]["ladder"])
            else:
                reports = {name: inputs.report_path(self.workdir, name, tag)
                           for name in runs[tag]["exit"]}
                runs[tag]["digest"] = self.check_cli(reports, runs[tag]["exit"], reference)
        traced = runs["traced"]
        if self.workload == "verify-default":
            self.tally.check(traced["digest"] == runs["untraced"]["digest"],
                             "traced verify report differs from the untraced one")
        for prefix in traced["missing_calls"]:
            self.tally.check(False, f"trace: {prefix} has no calls on {self.workload}")
        layers = dict(traced["layers"])
        layers["trace.untraced_s"] = runs["untraced"]["wall_s"]
        layers["trace.traced_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - runs["untraced"]["wall_s"]
        return layers


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def _repeat(seconds: float, step, at_least: int) -> list:
    """Call ``step(i)`` at least ``at_least`` times, then while the next
    call is expected to finish within ``seconds`` of the first."""
    results, start, last = [], time.perf_counter(), 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(results) >= at_least and elapsed + last > seconds:
            return results
        t0 = time.perf_counter()
        results.append(step(len(results)))
        last = time.perf_counter() - t0


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _src_lines() -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def _check_benchmark_file() -> None:
    """The metric lists here and in BENCHMARK.json must agree."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    layers = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    if e2e != END_TO_END:
        raise SystemExit("BENCHMARK.json end_to_end does not match perfbench/run.py")
    if layers != {name: (tracer.unit_of(name), tracer.better_of(name))
                  for name in tracer.metric_names()}:
        raise SystemExit("BENCHMARK.json per_layer does not match perfbench/tracer.py")
    if {w["name"] for w in spec["workloads"]} != set(inputs.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads do not match perfbench/inputs.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(ROOT, "src", "fockops", "__init__.py")):
        print("perfbench: no src/fockops in this checkout; nothing to measure", file=sys.stderr)
        return 2
    _check_benchmark_file()
    # Turn a termination request into SystemExit, so the running child is
    # killed and reaped and the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def measure(args, workdir: str) -> int:
    run = Runner(args.workload, workdir)
    inputs.write_inputs(args.workload, args.seed, workdir)

    # Untimed first child: compiles bytecode, warms the file cache, and
    # reports the versions of what it imported.
    meta = run.child_json("meta.json", "setup", args.workload, workdir)
    if meta is None:
        print(f"perfbench: setup child failed; see {run.log}", file=sys.stderr)
        with open(run.log, encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-4000:])
        return 1
    reference = None
    if args.workload == "cli-batch":
        reference = (run.child_json("reference.json", "reference", str(args.seed), workdir)
                     or {"kernel": {}, "transform": {}})

    detail: dict = {}
    if args.trace:
        pairs = _repeat(args.seconds, lambda i: run.traced_pair(i, reference), 1)
        pairs = [p for p in pairs if p is not None]
        names = tracer.metric_names()
        metrics = {
            name: {"value": statistics.median(p[name] for p in pairs) if pairs else 0.0,
                   "unit": tracer.unit_of(name)}
            for name in names
        }
        detail["traced_pairs"] = len(pairs)
    else:
        setups: list[Outcome] = []

        def step(index: int) -> dict:
            # Set-up children run next to each repetition, so that setup_s
            # samples the same host state as the repetitions.
            for _ in range(SETUPS_PER_REP):
                done = run.child("setup", args.workload, workdir)
                run.tally.check(done.code == 0, f"setup child exited {done.code}")
                setups.append(done)
            return run.repetition(index, reference)

        reps = _repeat(args.seconds, step, MIN_REPS)
        digests = {r["digest"] for r in reps if r.get("digest")}
        if args.workload == "verify-default":
            run.tally.check(len(digests) == 1, "verify report bytes differ across repetitions")
            detail["verify_report_sha256"] = sorted(digests)
        series = {"setup_s": [s.scaled_s for s in setups],
                  "setup_wall_s": [s.wall_s for s in setups],
                  "scaled_wall_s": [r["scaled_wall_s"] for r in reps],
                  "wall_s": [r["wall_s"] for r in reps],
                  "peak_rss_mb": [r["rss_mb"] for r in reps],
                  "cpu_s": [r["cpu_s"] for r in reps]}
        for r in reps:
            for k, v in r["stages"].items():
                series.setdefault(k, []).append(v)
        metrics = {name: {"value": statistics.median(series[name]), "unit": unit}
                   for name, (unit, _) in END_TO_END.items()}
        detail["quartiles"] = {k: _quartiles(v) for k, v in series.items()}

    meta.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(), "cpu": _cpu_model(),
        "commit": _git_commit(), "src_lines": _src_lines(),
    })
    print("perfbench meta " + json.dumps(meta, sort_keys=True))
    print("perfbench detail " + json.dumps(detail, sort_keys=True))
    for miss in run.tally.misses:
        print(f"perfbench miss: {miss}", file=sys.stderr)
    result = {
        "correct": run.tally.failed == 0 and run.tally.attempted > 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
