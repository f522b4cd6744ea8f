"""Run a Python program while sampling how fast this CPU runs right now.

    python3 perfbench/probed.py PROBES_OUT -m MODULE ARGS...
    python3 perfbench/probed.py PROBES_OUT SCRIPT ARGS...

The shared host that the benchmark was built on switches between a fast
and a slow state every few seconds (the same code takes 7 ms or 13 ms),
and the share of slow time differs from one run to the next.  A timer
interrupts the program every PERIOD_S seconds and times a small fixed
piece of Python on the same thread, so on the same CPU and in the same
state as the program's own code.  The program runs as with ``python3 -m``
or ``python3 SCRIPT``; its exit code is passed on.  PROBES_OUT receives
``[[perf_counter, seconds], ...]``, one pair per probe, for
``run.py`` to scale the measured times to a fixed host speed.
"""

import json
import os
import runpy
import signal
import sys
import time

PERIOD_S = 0.025
LOOP = 120
BEST_OF = 3

_probes = []


def _loop():
    """A fixed mix of the Python work the program does: integer and float
    arithmetic, a dict keyed by exponent tuples, building and sorting
    tuples.  Kinds of code slow by different factors in the slow state;
    the mix tracks the benchmark's workloads better than any one of them."""
    acc = 0
    for i in range(LOOP):
        acc += i * i
    poly = {}
    for i in range(LOOP):
        key = (i & 15, i >> 4)
        poly[key] = poly.get(key, 0.0) + (i * 0.5) ** 0.5
    rows = sorted(((i, i + 1, -i) for i in range(LOOP)), key=lambda row: row[2])
    return acc, poly, rows


def _probe(*_):
    clock = time.perf_counter
    best = 1.0
    for _ in range(BEST_OF):
        t0 = clock()
        _loop()
        best = min(best, clock() - t0)
    _probes.append((clock(), best))


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    _probe()
    signal.signal(signal.SIGALRM, _probe)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    code = 0
    try:
        if argv[0] == "-m":
            sys.argv = argv[1:]
            sys.path[0] = os.getcwd()
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = argv
            sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        code = stop.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        _probe()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(_probes, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
