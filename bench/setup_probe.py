"""Time one set-up of a workload in a fresh interpreter.

Set-up is importing ``metsymp`` and building the workload's structures.
``run.py`` starts this script several times with ``src`` on PYTHONPATH and
takes the median.  The set-up runs under a reference gauge (see
``reference.py``); the script prints, on one line, the set-up's seconds
without the gauge's passes and the mean time of a pass.

    PYTHONPATH=src python3 bench/setup_probe.py flat-suite
"""

import sys

import reference

# Shorter than the verdicts' interval: a set-up lasts a few tenths of a second.
INTERVAL_S = 0.02


def setup_seconds(workload: str) -> tuple[float, float]:
    with reference.Gauge(INTERVAL_S) as gauge:
        start, mark = gauge.clock(), gauge.mark()
        import metsymp  # noqa: F401 - importing is part of what is timed
        import workloads

        workloads.make(workload).build()
        elapsed = gauge.clock() - start
        return elapsed, gauge.pass_mean(mark)


if __name__ == "__main__":
    seconds, pass_mean = setup_seconds(sys.argv[1])
    print(repr(seconds), repr(pass_mean))
