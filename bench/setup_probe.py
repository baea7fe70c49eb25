"""Time one cold set-up and print it in seconds at nominal machine speed.

Set-up is importing ``simplex_lab`` and building a workload's entries,
spaces and jobs, as a fresh interpreter pays for it.  ``run.py`` starts this
script several times and reports the median; it expects ``PYTHONPATH`` to
point at the checkout's ``src``.

    python3 bench/setup_probe.py WORKLOAD SCALE
"""

import sys
import time

import speed

reference = speed.reference_loop()
start = time.perf_counter()
import workloads  # noqa: E402  (timed: the job definitions are part of set-up)

workloads.build(sys.argv[1], float(sys.argv[2]))
print(repr(speed.at_nominal_speed(time.perf_counter() - start, reference)))
