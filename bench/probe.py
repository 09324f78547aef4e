#!/usr/bin/env python3
"""Time one workload set-up in a fresh process and print it as JSON.

    python3 bench/probe.py remote-farm   ->   {"setup_s": 0.21}

Set-up runs from before `import mdflow` to the return of the first submit:
importing, compiling, building the pool and runtime, recruiting workers and,
for remote-farm, spawning the worker daemon and the handshakes.  Run from
the root of a checkout; run.py calls it several times per run.
"""
import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports mdflow inside the timed interval)

w = workloads.WORKLOADS[sys.argv[1]](seed=0)
try:
    w.setup()
    w.submit_first()
    setup_s = time.perf_counter() - t0
finally:
    w.close()
print(json.dumps({"setup_s": setup_s}))
