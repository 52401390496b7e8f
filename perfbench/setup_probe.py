"""Set-up probe, run in a fresh process.

    python3 setup_probe.py '{"learners": [[algo, cost, m_frac, d, K], ...], "dataset": path-or-null}'

Prints the seconds from before `import csdpp` to the last constructed
learner, then the median time of the calibration kernel in this process.
With a dataset it is read and parsed first, as `csdpp run` does.
"""

import json
import sys
import time

start = time.perf_counter()
import csdpp  # noqa: E402  (the import is part of what is timed)

spec = json.loads(sys.argv[1])
if spec["dataset"]:
    with open(spec["dataset"], encoding="utf-8") as fh:
        csdpp.parse_dataset(fh.read(), "sparse-labels")
for algo, cost, m_frac, d, k in spec["learners"]:
    csdpp.make_learner(csdpp.LearnerConfig(algorithm=algo, cost=cost, m_frac=m_frac, seed=0), d, k)
setup = time.perf_counter() - start

import statistics  # noqa: E402
import calibrate  # noqa: E402

print(setup, statistics.median(calibrate.time_kernel() for _ in range(15)))
