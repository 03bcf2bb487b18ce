"""Time the package's set-up in this fresh interpreter and print it as JSON.

Set-up is what every use pays before its first sample: importing the CLI
(and with it numpy, scipy and yaml), fitting the height polynomial from
``data/sample_calibration.csv`` and loading ``configs/sample.yaml``.  Each
stage is printed in ns, with the reference pieces sampled meanwhile taken
out, together with their median time (``ref_ns``).

    python3 perfbench/setup_probe.py
"""

import json

import common

if __name__ == "__main__":
    common.use_checkout()
    with common.RefSampler() as sampler:
        _, timings = common.timed_setup(sampler)
    timings["ref_ns"] = sampler.median_ns()
    print(json.dumps(timings))
