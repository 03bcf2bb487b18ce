"""Run the bma command line as the installed ``bma`` script does, while
sampling the machine's speed, and optionally with spans.

    python3 perfbench/cli_child.py [--spans SPANS_CSV] -- estimate TRACE --config CFG --out OUT

The last line printed is JSON: the CLI's exit code, the median time of the
reference pieces sampled during the call (``ref_ns``), and the time the
pieces and the writing of spans took (``overhead_ns``), which the caller
takes out of the wall time of this process.
"""

import json
import sys
import time

import common

if __name__ == "__main__":
    common.use_checkout()
    args = sys.argv[1:]
    if "--" not in args:
        raise SystemExit(__doc__)
    opts, cli_args = args[:args.index("--")], args[args.index("--") + 1:]
    spans_path = opts[1] if opts[:1] == ["--spans"] else None
    with common.RefSampler() as sampler:
        import bma.cli

        if spans_path:
            from spans import Tracer

            tracer = Tracer()
            with tracer.installed():
                code = bma.cli.main(cli_args)
        else:
            code = bma.cli.main(cli_args)
    start = time.perf_counter_ns()
    if spans_path:
        with open(spans_path, "w", newline="") as fh:
            tracer.write(fh)
    overhead = time.perf_counter_ns() - start + sum(d for _, d in sampler.pieces)
    print(json.dumps({"exit": code, "ref_ns": sampler.median_ns(), "overhead_ns": overhead}))
    sys.exit(code)
