"""Run one sliceseg CLI command with the layer wrappers installed.

    python3 bench/cli_traced.py SPANS.json <sliceseg arguments>

The traced cli-session run starts this in place of `python -m sliceseg.cli`
(with `src` on PYTHONPATH) and merges the spans and counters it writes to
SPANS.json into its own trace.
"""

import sys

import layers
from sliceseg import cli
from tracing import Tracer


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    layers.install(tracer)
    try:
        return tracer.call("cli.main", cli.main, argv)
    finally:
        tracer.restore()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
