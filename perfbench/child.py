"""One traced `dcsynth` CLI call, for the `cli` workload's traced run.

    python3 perfbench/child.py SPANS_JSON <dcsynth arguments...>

Behaves like `python -m dcsynth <arguments>` (same stdout and exit code) and
writes the call's spans to SPANS_JSON.
"""

import json
import sys

from tracer import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    from dcsynth import cli
    try:
        rc = tracer.call(cli.main, argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
