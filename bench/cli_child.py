"""The nitsche-lab command with spans around its layers (traced cli runs).

Usage: python3 bench/cli_child.py <nitsche-lab arguments>, with src on
PYTHONPATH.  Behaves like the ``nitsche-lab`` script, and writes its spans
as one JSON line, prefixed with ``BENCH_SPANS``, as the last line of stderr.
"""

import json
import sys

from tracing import Tracer, instrument

SPAN_TAG = "BENCH_SPANS "


def main() -> int:
    tracer = Tracer()
    with tracer.span("cli.import"):
        from nitsche_lab import cli
    instrument(tracer)
    with tracer.span("cli.main"):
        code = cli.main(sys.argv[1:])
    sys.stdout.flush()
    print(SPAN_TAG + json.dumps(tracer.to_records()), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
