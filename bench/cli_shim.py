"""Traced stand-in for ``python -m fracbk.cli``.

    python bench/cli_shim.py SPANS.json ARG...

Installs the span wrappers, runs ``fracbk.cli.main(ARG...)``, writes the
spans to SPANS.json and exits with main's exit code.
"""

import json
import sys

import fracbk.cli
from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return fracbk.cli.main(argv)
    finally:
        tracer.restore()
        with open(spans_path, "w") as fh:
            json.dump(tracer.dump(), fh)


if __name__ == "__main__":
    sys.exit(main())
