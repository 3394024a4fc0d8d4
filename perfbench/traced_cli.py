"""Run one c4distill CLI command with the benchmark's tracing installed.

    python perfbench/traced_cli.py SPANS_FILE SUMMARY_FILE REQUEST_ID -- ARGS...

Installs the wrappers, calls ``c4distill.cli.main(ARGS)``, appends the spans
to SPANS_FILE, writes the span summary to SUMMARY_FILE and exits with the
command's exit code.
"""

import json
import sys

from tracing import Tracer


def main() -> int:
    spans_file, summary_file, request, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    tracer.request = int(request)
    tracer.install()
    import c4distill.cli

    code = c4distill.cli.main(argv)
    tracer.dump(spans_file, f"cli-{request}")
    with open(summary_file, "w") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
