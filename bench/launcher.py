"""Run `eigengaze` CLI arguments in this process: `python3 launcher.py learn ...`.

Untraced, this is the CLI entry point and nothing more. When the
EIGENGAZE_BENCH_SPANS environment variable names a file, the launcher times
the package import, installs the tracing wrappers, calls `eigengaze.cli.main`
inside a `cli.main` span, and writes the spans to that file on exit.
"""

import os
import sys

SPANS_ENV = "EIGENGAZE_BENCH_SPANS"
OP_ENV = "EIGENGAZE_BENCH_OP"


def main(argv):
    out = os.environ.get(SPANS_ENV)
    if not out:
        from eigengaze.cli import main as cli_main

        return cli_main(argv)

    import tracing

    tracer = tracing.Tracer(op=os.environ.get(OP_ENV))
    span = tracer.begin("cli.import")
    import eigengaze.cli

    tracer.end(span)
    tracing.install(tracer)
    span = tracer.begin("cli.main")
    try:
        return eigengaze.cli.main(argv)
    finally:
        tracer.end(span)
        tracing.dump(tracer.spans, out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
