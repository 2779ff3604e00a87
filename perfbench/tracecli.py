"""Run ``growthlab.cli.main`` under the tracer in this process.

    python3 perfbench/tracecli.py SPANS_PATH CLI_ARGS...

Used by the traced pass of the cli workload in place of
``python -m growthlab.cli``; stdout, stderr and the exit status are the
CLI's own, and the spans are written to SPANS_PATH when it returns.
"""

import sys

from tracing import Tracer


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(threaded=True)
    tracer.install()
    from growthlab import cli

    tracer.op = 0
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        tracer.op = -1
        tracer.write(spans)


if __name__ == "__main__":
    sys.exit(main())
