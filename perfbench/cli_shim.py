"""Run one dmdstego CLI command with the benchmark's tracing wrappers installed.

Usage: python -X importtime perfbench/cli_shim.py TRACE_JSON SUBCOMMAND [ARGS...]

Behaves like ``python -m dmdstego SUBCOMMAND ARGS...`` and additionally
writes the spans and counters of the command to TRACE_JSON.
"""

import sys

from tracer import Installed, Recorder, dump


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    with rec.span("cli.import"):
        import dmdstego.cli
    installed = Installed(rec)
    code = 1
    try:
        with rec.span("cli.main"):
            code = dmdstego.cli.main(argv)
    finally:
        installed.restore()
        with rec.span("trace.post"):
            rec.run_deferred()
        dump(rec, trace_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
