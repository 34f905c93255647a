"""Run one remoterdf CLI command with spans around the package's public functions.

Usage: python3 perfbench/tracelaunch.py SPAWN_TIME SPANS_OUT -- CLI_ARGS...

SPAWN_TIME is the parent's time.monotonic() just before it started this
process, so start-up (interpreter, numpy and remoterdf.cli import) is
measured from process start.  The command's stdout, stderr and exit code
are those of `python -m remoterdf.cli CLI_ARGS...`; the spans and the
start-up time go to SPANS_OUT as JSON.
"""

import json
import sys
import time


def main() -> int:
    spawn_time, spans_out, sep, *cli_args = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracelaunch.py SPAWN_TIME SPANS_OUT -- CLI_ARGS...")
    import remoterdf.cli

    startup_s = time.monotonic() - float(spawn_time)
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    tracer.phase = 0
    try:
        code = remoterdf.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({"startup_s": startup_s, "absent": tracer.absent, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
