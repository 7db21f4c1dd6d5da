"""Run one lieconf command in a fresh interpreter, as ``python -m lieconf.cli`` does.

Usage: python bench/child.py [--trace] ARG...

Once ``lieconf.cli`` is imported and ready for its arguments, the launcher
writes ``@bench ready <CLOCK_MONOTONIC ns>`` to stderr, which gives the
benchmark each command's set-up time.  With ``--trace`` it then installs the
spans of ``tracer.py`` and, when the command ends, writes them to stderr as
one ``@bench spans <json>`` line.  Stdout is the command's own output.
"""

import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    trace = argv[:1] == ["--trace"]
    if trace:
        argv = argv[1:]
    from lieconf import cli

    sys.stderr.write(f"@bench ready {time.clock_gettime_ns(time.CLOCK_MONOTONIC)}\n")
    sys.stderr.flush()
    if not trace:
        return cli.main(argv)
    import json

    import tracer

    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write("@bench spans " + json.dumps(tracer.dump(), separators=(",", ":")) + "\n")
        sys.stderr.flush()


if __name__ == "__main__":
    sys.exit(main())
