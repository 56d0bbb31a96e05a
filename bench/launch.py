"""Run one exactopinf CLI command in this process, as its console script does.

usage: python3 bench/launch.py OUT.json {plain,trace} ARG...

``ARG...`` are the ``exactopinf`` arguments.  With ``plain`` only the norms
of the intrusive reference operators are captured; with ``trace`` every
layer boundary is spanned as well (see ``tracer.py``).  OUT.json is written
when the command returns, and the process exits with the CLI's exit code.
``exactopinf`` is imported from ``PYTHONPATH``.
"""

import time

START_NS = time.perf_counter_ns()

import sys  # noqa: E402

from tracer import Tracer  # noqa: E402


def main() -> int:
    out, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = Tracer(spans=mode == "trace")
    code = None
    try:
        with tracer.span("cli.main", "cli", start_ns=START_NS):
            with tracer.span("cli.import", "cli"):
                from exactopinf import cli
            tracer.install()
            code = cli.main(argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
