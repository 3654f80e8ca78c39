"""Run one ratdyn command with the per-layer tracer installed.

    python3 perfbench/tracecli.py STATS.json [ratdyn arguments...]

Exits with the command's own exit code and writes the tracer's totals to
STATS.json. The cli workload uses it for its traced pass.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ratdyn.cli  # noqa: E402
import tracing  # noqa: E402


def main():
    stats, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = ratdyn.cli.main(argv)
    except SystemExit as exc:  # argparse exits for --help and usage errors
        code = exc.code
    finally:
        tracer.uninstall()
        with open(stats, "w", encoding="ascii") as fh:
            json.dump(tracer.totals(), fh)
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
