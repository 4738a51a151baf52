"""Run ``vortexsym.cli.main`` under the span tracer, as one classify op.

Usage: python3 benchmarks/traced_cli.py SUMMARY.json SPANS.jsonl -- CLI-ARGS...

Installs the tracer (which asserts coverage), runs the CLI once, writes the
per-layer summary and the raw spans, and exits with the CLI's exit code.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv):
    summary_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py SUMMARY SPANS -- CLI-ARGS...")
    sys.path.insert(0, HERE)
    from tracer import Tracer

    import vortexsym.cli
    import vortexsym.scenarios  # noqa: F401

    tracer = Tracer().install()
    with tracer.op(0):
        code = vortexsym.cli.main(cli_args)
    tracer.uninstall()
    tracer.dump(spans_path)
    with open(summary_path, "w") as handle:
        json.dump(tracer.summary(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
