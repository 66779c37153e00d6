"""Run the handover-intent CLI with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON CLI_ARGS...

The package is imported first (timed as ``import_s``), then the tracer wraps
its functions, then ``handover_intent.cli.main`` runs with CLI_ARGS.  The
spans are written to SPANS_JSON when the command returns, whatever its exit
code.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    from handover_intent import cli

    import_s = time.perf_counter() - started
    # Imported after the timed import: the tracer loads numpy itself.
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
