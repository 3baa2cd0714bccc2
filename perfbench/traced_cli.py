"""Run the overlap-lab CLI with spans around its layer entry points.

    python3 perfbench/traced_cli.py SPANS.json [overlap-lab arguments...]

Writes the spans to SPANS.json when the CLI returns. Exits 3, naming the
entry points, when one of them no longer exists.
"""

import sys

from tracer import TraceError, Tracer, install


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        install(tracer)
    except TraceError as e:
        print(f"trace error: {e}", file=sys.stderr)
        return 3
    from overlap_lab import cli
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
