"""Start ``repro-dew serve`` with the benchmark's span wrappers installed.

Usage: ``python serve_launcher.py SPANS_JSON serve SERVICE_DIR [options]``.
The spans recorded in the daemon process are written to ``SPANS_JSON`` when
the daemon exits (it is stopped with SIGINT).
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracer as tracing  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    recorder = tracing.Tracer()
    tracing.install(recorder)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
