"""Start a campaign worker or a server with the per-layer wrappers installed.

The traced run starts program processes through this script instead of
``python -m repro ...``: it installs the wrappers, calls the same public
entry point the CLI verb calls, and writes the trace data out on exit.

    python3 perfbench/entry.py campaign-worker --dir D --id ID \\
        --worker-id w0 --trace-dir T
    python3 perfbench/entry.py serve --dir D --trace-dir T
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from perfbench.tracer import Tracer, install  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("campaign-worker", "serve"))
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace-dir", required=True)
    parser.add_argument("--id")
    parser.add_argument("--worker-id")
    args = parser.parse_args()
    tracer = install(Tracer(Path(args.trace_dir)))
    try:
        if args.role == "campaign-worker":
            from repro.campaign import worker_main

            return worker_main(Path(args.dir), args.id, args.worker_id)
        from repro.serve import serve_forever

        serve_forever(Path(args.dir), port=0)
        return 0
    finally:
        tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
