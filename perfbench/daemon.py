"""Start the campaign service daemon with the layer wrappers installed.

    python3 perfbench/daemon.py --root DIR --store-root DIR --spans FILE

Equivalent to ``repro service start --root DIR --workers 1
--store-root DIR`` except that the program's public functions record
spans in the daemon process; the spans are written to FILE once the
daemon has shut down.  Pool workers are separate processes and are not
wrapped: their time comes from the daemon's ``/metrics.jsonl``.
"""

import argparse
from pathlib import Path

import layers
import spans


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--store-root", required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args()

    tracer = spans.Tracer()
    spans.install(tracer, layers.DAEMON_TARGETS)
    from repro.service import ServiceConfig, run_service

    run_service(
        ServiceConfig(root=args.root, workers=1, store_root=args.store_root),
        log=print,
    )
    tracer.dump(args.spans)


if __name__ == "__main__":
    main()
