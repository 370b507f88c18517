"""Traced kernel server: ``python3 perfbench/serve_traced.py SPANS_PATH [server args]``.

Installs the benchmark's span wrappers around the serve and simulator
layers, then runs the shipped entry point ``repro.serve.__main__.main``.
When the server has drained, the spans and the lowering-cache counters are
written to ``SPANS_PATH``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import bootstrap  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path = sys.argv[1]
    bootstrap()
    tracer = Tracer()
    tracer.install_layers(serve=True)
    from repro.gpusim.compile import compile_cache_stats
    from repro.serve.__main__ import main as serve_main

    try:
        return serve_main(sys.argv[2:])
    finally:
        stats = compile_cache_stats()
        tracer.dump(spans_path, compile_cache={"hits": stats.hits, "misses": stats.misses})


if __name__ == "__main__":
    sys.exit(main())
