"""Entry point for ``python3 bench/run.py`` (the command in BENCHMARK.json)."""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from bench.cli import main

    sys.exit(main())
