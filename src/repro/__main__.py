"""``python -m repro``: the unified experiment/sweep CLI (see repro.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
