"""Entry point: ``python3 benchmarks/e2e/run.py --workload NAME ...``.

Runs from the repository root without an installed package; see
README.md for the options.
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from e2e.cli import main

    sys.exit(main())
