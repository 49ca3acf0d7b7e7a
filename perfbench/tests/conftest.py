"""Put the repository root (for ``perfbench``) and ``src`` on the path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# repro.analysis before repro.service: the other order hits the
# package's circular import.
import repro.analysis.instances  # noqa: E402,F401
