"""Run the suite from a checkout without installing lagc or setting PYTHONPATH.

``src/`` goes on ``sys.path`` for the tests themselves and at the front of
``PYTHONPATH`` for the ``python -m lagc.cli`` subprocesses some tests start.
"""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
