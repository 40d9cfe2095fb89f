"""Make the benchmark's modules and the checkout's ``repro`` importable.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import common  # noqa: E402

common.bootstrap("tests")
