import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the harness modules and the package sources, never an installed copy
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
