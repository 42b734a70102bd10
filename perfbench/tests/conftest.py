import sys
from pathlib import Path

# The program under test is imported from this checkout's src/.
SRC = str(Path(__file__).resolve().parents[2] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
