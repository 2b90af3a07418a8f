import sys
from pathlib import Path

# test the checkout's package, ahead of any other importable mvop (an
# installed copy, say), and without installing it
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
