import sys
from pathlib import Path

# the benchmark's modules are scripts beside run.py, not a package
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
