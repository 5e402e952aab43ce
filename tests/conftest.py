import os
import sys
from pathlib import Path

# one BLAS thread, set before numpy loads: the desk checkpoint is trained
# this way, and oversubscribed BLAS threads stall training under other load
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

# let test modules import the shared generators in tests/gen.py
sys.path.insert(0, str(Path(__file__).resolve().parent))
