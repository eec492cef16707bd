import sys
from pathlib import Path

# make _oracles importable regardless of how pytest was invoked
sys.path.insert(0, str(Path(__file__).parent))
# write no bytecode into the package: a stale __pycache__ left in a checkout
# is read by later runs of it, whose import then times as a cached one
sys.dont_write_bytecode = True
