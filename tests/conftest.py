import pathlib
import sys

# The engine keeps no state between runs, so every test solves what it
# checks; tests/data holds the expected values that results are compared
# against.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
