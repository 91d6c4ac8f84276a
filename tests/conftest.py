import os
import sys
from pathlib import Path

# Make the shared oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))
# Child interpreters (`python -m precisionlab`, `python -c`) import the working tree too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Derandomized and without an example database: runs are reproducible
    # and leave no .hypothesis/ directory behind.
    settings.register_profile("precisionlab", derandomize=True, deadline=None, database=None)
    settings.load_profile("precisionlab")
