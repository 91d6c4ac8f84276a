import sys
from pathlib import Path

# Make the shared oracle helpers importable regardless of invocation dir.
sys.path.insert(0, str(Path(__file__).parent))

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Derandomized and without an example database: runs are reproducible
    # and leave no .hypothesis/ directory behind.
    settings.register_profile("precisionlab", derandomize=True, deadline=None, database=None)
    settings.load_profile("precisionlab")
