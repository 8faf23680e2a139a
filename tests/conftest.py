import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis imports its patch writer, and with it libcst when that is
# installed, only while it reports a failing example; under warnings-as-errors
# libcst's DeprecationWarning would then end the run with INTERNALERROR and
# name no failure.  Importing it here, with that warning ignored, keeps a
# failing property test readable.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # libcst is not installed
        pass
