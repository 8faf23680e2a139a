import sys
import warnings
from pathlib import Path

from hypothesis import settings

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

# One hypothesis profile for the suite: no per-example deadline, since an
# example's time depends on the machine it draws and the host it runs on.
# Loaded before any test module builds its ``settings(...)``, it is the
# parent of each of them, so they set only ``max_examples``.
settings.register_profile("invauto", deadline=None)
settings.load_profile("invauto")
