import sys
import warnings
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

# A failing hypothesis test writes a patch file through
# hypothesis.extra._patching, which imports libcst where it is installed;
# libcst's import raises a DeprecationWarning (mypy_extensions' TypedDict)
# that filterwarnings = ["error"] would turn into an INTERNALERROR inside
# pytest's report hook, ending the session. Importing it here, with that
# warning ignored, lets the failure be reported and the next test run.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
