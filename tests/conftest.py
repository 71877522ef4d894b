"""Session setup shared by the test modules."""

import warnings

# When a property fails, hypothesis imports its example-patching helper, and
# libcst with it, inside pytest's report hook.  Under -W error the
# DeprecationWarning of that import turns the failure report into an
# INTERNALERROR without the falsifying example.  Importing the helper once
# here, with that warning ignored for this import only, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
