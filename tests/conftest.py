"""Setup shared by every test module."""

import warnings

# Hypothesis's report of a failing @given test imports
# hypothesis.extra._patching, which imports libcst, whose use of
# mypy_extensions.TypedDict emits a DeprecationWarning; under `-W error` that
# turns the failure into an INTERNALERROR that ends the session before the
# remaining tests run.  Imported once here with that one warning ignored, the
# module is already loaded when the report imports it.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.TypedDict is deprecated",
                            DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:     # a Hypothesis without it, or no libcst
        pass
