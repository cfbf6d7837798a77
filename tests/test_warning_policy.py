"""The suite's warning policy: a failing hypothesis property is reported as one failure."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_property_fails_without_ending_the_session(pytester):
    pytester.makepyfile(
        """
        from hypothesis import given, settings, strategies as st

        @settings(database=None)
        @given(st.integers())
        def test_failing_property(x):
            assert x < 0

        def test_plain():
            pass
        """
    )
    # A fresh process under the project's own settings: the warning comes from an
    # import that happens once per process, on the first failing property.
    result = pytester.runpytest_subprocess("-c", str(PYPROJECT), "-p", "no:cacheprovider", str(pytester.path))
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.no_fnmatch_line("*INTERNALERROR*")
