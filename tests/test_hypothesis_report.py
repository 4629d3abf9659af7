"""The test harness itself: a failing hypothesis test must report its
falsifying example under the project's warnings-as-errors filter."""

from pathlib import Path

pytest_plugins = ["pytester"]

CONFTEST = Path(__file__).with_name("conftest.py")


def test_failing_hypothesis_test_reports_its_example(pytester):
    """Hypothesis imports its patch writer only to report a failure; where
    that import warns, the report must still name the example, not end in
    INTERNALERROR."""
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(test_fails="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_below_ten(x):
            assert x < 10
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    output = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in output
    result.stdout.fnmatch_lines(["*Falsifying example*", "*1 failed*"])
    assert result.ret == 1
