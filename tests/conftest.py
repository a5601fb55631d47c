"""Hypothesis profiles for the test suite.

The default profile is hypothesis's own. `deep` draws 2,000 examples per
property, for a longer fuzz of the output writers' three oracle properties
(.github/workflows/tier1.yml's tests-writer-fuzz job names them):

    python -m pytest --hypothesis-profile=deep \
        tests/test_output_bytes.py::test_timeseries_writer_matches_the_csv_oracle \
        tests/test_output_bytes.py::test_summary_writer_matches_the_json_dumps_oracle \
        tests/test_output_bytes.py::test_events_writer_matches_the_json_dumps_oracle
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
