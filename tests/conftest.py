"""Hypothesis profiles for the test suite.

The default profile is hypothesis's own. `deep` draws 2,000 examples per
property, for a longer fuzz of the output writers:

    python -m pytest tests/test_output_bytes.py -k oracle --hypothesis-profile=deep
"""

from hypothesis import settings

settings.register_profile("deep", max_examples=2000)
