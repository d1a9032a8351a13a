"""Suite-wide settings: every ``hypothesis`` test runs derandomized, with no
deadline and a bounded number of examples, so each run draws the same cases
and stays within its time budget."""

from hypothesis import settings

settings.register_profile("lognet", derandomize=True, deadline=None, max_examples=100,
                          database=None)
settings.load_profile("lognet")
