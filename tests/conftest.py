"""Settings shared by every test module."""

from hypothesis import settings

# Property tests draw the same examples on every run, so two runs of the
# suite pass or fail the same tests; tests that train or parse files per
# example outlast hypothesis' default deadline. Per-test max_examples stay.
settings.register_profile("rubric", derandomize=True, deadline=None)
settings.load_profile("rubric")
