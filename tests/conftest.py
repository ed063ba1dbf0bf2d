from hypothesis import settings

# Tier-1 runs the same examples every time and never fails on wall time.
settings.register_profile("repeatable", derandomize=True, deadline=None)
settings.load_profile("repeatable")
