"""One hypothesis profile for the whole suite: no per-example deadline,
examples drawn from a fixed seed, and no example database, so every run
draws the same examples.  Each test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("g2pair", deadline=None, derandomize=True, database=None)
settings.load_profile("g2pair")
