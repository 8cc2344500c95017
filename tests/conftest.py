# Makes tests/ importable so the shared oracles module can be used directly.
from hypothesis import settings

# Property tests draw the same examples on every run, so the suite stays
# deterministic; no example database is read or written.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
