"""Test-wide hypothesis settings: the default profile, plus a printed
``@reproduce_failure`` blob for every failing example, so a rare failure
can be replayed exactly."""

from hypothesis import settings

settings.register_profile("print_blob", settings.get_profile("default"), print_blob=True)
settings.load_profile("print_blob")
