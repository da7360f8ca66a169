"""Test-session settings.

Every ``hypothesis`` failure prints the ``@reproduce_failure`` line that
replays its example; which examples are drawn does not change.
"""

from hypothesis import settings

settings.register_profile("repro", print_blob=True)
settings.load_profile("repro")
