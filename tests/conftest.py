"""Shared test settings.

Property tests run on small shared machines, where one slow example says
nothing about correctness, so the default hypothesis profile has no
per-example deadline. Tests may still set their own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("cliffscale", deadline=None)
settings.load_profile("cliffscale")
