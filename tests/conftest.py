"""Shared test configuration: Hypothesis profiles.

Three profiles are registered:

* ``ci`` — deterministic (derandomized, fixed-seed) and bounded, so CI runs
  are reproducible and cannot flake on a slow example; selected in the
  workflow with ``--hypothesis-profile=ci``.
* ``dev`` — the local default: same bounds, but with Hypothesis's random
  exploration enabled so repeated local runs keep probing new inputs.
* ``thorough`` — the deep differential sweep (1500 examples per property):
  run as ``pytest tests/test_schedule_ir.py --hypothesis-profile=thorough``
  (and on ``tests/test_anytime_properties.py::TestElisionOracle``)
  (a step of CI's test job) to push the replay-kernel harness deeper.

Selection order: the ``--hypothesis-profile`` CLI flag wins, then the
``HYPOTHESIS_PROFILE`` environment variable, then ``dev``.
"""

import os

try:
    from hypothesis import HealthCheck, settings
except ImportError:  # pragma: no cover — hypothesis is part of the test extra
    settings = None

if settings is not None:
    _COMMON = dict(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    settings.register_profile("ci", derandomize=True, **_COMMON)
    settings.register_profile("dev", **_COMMON)
    settings.register_profile(
        "thorough",
        max_examples=1500,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    )
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
