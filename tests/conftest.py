"""Hypothesis profiles for the test suite.

``default`` -- what tier-1 and the CI gate matrix run -- derandomises
every property: its examples are a fixed function of the test, and no
example database is read or written, so a run depends neither on luck
nor on what a local ``.hypothesis/`` directory has collected.

``explore`` (``HYPOTHESIS_PROFILE=explore``) runs only the properties,
searching at random with ``EXPLORE_FACTOR`` times each one's
``max_examples``.  Its CI row may go red: a failure there is a finding
to pin with ``@example``, not a broken build.
"""

import os

from hypothesis import settings

#: How many times its tier-1 example budget each property runs under
#: the ``explore`` profile.
EXPLORE_FACTOR = 10

settings.register_profile("default", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_collection_modifyitems(config, items):
    """Under ``explore``, keep the properties and scale their budgets.

    Each property pins its own ``max_examples`` with ``@settings``,
    which outranks any profile, so the budget is scaled per test.
    """
    if settings.get_current_profile_name() != "explore":
        return
    properties, others, scaled = [], [], set()
    for item in items:
        obj = getattr(item, "obj", None)
        test = getattr(obj, "__func__", obj)  # methods: the function
        pinned = getattr(test, "_hypothesis_internal_use_settings", None)
        if pinned is None:
            others.append(item)
            continue
        properties.append(item)
        if id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                pinned, max_examples=pinned.max_examples * EXPLORE_FACTOR
            )
    config.hook.pytest_deselected(items=others)
    items[:] = properties
