"""Broken harness records, for the harness and CLI tests: a whole one-point
extension replaced, or a suite that fails every trial."""

import dataclasses

from ultrapetal.petal_harness import PropertySpec


def extending(sampler, extend):
    """A copy of the harness record ``sampler`` whose model extends by ``extend``.

    ``extend`` replaces the record's whole extension, checked and unchecked:
    it shadows both ``Model.extend`` (the ``one-point-extension`` row) and
    ``Model.locate`` (the embedding copies and the back-and-forth steps), so
    the exact check in ``Model.extend`` never runs and the harness's own
    checks must catch the fault.  Both are methods, so the copy of the
    frozen record shadows them as instance attributes.
    """
    model = dataclasses.replace(sampler.model)
    for name in ("extend", "locate"):
        object.__setattr__(model, name, extend)
    return dataclasses.replace(sampler, model=model)


def failing(sampler, calls=None):
    """A copy of ``sampler`` whose one property, ``always_fails``, fails every trial
    with ``{"reason": "forced"}`` and appends the trial index to ``calls``."""
    calls = [] if calls is None else calls
    check = PropertySpec("metric-axioms", "always_fails", 1.0, lambda ops, rng, t: calls.append(t) or {"reason": "forced"})
    return dataclasses.replace(sampler, suite=(check,))
