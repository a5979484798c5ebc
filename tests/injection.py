"""A broken whole one-point extension, for the harness and CLI tests."""

import dataclasses


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
