"""A broken whole one-point extension, for the harness and CLI tests."""

import dataclasses


def extending(sampler, extend):
    """A copy of the harness record ``sampler`` whose model extends by ``extend``.

    ``extend`` replaces the record's whole extension, so the exact check
    in ``extension.extend`` never runs and the harness's own checks must
    catch the fault.  ``Model.extend`` is a method, so the copy of the
    frozen record shadows it as an instance attribute.
    """
    model = dataclasses.replace(sampler.model)
    object.__setattr__(model, "extend", extend)
    return dataclasses.replace(sampler, model=model)
