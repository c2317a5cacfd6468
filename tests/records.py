"""Record helpers shared by the bit-identity tests."""


def comparable(result) -> dict:
    """The full result record minus the permitted ``sim.*`` diagnostics.

    ``sim.events`` and the phase counters (``sim.phase_iters``) are
    mode-dependent by design; everything else must be bit-identical.
    """
    record = result.to_dict()
    record["stats"] = {k: v for k, v in record["stats"].items()
                       if not k.startswith("sim.")}
    return record
