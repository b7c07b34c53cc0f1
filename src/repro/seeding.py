"""Deterministic fallback RNG streams for default-constructed components.

Stochastic components (:class:`repro.phy.channel.ShadowingProcess`,
:func:`repro.phy.signal.synthesize_trace`, ...) take an explicit
``numpy.random.Generator`` so an experiment's ``--seed`` threads all
the way down and a campaign row can be reproduced from its seed.
When a caller does not supply one, falling back to OS entropy
would make nominally seeded runs irreproducible — but a single shared
``default_rng(0)`` is wrong in the other direction: every
default-constructed instance would replay one identical stream, so
processes that should be statistically independent (two shadowing
links, two synthesized traces) become perfectly correlated.

:func:`fallback_rng` threads the needle: each call spawns a fresh
child of a fixed :class:`numpy.random.SeedSequence`, so fallback
streams are mutually independent yet reproducible for a fixed
construction order within a process.  Because construction order *is*
part of the contract, a forgotten ``rng=`` hand-off is still a bug in
campaign code — each call therefore emits a
:class:`FallbackSeedWarning` so the omission is surfaced rather than
silently masked.
"""

from __future__ import annotations

import threading
import warnings

import numpy as np


class FallbackSeedWarning(UserWarning):
    """A component drew its RNG from the deterministic fallback root.

    Harmless in throwaway scripts and tests; in campaign or experiment
    code it means a ``--seed`` is not reaching this component, so fix
    the call site to pass ``rng=`` explicitly.
    """


#: Root of all fallback streams.  Fixed entropy keeps fallback runs
#: reproducible; spawning children keeps separate instances
#: independent.
_FALLBACK_ROOT = np.random.SeedSequence(0)
_SPAWN_LOCK = threading.Lock()


def fallback_rng(owner: str) -> np.random.Generator:
    """Return a deterministic fallback :class:`numpy.random.Generator`.

    Each call yields an independent stream (a fresh child of the
    module's fixed :class:`~numpy.random.SeedSequence`), reproducible
    only for a fixed construction order within one process.  Emits
    :class:`FallbackSeedWarning` naming ``owner`` so callers that
    should be threading a campaign seed are surfaced.
    """
    warnings.warn(
        f"{owner}: no rng supplied; using a deterministic fallback stream "
        "(reproducible only for a fixed in-process construction order). "
        "Pass rng=numpy.random.default_rng(seed) to tie it to a campaign "
        "seed.",
        FallbackSeedWarning,
        stacklevel=3,
    )
    with _SPAWN_LOCK:
        child = _FALLBACK_ROOT.spawn(1)[0]
    return np.random.default_rng(child)
