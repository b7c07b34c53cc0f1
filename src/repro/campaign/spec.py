"""Declarative campaign specifications.

The paper's workflow is campaign-shaped: hundreds of rotation-stage
positions, distance sweeps, repeated captures, analyzed offline.  A
:class:`CampaignSpec` is such a sweep as data: its name, a description
and the ordered tuple of its :class:`ScenarioSpec` cells.
:func:`grid_cells` builds the usual cartesian product of swept axes
and seeds; a figure that needs per-point seeds lists its cells.

Scenarios are *content addressed*: :meth:`ScenarioSpec.digest` is a
SHA-256 over the canonicalized spec, stable across processes and
Python versions (unlike ``hash()``), so a row in ``results.jsonl``
names its cell the same way in every run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Sequence, Tuple

def canonicalize(value: Any) -> Any:
    """Reduce a parameter value to a canonical JSON-compatible form.

    Scalars pass through, sequences become lists, mappings become
    plain dicts (serialized with sorted keys).  Anything else is
    rejected: cells must be describable as data for hashing to be
    meaningful.
    """
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        # Integral floats normalize to int so 2.0 and 2 address the
        # same cell (JSON would render them differently).
        return int(value) if value.is_integer() else value
    if isinstance(value, (list, tuple)):
        return [canonicalize(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): canonicalize(v) for k, v in value.items()}
    raise TypeError(
        f"campaign parameters must be JSON-style data, got {type(value).__name__}"
    )


def _freeze(value: Any) -> Any:
    """Hashable (tuple-based) view of a canonical value."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def _thaw(value: Any, was_dict: bool = False) -> Any:
    if isinstance(value, tuple):
        if was_dict:
            return {k: _thaw(v) for k, v in value}
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of a campaign: an experiment function plus parameters.

    Args:
        experiment: Cell identifier — a registered name (see
            :mod:`repro.campaign.registry`) or a ``module:function``
            dotted path importable in worker processes.
        params: Keyword arguments for the cell, JSON-style data only.
        seed: RNG seed passed to the cell (cells must be deterministic
            given their seed, so a row can be reproduced from it).
    """

    experiment: str
    params: Tuple[Tuple[str, Any], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        raw = self.params
        if isinstance(raw, Mapping):
            items = raw.items()
        else:
            items = tuple(raw)
        frozen = tuple(sorted((str(k), _freeze(canonicalize(v))) for k, v in items))
        object.__setattr__(self, "params", frozen)

    def param_dict(self) -> Dict[str, Any]:
        """The parameters as a plain keyword dict (lists thawed)."""
        out: Dict[str, Any] = {}
        for key, value in self.params:
            out[key] = _thaw(value)
        return out

    def canonical(self) -> str:
        """Canonical JSON text of this scenario (sorted keys, compact)."""
        doc = {
            "experiment": self.experiment,
            "params": {k: _thaw(v) for k, v in self.params},
            "seed": self.seed,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        """Content address: SHA-256 hex of a newline + the canonical spec.

        The leading newline is part of the address format, so the
        digests in existing ``results.jsonl`` files stay valid.
        """
        return hashlib.sha256(
            b"\n" + self.canonical().encode("utf-8")
        ).hexdigest()


def grid_cells(
    experiment: str,
    params: Mapping[str, Any] | None = None,
    grid: Mapping[str, Sequence[Any]] | None = None,
    seeds: Sequence[int] = (0,),
) -> Tuple[ScenarioSpec, ...]:
    """The cartesian product of ``grid`` axes crossed with ``seeds``.

    Every cell gets ``params`` (grid axes win on collision).  Order:
    axes sorted by name, values in declaration order, seeds innermost.
    """
    axes = sorted((grid or {}).items())
    cells: List[ScenarioSpec] = []
    for combo in itertools.product(*[values for _, values in axes]):
        cell_params = dict(params or {})
        cell_params.update((name, value) for (name, _), value in zip(axes, combo))
        for seed in seeds:
            cells.append(ScenarioSpec(experiment, cell_params, seed=int(seed)))
    return tuple(cells)


@dataclass(frozen=True)
class CampaignSpec:
    """A named campaign: the ordered tuple of its cells.

    Cells may run different experiments and any seeds; the runner
    executes them in this order.  :func:`grid_cells` builds the
    common cartesian sweep.
    """

    name: str
    cells: Tuple[ScenarioSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("a campaign needs at least one cell")

    def with_overrides(
        self,
        params: Mapping[str, Any] | None = None,
        seed: int | None = None,
    ) -> "CampaignSpec":
        """A copy with ``params`` set on every cell and seeds shifted.

        ``seed`` shifts every cell's seed so that the smallest becomes
        ``seed``.  Cells that become identical collapse to the first
        one, so pinning a grid axis keeps one cell per remaining combo.
        """
        shift = 0 if seed is None else seed - min(c.seed for c in self.cells)
        cells: Dict[str, ScenarioSpec] = {}
        for cell in self.cells:
            new = ScenarioSpec(
                cell.experiment,
                {**cell.param_dict(), **dict(params or {})},
                seed=cell.seed + shift,
            )
            cells.setdefault(new.digest(), new)
        return CampaignSpec(self.name, tuple(cells.values()), self.description)

    def digest(self) -> str:
        """SHA-256 over the name and the ordered cell digests."""
        doc = {"name": self.name, "cells": [c.digest() for c in self.cells]}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()
