"""Declarative campaign specifications.

The paper's workflow is campaign-shaped: hundreds of rotation-stage
positions, distance sweeps, repeated captures, analyzed offline.  A
:class:`CampaignSpec` describes such a sweep declaratively — one
experiment cell function, a base parameter set, a grid of swept axes,
and the seeds to run each cell with — and expands deterministically
into :class:`ScenarioSpec` cells.

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

_SCALARS = (str, int, float, bool, type(None))


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


@dataclass(frozen=True)
class CampaignSpec:
    """A grid of scenarios over one experiment cell.

    ``grid`` maps parameter names to the values swept on that axis;
    the expansion is the cartesian product over axes (sorted by axis
    name) crossed with ``seeds``.  ``base_params`` are merged under
    every cell (grid axes win on collision).
    """

    name: str
    experiment: str
    base_params: Tuple[Tuple[str, Any], ...] = ()
    grid: Tuple[Tuple[str, Tuple[Any, ...]], ...] = ()
    seeds: Tuple[int, ...] = (0,)
    description: str = ""

    def __post_init__(self) -> None:
        base = self.base_params
        if isinstance(base, Mapping):
            base = tuple(base.items())
        frozen_base = tuple(sorted((str(k), _freeze(canonicalize(v))) for k, v in base))
        object.__setattr__(self, "base_params", frozen_base)
        grid = self.grid
        if isinstance(grid, Mapping):
            grid = tuple(grid.items())
        frozen_grid = tuple(
            sorted((str(k), tuple(_freeze(canonicalize(v)) for v in values))
                   for k, values in grid)
        )
        object.__setattr__(self, "grid", frozen_grid)
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if not self.seeds:
            raise ValueError("need at least one seed")

    def base_param_dict(self) -> Dict[str, Any]:
        return {k: _thaw(v) for k, v in self.base_params}

    def grid_dict(self) -> Dict[str, List[Any]]:
        return {k: [_thaw(v) for v in values] for k, values in self.grid}

    def with_overrides(
        self,
        params: Mapping[str, Any] | None = None,
        seeds: Sequence[int] | None = None,
    ) -> "CampaignSpec":
        """A copy with base parameters and/or seeds replaced.

        Override keys that name a grid axis replace that axis with the
        single given value (pinning it); other keys merge into
        ``base_params``.
        """
        base = self.base_param_dict()
        grid = self.grid_dict()
        for key, value in dict(params or {}).items():
            if key in grid:
                grid[key] = [value]
            else:
                base[key] = value
        return CampaignSpec(
            name=self.name,
            experiment=self.experiment,
            base_params=tuple(base.items()),
            grid=tuple((k, tuple(v)) for k, v in grid.items()),
            seeds=tuple(seeds) if seeds is not None else self.seeds,
            description=self.description,
        )

    def scenario_count(self) -> int:
        cells = 1
        for _, values in self.grid:
            cells *= len(values)
        return cells * len(self.seeds)

    def expand(self) -> List[ScenarioSpec]:
        """Deterministic expansion into scenario cells.

        Order: grid axes sorted by name, values in declaration order,
        seeds innermost — the same input always yields the same list,
        which the runner and the bit-for-bit serial/parallel
        equivalence tests rely on.
        """
        axes = [(name, values) for name, values in self.grid]
        base = self.base_param_dict()
        combos = itertools.product(*[values for _, values in axes]) if axes else [()]
        scenarios: List[ScenarioSpec] = []
        for combo in combos:
            params = dict(base)
            for (axis, _), value in zip(axes, combo):
                params[axis] = _thaw(value)
            for seed in self.seeds:
                scenarios.append(
                    ScenarioSpec(experiment=self.experiment, params=params, seed=seed)
                )
        return scenarios

    def canonical(self) -> str:
        doc = {
            "name": self.name,
            "experiment": self.experiment,
            "base_params": {k: _thaw(v) for k, v in self.base_params},
            "grid": {k: [_thaw(v) for v in values] for k, values in self.grid},
            "seeds": list(self.seeds),
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def digest(self) -> str:
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()
