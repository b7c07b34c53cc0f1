"""Configuration for the domain-aware linter.

Settings live in ``pyproject.toml`` under ``[tool.repro-lint]``::

    [tool.repro-lint]
    disable = []                       # rule codes switched off globally
    baseline = "lint-baseline.json"    # committed baseline location
    exclude = ["*/build/*"]            # path globs never scanned
    physics-packages = ["repro.phy"]   # where RL005 applies
    wall-clock-packages = ["repro.mac"]  # where RL002 applies
    rng-entry-points = []              # modules exempt from RL001
    dbmath-modules = ["repro.analysis.dbmath"]  # RL003's own home
    flow-unit-packages = ["repro.phy", "repro.mac"]  # RL012 scope
    flow-rng-packages = ["repro.phy", "repro.mac"]   # RL013/RL015 scope
    clock-modules = ["repro.obs.clock"]  # sanctioned clock shims

    [tool.repro-lint.per-file-ignores]
    "src/repro/campaign/telemetry.py" = ["RL002"]

An unknown key raises ``ValueError`` (``repro lint`` exits 2 naming
it), so a misspelled or retired key never silently falls back to a
default.

TOML parsing uses the stdlib ``tomllib`` (Python 3.11+); on older
interpreters without a toml parser the defaults below apply and a
warning is printed, so the linter degrades rather than crashes.
"""

from __future__ import annotations

import fnmatch
import pathlib
import sys
from dataclasses import dataclass, fields
from typing import Tuple

try:  # pragma: no cover - exercised implicitly on py3.11+
    import tomllib as _toml
except ModuleNotFoundError:  # pragma: no cover - py<3.11 fallback
    try:
        import tomli as _toml  # type: ignore[no-redef]
    except ModuleNotFoundError:
        _toml = None  # type: ignore[assignment]

#: Packages whose code must read time from the DES clock, not the wall
#: clock (RL002 scope).
DEFAULT_WALL_CLOCK_PACKAGES = (
    "repro.mac",
    "repro.phy",
    "repro.core",
    "repro.experiments",
    "repro.devices",
    "repro.campaign",
    "repro.obs",
)

#: The sanctioned clock shims — the only modules allowed to read the
#: wall/monotonic clock.  RL002 skips them entirely, so every *other*
#: clock read in the tree still fires.
DEFAULT_CLOCK_MODULES = ("repro.obs.clock",)

#: Packages doing link-budget / geometry math where float equality
#: comparisons are suspect (RL005 scope).
DEFAULT_PHYSICS_PACKAGES = (
    "repro.phy",
    "repro.core",
    "repro.geometry",
    "repro.analysis",
)

#: Modules allowed to contain inline dB conversions (the helpers
#: themselves).
DEFAULT_DBMATH_MODULES = ("repro.analysis.dbmath",)

#: Packages whose *public* API must declare units by suffix or
#: ``# replint: unit=...`` annotation (RL012 scope).
DEFAULT_FLOW_UNIT_PACKAGES = ("repro.phy", "repro.mac")

#: Packages whose functions are checked for RNG injection and dropped
#: seed chains (RL013/RL015 scope).
DEFAULT_FLOW_RNG_PACKAGES = (
    "repro.phy",
    "repro.mac",
    "repro.core",
    "repro.experiments",
    "repro.devices",
    "repro.campaign",
)

@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration."""

    disable: frozenset = frozenset()
    per_file_ignores: Tuple[Tuple[str, frozenset], ...] = ()
    baseline: str = "lint-baseline.json"
    exclude: Tuple[str, ...] = ()
    wall_clock_packages: Tuple[str, ...] = DEFAULT_WALL_CLOCK_PACKAGES
    physics_packages: Tuple[str, ...] = DEFAULT_PHYSICS_PACKAGES
    rng_entry_points: Tuple[str, ...] = ()
    dbmath_modules: Tuple[str, ...] = DEFAULT_DBMATH_MODULES
    flow_unit_packages: Tuple[str, ...] = DEFAULT_FLOW_UNIT_PACKAGES
    flow_rng_packages: Tuple[str, ...] = DEFAULT_FLOW_RNG_PACKAGES
    clock_modules: Tuple[str, ...] = DEFAULT_CLOCK_MODULES

    def is_ignored(self, rel_path: str, code: str) -> bool:
        """True if ``code`` is switched off for ``rel_path`` by config."""
        for pattern, codes in self.per_file_ignores:
            if code in codes and (
                fnmatch.fnmatch(rel_path, pattern)
                or fnmatch.fnmatch(rel_path, f"*/{pattern}")
            ):
                return True
        return False


def module_in(module: str, packages: Tuple[str, ...]) -> bool:
    """True if a dotted module name falls under any listed package."""
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def find_root(start: pathlib.Path) -> pathlib.Path:
    """Walk up from ``start`` to the nearest directory with a pyproject."""
    current = start.resolve()
    if current.is_file():
        current = current.parent
    for candidate in (current, *current.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return current


def _codes(raw: object) -> frozenset:
    if not isinstance(raw, (list, tuple)):
        return frozenset()
    return frozenset(str(c).upper() for c in raw)


def _strings(raw: object, default: Tuple[str, ...]) -> Tuple[str, ...]:
    if not isinstance(raw, (list, tuple)):
        return default
    return tuple(str(s) for s in raw)


def load_config(root: pathlib.Path) -> LintConfig:
    """Load ``[tool.repro-lint]`` from ``root/pyproject.toml``.

    Raises ``ValueError`` naming any key that is not a
    :class:`LintConfig` field (spelled with dashes).
    """
    pyproject = root / "pyproject.toml"
    if _toml is None:  # pragma: no cover - py<3.11 without tomli
        print(
            "repro lint: no TOML parser available; using default config",
            file=sys.stderr,
        )
        return LintConfig()
    if not pyproject.is_file():
        return LintConfig()
    try:
        with open(pyproject, "rb") as fh:
            data = _toml.load(fh)
    except (OSError, _toml.TOMLDecodeError) as exc:  # type: ignore[union-attr]
        print(f"repro lint: could not read {pyproject}: {exc}", file=sys.stderr)
        return LintConfig()
    section = data.get("tool", {}).get("repro-lint", {})
    if not isinstance(section, dict):
        return LintConfig()
    known = {f.name.replace("_", "-") for f in fields(LintConfig)}
    unknown = sorted(set(section) - known)
    if unknown:
        raise ValueError(
            f"unknown [tool.repro-lint] key(s) in {pyproject}: "
            + ", ".join(unknown)
        )
    ignores_raw = section.get("per-file-ignores", {})
    ignores: Tuple[Tuple[str, frozenset], ...] = ()
    if isinstance(ignores_raw, dict):
        ignores = tuple(
            (str(pattern), _codes(codes)) for pattern, codes in sorted(ignores_raw.items())
        )
    return LintConfig(
        disable=_codes(section.get("disable", [])),
        per_file_ignores=ignores,
        baseline=str(section.get("baseline", "lint-baseline.json")),
        exclude=_strings(section.get("exclude", []), ()),
        wall_clock_packages=_strings(
            section.get("wall-clock-packages"), DEFAULT_WALL_CLOCK_PACKAGES
        ),
        physics_packages=_strings(
            section.get("physics-packages"), DEFAULT_PHYSICS_PACKAGES
        ),
        rng_entry_points=_strings(section.get("rng-entry-points"), ()),
        dbmath_modules=_strings(section.get("dbmath-modules"), DEFAULT_DBMATH_MODULES),
        flow_unit_packages=_strings(
            section.get("flow-unit-packages"), DEFAULT_FLOW_UNIT_PACKAGES
        ),
        flow_rng_packages=_strings(
            section.get("flow-rng-packages"), DEFAULT_FLOW_RNG_PACKAGES
        ),
        clock_modules=_strings(section.get("clock-modules"), DEFAULT_CLOCK_MODULES),
    )
