"""Configuration for the domain-aware linter.

Settings live in ``pyproject.toml`` under ``[tool.repro-lint]``::

    [tool.repro-lint]
    disable = []                       # rule codes switched off globally
    baseline = "lint-baseline.json"    # committed baseline location
    exclude = ["*/build/*"]            # path globs never scanned

    [tool.repro-lint.per-file-ignores]
    "src/repro/campaign/telemetry.py" = ["RL002"]

The package scopes the rules apply to (RL002's wall-clock packages and
clock shim, RL003's dbmath home, RL005's physics packages) are module
constants next to each rule in :mod:`repro.lint.rules`.

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


@dataclass(frozen=True)
class LintConfig:
    """Resolved linter configuration."""

    disable: frozenset = frozenset()
    per_file_ignores: Tuple[Tuple[str, frozenset], ...] = ()
    baseline: str = "lint-baseline.json"
    exclude: Tuple[str, ...] = ()

    def is_ignored(self, rel_path: str, code: str) -> bool:
        """True if ``code`` is switched off for ``rel_path`` by config."""
        for pattern, codes in self.per_file_ignores:
            if code in codes and (
                fnmatch.fnmatch(rel_path, pattern)
                or fnmatch.fnmatch(rel_path, f"*/{pattern}")
            ):
                return True
        return False


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


def _strings(raw: object) -> Tuple[str, ...]:
    if not isinstance(raw, (list, tuple)):
        return ()
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
        exclude=_strings(section.get("exclude", [])),
    )
