"""Source rules over ``src/repro``, checked with the stdlib ``ast``.

The figures are seeded simulations read out through dB-domain link
budgets, so:

* **RL001** — no ``random.*`` calls, no legacy ``np.random.*`` global
  calls, no ``default_rng()`` / ``default_rng(None)`` /
  ``default_rng(seed=None)``;
* **RL002** — no ``time.*`` or ``datetime.now/utcnow/today`` clock
  reads in simulation packages; :mod:`repro.obs.clock` is exempt;
* **RL003** — no inline ``10|20 * log10(...)`` or ``10 ** (x / 10|20)``
  outside :mod:`repro.analysis.dbmath`;
* **RL007** — no iteration over a set inside a function that hashes or
  serializes, unless ``sorted``/``min``/``max`` imposes the order: set
  order of strings changes with ``PYTHONHASHSEED``, from one process to
  the next, where no in-process test can see it;
* **RL009** — no ambient input in the packages campaign cells run:
  no ``os.environ``/``os.getenv``, no builtin or ``io.open``, no
  ``.read_text()``/``.read_bytes()`` and no numpy file loader.  A cell's result must follow from
  its (experiment, params, seed) row alone; an environment variable or
  file it reads is the same in every worker process, so the
  serial-vs-parallel comparison of ``repro campaign verify`` cannot
  see it.

Import aliases are resolved.  Scopes and exemptions are the constants
below: no baseline, no suppression comment.  A violation fails with
``path:line rule message``.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, List, Optional, Tuple

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

#: Packages whose code must take time from the DES clock (RL002).
WALL_CLOCK_PACKAGES = (
    "repro.mac", "repro.phy", "repro.core", "repro.experiments",
    "repro.devices", "repro.campaign", "repro.obs",
)

#: The clock shim, the only module in those packages that may read the
#: wall clock (RL002 skips it; every other module still fires).
CLOCK_MODULES = ("repro.obs.clock",)

#: The dB helpers themselves, the only place inline conversions live
#: (RL003).
DBMATH_MODULES = ("repro.analysis.dbmath",)

#: Packages whose code computes campaign cells, so it reads nothing but
#: its arguments (RL009).
CELL_PACKAGES = (
    "repro.analysis", "repro.core", "repro.devices", "repro.experiments",
    "repro.geometry", "repro.mac", "repro.mobility", "repro.phy",
    "repro.seeding",
)

#: ``numpy.random`` attributes that build explicitly seeded generators
#: rather than touching the legacy global state.
NP_RANDOM_OK = {
    "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
}

#: ``random`` attributes that construct a seedable instance.
PY_RANDOM_OK = {"Random"}

TIME_FUNCS = {
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time",
}
DATETIME_FUNCS = {"now", "utcnow", "today"}

#: Environment and file readers by dotted origin, and by method name on
#: any receiver (``pathlib.Path``), for RL009.  numpy's loaders open
#: their file themselves, so no ``open`` shows at the call site.
AMBIENT_READERS = {
    "os.environ", "os.environb", "os.getenv", "os.getenvb",
    "io.open", "builtins.open",
    "numpy.load", "numpy.loadtxt", "numpy.genfromtxt", "numpy.fromfile",
}
AMBIENT_METHODS = {"read_text", "read_bytes"}

#: Calls that make a function's output a hash or serialized text
#: (RL007), and calls whose result does not depend on iteration order.
SERIALIZERS = {
    "dump", "dumps", "digest", "hexdigest",
    "sha1", "sha256", "md5", "blake2b", "blake2s",
}
ORDERING = {"sorted", "min", "max"}

Violation = Tuple[int, str, str]  # (line, rule, message)


def _under(module: str, packages: Tuple[str, ...]) -> bool:
    return any(module == pkg or module.startswith(pkg + ".") for pkg in packages)


def _aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin for every absolute import in the file."""
    out: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    out[alias.asname] = alias.name
                else:  # ``import numpy.random`` binds ``numpy``
                    head = alias.name.split(".")[0]
                    out[head] = head
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                out[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return out


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """``np.random.rand`` -> ``numpy.random.rand``; None unless the chain
    ends in an imported name."""
    attrs: List[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in aliases:
        return None
    return ".".join([aliases[node.id], *reversed(attrs)])


def _is_none(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def _unseeded(call: ast.Call) -> bool:
    """``default_rng()``, ``default_rng(None)`` or ``default_rng(seed=None)``."""
    if not call.args and not call.keywords:
        return True
    if call.args and _is_none(call.args[0]):
        return True
    return any(kw.arg == "seed" and _is_none(kw.value) for kw in call.keywords)


def _number(node: ast.AST) -> Optional[float]:
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return float(node.value)
    return None


def _is_log10(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    return (isinstance(func, ast.Name) and func.id == "log10") or (
        isinstance(func, ast.Attribute) and func.attr == "log10"
    )


def _call_name(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else None


def _is_set(node: ast.AST) -> bool:
    return isinstance(node, (ast.Set, ast.SetComp)) or (
        isinstance(node, ast.Call) and _call_name(node) in ("set", "frozenset")
    )


def _set_iterations(node: ast.AST):
    """Set iterations under ``node`` that no ordering call encloses; nested
    functions are checked on their own."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(child, ast.Call) and _call_name(child) in ORDERING:
            continue
        if isinstance(child, (ast.For, ast.comprehension)) and _is_set(child.iter):
            yield child.iter
        yield from _set_iterations(child)


def _rng_rule(name: str, call: ast.Call) -> Optional[str]:
    owner, _, attr = name.rpartition(".")
    if owner == "random" and attr not in PY_RANDOM_OK:
        return f"global RNG {name}() — thread a seeded numpy Generator instead"
    if owner == "numpy.random":
        if attr == "default_rng":
            if _unseeded(call):
                return "unseeded numpy.random.default_rng() pulls OS entropy"
        elif attr not in NP_RANDOM_OK:
            return f"legacy global {name}() — use a seeded numpy Generator"
    return None


def _clock_rule(name: str) -> Optional[str]:
    owner, _, attr = name.rpartition(".")
    if (owner == "time" and attr in TIME_FUNCS) or (
        owner in ("datetime.datetime", "datetime.date") and attr in DATETIME_FUNCS
    ):
        return (
            f"wall-clock read {name}() in simulation code — use the DES "
            "clock (Simulator.now) or repro.obs.clock"
        )
    return None


def _db_rule(node: ast.BinOp) -> Optional[str]:
    if isinstance(node.op, ast.Mult):
        for const, other in ((node.left, node.right), (node.right, node.left)):
            factor = _number(const)
            if factor in (10.0, 20.0) and _is_log10(other):
                return f"inline {factor:.0f}*log10(...) — use repro.analysis.dbmath"
    elif isinstance(node.op, ast.Pow) and _number(node.left) == 10.0:
        exp = node.right
        if isinstance(exp, ast.BinOp) and isinstance(exp.op, ast.Div):
            divisor = _number(exp.right)
            if divisor in (10.0, 20.0):
                return f"inline 10**(x/{divisor:.0f}) — use repro.analysis.dbmath"
    return None


def _ambient_rule(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    if isinstance(node, ast.Attribute) and node.attr in AMBIENT_METHODS:
        name = f".{node.attr}()"
    elif isinstance(node, ast.Name) and node.id == "open" and "open" not in aliases:
        name = "open()"
    elif isinstance(node, (ast.Name, ast.Attribute)):
        name = _dotted(node, aliases)
        if name not in AMBIENT_READERS:
            return None
    else:
        return None
    return (
        f"ambient input {name} in cell code — pass it in as a cell "
        "parameter so the spec records it"
    )


def check_source(source: str, module: str) -> List[Violation]:
    """Every source-rule violation in ``source``, read as ``module``."""
    tree = ast.parse(source)
    aliases = _aliases(tree)
    clock_policed = _under(module, WALL_CLOCK_PACKAGES) and not _under(
        module, CLOCK_MODULES
    )
    db_policed = not _under(module, DBMATH_MODULES)
    ambient_policed = _under(module, CELL_PACKAGES)
    found: List[Violation] = []
    for node in ast.walk(tree):
        message = _ambient_rule(node, aliases) if ambient_policed else None
        if message:
            found.append((node.lineno, "RL009", message))
        if isinstance(node, ast.Call):
            name = _dotted(node.func, aliases)
            if name is None:
                continue
            message = _rng_rule(name, node)
            if message:
                found.append((node.lineno, "RL001", message))
            message = _clock_rule(name) if clock_policed else None
            if message:
                found.append((node.lineno, "RL002", message))
        elif isinstance(node, ast.BinOp) and db_policed:
            message = _db_rule(node)
            if message:
                found.append((node.lineno, "RL003", message))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and any(
            isinstance(sub, ast.Call) and _call_name(sub) in SERIALIZERS
            for sub in ast.walk(node)
        ):
            for it in _set_iterations(node):
                found.append((
                    it.lineno, "RL007",
                    "set iterated in a function that hashes or serializes — "
                    "wrap it in sorted(...)",
                ))
    return sorted(found)


def _module_of(path: pathlib.Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _source_files() -> List[pathlib.Path]:
    return sorted((SRC / "repro").rglob("*.py"))


def test_src_obeys_source_rules():
    report = []
    for path in _source_files():
        rel = path.relative_to(SRC.parent).as_posix()
        source = path.read_text(encoding="utf-8")
        for line, rule, message in check_source(source, _module_of(path)):
            report.append(f"{rel}:{line} {rule} {message}")
    assert not report, "source-rule violations:\n" + "\n".join(report)


def test_walk_covers_the_package_and_its_exemptions():
    modules = {_module_of(path) for path in _source_files()}
    assert len(modules) > 50
    # The scopes and exemptions name modules that exist, so a rename
    # cannot silently widen or empty them.
    for name in (
        *WALL_CLOCK_PACKAGES, *CLOCK_MODULES, *DBMATH_MODULES, *CELL_PACKAGES
    ):
        assert name in modules, name


# One row per rule and alias form: (module, source, expected rules).
# Positives prove a rule still fires; negatives pin its exemptions.
CASES = [
    # RL001 — module-global or unseeded RNG
    ("repro.phy.x", "import random\nrandom.random()", ["RL001"]),
    ("repro.phy.x", "import random as rnd\nrnd.gauss(0.0, 1.0)", ["RL001"]),
    ("repro.phy.x", "from random import randint\nrandint(0, 5)", ["RL001"]),
    ("repro.cli", "import numpy as np\nnp.random.seed(3)", ["RL001"]),
    ("repro.phy.x", "import numpy.random as npr\nnpr.rand()", ["RL001"]),
    ("repro.phy.x", "from numpy import random as npr\nnpr.normal()", ["RL001"]),
    ("repro.phy.x", "import numpy.random\nnumpy.random.shuffle(a)", ["RL001"]),
    ("repro.phy.x", "import numpy as np\nnp.random.default_rng()", ["RL001"]),
    ("repro.phy.x", "import numpy as np\nnp.random.default_rng(None)", ["RL001"]),
    ("repro.phy.x", "from numpy.random import default_rng\ndefault_rng()", ["RL001"]),
    ("repro.phy.x", "from numpy.random import default_rng\ndefault_rng(seed=None)",
     ["RL001"]),
    ("repro.phy.x", "from numpy.random import rand\nrand(3)", ["RL001"]),
    ("repro.phy.x", "import numpy as np\nnp.random.default_rng(seed)", []),
    ("repro.phy.x", "from numpy.random import default_rng\ndefault_rng(seed=7)", []),
    ("repro.phy.x", "import numpy as np\nnp.random.Generator(np.random.PCG64(1))", []),
    ("repro.phy.x", "import random\nrandom.Random(1234).random()", []),
    ("repro.phy.x", "def f(rng):\n    return rng.random()", []),
    # RL002 — wall clock in simulation code
    ("repro.mac.x", "import time\ntime.time()", ["RL002"]),
    ("repro.mac.x", "from time import perf_counter\nperf_counter()", ["RL002"]),
    ("repro.campaign.x", "import time as t\nt.monotonic_ns()", ["RL002"]),
    ("repro.experiments.x", "import datetime\ndatetime.datetime.now()", ["RL002"]),
    ("repro.core.x", "from datetime import datetime\ndatetime.utcnow()", ["RL002"]),
    ("repro.devices.x", "from datetime import date\ndate.today()", ["RL002"]),
    ("repro.obs.trace", "import time\ntime.perf_counter_ns()", ["RL002"]),
    ("repro.obs.clock", "import time as _time\n_time.perf_counter()", []),
    ("repro.cli", "import time\ntime.time()", []),
    ("repro.mac.x", "from repro.obs import clock\nclock.perf_counter()", []),
    ("repro.mac.x", "def f(sim):\n    return sim.now + 0.1", []),
    # RL003 — dB math outside repro.analysis.dbmath
    ("repro.phy.x", "import math\n10.0 * math.log10(p)", ["RL003"]),
    ("repro.phy.x", "import numpy as np\n20*np.log10(a)", ["RL003"]),
    ("repro.phy.x", "from math import log10\nlog10(p) * 10", ["RL003"]),
    ("repro.phy.x", "10.0 ** (x_db / 10.0)", ["RL003"]),
    ("repro.phy.x", "10 ** (x_db / 20)", ["RL003"]),
    ("repro.analysis.dbmath", "import math\n10.0 * math.log10(p)", []),
    ("repro.analysis.dbmath", "10.0 ** (x_db / 10.0)", []),
    ("repro.phy.x", "2.0 ** (x / 10.0) + 10.0 ** x + 3 * math.log10(p)", []),
    # RL007 — set order feeding a hash or serialized output
    ("repro.campaign.x", "def f(xs):\n    return json.dumps([x for x in set(xs)])",
     ["RL007"]),
    ("repro.cli", "def f(h, xs):\n    for x in frozenset(xs):\n        h.update(x)\n"
     "    return h.hexdigest()", ["RL007"]),
    ("repro.cli", "def f(xs):\n    return json.dumps({k: 1 for k in {'a', 'b'}})", ["RL007"]),
    ("repro.cli", "def f(xs):\n    return json.dumps(sorted(x for x in set(xs)))", []),
    ("repro.cli", "def f(d):\n    return json.dumps([v for v in d.values()])", []),
    ("repro.cli", "def f(xs):\n    return [x for x in set(xs)]", []),
    ("repro.cli", "def f(xs):\n    def g():\n        return json.dumps([x for x in set(xs)])\n"
     "    return json.dumps(g())", ["RL007"]),
    # RL009 — ambient input in cell packages
    ("repro.experiments.x", "import os\nos.environ.get('SCALE', '1')", ["RL009"]),
    ("repro.mac.x", "import os\nos.environ['SCALE']", ["RL009"]),
    ("repro.phy.x", "import os as o\no.getenv('SCALE')", ["RL009"]),
    ("repro.core.x", "from os import environ\nenviron.get('SCALE')", ["RL009"]),
    ("repro.mobility.x", "from os import getenv\ngetenv('SCALE')", ["RL009"]),
    ("repro.devices.x", "with open('calib.txt') as fh:\n    fh.read()", ["RL009"]),
    ("repro.geometry.x", "import io\nio.open('calib.txt')", ["RL009"]),
    ("repro.analysis.x", "from io import open\nopen('calib.txt')", ["RL009"]),
    ("repro.seeding", "import builtins\nbuiltins.open('calib.txt')", ["RL009"]),
    ("repro.experiments.x", "import pathlib\npathlib.Path('c.txt').read_text()", ["RL009"]),
    ("repro.phy.x", "def f(path):\n    return path.read_bytes()", ["RL009"]),
    ("repro.experiments.x", "import numpy as np\nnp.loadtxt('calib.txt')", ["RL009"]),
    ("repro.campaign.x", "import os\nos.environ['REPRO_OBS'] = 'metrics'", []),
    ("repro.obs.x", "import os\nos.environ.get('REPRO_OBS')", []),
    ("repro.cli", "def f(path):\n    with open(path) as fh:\n        return fh.read()", []),
    ("repro.experiments.x", "def f(env, fh):\n    return env.get('SCALE'), fh.read()", []),
    ("repro.experiments.x", "import os\nos.path.join('a', 'b')", []),
]


@pytest.mark.parametrize(
    "module, source, expected",
    CASES,
    ids=[f"{i:02d}-{module}" for i, (module, _, _) in enumerate(CASES)],
)
def test_rule_table(module, source, expected):
    found = check_source(source, module)
    assert [rule for _, rule, _ in found] == expected
