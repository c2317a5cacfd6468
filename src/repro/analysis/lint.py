"""Simulator-aware lint: AST rules no off-the-shelf linter knows.

The simulator has repo-specific correctness conventions — integer
femtosecond timestamps, unit-suffixed names, no wall-clock reads inside
the deterministic event loop — that ruff/flake8 cannot check.  This pass
walks the AST of every file under ``src/repro`` and enforces:

========== ==========================================================
REPRO001   no wall-clock calls (``time.time``, ``time.monotonic``,
           ``time.perf_counter``, ``datetime.now`` …) in simulator
           code: simulations must be a pure function of the config
REPRO002   no float ``==`` / ``!=`` against ``_fs`` / ``_ns`` / cycle
           quantities: timestamps are exact integers; a float literal
           in such a comparison is a unit or rounding bug
REPRO003   unit-suffix naming discipline: public attributes and
           dataclass fields holding physical quantities (latency,
           bandwidth, energy, capacity, …) must name their unit
           (``_fs``, ``_bytes``, ``_pj``, ``_ns``, ``_gbps``, …)
REPRO004   no mutable default arguments (shared-state bugs across
           per-core component instances)
REPRO005   no bare ``assert`` for invariant checks outside ``tests/``:
           ``python -O`` strips asserts — raise
           :class:`~repro.sim.kernel.InvariantViolation` or
           :class:`~repro.sim.kernel.SimulationError` instead
REPRO006   no float arithmetic assigned to exact integer quantities:
           an assignment (or augmented assignment) whose target ends in
           ``_fs`` / ``_cycles`` must not mix in float
           literals or true division — the run-until-miss fast path
           advances local copies of the clock with plain ``+=``, and one
           float contaminates every later timestamp.  Quantize
           explicitly (``round(...)`` / ``int(...)`` or the
           :mod:`repro.units` converters) or use ``//``
REPRO007   no ``os.environ`` / ``os.getenv`` reads of ``REPRO_*``
           escape hatches outside construction-time code: the
           fastpath/blocks contract reads hatches once when the system
           is built, so a mid-run read makes behaviour depend on when
           the environment mutates — a determinism bug.  The sanctioned
           construction-time readers carry suppression comments
REPRO008   in ``core/``, ``mem/``, ``sim/``, ``interconnect/`` and
           ``workloads/``: no ``id(...)`` dict key or subscript, and no
           read of a set's order — a loop or comprehension over it,
           ``iter``/``list``/``tuple``/``enumerate``/``zip``/``str.join``
           of it, or its ``.pop()`` — where the set is a literal, a set
           comprehension, a ``set()``/``frozenset()`` call, or a local
           name only ever bound to one; addresses and str hashes change
           from run to run
========== ==========================================================

A file that cannot be parsed is reported as a single ``REPRO000``
finding rather than crashing the pass.

Suppression: append ``# repro-lint: disable=REPRO001`` (comma-separate
several ids, or ``disable=all``) to the offending line.  ``--json``
emits machine-readable findings for CI.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict, dataclass
from pathlib import Path

#: Module-level callables that read the wall clock.
_WALL_CLOCK_MODULES = {"time"}
_WALL_CLOCK_TIME_ATTRS = {"time", "monotonic", "perf_counter", "process_time",
                          "clock", "time_ns", "monotonic_ns",
                          "perf_counter_ns"}
_WALL_CLOCK_DATETIME_ATTRS = {"now", "utcnow", "today"}

#: Name roots that denote a physical quantity and therefore need a unit.
_QUANTITY_ROOTS = ("latency", "bandwidth", "energy", "capacity", "delay",
                   "period", "duration")
#: Accepted unit suffixes (extend as new units appear).
_UNIT_SUFFIXES = ("_fs", "_ns", "_us", "_ms", "_s", "_bytes", "_bits", "_kib",
                  "_mib", "_pj", "_nj", "_uj", "_mj", "_j", "_ghz", "_mhz",
                  "_hz", "_gbps", "_mbps", "_per_byte", "_per_bit",
                  "_cycles", "_instructions")

#: Name endings that mark exact integer time/cycle quantities (REPRO002).
_EXACT_QUANTITY_RE = re.compile(r"(_fs|_ns|_cycles|cycle_fs)$")

#: Name endings in the *integer* time domain (REPRO006).  Narrower than
#: :data:`_EXACT_QUANTITY_RE`: ``_ns`` quantities are the human-friendly
#: float configuration domain and may carry fractions; only once
#: converted to femtoseconds (or cycle counts) must values stay integer.
_INT_QUANTITY_RE = re.compile(r"(_fs|_cycles)$")


#: Packages below ``repro`` whose iteration order reaches results (REPRO008).
_DETERMINISM_SCOPE = {"core", "mem", "sim", "interconnect", "workloads"}

#: Builtins whose result follows the order of a set passed in (REPRO008).
_ORDER_READERS = {"iter", "list", "tuple", "enumerate", "zip"}

#: Nodes that open a scope of local names (REPRO008 resolves names per scope).
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef,
           ast.Lambda)

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: Rule registry: id -> one-line summary.  Help text and documentation
#: render from this table so they cannot drift when rules are added.
#: REPRO000 is the parse-failure pseudo-rule, not part of the advertised
#: range.
RULES: dict[str, str] = {
    "REPRO000": "file cannot be parsed (reported as a finding, not a crash)",
    "REPRO001": "no wall-clock reads in simulator code",
    "REPRO002": "no float equality against exact integer quantities",
    "REPRO003": "physical-quantity attributes must name their unit",
    "REPRO004": "no mutable default arguments",
    "REPRO005": "no bare assert for invariant checks",
    "REPRO006": "no float arithmetic assigned to integer clock quantities",
    "REPRO007": "no mid-run reads of REPRO_* environment escape hatches",
    "REPRO008": "no id() keys or set iteration in simulator packages",
}


def rule_range() -> str:
    """The advertised rule range, e.g. ``"REPRO001..REPRO007"``.

    Rendered from :data:`RULES` (excluding the REPRO000 pseudo-rule) so
    CLI help and docs can never drift from the implementation.
    """
    numbered = sorted(rule for rule in RULES if rule != "REPRO000")
    return f"{numbered[0]}..{numbered[-1]}"


@dataclass(frozen=True)
class Finding:
    """One lint finding, pointing at a file:line."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def _dotted_name(node: ast.AST) -> str:
    """Best-effort dotted name of a call target ('time.time', 'x.y.now')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _operand_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):
        return _operand_name(node.func)
    return None


def _is_float_constant(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_float_constant(node.operand)
    return False


def _float_taint(node: ast.AST) -> ast.AST | None:
    """First sub-expression introducing float arithmetic, or None.

    Walks bare arithmetic only (``+ - * //`` chains, unary ops,
    conditional expressions); a float literal or a true division anywhere
    in the walked expression taints it.  Calls are *not* descended into:
    explicit quantizers (``round``, ``int``) and the unit converters
    return exact integers by contract, and unknown callables are given
    the benefit of the doubt — the rule targets inline clock arithmetic,
    where the float has nowhere to hide.
    """
    if isinstance(node, ast.Constant):
        return node if type(node.value) is float else None
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return node
        return _float_taint(node.left) or _float_taint(node.right)
    if isinstance(node, ast.UnaryOp):
        return _float_taint(node.operand)
    if isinstance(node, ast.IfExp):
        return _float_taint(node.body) or _float_taint(node.orelse)
    return None


def _exact_target_name(node: ast.AST) -> str | None:
    """The terminal name of an assignment target, if it is exact-integer."""
    name = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    if name is not None and _INT_QUANTITY_RE.search(name):
        return name
    return None


def _calls(node: ast.AST, *names: str) -> bool:
    """True when ``node`` calls a bare name among ``names``."""
    return isinstance(node, ast.Call) and _dotted_name(node.func) in names


def _is_set_expr(node: ast.AST) -> bool:
    """A set literal, set comprehension, or ``set()``/``frozenset()`` call."""
    return (isinstance(node, (ast.Set, ast.SetComp))
            or _calls(node, "set", "frozenset"))


def _scope_nodes(scope: ast.AST):
    """The nodes of ``scope`` itself, parents first, not of nested scopes."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def _set_names(scope: ast.AST) -> frozenset[str]:
    """Local names of ``scope`` that every binding sets to a set expression.

    Any other binding — a parameter, a loop or ``with`` target, an
    unpacking, an import, a nested ``def`` — clears the name.  ``s |= t``
    keeps a set a set, so augmented assignments do not count.
    """
    bound: dict[str, bool] = {}
    claimed: set[ast.AST] = set()

    def bind(name: str, is_set: bool) -> None:
        bound[name] = bound.get(name, True) and is_set

    for node in _scope_nodes(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    claimed.add(target)
                    if node.value is not None:
                        bind(target.id, _is_set_expr(node.value))
        elif isinstance(node, ast.AugAssign):
            claimed.add(node.target)
        elif isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Store) and node not in claimed:
                bind(node.id, False)
        elif isinstance(node, ast.arg):
            bind(node.arg, False)
        elif isinstance(node, ast.alias):
            bind((node.asname or node.name).split(".")[0], False)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bind(node.name, False)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bind(node.name, False)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                bind(name, False)
    return frozenset(name for name, is_set in bound.items() if is_set)


def _needs_unit_suffix(name: str) -> bool:
    if name.startswith("_"):
        return False
    lowered = name.lower()
    if not any(root in lowered for root in _QUANTITY_ROOTS):
        return False
    return not lowered.endswith(_UNIT_SUFFIXES)


class _Visitor(ast.NodeVisitor):
    def __init__(self, path: str) -> None:
        self.path = path
        self.findings: list[Finding] = []
        # REPRO008 checks files in a _DETERMINISM_SCOPE package of ``repro``.
        up = Path(path).parts[::-1]     # the last ``repro`` directory wins
        below = up[:up.index("repro")][::-1] if "repro" in up else ()
        self.deterministic = len(below) > 1 and below[0] in _DETERMINISM_SCOPE
        # The set-valued local names of each enclosing scope (REPRO008).
        self._set_scopes: list[frozenset[str]] = [frozenset()]

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(Finding(self.path, node.lineno, node.col_offset,
                                     rule, message))

    # REPRO001 ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        parts = dotted.split(".")
        if len(parts) >= 2:
            module, attr = parts[-2], parts[-1]
            if module in _WALL_CLOCK_MODULES and attr in _WALL_CLOCK_TIME_ATTRS:
                self._add(node, "REPRO001",
                          f"wall-clock call {dotted}() in simulator code; "
                          "simulated time must come from the event kernel")
            elif (attr in _WALL_CLOCK_DATETIME_ATTRS
                  and any("datetime" in p or p == "date" for p in parts[:-1])):
                self._add(node, "REPRO001",
                          f"wall-clock call {dotted}() in simulator code; "
                          "simulated time must come from the event kernel")
        self._check_env_call(node, parts)
        self._check_set_read(node)
        self.generic_visit(node)

    # REPRO007 ---------------------------------------------------------
    def _flag_env_read(self, node: ast.AST, key: str) -> None:
        self._add(node, "REPRO007",
                  f"environment escape hatch {key!r} read here; hatches "
                  "are read once at system construction — accept the "
                  "resolved value as a parameter instead")

    def _check_env_call(self, node: ast.Call, parts: list[str]) -> None:
        attr = parts[-1] if parts else ""
        is_env_read = attr == "getenv" or (
            attr == "get" and len(parts) >= 2 and parts[-2] == "environ")
        if not is_env_read or not node.args:
            return
        first = node.args[0]
        if (isinstance(first, ast.Constant) and isinstance(first.value, str)
                and first.value.startswith("REPRO_")):
            self._flag_env_read(node, first.value)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        self._check_id_keys(node.slice)
        dotted = _dotted_name(node.value)
        if dotted.split(".")[-1] == "environ":
            key = node.slice
            if (isinstance(key, ast.Constant) and isinstance(key.value, str)
                    and key.value.startswith("REPRO_")):
                self._flag_env_read(node, key.value)
        self.generic_visit(node)

    # REPRO002 ---------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        eq_ops = [op for op in node.ops if isinstance(op, (ast.Eq, ast.NotEq))]
        if eq_ops:
            has_float = any(_is_float_constant(o) for o in operands)
            exact_names = [
                name for o in operands
                if (name := _operand_name(o)) is not None
                and _EXACT_QUANTITY_RE.search(name)
            ]
            if has_float and exact_names:
                self._add(node, "REPRO002",
                          f"float equality against exact integer quantity "
                          f"{exact_names[0]!r}; timestamps and cycle counts "
                          "are exact ints — compare against an int")
        self.generic_visit(node)

    # REPRO003 ---------------------------------------------------------
    def _check_attr_name(self, node: ast.AST, name: str) -> None:
        if _needs_unit_suffix(name):
            self._add(node, "REPRO003",
                      f"public attribute {name!r} holds a physical quantity "
                      "but names no unit; add a suffix such as "
                      "'_fs', '_bytes', or '_pj'")

    @staticmethod
    def _is_numeric_value(node: ast.AST) -> bool:
        """Heuristic: the assigned value is a scalar numeric quantity.

        Only scalars need unit suffixes; an attribute holding a structured
        object (e.g. an ``EnergyBreakdown``) carries its units inside.
        """
        if isinstance(node, ast.Constant):
            return type(node.value) in (int, float)
        if isinstance(node, ast.UnaryOp):
            return _Visitor._is_numeric_value(node.operand)
        if isinstance(node, ast.BinOp):
            return True
        return False

    @staticmethod
    def _is_numeric_annotation(node: ast.AST | None) -> bool:
        if node is None:
            return False
        if isinstance(node, ast.Name):
            return node.id in ("int", "float")
        if isinstance(node, ast.BinOp):  # e.g. ``float | None``
            return (_Visitor._is_numeric_annotation(node.left)
                    or _Visitor._is_numeric_annotation(node.right))
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value in ("int", "float")
        return False

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_numeric_value(node.value):
            for target in node.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    self._check_attr_name(target, target.attr)
        self._check_exact_assign(node.targets, node.value, node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._is_numeric_annotation(node.annotation):
            target = node.target
            if (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                self._check_attr_name(target, target.attr)
            elif isinstance(target, ast.Name):
                # Class-level annotated names: dataclass fields.
                self._check_attr_name(target, target.id)
        if node.value is not None:
            self._check_exact_assign([node.target], node.value, node)
        self.generic_visit(node)

    # REPRO006 ---------------------------------------------------------
    def _flag_float_arith(self, node: ast.AST, name: str,
                          taint: ast.AST) -> None:
        kind = ("true division" if isinstance(taint, ast.BinOp)
                else "float literal")
        self._add(node, "REPRO006",
                  f"{kind} in arithmetic assigned to exact integer "
                  f"quantity {name!r}; clock updates must stay integer "
                  "femtoseconds — quantize with round()/int() or use '//'")

    def _check_exact_assign(self, targets: list[ast.AST], value: ast.AST,
                            node: ast.AST) -> None:
        taint = _float_taint(value)
        if taint is None:
            return
        for target in targets:
            name = _exact_target_name(target)
            if name is not None:
                self._flag_float_arith(node, name, taint)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        name = _exact_target_name(node.target)
        if name is not None:
            if isinstance(node.op, ast.Div):
                self._flag_float_arith(node, name, node)
            else:
                taint = _float_taint(node.value)
                if taint is not None:
                    self._flag_float_arith(node, name, taint)
        self.generic_visit(node)

    # REPRO008 ---------------------------------------------------------
    def _check_id_keys(self, *keys: ast.AST | None) -> None:
        for key in keys:
            if self.deterministic and key is not None and _calls(key, "id"):
                self._add(key, "REPRO008", "id() as a key: object addresses "
                          "change from run to run — key by a stable name")

    def visit_Dict(self, node: ast.Dict) -> None:
        self._check_id_keys(*node.keys)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._check_id_keys(node.key)
        self.generic_visit(node)

    def _in_scope(self, node: ast.AST) -> None:
        self._set_scopes.append(_set_names(node) if self.deterministic
                                else frozenset())
        self.generic_visit(node)
        self._set_scopes.pop()

    visit_Module = visit_ClassDef = visit_Lambda = _in_scope

    def _is_set(self, node: ast.AST) -> bool:
        return self.deterministic and (
            _is_set_expr(node) or (isinstance(node, ast.Name)
                                   and node.id in self._set_scopes[-1]))

    def _flag_set_read(self, node: ast.AST, what: str) -> None:
        self._add(node, "REPRO008", f"{what} a set follows its hashes, and "
                  "PYTHONHASHSEED changes str hashes — read a list, a dict "
                  "or a sorted() copy")

    def _check_set_read(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in _ORDER_READERS:
            read = node.args if func.id == "zip" else node.args[:1]
            what = f"{func.id}() over"
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            read, what = node.args, "str.join() over"
        elif (isinstance(func, ast.Attribute) and func.attr == "pop"
              and not node.args):
            read, what = [func.value], ".pop() from"
        else:
            return
        if any(self._is_set(arg) for arg in read):
            self._flag_set_read(node, what)

    def visit_For(self, node: ast.For | ast.AsyncFor | ast.comprehension) -> None:
        if self._is_set(node.iter):
            self._flag_set_read(node.iter, "iteration over")
        self.generic_visit(node)

    visit_AsyncFor = visit_comprehension = visit_For

    # REPRO004 ---------------------------------------------------------
    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in ("list", "dict", "set", "bytearray",
                                        "deque", "defaultdict", "OrderedDict")
            )
            if mutable:
                self._add(default, "REPRO004",
                          f"mutable default argument in {node.name}(); "
                          "per-core components would share it — default to "
                          "None and construct inside the body")

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._in_scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    # REPRO005 ---------------------------------------------------------
    def visit_Assert(self, node: ast.Assert) -> None:
        self._add(node, "REPRO005",
                  "bare 'assert' in simulator code is stripped by "
                  "'python -O'; raise InvariantViolation (or another "
                  "SimulationError) instead")
        self.generic_visit(node)


def _suppressed(finding: Finding, source_lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(source_lines):
        return False
    match = _SUPPRESS_RE.search(source_lines[finding.line - 1])
    if match is None:
        return False
    rules = {r.strip().upper() for r in match.group(1).split(",")}
    return "ALL" in rules or finding.rule in rules


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one Python source string; returns unsuppressed findings.

    An unparseable file yields one ``REPRO000`` finding rather than
    raising, so one broken file cannot crash a whole-tree lint run.
    """
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, (exc.offset or 1) - 1,
                        "REPRO000",
                        f"file cannot be parsed: {exc.msg}")]
    visitor = _Visitor(path)
    visitor.visit(tree)
    lines = source.splitlines()
    findings = [f for f in visitor.findings if not _suppressed(f, lines)]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_paths(paths: list[str | Path]) -> list[Finding]:
    """Lint every ``.py`` file under the given files/directories."""
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        findings.extend(lint_source(file.read_text(), str(file)))
    return findings


def render_findings(findings: list[Finding], as_json: bool = False) -> str:
    """Human- or machine-readable report for a findings list."""
    if as_json:
        return json.dumps({
            "findings": [asdict(f) for f in findings],
            "count": len(findings),
        }, indent=2)
    if not findings:
        return "repro-lint: no findings"
    lines = [f.render() for f in findings]
    lines.append(f"repro-lint: {len(findings)} finding(s)")
    return "\n".join(lines)
