"""Discovery: find the kernel-shaped code in a module's AST.

The linter does not analyze arbitrary Python — it looks for the three
shapes device code takes in this repository:

* **strategy classes** — ``class FooSync(SyncStrategy)`` (or a subclass
  of another strategy class); their generator methods (``protocol``,
  a ``barrier`` override, helpers) are barrier protocol bodies and
  ``prepare`` holds the device-state allocations;
* **kernel generators** — any generator function whose first parameter
  is named ``ctx`` or ``wctx`` (the :class:`~repro.gpu.context.BlockCtx`
  convention), wherever it is defined, including nested inside another
  function (the ``examples/custom_kernel.py`` shape);
* **effect generators** — any other generator that yields a raw
  ``Acquire``/``Release`` effect (checked only for release-path bugs).

Everything else in a file is ignored, except the module-wide scan for
grid-size literals (rule SC002) and integer constant resolution.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

__all__ = [
    "BARRIER_CALLS",
    "BLOCK_ID_ATTRS",
    "KernelUnit",
    "StrategyClass",
    "block_identity_names",
    "call_receiver",
    "call_tail",
    "discover",
    "expr_depends_on",
    "expr_names",
    "int_constants",
    "is_block_dependent",
    "is_generator",
    "resolve_attr_root",
    "resolve_int",
    "self_attr_aliases",
    "yielded_calls",
]

#: attribute names whose value identifies the executing block/thread.
BLOCK_ID_ATTRS: Set[str] = {
    "block_id",
    "block_idx",
    "is_leader_block",
    "checker_block",
    "warp_id",
    "thread_id",
}

#: call tails that constitute a grid-barrier synchronization point.
BARRIER_CALLS: Set[str] = {
    "syncthreads",
    "spin_until",
    "barrier",
    "run_warps",
}

#: effect constructors whose raw yield makes a function worth analyzing
#: (only the release-path rule reasons about them).
EFFECT_NAMES: Set[str] = {"Acquire", "Release"}

FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class StrategyClass:
    """One ``SyncStrategy``-shaped class definition in a file."""

    node: ast.ClassDef
    name: str
    #: method name → function node (generator or not).
    methods: Dict[str, FunctionNode] = field(default_factory=dict)


@dataclass
class KernelUnit:
    """One function body the rule engine analyzes."""

    func: FunctionNode
    qualname: str
    kind: str  #: ``"barrier-method"`` | ``"kernel"`` | ``"effect-gen"``
    cls: Optional[StrategyClass] = None


# -- small AST helpers -------------------------------------------------------


def _walk_scoped(node: ast.AST) -> Iterator[ast.AST]:
    """Yield descendants of ``node`` without entering nested functions."""
    stack: List[ast.AST] = [node]
    first = True
    while stack:
        here = stack.pop()
        if not first and isinstance(
            here, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        first = False
        yield here
        stack.extend(ast.iter_child_nodes(here))


def is_generator(func: FunctionNode) -> bool:
    """True when the function body contains a yield in its own scope."""
    for node in _walk_scoped(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def call_tail(call: ast.Call) -> Optional[str]:
    """The final name of a call: ``ctx.atomic_add(...)`` → ``atomic_add``."""
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def call_receiver(call: ast.Call) -> Optional[str]:
    """The receiver name: ``ctx.atomic_add(...)`` → ``ctx`` (else None)."""
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id
    return None


def yielded_calls(stmt: ast.AST) -> List[ast.Call]:
    """All calls that are the value of a yield/yield-from in ``stmt``.

    Does not descend into nested functions or lambdas, so a spin
    predicate's body never counts as a yield site.
    """
    calls: List[ast.Call] = []
    for node in _walk_scoped(stmt):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            value = node.value
            if isinstance(value, ast.Call):
                calls.append(value)
    return calls


def expr_names(expr: ast.AST) -> Set[str]:
    """Every ``Name`` id referenced in an expression (scoped walk)."""
    return {
        node.id for node in _walk_scoped(expr) if isinstance(node, ast.Name)
    }


def expr_depends_on(expr: ast.AST, names: Set[str]) -> bool:
    """True if the expression references any of ``names`` (scoped)."""
    return bool(expr_names(expr) & names)


def int_constants(module: ast.Module) -> Dict[str, int]:
    """Module-level ``NAME = <int literal>`` bindings (incl. unary minus)."""
    consts: Dict[str, int] = {}
    for stmt in module.body:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            continue
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            continue
        value = _int_literal(stmt.value)
        if value is not None:
            consts[target.id] = value
    return consts


def _int_literal(node: ast.AST) -> Optional[int]:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        inner = _int_literal(node.operand)
        return -inner if inner is not None else None
    return None


def resolve_int(node: ast.AST, consts: Dict[str, int]) -> Optional[int]:
    """An expression's integer value, via literals and module constants."""
    literal = _int_literal(node)
    if literal is not None:
        return literal
    if isinstance(node, ast.Name):
        return consts.get(node.id)
    return None


# -- alias/dataflow helpers --------------------------------------------------


def resolve_attr_root(
    expr: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve an expression to the ``self`` attribute it aliases.

    ``self._mutex`` → ``_mutex``; ``mutex`` → via ``aliases``;
    ``self._mutexes[level]`` → ``_mutexes``.  Returns ``None`` when the
    expression is not rooted in an instance attribute.
    """
    if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id == "self":
            return expr.attr
        return None
    if isinstance(expr, ast.Subscript):
        return resolve_attr_root(expr.value, aliases)
    if isinstance(expr, ast.Name):
        return aliases.get(expr.id)
    return None


def self_attr_aliases(func: FunctionNode) -> Dict[str, str]:
    """Local name → ``self`` attribute root, from straight assignments.

    Handles ``mutex = self._mutex``, tuple unpacking
    (``a, b = self._in, self._out``), subscripts
    (``mutex = self._mutexes[level]`` → ``_mutexes``) and one level of
    re-aliasing.  Flow-insensitive in source order, which is enough for
    the protocol bodies this linter targets.
    """
    aliases: Dict[str, str] = {}
    for node in _walk_scoped(func):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            pairs: List[Tuple[ast.expr, ast.expr]] = []
            if isinstance(target, ast.Name):
                pairs.append((target, node.value))
            elif isinstance(target, ast.Tuple) and isinstance(
                node.value, ast.Tuple
            ):
                if len(target.elts) == len(node.value.elts):
                    pairs.extend(zip(target.elts, node.value.elts))
            for tgt, value in pairs:
                if not isinstance(tgt, ast.Name):
                    continue
                root = resolve_attr_root(value, aliases)
                if root is not None:
                    aliases[tgt.id] = root
    return aliases


def block_identity_names(func: FunctionNode) -> Set[str]:
    """Local names carrying block/thread identity.

    Seeded with the conventional ``bid``/``tid`` plus every local
    assigned from a block-identity attribute (``bid = ctx.block_id``).
    """
    names: Set[str] = {"bid", "tid"}
    for node in _walk_scoped(func):
        if isinstance(node, ast.Assign):
            if _mentions_block_identity(node.value, names):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
                    elif isinstance(target, ast.Tuple):
                        for elt in target.elts:
                            if isinstance(elt, ast.Name):
                                names.add(elt.id)
    return names


def _mentions_block_identity(expr: ast.AST, extra_names: Set[str]) -> bool:
    for node in _walk_scoped(expr):
        if isinstance(node, ast.Attribute) and node.attr in BLOCK_ID_ATTRS:
            return True
        if isinstance(node, ast.Name) and node.id in extra_names:
            return True
    return False


def is_block_dependent(expr: ast.AST, identity_names: Set[str]) -> bool:
    """True when an expression depends on which block is executing."""
    return _mentions_block_identity(expr, identity_names)


# -- discovery ---------------------------------------------------------------

#: base-name suffixes that mark a class as a barrier strategy.
_STRATEGY_BASE_SUFFIXES = ("SyncStrategy", "Sync", "Barrier", "Strategy")


def _base_names(node: ast.ClassDef) -> List[str]:
    names: List[str] = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _is_strategy_class(node: ast.ClassDef, known: Set[str]) -> bool:
    if node.name.endswith(_STRATEGY_BASE_SUFFIXES):
        return True
    for base in _base_names(node):
        if base in known:
            return True
        if base.endswith(_STRATEGY_BASE_SUFFIXES):
            return True
    return False


def discover(
    module: ast.Module,
) -> Tuple[List[KernelUnit], List[StrategyClass]]:
    """All analyzable units (and strategy classes) in a parsed module."""
    units: List[KernelUnit] = []
    classes: List[StrategyClass] = []
    known_strategy_names: Set[str] = set()
    seen_funcs: Set[int] = set()

    def add_unit(
        func: FunctionNode,
        qualname: str,
        kind: str,
        cls: Optional[StrategyClass] = None,
    ) -> None:
        if id(func) in seen_funcs:
            return
        seen_funcs.add(id(func))
        units.append(KernelUnit(func, qualname, kind, cls))

    # Pass 1: strategy classes and their methods.
    for node in ast.walk(module):
        if not isinstance(node, ast.ClassDef):
            continue
        if not _is_strategy_class(node, known_strategy_names):
            continue
        known_strategy_names.add(node.name)
        cls = StrategyClass(node, node.name)
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = stmt
        classes.append(cls)
        for name, func in cls.methods.items():
            if is_generator(func):
                add_unit(func, f"{cls.name}.{name}", "barrier-method", cls)

    # Pass 2: free kernel generators (first param ctx/wctx) and raw
    # effect generators, anywhere in the module (including nested).
    for node in ast.walk(module):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if id(node) in seen_funcs or not is_generator(node):
            continue
        args = node.args.posonlyargs + node.args.args
        first = args[0].arg if args else None
        if first in ("ctx", "wctx"):
            add_unit(node, node.name, "kernel")
            continue
        for stmt in node.body:
            for call in yielded_calls(stmt):
                if call_tail(call) in EFFECT_NAMES:
                    add_unit(node, node.name, "effect-gen")
                    break
            else:
                continue
            break

    return units, classes
