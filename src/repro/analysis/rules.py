"""The file-local rules R001–R008 and the types every check shares.

Each rule is a subclass of :class:`Rule` registered through
:func:`register_rule`; :func:`repro.analysis.analyzer.analyze` parses
every file once into a :class:`FileContext`, feeds it to each rule and
collects the :class:`Finding` objects it yields.  Rules are purely
syntactic (AST + source text), so the pass stays fast and
dependency-free.  The whole-program checks W001, W004, W008 and W009
(:mod:`repro.analysis.program`) report through the same
:class:`Finding` and are suppressed by the same comments.

Rule catalog
------------

========  ==================================================================
R001      Wall-clock time (``time.time``, ``datetime.now``...) in
          simulation code; ``time.perf_counter`` is allowed only in
          ``experiments/`` and ``benchmarks/`` micro-benchmarks.
R002      Unseeded randomness: module-level ``random.*`` calls or a
          seedless ``random.Random()``; stochastic models must route
          through :class:`repro.sim.rng.StreamRNG`.
R003      Blocking ``time.sleep`` — simulation processes and
          ``MessageBus`` handlers must yield ``env.timeout`` instead.
R004      SBI / PFCP / NAS message dataclasses must be declared
          ``frozen=True`` (zero-copy descriptor passing hands out live
          references; mutation after send corrupts readers).
R005      Float ``==`` / ``!=`` against ``env.now`` — use
          ``pytest.approx`` or interval checks.
R006      Mutable default argument (list/dict/set) in ``src/repro``.
R007      ``print()`` in library code under ``src/repro`` — results
          belong in return values, metrics, or spans
          (:mod:`repro.obs`), not stdout.  CLI entry points
          (``__main__.py``) and ``experiments/`` / ``benchmarks/``
          harnesses are exempt.
R008      Mutation of a shared UPF structure (the
          :data:`~repro.analysis.lifecycle.SHARED_STRUCTURES`: rule
          maps, session-table indexes, ``report_pending``) from
          production code outside the owning ``up`` package — the
          single-writer ownership model (§3.2) routes all rule changes
          through the UPF-C's PFCP handlers.  Inside ``up`` a rule
          map (:data:`~repro.analysis.lifecycle.RULE_CONTAINERS`) is
          written only by its own session (``self``), whose mutators
          publish each write to the flow cache.  Test code is out of
          scope: the race-detector tests seed such writes on purpose.
========  ==================================================================

Exemptions are inline: a finding on a line whose *comment* carries
``repro: noqa[R001,R005] -- reason`` (the listed codes) or a bare
``repro: noqa`` (every code) is suppressed.  Only comment tokens count —
the same text inside a string or docstring is neither a suppression nor
an unused one.  A suppression that excuses nothing is itself reported
(:data:`UNUSED_SUPPRESSION`), so an exemption cannot outlive its debt.
"""

from __future__ import annotations

import ast
import functools
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple, Type

from .astutil import attr_mutations, dotted as _dotted
from .lifecycle import RULE_CONTAINERS, SHARED_STRUCTURES

__all__ = [
    "SYNTAX_ERROR",
    "UNUSED_SUPPRESSION",
    "Finding",
    "FileContext",
    "Rule",
    "RULE_REGISTRY",
    "register_rule",
]

#: A file that does not parse.  Always reported, never suppressible;
#: the file is left out of every other check.
SYNTAX_ERROR = "R000"
#: A ``repro: noqa`` comment that excused no finding of this run.
#: Always reported, suppressible by nothing.
UNUSED_SUPPRESSION = "U001"


@dataclass(frozen=True)
class Finding:
    """One violation, formatted as ``file:line:col: CODE [sev] message``;
    ``chain`` is the interprocedural evidence of a whole-program check
    (call chain or path steps, outermost first)."""

    path: str
    line: int
    col: int
    code: str
    severity: str
    message: str
    chain: Tuple[str, ...] = ()

    def format(self) -> str:
        base = (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.code} [{self.severity}] {self.message}"
        )
        if not self.chain:
            return base
        steps = "\n".join(f"    {step}" for step in self.chain)
        return f"{base}\n  call chain:\n{steps}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "chain": list(self.chain),
        }


_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


def _suppressions(source: str) -> Dict[int, frozenset]:
    """line -> suppressed codes (empty set = every code), read from
    the file's COMMENT tokens only."""
    noqa: Dict[int, frozenset] = {}
    if "noqa" not in source:
        return noqa  # skip the tokenizer for the common file
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _NOQA_RE.search(token.string)
        if match:
            noqa[token.start[0]] = frozenset(
                code.strip().upper()
                for code in (match.group("codes") or "").split(",")
                if code.strip()
            )
    return noqa


@dataclass
class FileContext:
    """One source file, read and parsed once; the R-rules, the symbol
    table and the suppression filter all work from this object."""

    path: str  # normalized posix-style path as given on the CLI
    source: str
    tree: ast.Module
    #: line number -> set of suppressed codes (empty set = all codes)
    noqa: Dict[int, frozenset] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, source: str) -> "FileContext":
        """Raises :class:`SyntaxError` for a file that does not parse."""
        tree = ast.parse(source, filename=path)
        return cls(
            path=path, source=source, tree=tree, noqa=_suppressions(source)
        )

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.noqa.get(finding.line)
        if codes is None:
            return False
        return not codes or finding.code in codes

    def path_has(self, *parts: str) -> bool:
        """True if any path component matches one of ``parts``."""
        components = self.path.replace("\\", "/").split("/")
        return any(part in components for part in parts)

    def path_endswith(self, *suffixes: str) -> bool:
        norm = self.path.replace("\\", "/")
        return any(norm.endswith(suffix) for suffix in suffixes)

    @functools.cached_property
    def nodes(self) -> Tuple[ast.AST, ...]:
        """Every node of the tree, walked once for all the rules."""
        return tuple(ast.walk(self.tree))

    @property
    def is_test(self) -> bool:
        """Under a ``tests/`` directory: out of scope for the ownership
        rule and the whole-program checks, which judge production code."""
        return self.path_has("tests")


RULE_REGISTRY: Dict[str, Type["Rule"]] = {}


def register_rule(cls: Type["Rule"]) -> Type["Rule"]:
    """Class decorator adding a rule to the registry (keyed by code)."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULE_REGISTRY[cls.code] = cls
    return cls


class Rule:
    """Base lint rule.

    Subclasses set :attr:`code`, :attr:`name`, :attr:`severity` and
    implement :meth:`check`, yielding :class:`Finding` objects.
    """

    code: str = ""
    name: str = ""
    severity: str = "error"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            severity=self.severity,
            message=message,
        )


# ---------------------------------------------------------------------------
# R001 — wall-clock time
# ---------------------------------------------------------------------------
@register_rule
class WallClockRule(Rule):
    """Simulated time comes from ``env.now``; wall-clock reads make runs
    irreproducible.  ``time.perf_counter`` is tolerated only inside the
    ``experiments/`` and ``benchmarks/`` micro-benchmark harnesses,
    which genuinely measure host CPU time."""

    code = "R001"
    name = "wall-clock-time"

    FORBIDDEN = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.today",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
    BENCH_ONLY = {"time.perf_counter", "time.perf_counter_ns"}

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        in_bench = ctx.path_has("experiments", "benchmarks")
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted in self.FORBIDDEN:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call {dotted}() breaks deterministic "
                    "replay; derive time from env.now",
                )
            elif dotted in self.BENCH_ONLY and not in_bench:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() is reserved for experiments/ and "
                    "benchmarks/ micro-benchmarks; simulation code must "
                    "use env.now",
                )


# ---------------------------------------------------------------------------
# R002 — unseeded randomness
# ---------------------------------------------------------------------------
@register_rule
class UnseededRandomRule(Rule):
    """Module-level ``random.*`` draws from interpreter-global state and
    breaks bit-for-bit reproducibility; draw from a named
    :class:`repro.sim.rng.StreamRNG` substream (or at minimum an
    explicitly seeded ``random.Random(seed)``)."""

    code = "R002"
    name = "unseeded-random"

    MODULE_FUNCS = {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.uniform",
        "random.gauss",
        "random.expovariate",
        "random.seed",
        "random.getrandbits",
        "random.betavariate",
        "random.normalvariate",
        "random.paretovariate",
    }

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted is None:
                continue
            if dotted in self.MODULE_FUNCS:
                yield self.finding(
                    ctx,
                    node,
                    f"{dotted}() uses the global RNG; route through "
                    "repro.sim.rng.StreamRNG",
                )
            elif dotted == "random.Random" and not (
                node.args or node.keywords
            ):
                yield self.finding(
                    ctx,
                    node,
                    "random.Random() without a seed is entropy-seeded; "
                    "pass an explicit seed or use repro.sim.rng",
                )


# ---------------------------------------------------------------------------
# R003 — blocking sleep
# ---------------------------------------------------------------------------
@register_rule
class BlockingSleepRule(Rule):
    """``time.sleep`` stalls the whole event loop — a MessageBus handler
    or Environment process must yield ``env.timeout(...)`` so simulated
    time, not host time, advances."""

    code = "R003"
    name = "blocking-sleep"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        sleep_aliases = {"time.sleep"}
        for node in ctx.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        sleep_aliases.add(alias.asname or alias.name)
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted in sleep_aliases:
                yield self.finding(
                    ctx,
                    node,
                    f"blocking {dotted}() stalls the event loop; yield "
                    "env.timeout(...) instead",
                )


# ---------------------------------------------------------------------------
# R004 — frozen message dataclasses
# ---------------------------------------------------------------------------
@register_rule
class FrozenMessageRule(Rule):
    """The zero-copy transports pass live references; a message mutated
    after send corrupts every reader holding its descriptor.  Message
    schema modules must declare every dataclass ``frozen=True``."""

    code = "R004"
    name = "unfrozen-message"

    MESSAGE_MODULES = (
        "sbi/messages.py",
        "pfcp/messages.py",
        "pfcp/ies.py",
        "pfcp/qos_ies.py",
        "ran/ngap.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.path_endswith(*self.MESSAGE_MODULES):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.ClassDef):
                continue
            for decorator in node.decorator_list:
                frozen = self._frozen_state(decorator)
                if frozen is False:
                    yield self.finding(
                        ctx,
                        node,
                        f"message dataclass {node.name} must be declared "
                        "@dataclass(frozen=True): descriptors are passed "
                        "by reference over shared memory",
                    )

    @staticmethod
    def _frozen_state(decorator: ast.AST) -> Optional[bool]:
        """True/False for a @dataclass decorator, None for others."""
        if isinstance(decorator, ast.Name) and decorator.id == "dataclass":
            return False
        if isinstance(decorator, ast.Call):
            dotted = _dotted(decorator.func)
            if dotted in ("dataclass", "dataclasses.dataclass"):
                for kw in decorator.keywords:
                    if kw.arg == "frozen":
                        return (
                            isinstance(kw.value, ast.Constant)
                            and kw.value.value is True
                        )
                return False
        if isinstance(decorator, ast.Attribute):
            if _dotted(decorator) == "dataclasses.dataclass":
                return False
        return None


# ---------------------------------------------------------------------------
# R005 — float equality against env.now
# ---------------------------------------------------------------------------
@register_rule
class NowEqualityRule(Rule):
    """``env.now`` accumulates float timeouts; exact equality is a
    rounding-error time bomb.  Compare through ``pytest.approx`` (or an
    explicit tolerance)."""

    code = "R005"
    name = "float-eq-now"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left] + list(node.comparators)
            if not any(self._is_now(op) for op in operands):
                continue
            if any(self._is_approx(op) for op in operands):
                continue
            yield self.finding(
                ctx,
                node,
                "exact float comparison against env.now; wrap the "
                "expected value in pytest.approx(...)",
            )

    @staticmethod
    def _is_now(node: ast.AST) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "now"

    @staticmethod
    def _is_approx(node: ast.AST) -> bool:
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted and dotted.split(".")[-1] == "approx":
                return True
        return False


# ---------------------------------------------------------------------------
# R006 — mutable default arguments
# ---------------------------------------------------------------------------
@register_rule
class MutableDefaultRule(Rule):
    """A mutable default is shared across every call — state leaks
    between simulated runs and across NF instances."""

    code = "R006"
    name = "mutable-default-arg"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.path_has("repro", "src"):
            return
        for node in ctx.nodes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults: List[Tuple[ast.AST, str]] = []
            args = node.args
            pos = args.posonlyargs + args.args
            for arg, default in zip(pos[len(pos) - len(args.defaults):],
                                    args.defaults):
                defaults.append((default, arg.arg))
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    defaults.append((default, arg.arg))
            for default, arg_name in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default for argument {arg_name!r} in "
                        f"{node.name}(); use None and construct inside",
                    )

    @staticmethod
    def _is_mutable(node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            return dotted in ("list", "dict", "set", "bytearray")
        return False


# ---------------------------------------------------------------------------
# R007 — print() in library code
# ---------------------------------------------------------------------------
@register_rule
class PrintInLibraryRule(Rule):
    """Library modules must stay silent: a ``print`` buried in the
    platform produces interleaved noise under concurrent procedures and
    tempts ad-hoc debugging output into commits.  Results belong in
    return values, metrics, or spans (:mod:`repro.obs`).  CLI entry
    points and experiment harnesses legitimately talk to stdout and are
    exempt."""

    code = "R007"
    name = "print-in-library"
    severity = "warning"

    #: Paths allowed to print: console entry points (their findings
    #: are their stdout contract).
    EXEMPT_SUFFIXES = ("__main__.py",)
    EXEMPT_DIRS = ("experiments", "benchmarks")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.path_has("repro", "src"):
            return
        if ctx.path_has(*self.EXEMPT_DIRS):
            return
        if ctx.path_endswith(*self.EXEMPT_SUFFIXES):
            return
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "print":
                yield self.finding(
                    ctx,
                    node,
                    "print() in library code; return data, record a "
                    "metric, or emit a span via repro.obs instead",
                )


# ---------------------------------------------------------------------------
# R008 — non-owner mutation of shared UPF structures
# ---------------------------------------------------------------------------
@register_rule
class NonOwnerMutationRule(Rule):
    """The UPF-C/UPF-U split has a single-writer discipline: rule maps
    and session indexes are written only by the ``up`` package (PFCP
    handlers on the C side, runtime state on the U side).  A mutation
    reaching in from any other module bypasses both the epoch publish
    protocol and the race detector's ownership model.  Inside ``up``
    the rule maps are the session's own: a handler writing
    ``session.fars[...]`` instead of calling ``update_far`` skips the
    publish, and the flow cache keeps serving the old rule."""

    code = "R008"
    name = "non-owner-shared-write"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_test:
            return
        inside_up = ctx.path_has("up")
        watched = RULE_CONTAINERS if inside_up else SHARED_STRUCTURES
        for node, attr, receiver in attr_mutations(ctx.tree, watched):
            if receiver == "self":
                # A class defining its own attribute of the same name
                # owns it; inside up/ that is the session's mutators.
                continue
            if inside_up:
                message = (
                    f"direct write of rule map .{attr} through "
                    f"{receiver or 'a computed receiver'}; call the "
                    "session's mutator, which publishes the change "
                    "(RuleEpoch bump) to the flow cache"
                )
            else:
                message = (
                    f"mutation of shared UPF structure .{attr} outside "
                    "the owning up/ package; route the change through "
                    "the UPF-C PFCP handlers (single-writer model, §3.2)"
                )
            yield self.finding(ctx, node, message)
