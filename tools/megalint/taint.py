"""The determinism checker's vocabulary: impurity sources, sanctioned
impurities, replay-surface sinks, and call-chain reachability.

The repo's replay contract (byte-identical ``as_dict`` /
``replay_surface`` output, pure ``pipeline.hashing`` keys,
seed-deterministic ``FaultPlan.roll``) is only as strong as the
*transitive* call closure of those functions — a wall-clock read two
calls away poisons the surface just as surely as one inside it.  Every
determinism rule draws on the one classifier here:

* **sources** (:func:`iter_sources`): wall-clock reads, ``random`` /
  ``os.urandom`` / ``secrets`` / ``uuid`` / legacy ``np.random`` RNG,
  environment and host CPU-count reads, unsorted filesystem
  enumeration (a ``sorted(...)`` wrapper exempts it), and
  set-order-dependent iteration;
* **sanctioned impurities**: a source is exempt only when its line
  carries an explicit declaration::

      t = time.time()  # megalint: sanctioned-impurity=clock: wall block only

  The declaration names the impurity kind(s) (``clock``, ``rng``,
  ``env``, ``fs-order``, ``set-order``) and *must* give a
  justification after the colon — a declaration without one is itself
  reported, so impurities are declared, never silently suppressed;
* **sinks** (:func:`sink_functions`): replay-surface builders
  (:func:`is_replay_builder`), cache-key functions, configured sinks;
* **taint chains**: shortest call-graph path from a sink function to a
  function containing an unsanctioned source (breadth-first over the
  deterministic edge order, so reports are stable).

MEGA012 reports the chains (hop >= 0).  MEGA004 and MEGA011 are its
hop-0 views: the sources sitting directly in their scope.  MEGA002
takes its legacy-RNG and set-order predicates from here too.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from tools.megalint.astutil import (dotted_name, is_name_call, is_setish,
                                    walk_scope)
from tools.megalint.callgraph import CallGraph
from tools.megalint.config import in_modules
from tools.megalint.project import ProjectIndex

#: ``# megalint: sanctioned-impurity=clock,env: justification``
_SANCTION_RE = re.compile(
    r"#\s*megalint:\s*sanctioned-impurity=([a-z,\-\s]+?)\s*:\s*(.*)$")

#: Impurity kinds a declaration may name.
IMPURITY_KINDS = frozenset({"clock", "rng", "env", "fs-order", "set-order"})

#: Wall-clock reads.
_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.date.today",
})

#: ``random`` module callables that draw from global RNG state.
_RANDOM_FUNCS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "betavariate",
    "expovariate", "lognormvariate", "vonmisesvariate", "paretovariate",
    "weibullvariate", "triangular", "getrandbits", "randbytes", "seed",
})

#: The legacy global-state numpy RNG (seeded at interpreter level,
#: shared mutable state).  ``np.random.default_rng`` / ``Generator`` /
#: bit-generator constructors are the sanctioned replacements.
_NP_RANDOM_FUNCS = frozenset({
    "seed", "rand", "randn", "random", "random_sample", "ranf", "sample",
    "randint", "random_integers", "choice", "shuffle", "permutation",
    "bytes", "uniform", "normal", "standard_normal", "binomial", "poisson",
    "beta", "gamma", "exponential", "geometric", "multinomial",
    "get_state", "set_state",
})

#: Environment and host-shape reads (the CPUs this process may use).
_ENV_CALLS = frozenset({"os.getenv", "os.environb", "os.cpu_count",
                        "os.sched_getaffinity"})
_FS_CALLS = frozenset({"os.listdir", "os.scandir"})
#: Method names distinctive enough to flag on any receiver.
_FS_METHODS = frozenset({"iterdir", "glob", "rglob"})


def is_replay_builder(name: str) -> bool:
    """Does a function of this name build (part of) a replay surface?"""
    return name in ("as_dict", "replay_surface") \
        or name.endswith("_replay_surface")


def is_legacy_np_random(flat: str) -> bool:
    """``np.random.<fn>`` / ``numpy.random.<fn>`` global-state calls."""
    parts = flat.split(".")
    return (len(parts) == 3 and parts[0] in ("np", "numpy")
            and parts[1] == "random" and parts[2] in _NP_RANDOM_FUNCS)


@dataclass(frozen=True)
class Source:
    """One direct impurity found inside a scope."""

    kind: str       # one of IMPURITY_KINDS
    line: int
    what: str       # human-readable, e.g. "time.time()"
    #: the offending expression, for per-file reports.
    node: Optional[ast.AST] = field(default=None, compare=False,
                                    repr=False)


@dataclass(frozen=True)
class TaintChain:
    """A sink-to-source call path proving the sink is tainted."""

    sink: str                     # sink function qualname
    source: Source
    source_function: str          # qualname containing the source
    source_path: str              # display path of the defining file
    hops: Tuple[str, ...]         # qualnames, sink first

    def describe(self) -> str:
        route = " -> ".join(self.hops)
        return (f"{self.source.kind} source '{self.source.what}' "
                f"({self.source_path}:{self.source.line}) reaches it "
                f"via {route}")


@dataclass(frozen=True)
class BadDeclaration:
    """A sanctioned-impurity comment that does not pass muster."""

    module: str
    line: int
    problem: str


Sanctions = Dict[int, Tuple[frozenset, str]]


def sanctions_for(lines: Sequence[str]) -> Sanctions:
    """Line -> (kinds, justification) for declaration comments."""
    out: Sanctions = {}
    for i, line in enumerate(lines, start=1):
        match = _SANCTION_RE.search(line)
        if match:
            kinds = frozenset(p.strip() for p in match.group(1).split(",")
                              if p.strip())
            out[i] = (kinds, match.group(2).strip())
    return out


def is_sanctioned(source: Source, sanctions: Sanctions) -> bool:
    """Declared on its line, for its kind, with a justification."""
    kinds, why = sanctions.get(source.line, (frozenset(), ""))
    return source.kind in kinds and bool(why)


def set_order_source(node: ast.AST) -> Optional[Source]:
    """A loop or ordered comprehension iterating a syntactic set."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        it, what = node.iter, "iteration over an unordered set"
    elif isinstance(node, (ast.ListComp, ast.DictComp, ast.GeneratorExp)):
        it = node.generators[0].iter
        what = "comprehension over an unordered set"
    else:
        return None
    return Source("set-order", it.lineno, what, it) if is_setish(it) \
        else None


def _call_source(node: ast.Call) -> Optional[Source]:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr in _FS_METHODS:
        # Any receiver, even one that is not a plain dotted name.
        what = dotted_name(func) or func.attr
        return Source("fs-order", node.lineno, f"{what}()", node)
    flat = dotted_name(func)
    if flat is None:
        return None
    parts = flat.split(".")
    kind = None
    if flat in _CLOCK_CALLS:
        kind = "clock"
    elif (flat == "os.urandom" or is_legacy_np_random(flat)
            or (parts[0] == "random" and len(parts) == 2
                and parts[1] in _RANDOM_FUNCS)
            or (parts[0] in ("secrets", "uuid") and len(parts) == 2)):
        kind = "rng"
    elif flat in _ENV_CALLS:
        kind = "env"
    elif flat in _FS_CALLS:
        kind = "fs-order"
    return Source(kind, node.lineno, f"{flat}()", node) if kind else None


def _node_source(node: ast.AST) -> Optional[Source]:
    if isinstance(node, ast.Call):
        return _call_source(node)
    if isinstance(node, ast.Attribute):
        if dotted_name(node) == "os.environ":
            return Source("env", node.lineno, "os.environ", node)
        return None
    return set_order_source(node)


def iter_sources(root: ast.AST, into_classes: bool = False
                 ) -> Iterator[Source]:
    """Direct impurity sources syntactically inside ``root``.

    Nested defs belong to the scope that defines them; nested classes
    do not, unless ``into_classes``.  A filesystem enumeration wrapped
    (transitively) in ``sorted(...)`` is not a source.
    """
    nodes = list(walk_scope(root, into_classes))
    in_sorted = {id(sub) for node in nodes
                 if is_name_call(node, ("sorted",)) for sub in ast.walk(node)}
    for node in nodes:
        source = _node_source(node)
        if source is not None and not (source.kind == "fs-order"
                                       and id(node) in in_sorted):
            yield source


class TaintAnalysis:
    """Direct sources per function plus sink-to-source reachability."""

    def __init__(self, index: ProjectIndex, graph: CallGraph):
        self.index = index
        self.graph = graph
        #: function qualname -> unsanctioned direct sources, in line order.
        self.direct: Dict[str, List[Source]] = {}
        #: declarations that are malformed (no justification, unknown
        #: kind) — surfaced as violations, never silently dropped.
        self.bad_declarations: List[BadDeclaration] = []
        self._analyse()

    # ------------------------------------------------------------------
    def _analyse(self) -> None:
        sanctions_by_module: Dict[str, Sanctions] = {}
        for mod_name in sorted(self.index.modules):
            sanctions = sanctions_for(self.index.modules[mod_name]
                                      .parsed.lines)
            sanctions_by_module[mod_name] = sanctions
            for line, (kinds, why) in sorted(sanctions.items()):
                unknown = kinds - IMPURITY_KINDS
                if unknown:
                    self.bad_declarations.append(BadDeclaration(
                        mod_name, line,
                        f"unknown impurity kind(s) "
                        f"{', '.join(sorted(unknown))} (known: "
                        f"{', '.join(sorted(IMPURITY_KINDS))})"))
                if not why:
                    self.bad_declarations.append(BadDeclaration(
                        mod_name, line,
                        "sanctioned-impurity declaration without a "
                        "justification — say why this impurity is safe"))
        for qualname in sorted(self.graph.nodes):
            fn = self.graph.nodes[qualname]
            if fn.kind == "class":
                continue
            sanctions = sanctions_by_module.get(fn.module, {})
            kept = sorted((s for s in iter_sources(fn.node)
                           if not is_sanctioned(s, sanctions)),
                          key=lambda s: (s.line, s.kind, s.what))
            if kept:
                self.direct[qualname] = kept

    # ------------------------------------------------------------------
    def trace(self, sink: str) -> Optional[TaintChain]:
        """Shortest chain from ``sink`` to an unsanctioned source."""
        seen = {sink}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(sink, (sink,))]
        while queue:
            current, hops = queue.pop(0)
            sources = self.direct.get(current)
            if sources:
                fn = self.graph.nodes[current]
                info = self.index.modules.get(fn.module)
                path = info.parsed.display_path if info else fn.module
                return TaintChain(sink=sink, source=sources[0],
                                  source_function=current,
                                  source_path=path, hops=hops)
            for edge in self.graph.out_edges(current):
                if edge.callee in seen:
                    continue
                seen.add(edge.callee)
                queue.append((edge.callee, hops + (edge.callee,)))
        return None


def sink_functions(index: ProjectIndex, graph: CallGraph,
                   config) -> List[Tuple[str, str]]:
    """(qualname, sink kind) of every taint sink, deterministic order.

    Sinks are: replay-surface builders (:func:`is_replay_builder`) in
    the determinism/ledger module scopes, every function and method of
    the purity modules (``pipeline.hashing`` inputs), and the
    explicitly configured ``taint-sink-functions`` (e.g.
    ``FaultPlan.roll``).
    """
    surface_scope = config.determinism_modules + config.ledger_modules
    explicit = set(config.taint_sink_functions)
    sinks: List[Tuple[str, str]] = []
    for qualname in sorted(graph.nodes):
        fn = graph.nodes[qualname]
        if fn.kind == "class":
            continue
        name = qualname.rsplit(".", 1)[1]
        if qualname in explicit:
            sinks.append((qualname, "configured sink"))
        elif in_modules(fn.module, surface_scope) and is_replay_builder(name):
            sinks.append((qualname, "replay surface"))
        elif (in_modules(fn.module, config.purity_modules)
                and not name.startswith("__")):
            sinks.append((qualname, "cache-key path"))
    return sinks
