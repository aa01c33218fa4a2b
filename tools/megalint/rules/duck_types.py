"""MEGA015 — divergent duck-types: look-alikes of a protocol that
drift from its method set.

The serving stack is glued together structurally, not nominally:
``ServerEngine`` accepts "anything with a ``resolve(graph, key) ->
(path, hit)``" (the :class:`~repro.serve.server.ScheduleStore` shape —
the cluster's two-tier cache view subclasses it), and the cluster routes
through "anything with a ``choose(key, alive, ring)``"
(:class:`~repro.cluster.routing.LoadBalancePolicy`).  Nothing checks
those shapes at runtime until a request is already in flight — a
policy that spells its method ``chose``, or a store whose ``resolve``
grew an extra required parameter, raises ``AttributeError``/
``TypeError`` mid-serve instead of failing the build.

For each configured protocol class this rule checks every class in the
checked tree that either subclasses the protocol (anywhere) or
structurally duck-types it — defines all of its public methods *and*
lives under the protocol's top-level package, so a linter helper that
happens to define ``resolve`` isn't mistaken for a schedule store:

* **signature drift** — a shared method whose positional parameters
  differ from the protocol's (``*args``/``**kwargs`` on the
  implementation side match anything);
* **near-miss methods** (subclasses only) — a public method whose name
  is within edit distance 2 of a protocol method the subclass never
  overrides: the classic typo that silently inherits the base class's
  ``NotImplementedError`` stub.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Tuple

from tools.megalint.project import ClassInfo, ModuleInfo, ProjectIndex
from tools.megalint.registry import ProjectRule, register


def _public_methods(cls: ClassInfo) -> List[str]:
    return sorted(m for m in cls.methods if not m.startswith("_"))


def _positional_params(node) -> Optional[Tuple[List[str], bool]]:
    """(param names after self/cls, accepts-anything) of a def node."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    wildcard = args.vararg is not None or args.kwarg is not None
    return names, wildcard


def _edit_distance(a: str, b: str, cap: int = 3) -> int:
    """Levenshtein distance, capped (enough for near-miss detection)."""
    if abs(len(a) - len(b)) > cap:
        return cap + 1
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(min(previous[j] + 1, current[j - 1] + 1,
                               previous[j - 1] + (ca != cb)))
        if min(current) > cap:
            return cap + 1
        previous = current
    return previous[-1]


@register
class DuckTypeDriftRule(ProjectRule):
    id = "MEGA015"
    name = "duck-type-drift"
    rationale = ("classes duck-typing a configured protocol "
                 "(ScheduleStore, LoadBalancePolicy) must match its "
                 "method names and signatures — drift surfaces as "
                 "AttributeError/TypeError mid-serve instead of at "
                 "build time")

    def check_project(self, index, reporter) -> None:
        for proto_qual in index.config.protocol_classes:
            resolved = index.canonical(proto_qual) or proto_qual
            owner = index.module_of(resolved)
            if owner is None:
                continue
            cls_name = resolved[len(owner.name):].lstrip(".")
            proto = owner.classes.get(cls_name)
            if proto is None:
                continue
            self._check_protocol(index, reporter, owner, proto, resolved)

    # ------------------------------------------------------------------
    def _check_protocol(self, index: ProjectIndex, reporter,
                        proto_owner: ModuleInfo, proto: ClassInfo,
                        proto_qual: str) -> None:
        proto_methods = _public_methods(proto)
        if not proto_methods:
            return
        proto_surface = set(proto_methods) | set(proto.attrs)
        proto_package = proto_qual.split(".")[0]
        for mod_name in sorted(index.modules):
            info = index.modules[mod_name]
            in_scope = mod_name.split(".")[0] == proto_package
            for cls_name in sorted(info.classes):
                cls = info.classes[cls_name]
                if f"{mod_name}.{cls_name}" == proto_qual:
                    continue
                is_sub = index.is_subclass_of(info, cls, proto_qual)
                defines_all = (in_scope and
                               all(m in cls.methods for m in proto_methods))
                if not is_sub and not defines_all:
                    continue
                self._check_signatures(reporter, info, cls, proto,
                                       proto_methods, proto_qual)
                if is_sub:
                    self._check_near_misses(reporter, info, cls,
                                            proto_methods, proto_surface,
                                            proto_qual)

    def _check_signatures(self, reporter, info: ModuleInfo,
                          cls: ClassInfo, proto: ClassInfo,
                          proto_methods: List[str],
                          proto_qual: str) -> None:
        for meth in proto_methods:
            impl = cls.methods.get(meth)
            if impl is None:
                continue
            expected = _positional_params(proto.methods[meth])
            actual = _positional_params(impl)
            if expected is None or actual is None:
                continue
            if actual[1]:
                continue  # *args/**kwargs accepts the protocol shape
            if actual[0] != expected[0]:
                reporter.report(
                    self, info, impl,
                    f"'{cls.name}.{meth}' drifts from protocol "
                    f"'{proto_qual}': parameters "
                    f"({', '.join(actual[0]) or 'none'}) != protocol's "
                    f"({', '.join(expected[0]) or 'none'}) — callers "
                    "hold the protocol shape, so this fails at call "
                    "time")

    def _check_near_misses(self, reporter, info: ModuleInfo,
                           cls: ClassInfo, proto_methods: List[str],
                           proto_surface, proto_qual: str) -> None:
        unoverridden = [m for m in proto_methods if m not in cls.methods]
        for extra in _public_methods(cls):
            if extra in proto_surface:
                continue
            for missing in unoverridden:
                if _edit_distance(extra, missing) <= 2:
                    reporter.report(
                        self, info, cls.methods[extra],
                        f"'{cls.name}.{extra}' looks like a typo of "
                        f"protocol method '{missing}' "
                        f"('{proto_qual}'), which this subclass never "
                        "overrides — the base stub would raise at "
                        "call time")
