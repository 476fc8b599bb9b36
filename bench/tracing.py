"""Span tracing installed from outside the package.

The tracer wraps public functions and methods of each matchcover module.
A module-level function is replaced in every module namespace that holds
it, because `folner`, `cli` and the package itself import `covering_graph`,
`mu_partition` and the others by name.  Methods are replaced on the class
that defines them.  `uninstall` puts every original back.

A span records (span id, parent span id, job id, name, start, end); spans
stay in memory until `write_spans` is called.  Hot element-level methods
(`validate`, `multiply`, `Embedding` construction) are counted only, since a
span around each call would cost more than the call.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict

MARK = "__bench_wrapped__"

# metric name -> (module, qualified name) of a callable that gets a span
SPANS = {
    "groups.translate": ("groups", "GroupModel.translate"),
    "groups.canon_set": ("groups", "GroupModel.canon_set"),
    "groups.ball": ("groups", "GroupModel.ball"),
    "groups.table_build": ("groups", "FiniteTableGroup.__init__"),
    "cover.covering_build": ("cover", "Covering.__init__"),
    "cover.restrict": ("cover", "Covering.restrict"),
    "bipartite.covering_graph": ("bipartite", "covering_graph"),
    "bipartite.max_matching": ("bipartite", "max_matching"),
    "bipartite.mu_partition": ("bipartite", "mu_partition"),
    "bipartite.hall_deficiency": ("bipartite", "hall_deficiency"),
    "bipartite.validate_witness": ("bipartite", "validate_witness"),
    "folner.folner_search": ("folner", "folner_search"),
    "folner.build_certificate": ("folner", "build_certificate"),
    "folner.check_certificate": ("folner", "check_certificate"),
    "folner.adversary_coloring": ("folner", "adversary_coloring"),
    "folner.perfect_net": ("folner", "perfect_net"),
    "ramsey.embeddings": ("ramsey", "embeddings"),
    "ramsey.ramsey_mu": ("ramsey", "ramsey_mu"),
    "ramsey.ramsey_condition_check": ("ramsey", "ramsey_condition_check"),
    "cli.dispatch": ("cli", "dispatch"),
}

# metric name -> callables that are counted without a span
COUNTS = {
    "groups.validate": [
        ("groups", "IntegerLattice.validate"),
        ("groups", "FreeGroup.validate"),
        ("groups", "FiniteTableGroup.validate"),
    ],
    "groups.multiply": [
        ("groups", "IntegerLattice.multiply"),
        ("groups", "FreeGroup.multiply"),
        ("groups", "FiniteTableGroup.multiply"),
    ],
    "ramsey.embedding_build": [("ramsey", "Embedding.__post_init__")],
}

LAYERS = ("groups", "cover", "bipartite", "folner", "ramsey", "serialize", "cli")


def _codec_spans(package: str) -> dict:
    """serialize.encode: `*_to_json` and `canonical_dumps`; serialize.decode:
    every `*_from_json` of the package, wherever it is defined."""
    out = {}
    ser = sys.modules[f"{package}.serialize"]
    for name, obj in vars(ser).items():
        if callable(obj) and getattr(obj, "__module__", "") == ser.__name__:
            if name.endswith("_to_json") or name == "canonical_dumps":
                out[(ser.__name__, name)] = "serialize.encode"
    for modname, mod in list(sys.modules.items()):
        if not _in_package(modname, package) or mod is None:
            continue
        for name, obj in vars(mod).items():
            if (
                name.endswith("_from_json")
                and callable(obj)
                and getattr(obj, "__module__", "") == modname
            ):
                out[(modname, name)] = "serialize.decode"
    return out


def _in_package(modname: str, package: str) -> bool:
    return modname == package or modname.startswith(package + ".")


class Tracer:
    """Installs span and count wrappers and turns spans into layer metrics."""

    def __init__(self, package: str = "matchcover") -> None:
        self.package = package
        self.spans: list = []
        self.counts: defaultdict = defaultdict(int)
        self.job = 0
        self._stack = [0]
        self._next_id = 1
        self._undo: list = []
        self._last_graph = None

    # -- installation -----------------------------------------------------

    def _modules(self) -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if _in_package(name, self.package) and mod is not None
        ]

    def _resolve(self, module: str, qualname: str):
        mod = sys.modules[f"{self.package}.{module}"]
        owner_name, _, attr = qualname.rpartition(".")
        if not owner_name:
            return mod, attr, getattr(mod, attr)
        owner = getattr(mod, owner_name)
        if attr not in vars(owner):
            raise RuntimeError(f"{qualname} is not defined on {owner_name}")
        return owner, attr, vars(owner)[attr]

    def _replace(self, owner, attr, original, wrapper) -> None:
        """Swap `original` for `wrapper`: on its class, or in every module."""
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._undo.append((owner, attr, original))
            return
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._undo.append((mod, name, original))

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        hooks = {
            "bipartite.covering_graph": self._after_covering_graph,
            "bipartite.max_matching": self._after_max_matching,
            "folner.folner_search": self._adder("folner.folner_search.evaluations",
                                                lambda r: r.evaluations),
            "folner.build_certificate": self._adder("folner.build_certificate.pairs",
                                                    lambda r: len(r.pairs)),
            "ramsey.embeddings": self._adder("ramsey.embeddings.found", len),
            "ramsey.ramsey_condition_check": self._adder(
                "ramsey.ramsey_condition_check.colorings", lambda r: r.colorings_checked
            ),
        }
        for metric, (module, qualname) in SPANS.items():
            owner, attr, original = self._resolve(module, qualname)
            self._replace(owner, attr, original,
                          self._span_wrapper(original, metric, hooks.get(metric)))
        for (modname, name), metric in _codec_spans(self.package).items():
            original = getattr(sys.modules[modname], name)
            hook = self._encoded_bytes if name == "canonical_dumps" else None
            self._replace(sys.modules[modname], name, original,
                          self._span_wrapper(original, metric, hook))
        for metric, targets in COUNTS.items():
            for module, qualname in targets:
                owner, attr, original = self._resolve(module, qualname)
                self._replace(owner, attr, original, self._count_wrapper(original, metric))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def installed(self) -> int:
        """Number of wrappers currently reachable from the package."""
        found = 0
        for mod in self._modules():
            for value in vars(mod).values():
                if getattr(value, MARK, False):
                    found += 1
                if isinstance(value, type) and value.__module__ == mod.__name__:
                    found += sum(1 for v in vars(value).values() if getattr(v, MARK, False))
        return found

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, fn, name, hook):
        tracer = self
        stack = self._stack
        record = self.spans.append
        clock = time.perf_counter
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            counts[calls] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                record((sid, parent, tracer.job, name, start, end))

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _adder(self, metric, measure):
        counts = self.counts

        def hook(args, result):
            counts[metric] += measure(result)

        return hook

    def _after_covering_graph(self, args, graph):
        self.counts["bipartite.covering_graph.edges"] += len(graph.edges)
        self._last_graph = graph

    def _after_max_matching(self, args, result):
        graph = args[0]
        self.counts["bipartite.max_matching.left_vertices"] += len(graph.left)
        self.counts["bipartite.max_matching.matched"] += result[0]
        if graph is self._last_graph:
            # matchings on covering graphs: edges built per matched pair
            self.counts["bipartite.edges_per_match.edges"] += len(graph.edges)
            self.counts["bipartite.edges_per_match.matched"] += result[0]

    def _encoded_bytes(self, args, text):
        self.counts["serialize.encode.bytes"] += len(text.encode("utf-8"))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name: duration minus the time of child spans."""
        own = {}
        for sid, _parent, _job, _name, start, end in self.spans:
            own[sid] = end - start
        for _sid, parent, _job, _name, start, end in self.spans:
            if parent in own:
                own[parent] -= end - start
        totals: defaultdict = defaultdict(float)
        for sid, _parent, _job, name, _start, _end in self.spans:
            totals[name] += own[sid]
        return dict(totals)

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tjob\tname\tstart_s\tend_s\n")
            for sid, parent, job, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{job}\t{name}\t{start:.9f}\t{end:.9f}\n")
