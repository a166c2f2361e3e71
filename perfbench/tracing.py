"""Span tracing around qbuchi's layer boundaries, and the per-layer metrics.

Tracing is installed only for the traced passes: ``Tracer.installed()``
replaces the names each module looks up in the next one (for example
``qbuchi.emptiness.run_lasso`` or ``qbuchi.cli.union``) with wrappers that
record a span, and puts the originals back afterwards. Untraced passes run
the unmodified program. A span holds its name, start, end, parent span and
operation id; spans stay in memory and are written out at the end of a run.
A layer's self time is its span minus the time its child spans cover.

``Mmqba.unitary_for`` is counted, not spanned: the engine looks up one
unitary per applied symbol, so the lookups inside a ``run_lasso`` span,
minus the one for the end marker, are the steps that run simulated.
"""
from __future__ import annotations

import math
import statistics
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import qbuchi
import qbuchi.analysis
import qbuchi.automata
import qbuchi.cli
import qbuchi.emptiness
from qbuchi.numerics import SubspaceBasis

DIM_BUCKETS = (3, 9, 27, 81, 243)


def dim_bucket(dim: int) -> int:
    """Nearest power of three on a log scale (2-5 -> 3, 6-15 -> 9, ...)."""
    return 3 ** max(1, round(math.log(dim, 3)))


def _lasso_info(args, kwargs, out):
    a, w = args[0], args[1]
    return (a.dim, w.prefix, w.cycle, out.status.value)


def _search_info(args, kwargs, out):
    return (args[0].dim, out.candidates_tried)


def _decompose_info(args, kwargs, out):
    return (args[0].dim, out.chain_length)


def _arg_dim(args, kwargs, out):
    return args[0].dim


def _out_dim(args, kwargs, out):
    return out.dim


def _cli_info(args, kwargs, out):
    return args[0][0]


# (module, attribute, span name, info). Every module-level name through
# which one layer calls the next, plus the package names the benchmark calls.
TARGETS = (
    (qbuchi, "run_lasso", "semantics.run_lasso", _lasso_info),
    (qbuchi.emptiness, "run_lasso", "semantics.run_lasso", _lasso_info),
    (qbuchi.cli, "run_lasso", "semantics.run_lasso", _lasso_info),
    (qbuchi, "check_emptiness", "emptiness.check_emptiness", _search_info),
    (qbuchi.cli, "check_emptiness", "emptiness.check_emptiness", _search_info),
    (qbuchi, "decompose_nonhalting", "analysis.decompose_nonhalting", _decompose_info),
    (qbuchi.cli, "decompose_nonhalting", "analysis.decompose_nonhalting", _decompose_info),
    (qbuchi, "verify_decomposition", "analysis.verify_decomposition", None),
    (qbuchi, "estimate_limit", "analysis.estimate_limit", None),
    (qbuchi.analysis, "null_space", "numerics.null_space", None),
    (qbuchi, "loads", "automata.loads", _out_dim),
    (qbuchi.automata, "loads", "automata.loads", _out_dim),
    (qbuchi, "saves", "automata.saves", _arg_dim),
    (qbuchi.automata, "saves", "automata.saves", _arg_dim),
    (qbuchi, "validate", "automata.validate", _arg_dim),
    (qbuchi.automata, "validate", "automata.validate", _arg_dim),
    (qbuchi, "union", "constructions.union", _out_dim),
    (qbuchi.cli, "union", "constructions.union", _out_dim),
    (qbuchi.cli, "main", "cli.main", _cli_info),
)


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "info", "lookups")

    def __init__(self, sid, name, parent, op):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.info = None
        self.lookups = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder. Set ``op`` to the current operation id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[Span] = []

    def _wrap(self, name, fn, info):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1].id if stack else None, self.op)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, out)
            return out

        return traced

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, info in TARGETS:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, info))
            spanning = SubspaceBasis.__dict__["from_spanning"]
            saved.append((SubspaceBasis, "from_spanning", spanning))
            SubspaceBasis.from_spanning = classmethod(
                self._wrap("numerics.from_spanning", spanning.__func__, None)
            )
            lookup = qbuchi.Mmqba.unitary_for
            saved.append((qbuchi.Mmqba, "unitary_for", lookup))
            stack = self._stack

            def counted(automaton, symbol):
                if stack:
                    stack[-1].lookups += 1
                return lookup(automaton, symbol)

            qbuchi.Mmqba.unitary_for = counted
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,parent,op,start,end,lookups,info\n")
            for s in self.spans:
                info = "" if s.info is None else str(s.info).replace(",", ";")
                parent = "" if s.parent is None else s.parent
                fh.write(f"{s.id},{s.name},{parent},{s.op},{s.start!r},{s.end!r},"
                         f"{s.lookups},{info}\n")


def is_primitive(word: str) -> bool:
    """True when the word is not a power x^k of a shorter word."""
    return (word + word).find(word, 1) == len(word)


def is_canonical(prefix: str, cycle: str) -> bool:
    """Shortest prefix and primitive cycle: u v^omega cannot be written with
    a shorter prefix when u's last symbol differs from v's last symbol."""
    return is_primitive(cycle) and not (prefix and prefix[-1] == cycle[-1])


def _median(values):
    return statistics.median(values) if values else 0.0


def pass_metrics(spans: list[Span]) -> dict:
    """Per-pass totals and counts from the spans of one traced pass."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.seconds
    m = defaultdict(float)
    step_time = defaultdict(float)
    step_count = defaultdict(int)
    pairs = set()
    noncanonical = 0
    prefix_steps = 0
    search_steps = 0
    by_id = {s.id: s for s in spans}
    for s in spans:
        self_s = s.seconds - child[s.id]
        if s.name == "semantics.run_lasso":
            dim, prefix, cycle, status = s.info
            steps = max(0, s.lookups - 1)
            m["semantics.calls"] += 1
            m["semantics.steps"] += steps
            m["semantics.self_ms"] += self_s * 1e3
            step_time[dim_bucket(dim)] += self_s
            step_count[dim_bucket(dim)] += steps
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "emptiness.check_emptiness":
                m["emptiness.candidates"] += 1
                m[f"emptiness.verdicts.{status}"] += 1
                pairs.add((s.parent, prefix, cycle))
                noncanonical += not is_canonical(prefix, cycle)
                prefix_steps += min(len(prefix), steps)
                search_steps += steps
        elif s.name == "emptiness.check_emptiness":
            m["emptiness.self_ms"] += self_s * 1e3
        elif s.name == "numerics.null_space":
            m["numerics.null_space_ms"] += s.seconds * 1e3
            m["numerics.null_space_calls"] += 1
        elif s.name == "numerics.from_spanning":
            m["numerics.from_spanning_ms"] += s.seconds * 1e3
    for d in DIM_BUCKETS:
        if step_count[d]:
            m[f"semantics.us_per_step.d{d}"] = step_time[d] / step_count[d] * 1e6
    if m["emptiness.candidates"]:
        m["emptiness.distinct_pairs"] = len(pairs)
        m["emptiness.resim_share"] = 1 - len(pairs) / m["emptiness.candidates"]
        m["emptiness.noncanonical_share"] = noncanonical / m["emptiness.candidates"]
    if search_steps:
        m["emptiness.prefix_step_share"] = prefix_steps / search_steps
    return dict(m)


def call_metrics(spans: list[Span]) -> dict:
    """Median per-call times (and exact chain lengths) keyed by dimension."""
    groups = defaultdict(list)
    for s in spans:
        ms = s.seconds * 1e3
        if s.name == "analysis.verify_decomposition":
            groups["analysis.verify_ms"].append(ms)
        elif s.name == "analysis.estimate_limit":
            groups["analysis.estimate_limit_us"].append(ms * 1e3)
        elif s.name == "analysis.decompose_nonhalting":
            dim, chain = s.info
            groups[f"analysis.decompose_ms.d{dim_bucket(dim)}"].append(ms)
            groups[f"analysis.chain_length.d{dim_bucket(dim)}"].append(chain)
        elif s.name in ("automata.loads", "automata.saves", "automata.validate"):
            groups[f"{s.name}_ms.d{dim_bucket(s.info)}"].append(ms)
        elif s.name == "constructions.union":
            groups[f"constructions.union_ms.d{dim_bucket(s.info)}"].append(ms)
        elif s.name == "cli.main":
            groups[f"cli.main_ms.{s.info}"].append(ms)
    return {name: _median(values) for name, values in groups.items()}


def layer_metrics(names, pass_spans: list[list[Span]], all_spans: list[Span],
                  extra: dict) -> dict:
    """Every metric in ``names``: per-pass values are medians over the traced
    passes, per-call values medians over every traced call, zero when absent."""
    per_pass = [pass_metrics(spans) for spans in pass_spans]
    out = {name: 0.0 for name in names}
    for name in {k for m in per_pass for k in m}:
        out[name] = _median([m.get(name, 0.0) for m in per_pass])
    for name, value in call_metrics(all_spans).items():
        if name in out:
            out[name] = value
    out.update(extra)
    return out
