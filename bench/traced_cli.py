"""Run the ifsproj CLI with a span recorded around each call into its layers.

Usage: python3 bench/traced_cli.py SPANS.json -- <ifsproj arguments>

The program itself is untouched: before the CLI starts, the public functions
and methods listed in LAYERS are replaced, on every ifsproj module attribute
and class that binds them, by wrappers that record (id, parent, name, start,
end) and a few work counts. Spans stay in memory and are written to SPANS.json
when the command ends. The exit code is the CLI's own.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import ifsproj
import ifsproj.cli
import ifsproj.config
import ifsproj.lines
import ifsproj.measure
import ifsproj.recurrence
import ifsproj.search


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = [-1]
        self._next = 0

    def add(self, name: str, n: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name, count=None):
        """name is a layer name or a function of the call's arguments;
        count(tracer, result, args, kwargs, name) adds work counts after
        the call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            span_id = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span_id, parent, span_name, start, end))
            if count is not None:
                count(self, result, args, kwargs, span_name)
            return result

        return traced


def _coverage_name(args, kwargs):
    indices = args[2] if len(args) > 2 else kwargs.get("indices")
    return "search.full" if indices is None else "search.probe"


def _count_coverage(tr, result, args, kwargs, name):
    tr.add(name + (".cells" if name == "search.full" else ".points"), len(result[0]))


def _count_len(key, pick=lambda r: r):
    return lambda tr, result, args, kwargs, name: tr.add(key, len(pick(result)))


def _count_points(tr, result, args, kwargs, name):
    tr.add(name + ".points", len(result) if name == "recurrence.contains" else len(result[0]))


def _count_rows(tr, result, args, kwargs, name):
    tr.add("recurrence.slice.rows", 1)


# (owner, attribute, layer name, work count). Functions are replaced on every
# ifsproj module that binds them; methods on their class.
LAYERS = [
    (ifsproj.cli, "main", "cli.main", None),
    (ifsproj.config.RunConfig, "resolve", "config.resolve", None),
    (ifsproj.measure, "build_E", "measure.build_E", None),
    (
        ifsproj.measure,
        "stopping_cylinders",
        "measure.stopping_cylinders",
        _count_len("measure.stopping_cylinders.words", lambda r: r[0]),
    ),
    (ifsproj.recurrence.SliceBuilder, "all_rows", "recurrence.slice", None),
    (ifsproj.recurrence.SliceBuilder, "row_member", None, _count_rows),
    (
        ifsproj.recurrence,
        "build_candidate",
        "recurrence.candidate",
        lambda tr, r, a, k, n: tr.add("recurrence.candidate.cells_L1", r.delta_count),
    ),
    (ifsproj.recurrence.GridMembership, "__init__", "recurrence.membership_init", None),
    (ifsproj.recurrence.GridMembership, "contains", "recurrence.contains", _count_points),
    (
        ifsproj.recurrence,
        "check_recurrence",
        "recurrence.check",
        lambda tr, r, a, k, n: tr.add("recurrence.check.cells", r.total),
    ),
    (
        ifsproj.recurrence,
        "attractor_points",
        "recurrence.attractor_points",
        _count_len("recurrence.attractor_points.points"),
    ),
    (ifsproj.recurrence, "certify_projection_interval", "recurrence.certify", None),
    (ifsproj.lines, "renormalize_arrays", "lines.renormalize", _count_points),
    (ifsproj.search.CoverageTester, "__init__", "search.tester_init", None),
    (ifsproj.search.CoverageTester, "coverage", _coverage_name, _count_coverage),
    (
        ifsproj.search,
        "search_omega0",
        "search.loop",
        lambda tr, r, a, k, n: tr.add("search.attempts", r.attempts),
    ),
]


def _count_only(tr: Tracer, fn, count):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        count(tr, result, args, kwargs, None)
        return result

    return counted


def install(tr: Tracer) -> None:
    """Wrap every binding of every LAYERS entry."""
    modules = [m for n, m in sorted(sys.modules.items()) if n == "ifsproj" or n.startswith("ifsproj.")]
    for owner, attr, name, count in LAYERS:
        fn = getattr(owner, attr)
        if name is None:
            wrapper = _count_only(tr, fn, count)
        else:
            wrapper = tr.wrap(fn, name, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tr = Tracer()
    install(tr)
    try:
        rc = ifsproj.cli.main(argv[2:])
    finally:
        with open(argv[0], "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
