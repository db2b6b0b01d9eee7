"""Span tracing for the benchmark's traced runs, installed from outside.

Nothing in flagtuner is edited: the tracer replaces the public functions
and methods of each module with timing wrappers for the length of one
traced cycle and restores them afterwards. Each call records a span
(name, start, end, parent, campaign id). A span's self time is its
duration minus the time its child spans cover, computed as the call
stack unwinds.

Hot leaf calls (the model's time function, cache gets and puts) happen
millions of times on the oracle workload, so they are only aggregated
into per-name totals; they still count against their parent's self time.
Functions that the wrappers do not cover (cli glue, flag-space loading,
argument rendering) stay inside the self time of the wrapped caller, or
outside every span when the cli calls them directly; the latter is the
unaccounted share.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter, defaultdict
from functools import wraps
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts: Counter = Counter()
        self.campaign = 0
        self._stack: list[list] = []  # [span id, child time]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def wrap(self, name, fn, *, hot=False, after=None):
        """Time ``fn`` under ``name`` (a string, or a callable of the call's
        arguments returning one). ``after(result, args)`` may update counts."""
        stack, totals, spans = self._stack, self.totals, self.spans

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            parent = stack[-1][0] if stack else None
            span_id = None
            if not hot:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tot = totals[label]
                tot[0] += 1
                tot[1] += duration
                tot[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.counts["root_s"] += duration
                if not hot:
                    spans.append((span_id, label, start, end, parent, self.campaign))
            if after is not None:
                after(result, args)
            return result

        return traced

    def _patch_module_function(self, module, attr: str, wrapper_for) -> None:
        """Replace a module-level function everywhere flagtuner imported it."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("flagtuner"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))

    def _patch_attr(self, owner, attr: str, wrapper_for) -> None:
        original = getattr(owner, attr)
        setattr(owner, attr, wrapper_for(original))
        self._undo.append((owner, attr, original))

    def install(self, stub_compiler: str) -> None:
        import flagtuner.analysis as analysis
        import flagtuner.artifacts as artifacts
        import flagtuner.cli as cli
        import flagtuner.evaluator as evaluator
        import flagtuner.oracle as oracle
        import flagtuner.search as search

        w = self.wrap
        counts = self.counts

        def fn(module, attr, name, **kw):
            self._patch_module_function(module, attr, lambda f: w(name, f, **kw))

        def meth(cls, attr, name, **kw):
            self._patch_attr(cls, attr, lambda f: w(name, f, **kw))

        fn(cli, "build_campaign", "cli.build_campaign")

        for attr in ("run_ric", "run_ce", "run_suite_ce", "best_known_record"):
            fn(search, attr, f"search.{attr}")

        for attr in ("run_xval", "make_folds"):
            fn(analysis, attr, "analysis.xval")
        for attr in ("compare_to_baseline", "floored_best_so_far", "performance_table"):
            fn(analysis, attr, "analysis.report")

        def count_bytes(_result, args):
            counts["artifacts.bytes_written"] += os.path.getsize(args[0])

        for attr in ("write_trace", "write_final_config", "write_series", "write_compare",
                     "write_checkpoint"):
            fn(artifacts, attr, "artifacts.write", after=count_bytes)
        for attr in ("read_trace", "read_checkpoint", "read_final_config", "file_digest"):
            fn(artifacts, attr, "artifacts.read")

        for attr in ("per_benchmark_optimum", "suite_constrained_optimum"):
            fn(oracle, attr, "oracle")

        def counting(original):
            @wraps(original)
            def enumerate_counted(*args, **kwargs):
                for config in original(*args, **kwargs):
                    counts["oracle.configs_scored"] += 1
                    yield config
            return enumerate_counted

        self._patch_module_function(oracle, "enumerate_configurations", counting)

        meth(evaluator.SyntheticModel, "time_for", "evaluator.time_for", hot=True)
        meth(evaluator.SyntheticEvaluator, "evaluate", "evaluator.synthetic")

        def loaded(_result, args):
            counts["evaluator.cache.load_lines"] += len(args[0].entries)

        def hit(result, _args):
            if result is not None:
                counts["evaluator.cache.hits"] += 1

        meth(evaluator.EvalCache, "__init__", "evaluator.cache.load", after=loaded)
        meth(evaluator.EvalCache, "get", "evaluator.cache.get", hot=True, after=hit)
        meth(evaluator.EvalCache, "get_failure", "evaluator.cache.get", hot=True, after=hit)
        meth(evaluator.EvalCache, "put", "evaluator.cache.put", hot=True)

        def outcome(meas, _args):
            if meas.cached:
                counts["evaluator.external.digest_hits" if meas.ok
                       else "evaluator.external.failure_hits"] += 1

        meth(evaluator.CommandEvaluator, "evaluate", "evaluator.external", after=outcome)

        # The pipeline reaches the toolchain through subprocess.run; the
        # benchmark owns the suite, so it tells compiles from runs by the
        # compiler script in the argument list. These spans are children of
        # evaluator.external, not part of its self time.
        def process_kind(args, kwargs):
            argv = args[0] if args else kwargs.get("args", ())
            if stub_compiler in argv:
                return "toolchain.compile"
            return "toolchain.run"

        self._patch_attr(subprocess, "run", lambda f: w(process_kind, f))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def total(self, name: str) -> float:
        return self.totals[name][1] if name in self.totals else 0.0

    def self_time(self, prefix: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n == prefix or n.startswith(prefix + "."))

    def calls(self, name: str) -> int:
        return self.totals[name][0] if name in self.totals else 0

    def write_spans(self, path: Path) -> None:
        """Write the kept spans, then the aggregated totals, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, campaign in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start, "end": end,
                                     "parent": parent, "campaign": campaign}) + "\n")
            for name, (calls, total, self_s) in sorted(self.totals.items()):
                fh.write(json.dumps({"total": name, "calls": calls, "total_s": total,
                                     "self_s": self_s}) + "\n")
