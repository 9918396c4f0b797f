"""Per-layer tracing of secrates, applied from outside the package.

Each target is a public function of one package module.  The tracer
replaces it *where its callers look it up*: every module-level binding
of the function object across the loaded ``secrates`` modules (so
``delay_limited.sample`` and ``ergodic.sample`` are both covered), or
the class attribute for methods such as ``RatePolicy.rate_at``.
``restore()`` puts every original object back.

Timed targets record one span each call (start, end, thread, parent).
Spans stay in memory until the pass ends.  A span started on a thread
with no open span (a ``dominance_region`` pool worker) takes as parent
the innermost span open on the thread that installed the tracer.
A layer's self time is its span's duration minus the union of its
children's intervals, so parallel children are not subtracted twice.

Hot targets (``GainDistribution.cdf``, about a million calls per pass)
get a call counter only.  All shared state is guarded by one lock,
because ``dominance_region`` calls into traced code from pool threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

SPAN = "span"
COUNT = "count"


class _SampleCounts:
    """Rows drawn and distinct (seed, n) batches among ``sample`` calls."""

    def __init__(self):
        self.rows, self.keys = 0, set()

    def add(self, args: dict) -> None:
        n = int(args["n"])
        self.rows += n
        self.keys.add((int(args["seed"]), n))

    def metrics(self, calls: int) -> dict:
        return {"rows": self.rows,
                "distinct_frac": len(self.keys) / calls if calls else 0.0}


class _PayoffPoints:
    """Observable values (h_e plus h_z points) scored by ``pilot_payoffs``."""

    def __init__(self):
        self.points = 0

    def add(self, args: dict) -> None:
        import numpy as np

        self.points += int(np.size(args["h_e"]) + np.size(args["h_z"]))

    def metrics(self, calls: int) -> dict:
        return {"points": self.points}


@dataclass(frozen=True)
class Target:
    """One traced function: metric prefix, defining module, attribute path."""

    layer: str  # metric prefix, "<layer>.<function>"
    module: str
    attr: str  # "name" or "Class.name"
    mode: str = SPAN
    extra: Callable[[], object] | None = None  # factory of extra counters


TARGETS = (
    Target("cli.main", "secrates.cli", "main"),
    Target("delay_limited.solve", "secrates.delay_limited", "solve"),
    Target("delay_limited.optimize_policy_pilot", "secrates.delay_limited", "optimize_policy_pilot"),
    Target("delay_limited.optimize_policy_packet", "secrates.delay_limited", "optimize_policy_packet"),
    Target("delay_limited.evaluate_constraint", "secrates.delay_limited", "evaluate_constraint"),
    Target("delay_limited.c_min_closed_form", "secrates.delay_limited", "c_min_closed_form"),
    Target("adversary.best_response_pilot", "secrates.adversary", "best_response_pilot"),
    Target("adversary.pilot_payoffs", "secrates.adversary", "pilot_payoffs", extra=_PayoffPoints),
    Target("adversary.decide", "secrates.adversary", "JammingRule.decide"),
    Target("policies.rate_at", "secrates.policies", "RatePolicy.rate_at"),
    Target("phy_rates.success_indicator", "secrates.phy_rates", "success_indicator"),
    Target("channels.sample", "secrates.channels", "sample", extra=_SampleCounts),
    Target("channels.expect", "secrates.channels", "expect"),
    Target("channels.cdf", "secrates.channels", "GainDistribution.cdf", mode=COUNT),
    Target("ergodic.dominance_region", "secrates.ergodic", "dominance_region"),
    Target("ergodic.rate_nocsi", "secrates.ergodic", "rate_nocsi"),
    Target("ergodic.rate_upper_bound", "secrates.ergodic", "rate_upper_bound"),
)


@dataclass
class Tracer:
    """Install with ``install()``, run the pass, then ``restore()``."""

    targets: tuple[Target, ...] = TARGETS
    spans: list[tuple] = field(default_factory=list)  # (id, parent, layer, thread, t0, t1)
    counts: dict[str, int] = field(default_factory=dict)
    extras: dict[str, object] = field(default_factory=dict)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)
    _ids: itertools.count = field(default_factory=lambda: itertools.count(1))
    _local: threading.local = field(default_factory=threading.local)
    _home_stack: list | None = None

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        self._home_stack = self._stack()
        for t in self.targets:
            self.counts[t.layer] = 0
            if t.extra is not None:
                self.extras[t.layer] = t.extra()
            owner, name = _resolve_owner(t)
            if owner is None or not hasattr(owner, name):
                continue  # function gone from this version: its metrics read 0
            original = inspect.getattr_static(owner, name)
            wrapper = self._wrap(t, original)
            if inspect.isclass(owner):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in _package_modules():
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patches.append((owner, name, original))

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def restored(self) -> bool:
        """True when no traced wrapper is reachable from the package."""
        for mod in _package_modules():
            for val in vars(mod).values():
                if getattr(val, "__perfbench_wrapper__", False):
                    return False
                if inspect.isclass(val):
                    for attr in vars(val).values():
                        if getattr(attr, "__perfbench_wrapper__", False):
                            return False
        return True

    # -- wrappers --------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _home_parent(self, stack: list) -> int | None:
        home = self._home_stack
        if home is None or home is stack:
            return None
        try:
            return home[-1]
        except IndexError:  # the installing thread has no open span
            return None

    def _wrap(self, t: Target, fn):
        layer = t.layer
        lock = self._lock
        counts = self.counts
        extra = self.extras.get(layer)

        if t.mode == COUNT:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                with lock:
                    counts[layer] += 1
                return fn(*args, **kwargs)

            counted.__perfbench_wrapper__ = True
            return counted

        sig = inspect.signature(fn) if extra is not None else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._home_parent(stack)
            with lock:
                span_id = next(self._ids)
                counts[layer] += 1
                if extra is not None:
                    _add_extra(extra, sig, args, kwargs)
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                with lock:
                    self.spans.append(
                        (span_id, parent, layer, threading.get_ident(), t0, t1)
                    )

        timed.__perfbench_wrapper__ = True
        return timed

    # -- results ---------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per layer: calls, total_s, self_s and any extra counters."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, parent, _, _, t0, t1 in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((t0, t1))
        out = {t.layer: {"calls": self.counts.get(t.layer, 0), "total_s": 0.0,
                         "self_s": 0.0} for t in self.targets}
        for span_id, _, layer, _, t0, t1 in self.spans:
            covered = _union_length(children.get(span_id, ()), t0, t1)
            out[layer]["total_s"] += t1 - t0
            out[layer]["self_s"] += (t1 - t0) - covered
        for t in self.targets:
            if t.extra is not None:
                out[t.layer].update(self.extras[t.layer].metrics(out[t.layer]["calls"]))
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, layer, thread, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "name": layer,
                                     "thread": thread, "start": t0, "end": t1}) + "\n")


def _add_extra(extra, sig: inspect.Signature, args, kwargs) -> None:
    try:
        extra.add(sig.bind(*args, **kwargs).arguments)
    except (TypeError, KeyError):  # a later signature: count the call only
        pass


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def _resolve_owner(t: Target):
    try:
        owner = importlib.import_module(t.module)
    except ImportError:
        return None, ""
    *path, name = t.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, ""
    return owner, name


def _package_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "secrates" or k.startswith("secrates."))]
