"""Per-layer tracing of semitb from outside the package.

`Tracer.install()` wraps the public entry points of each layer.  A
function is replaced at every semitb module that holds a reference to it
(`scan` imports `solve_bands` by name while `cli` reaches it through
`bloch`), methods are replaced on their class, and the acceptance
criteria are replaced inside the `CRITERIA` table that `run_all` walks.
Each wrapper records a span: name, inclusive and self time (inclusive
minus the time covered by traced child spans), and whether it raised.
Spans stay in memory; `summary()` turns them into the flat per-layer
metrics listed in `LAYER_METRICS`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# (module, owner, attribute, span name); owner is a class name or None
TARGETS = (
    ("potential", None, "tunneling_action", "potential.tunneling_action"),
    ("bloch", None, "solve_bands", "bloch.solve_bands"),
    ("wannier", None, "fix_gauge", "wannier.fix_gauge"),
    ("wannier", None, "build_orthonormal_basis", "wannier.build_orthonormal_basis"),
    ("operators", "PeriodicDomain", "__init__", "operators.PeriodicDomain"),
    ("operators", "PeriodicDomain", "resolvent_perp", "operators.resolvent_perp"),
    ("operators", "PeriodicDomain", "apply_h", "operators.apply_h"),
    ("operators", "PeriodicDomain", "dense_h", "operators.dense_h"),
    ("tightbinding", None, "extract_params", "tightbinding.extract_params"),
    ("dnls", None, "solve_anticontinuum", "dnls.solve_anticontinuum"),
    ("dnls", None, "newton_solve", "dnls.newton_solve"),
    ("dnls", None, "brute_force_states", "dnls.brute_force_states"),
    ("nlse", None, "reconstruct_and_correct", "nlse.reconstruct_and_correct"),
    ("nlse", None, "solve_perp_fixed_point", "nlse.solve_perp_fixed_point"),
    ("nlse", None, "direct_newton_oracle", "nlse.direct_newton_oracle"),
    ("scan", None, "run_sweep", "scan.run_sweep"),
    ("cli", None, "parse_config", "cli.parse_config"),
    ("cli", "BundleCache", "load_bands", "cli.cache.load"),
    ("cli", "BundleCache", "load_basis", "cli.cache.load"),
    ("cli", "BundleCache", "store_bands", "cli.cache.store"),
    ("cli", "BundleCache", "store_basis", "cli.cache.store"),
)

N_CRITERIA = 11

LAYER_METRICS = (
    "potential.tunneling_action.calls", "potential.tunneling_action.s",
    "bloch.solve_bands.calls", "bloch.solve_bands.s",
    "wannier.fix_gauge.calls", "wannier.fix_gauge.s",
    "wannier.build_orthonormal_basis.calls", "wannier.build_orthonormal_basis.s",
    "operators.PeriodicDomain.calls", "operators.PeriodicDomain.s",
    "operators.resolvent_perp.calls", "operators.resolvent_perp.s",
    "operators.apply_h.calls", "operators.apply_h.s",
    "operators.dense_h.calls", "operators.dense_h.s",
    "tightbinding.extract_params.calls", "tightbinding.extract_params.s",
    "dnls.solve_anticontinuum.calls", "dnls.solve_anticontinuum.s",
    "dnls.newton_solve.calls", "dnls.newton_solve.s",
    "dnls.newton_solve.failures",
    "dnls.brute_force_states.calls", "dnls.brute_force_states.s",
    "dnls.brute_force_states.useful_ratio",
    "nlse.reconstruct_and_correct.calls", "nlse.reconstruct_and_correct.s",
    "nlse.reconstruct_and_correct.failures",
    "nlse.reconstruct_and_correct.p50_ms", "nlse.reconstruct_and_correct.p90_ms",
    "nlse.solve_perp_fixed_point.calls", "nlse.solve_perp_fixed_point.s",
    "nlse.solve_perp_fixed_point.failures",
    "nlse.solve_perp_fixed_point.useful_ratio",
    "nlse.solve_perp_fixed_point.per_reconstruct",
    "nlse.resolvent_per_fixed_point",
    "nlse.outer_iterations",
    "nlse.direct_newton_oracle.calls", "nlse.direct_newton_oracle.s",
    "nlse.direct_newton_oracle.iterations",
    "scan.run_sweep.calls", "scan.run_sweep.s", "scan.run_sweep.self_s",
    "scan.points", "scan.gaps", "scan.output_bytes",
    "cli.parse_config.s",
    "cli.cache.hits", "cli.cache.misses", "cli.cache.bytes_written",
    "cli.cache.store.s", "cli.cache.load.s",
) + tuple(f"acceptance.check_{i}.s" for i in range(1, N_CRITERIA + 1))


def _semitb_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "semitb" or name.startswith("semitb."))]


def _percentile(values, q):
    """Nearest-rank percentile; 0 for an empty sample."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(-(-q * len(ordered) // 100)) - 1))
    return ordered[k]


class Tracer:
    """In-memory span recorder with the patching that feeds it.

    The span stack is not thread-safe; semitb runs single-threaded at the
    default --jobs 1, which is how the benchmark drives it.
    """

    def __init__(self):
        self._stack = []                  # open spans: [name, child seconds]
        self.durations = defaultdict(list)
        self.self_s = defaultdict(float)
        self.failures = Counter()
        self.nested = Counter()           # (parent span, child span) -> calls
        self.counts = Counter()           # counters fed by result hooks
        self._undo = []                   # (holder, attribute, original)

    # -- spans ------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """Wrapper that records one span per call of fn.

        `after(args, kwargs, result)` runs after a successful call, outside
        the span, to feed counters from the arguments and result.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(frame, t0, failed=True)
                raise
            self._close(frame, t0, failed=False)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _close(self, frame, t0, failed):
        dt = time.perf_counter() - t0
        self._stack.pop()
        name = frame[0]
        if self._stack:
            parent = self._stack[-1]
            parent[1] += dt
            self.nested[(parent[0], name)] += 1
        self.durations[name].append(dt)
        self.self_s[name] += dt - frame[1]
        if failed:
            self.failures[name] += 1

    # -- patching ---------------------------------------------------------

    def _replace_everywhere(self, original, wrapper):
        for mod in _semitb_modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self):
        """Wrap every target; semitb.cli and semitb.acceptance get imported."""
        import semitb.acceptance
        import semitb.cli  # noqa: F401 - every import site must be loaded

        hooks = self._hooks()
        for modname, owner, attr, name in TARGETS:
            mod = importlib.import_module(f"semitb.{modname}")
            if owner is None:
                original = getattr(mod, attr)
                self._replace_everywhere(
                    original, self.wrap(name, original, hooks.get(attr)))
            else:
                cls = getattr(mod, owner)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, self.wrap(name, original, hooks.get(attr)))

        acc = semitb.acceptance
        self._undo.append((acc, "CRITERIA", acc.CRITERIA))
        acc.CRITERIA = tuple((num, self.wrap(f"acceptance.check_{num}", fn))
                             for num, fn in acc.CRITERIA)
        return self

    def uninstall(self):
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()

    def unpatched_references(self):
        """(module, attribute) pairs that still hold an unwrapped target."""
        originals = {id(o) for _, _, o in self._undo if callable(o)}
        left = []
        for mod in _semitb_modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    left.append((mod.__name__, attr))
        return left

    def _hooks(self):
        """Result hooks keyed by the wrapped attribute's name."""
        counts = self.counts

        def brute_force(args, kwargs, result):
            import semitb.dnls as dnls

            # the signature follows functools.wraps to the original
            bound = inspect.signature(dnls.brute_force_states).bind(*args, **kwargs)
            bound.apply_defaults()
            counts["brute_force_starts"] += bound.arguments["n_starts"]
            counts["brute_force_converged"] += len(result)

        def reconstruct(args, kwargs, result):
            counts["outer_iterations"] += result.iterations

        def oracle(args, kwargs, result):
            counts["oracle_iterations"] += result.iterations

        def sweep(args, kwargs, result):
            plan = args[0] if args else kwargs["plan"]
            counts["points"] += len(plan.hbar_ladder) * len(plan.eta_values)
            counts["gaps"] += len(result.gaps)
            counts["output_bytes"] += sum(os.path.getsize(p)
                                          for p in result.written)

        def load(args, kwargs, result):
            counts["cache_misses" if result is None else "cache_hits"] += 1

        def store(path_method):
            def hook(args, kwargs, result):
                cache, key = args[0], args[1]
                counts["cache_bytes_written"] += os.path.getsize(
                    getattr(cache, path_method)(key))
            return hook

        return {
            "brute_force_states": brute_force,
            "reconstruct_and_correct": reconstruct,
            "direct_newton_oracle": oracle,
            "run_sweep": sweep,
            "load_bands": load,
            "load_basis": load,
            "store_bands": store("band_path"),
            "store_basis": store("basis_path"),
        }

    # -- metrics ----------------------------------------------------------

    def calls(self, name):
        return len(self.durations.get(name, ()))

    def seconds(self, name):
        return float(sum(self.durations.get(name, ())))

    def summary(self) -> dict:
        """Every name in LAYER_METRICS mapped to a number (0 when unused)."""
        out = {}
        for _, _, _, name in TARGETS:
            out[f"{name}.calls"] = self.calls(name)
            out[f"{name}.s"] = self.seconds(name)
        for i in range(1, N_CRITERIA + 1):
            out[f"acceptance.check_{i}.s"] = self.seconds(f"acceptance.check_{i}")

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        rec = "nlse.reconstruct_and_correct"
        fp = "nlse.solve_perp_fixed_point"
        out.update({
            "dnls.newton_solve.failures": self.failures["dnls.newton_solve"],
            "dnls.brute_force_states.useful_ratio": ratio(
                c["brute_force_converged"], c["brute_force_starts"]),
            f"{rec}.failures": self.failures[rec],
            f"{rec}.p50_ms": 1e3 * _percentile(self.durations.get(rec, []), 50),
            f"{rec}.p90_ms": 1e3 * _percentile(self.durations.get(rec, []), 90),
            f"{fp}.failures": self.failures[fp],
            f"{fp}.useful_ratio": ratio(self.calls(fp) - self.failures[fp],
                                        self.calls(fp)),
            f"{fp}.per_reconstruct": ratio(self.calls(fp), self.calls(rec)),
            "nlse.resolvent_per_fixed_point": ratio(
                self.nested[(fp, "operators.resolvent_perp")], self.calls(fp)),
            "nlse.outer_iterations": c["outer_iterations"],
            "nlse.direct_newton_oracle.iterations": c["oracle_iterations"],
            "scan.run_sweep.self_s": self.self_s["scan.run_sweep"],
            "scan.points": c["points"],
            "scan.gaps": c["gaps"],
            "scan.output_bytes": c["output_bytes"],
            "cli.cache.hits": c["cache_hits"],
            "cli.cache.misses": c["cache_misses"],
            "cli.cache.bytes_written": c["cache_bytes_written"],
        })
        return {name: out[name] for name in LAYER_METRICS}


def median_summary(summaries):
    """Per-metric median over the summaries of several traced runs."""
    return {name: statistics.median(s[name] for s in summaries)
            for name in LAYER_METRICS}
