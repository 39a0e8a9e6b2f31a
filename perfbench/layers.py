"""Per-layer costs of rankone, measured from outside the package.

The traced run replaces each public function listed in ``LAYERS`` wherever
a rankone module binds it (``from .linalg import solve_rational`` makes a
second binding in ``segre``) with a wrapper that counts calls and CPU time.
A layer's self time is its time minus the time of traced callees.  A
function that no longer exists is reported as absent; its metrics read 0.
The untraced run never installs a wrapper.
"""

from __future__ import annotations

import sys
import time

_clock = time.process_time_ns


def _kernel_dim(result):
    return 0 if result is None else len(result[1])


def _compressed_terms(result):
    return len(result.compressed.terms)


# (layer, metric suffixes, extra count or None).  An extra count is
# (name, count taken from each result, only for calls the workload makes
# itself); the last flag keeps a cache hit inside diagonal_membership from
# counting a description twice.
LAYERS = (
    ("segre.matroid_closure", ("self_ms",), None),
    ("linalg.solve_rational", ("calls", "self_ms"), None),
    ("linalg.smith_normal_form", ("calls", "self_ms"), None),
    ("tensor.strip_zero_slices", ("calls", "self_ms"), None),
    ("segre.saturation_index_of", ("calls",), None),
    ("completability.violated_circuit", ("ms",), None),
    ("linalg.rational_kernel_basis", ("calls", "self_ms"), None),
    ("linalg.rank", ("calls",), None),
    ("linalg.solve_f2", ("calls", "self_ms"), ("linalg.solve_f2.kernel_dim", _kernel_dim, False)),
    ("completion.enumerate_real_completions", ("self_ms",), ("completion.completions", len, True)),
    ("completion.complete_entry", ("self_ms",), None),
    ("diagonal.build_description", ("ms",), ("diagonal.compressed_terms", _compressed_terms, True)),
    ("diagonal.diagonal_membership", ("self_ms",), None),
    ("multipoly.MultiPoly.evaluate", ("calls", "self_ms"), None),
    ("poly.count_real_roots", ("self_ms",), None),
    ("jacobian.linear_factor", ("self_ms",), None),
    ("jacobian.jacobian_identity_check", ("self_ms",), None),
    ("linalg.det_fraction", ("self_ms",), None),
    ("io.tensor_from_document", ("self_ms",), None),
)


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, suffixes, extra in LAYERS:
        for s in suffixes:
            out.append((f"{layer}.{s}", "count" if s == "calls" else "ms"))
        if extra:
            out.append((extra[0], "count"))
    return out


class _Stat:
    __slots__ = ("calls", "ns", "self_ns", "extra")

    def __init__(self):
        self.calls = self.ns = self.self_ns = self.extra = 0


class Tracer:
    """Call counts and CPU times of the layers, summed over a run."""

    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self, package: str = "rankone") -> None:
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == package or name.startswith(package + "."))
        ]
        for layer, _, extra in LAYERS:
            module_name, _, attr_path = layer.partition(".")
            owner = sys.modules.get(f"{package}.{module_name}")
            parts = attr_path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            fn = getattr(owner, parts[-1], None) if owner is not None else None
            if fn is None:
                self.absent.append(layer)
                continue
            stat = self.stats[layer] = _Stat()
            wrapper = self._wrap(fn, stat, extra)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, wrapper)

    def _wrap(self, fn, stat: _Stat, extra):
        stack = self._stack
        count = extra[1] if extra else None
        top_only = extra[2] if extra else False

        def traced(*args, **kwargs):
            top = not stack
            stack.append(0)
            t0 = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.ns += dt
                stat.self_ns += dt - child
                if stack:
                    stack[-1] += dt
            if count is not None and (top or not top_only):
                try:
                    stat.extra += count(result)
                except (AttributeError, TypeError, IndexError):
                    pass  # the result changed shape; the count reads 0
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, per operation."""
        out = {}
        for layer, suffixes, extra in LAYERS:
            st = self.stats.get(layer, _Stat())
            for s in suffixes:
                if s == "calls":
                    value = st.calls / ops
                elif s == "ms":
                    value = st.ns / 1e6 / ops
                else:
                    value = st.self_ns / 1e6 / ops
                out[f"{layer}.{s}"] = value
            if extra:
                out[extra[0]] = st.extra / ops
        return out
