"""In-memory span recorder for the traced pass.

The tracer wraps kturb's public entry points where their callers reach
them: a class method is replaced on its class, and a module function is
replaced under every name that any loaded kturb module binds it to (the
harness imports most functions by name).  Nothing under src/ changes.

Each span stores its name, its parent span, start and end times, and
one integer: the number of 3-D transforms for an FFT, the tracemalloc
peak in bytes for the first outermost kernel call of each operation,
and 0 otherwise.  The spans of one benchmark operation share its root
span, named "bench.op".
"""

import contextlib
import sys
import time
import tracemalloc
from array import array

import numpy as np

# Envelope spans record only the entry into the layer, not the envelope
# calls nested inside it.
ENVELOPE_METHODS = ("omega_lower", "omega_upper", "b_lower", "b_l1_upper",
                    "mu_min", "v_l2_envelope", "y2", "coeff_A", "coeff_B",
                    "coeff_C", "coeff_D", "z0")


def _fields(args):
    """Number of 3-D transforms in one batched FFT call."""
    shape = np.shape(args[1])
    return int(np.prod(shape[:-3], dtype=np.int64))


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self._stack = [-1]
        self._alloc_pending = False
        self.enabled = False

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.value.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark opens around one of its own steps; the
        first outermost kernel call inside it has its allocations traced."""
        idx = self._open(self._id(name))
        self._alloc_pending = True
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn, value=None, alloc=False, layer_entry=False):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            top = tracer._stack[-1]
            if layer_entry and top >= 0 and tracer.name[top] == nid:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            if value is not None:
                tracer.value[idx] = value(args)
            # tracemalloc is slow, so it watches one call per operation
            measure = alloc and tracer._alloc_pending
            if measure:
                tracer._alloc_pending = False
                tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                if measure:
                    tracer.value[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                tracer._close(idx)

        return traced

    def install(self):
        """Patch every traced entry point of the imported package."""
        grid, ops, dynamics, integrator, envelopes, criterion, monitor, \
            snapshot, runs, initial = (sys.modules["kturb." + m] for m in (
                "grid", "ops", "dynamics", "integrator", "envelopes",
                "criterion", "harness.monitor", "harness.snapshot",
                "harness.runs", "harness.initial"))
        methods = [
            ("grid.rfft", grid.TorusGrid, "rfft", dict(value=_fields)),
            ("grid.irfft", grid.TorusGrid, "irfft", dict(value=_fields)),
            ("dynamics.kernel", dynamics.TendencyKernel, "__call__",
             dict(alloc=True)),
            ("dynamics.forcing", dynamics.Forcing, "__call__", {}),
            ("monitor.sample", monitor.Monitor, "sample", {}),
            ("monitor.finalize", monitor.Monitor, "finalize", {}),
        ] + [("envelopes", envelopes.EnvelopeSet, m, dict(layer_entry=True))
             for m in ENVELOPE_METHODS]
        for name, cls, attr, opts in methods:
            setattr(cls, attr, self.wrap(name, getattr(cls, attr), **opts))
        functions = [
            ("ops.leray_hat", ops, "leray_hat"),
            ("ops.l2sq_hat", ops, "l2sq_hat"),
            ("integrator.advance", integrator, "advance"),
            ("monitor.write_csv", monitor, "write_csv"),
            ("snapshot.write", snapshot, "write_snapshot"),
            ("runs.run_verify", runs, "run_verify"),
            ("runs.run_simulate", runs, "run_simulate"),
            ("runs.run_mms", runs, "run_mms"),
            ("runs.run_check", runs, "run_check"),
            ("criterion.check_glob_add", criterion, "check_glob_add"),
            ("criterion.compute_a0", criterion, "compute_a0"),
            ("criterion.full_report", criterion, "full_report"),
            ("initial.generate", initial, "generate_initial"),
            ("initial.extract_bounds", initial, "extract_bounds"),
        ]
        loaded = [m for n, m in sys.modules.items()
                  if n == "kturb" or n.startswith("kturb.")]
        for name, module, attr in functions:
            orig = getattr(module, attr)
            traced = self.wrap(name, orig)
            for mod in loaded:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, traced)

    # -- results ------------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        value = np.frombuffer(self.value, dtype=np.int64)
        return name, parent, end - start, value

    def per_layer(self):
        """The per-layer metrics of everything recorded so far; run.py
        adds trace.overhead_s, which needs an untraced run."""
        name, parent, dur, value = self.arrays()
        n = dur.size
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)

        def sel(span):
            nid = self._ids.get(span)
            return np.zeros(n, bool) if nid is None else name == nid

        def parent_is(mask, span):
            return mask & has_parent & sel(span)[np.maximum(parent, 0)]

        def ms(mask, d=dur):
            return float(np.sum(d[mask])) * 1e3

        self_dur = dur - child
        out = {}
        for layer in ("grid.rfft", "grid.irfft"):
            m = sel(layer)
            out[layer + ".calls"] = int(m.sum())
            out[layer + ".fields"] = int(value[m].sum())
            out[layer + ".ms"] = ms(m)
        for fn in ("ops.leray_hat", "ops.l2sq_hat"):
            m = sel(fn)
            out[fn + ".calls"] = int(m.sum())
            out[fn + ".ms"] = ms(m)
        kern = sel("dynamics.kernel")
        out["dynamics.kernel.calls"] = int(kern.sum())
        out["dynamics.kernel.self_ms"] = ms(kern, self_dur)
        peaks = value[kern & (value > 0)]
        out["dynamics.kernel.alloc_mib"] = \
            float(peaks.max()) / 2**20 if peaks.size else 0.0
        out["dynamics.forcing.ms"] = ms(sel("dynamics.forcing"))
        stage_calls = int(parent_is(kern, "integrator.advance").sum())
        if stage_calls % 4:
            raise RuntimeError(f"{stage_calls} RK4 stage evaluations is not "
                               "a whole number of steps")
        steps = stage_calls // 4
        adv = sel("integrator.advance")
        out["integrator.steps"] = steps
        out["integrator.advance.self_ms"] = ms(adv, self_dur)
        out["integrator.ms_per_step"] = ms(adv) / steps if steps else 0.0
        samp = sel("monitor.sample")
        out["monitor.sample.calls"] = int(samp.sum())
        out["monitor.sample.self_ms"] = ms(samp, self_dur)
        out["monitor.finalize.ms"] = ms(sel("monitor.finalize"))
        out["monitor.write_csv.ms"] = ms(sel("monitor.write_csv"))
        out["snapshot.write.ms"] = ms(sel("snapshot.write"))
        # run_verify minus the simulation and the criterion it calls
        inner = (parent_is(sel("runs.run_simulate"), "runs.run_verify")
                 | parent_is(sel("criterion.check_glob_add"), "runs.run_verify"))
        out["runs.verify_checks.ms"] = ms(sel("runs.run_verify")) - ms(inner)
        env = sel("envelopes")
        out["envelopes.calls"] = int(env.sum())
        out["envelopes.ms"] = ms(env)
        for fn in ("criterion.check_glob_add", "criterion.compute_a0"):
            m = sel(fn)
            out[fn + ".calls"] = int(m.sum())
            out[fn + ".self_ms"] = ms(m, self_dur)
        out["criterion.full_report.ms"] = ms(sel("criterion.full_report"))
        out["initial.generate.ms"] = ms(sel("initial.generate"))
        out["initial.extract_bounds.ms"] = ms(sel("initial.extract_bounds"))
        return out

    def write(self, path):
        """Write every recorded span, column-wise, as one .npz file."""
        name, parent, _, value = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name=name, parent=parent,
            start_s=np.frombuffer(self.start, dtype=np.float64),
            end_s=np.frombuffer(self.end, dtype=np.float64), value=value)
