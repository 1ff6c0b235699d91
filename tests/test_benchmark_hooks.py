"""The benchmark's traced pass patches kturb's public entry points by
name; this fails when a rename would break it."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = """
import sys
sys.path.insert(0, {perfbench!r})
import kturb, kturb.harness
import spans
spans.Tracer().install()
"""


# a traced 8^3 simulation of 5 fixed steps: every kernel call must show
# its 17 inverse and 14 forward transforms, so a layout change cannot
# silently zero the per-layer metrics
_TRACED_RUN = _SCRIPT + """
import numpy as np
tracer = spans.Tracer()
tracer.install()
cfg = kturb.harness.RunConfig(
    resolution=(8, 8, 8), t_end=0.05,
    control=kturb.StepControl(dt_max=1.0, dt_fixed=0.01),
    initial=kturb.harness.InitialDataSpec(seed=1, band=2))
tracer.enabled = True
result = kturb.harness.run_simulate(cfg)
tracer.enabled = False
layers = tracer.per_layer()
steps = len(result.records) - 1
assert steps == 5, steps
assert layers["integrator.steps"] == steps, layers
assert layers["dynamics.kernel.calls"] == 4 * steps, layers
name, parent, _, value = tracer.arrays()
ids = tracer._ids
for kernel in np.flatnonzero(name == ids["dynamics.kernel"]):
    inside = parent == kernel
    assert value[inside & (name == ids["grid.irfft"])].tolist() == [17]
    assert value[inside & (name == ids["grid.rfft"])].tolist() == [14]
"""


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = script.format(perfbench=os.path.join(ROOT, "perfbench"))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


def test_tracer_installs_on_current_api():
    proc = _run(_SCRIPT)
    assert proc.returncode == 0, proc.stderr


def test_tracer_counts_every_kernel_transform():
    proc = _run(_TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
