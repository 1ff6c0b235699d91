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


def test_tracer_installs_on_current_api():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    script = _SCRIPT.format(perfbench=os.path.join(ROOT, "perfbench"))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
