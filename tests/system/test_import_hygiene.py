"""Import hygiene: numpy and the columnar engine stay off the default path.

The flow/race CI jobs run the analysis tooling in a numpy-less
environment and rely on ``repro.analysis``/``repro.verify`` being pure
stdlib; ``repro.system.columnar`` (which imports numpy eagerly when
available) must only load on the first replay.
A subprocess gives each check a clean interpreter: this test would pass
vacuously in-process once any earlier test imported numpy.
"""

import subprocess
import sys
import textwrap


def run_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)


def test_numpy_free_consumers_stay_numpy_free():
    proc = run_python("""
        import sys

        class BlockNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy blocked: this consumer "
                                      "must stay numpy-free")
                return None

        sys.meta_path.insert(0, BlockNumpy())
        import repro.analysis
        import repro.verify
        import repro.bench.history
        import repro.bench.shm
        from repro.system.system import System
        assert "repro.system.columnar" not in sys.modules
        assert "numpy" not in sys.modules
        print("import hygiene OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "import hygiene OK" in proc.stdout


def test_columnar_degrades_gracefully_without_numpy():
    """Trace replay in a numpy-less environment falls back to scalar."""
    proc = run_python("""
        import sys

        class BlockNumpy:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" or name.startswith("numpy."):
                    raise ImportError("numpy blocked")
                return None

        sys.meta_path.insert(0, BlockNumpy())
        # EngineMicroload generates its streams with pure arithmetic — the
        # registry workloads draw their data through numpy and cannot even
        # capture in a numpy-less environment.
        from repro.bench.microbench import capture_engine_trace
        from repro.system.config import tiny_config
        from repro.system.system import System

        trace = capture_engine_trace(n_ops=500)
        result = System(tiny_config()).run(trace)
        assert result.instructions > 0
        print("scalar fallback OK")
    """)
    assert proc.returncode == 0, proc.stderr
    assert "scalar fallback OK" in proc.stdout
