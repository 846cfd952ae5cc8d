"""The served maps' bits on every OpenBLAS core this CPU can run.

OpenBLAS picks its micro-kernels for the host CPU when it loads, and the
``OPENBLAS_CORETYPE`` environment variable overrides the choice. A map must
not depend on it, so the inference bit-identity tests rerun in a child
``pytest``, once per core whose instructions this CPU has. The variable is
set in the child's environment only.
"""

import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import coastwatch

BIT_IDENTITY_TESTS = [
    "tests/test_convnet.py::test_a_column_of_a_patch_shaped_block_ignores_the_other_columns",
    "tests/test_convnet.py::test_infer_kept_is_infer_patch_on_the_kept_windows",
    "tests/test_alerting.py::test_infer_scene_is_tile_infer_invalidate_at_paper_dims",
]
# each core and the /proc/cpuinfo flags its kernels need (Linux calls SSE3 "pni")
CORES = {
    "Prescott": {"pni"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}


def cpu_flags() -> set[str]:
    if sys.platform != "linux" or platform.machine() != "x86_64":
        pytest.skip("OPENBLAS_CORETYPE names x86-64 cores; this host is not "
                    "x86-64 Linux")
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


@pytest.mark.parametrize("core", CORES)
def test_inference_bits_hold_on_every_openblas_core(core):
    missing = CORES[core] - cpu_flags()
    if missing:
        pytest.skip(f"this CPU lacks {', '.join(sorted(missing))}")
    # the child imports the coastwatch this process tests
    src = str(Path(coastwatch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_CORETYPE=core, PYTHONPATH=path)
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         *BIT_IDENTITY_TESTS],
        cwd=Path(__file__).parents[1], env=env, capture_output=True, text=True,
        timeout=600)
    assert child.returncode == 0, child.stdout[-4000:] + child.stderr[-2000:]
