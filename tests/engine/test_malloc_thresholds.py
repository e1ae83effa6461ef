"""Importing the executor pins glibc's malloc policy.

Each case starts a fresh interpreter, so the allocator's dynamic
thresholds have not been moved by anything else the suite allocated.
The threshold probe reads ``mallinfo2().hblkhd`` (bytes in mmapped
blocks) around one 24 MiB numpy allocation: under glibc's fresh-process
thresholds the block is mmapped, under the fixed 32 MiB threshold it
comes from the heap.  The arena probe counts the arenas
``malloc_stats()`` reports after a second thread has allocated.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parent.parent)

_PROBE = """
import ctypes
import numpy as np
{imports}

class MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost",
    )]

libc = ctypes.CDLL(None)
libc.mallinfo2.restype = MallInfo2
before = libc.mallinfo2().hblkhd
block = np.empty(24 << 20, dtype=np.uint8)
print(libc.mallinfo2().hblkhd - before)
"""


def _glibc_with_mallinfo2() -> bool:
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return False
        import ctypes
        return hasattr(ctypes.CDLL(None), "mallinfo2")
    except (AttributeError, ValueError, OSError):
        return False


pytestmark = pytest.mark.skipif(
    not _glibc_with_mallinfo2(), reason="needs glibc >= 2.33 (mallinfo2)"
)


_ARENA_PROBE = """
import ctypes
import threading
{imports}

thread = threading.Thread(target=lambda: bytearray(1 << 16))
thread.start()
thread.join()
ctypes.CDLL(None).malloc_stats()
"""


def _run(probe: str, imports: str, env: dict) -> subprocess.CompletedProcess:
    environment = {
        name: value for name, value in os.environ.items()
        if not name.startswith("MALLOC_") and name != "GLIBC_TUNABLES"
    }
    environment.update(env, PYTHONPATH=_SRC)
    return subprocess.run(
        [sys.executable, "-c", probe.format(imports=imports)],
        env=environment, capture_output=True, text=True, check=True,
    )


def _mmapped_bytes(imports: str, **env: str) -> int:
    return int(_run(_PROBE, imports, env).stdout)


def _arenas(imports: str) -> int:
    return _run(_ARENA_PROBE, imports, {}).stderr.count("Arena ")


def test_without_the_engine_a_large_block_is_mmapped():
    # The control: the probe can tell the two policies apart.
    assert _mmapped_bytes("") >= 24 << 20


def test_importing_the_executor_serves_large_blocks_from_the_heap():
    assert _mmapped_bytes("import repro.engine.executor") == 0


def test_explicit_malloc_settings_win():
    assert _mmapped_bytes(
        "import repro.engine.executor", MALLOC_TOP_PAD_="0"
    ) >= 24 << 20


def test_a_second_thread_gets_its_own_arena_without_the_engine():
    assert _arenas("") >= 2


def test_importing_the_executor_keeps_one_arena():
    assert _arenas("import repro.engine.executor") == 1
