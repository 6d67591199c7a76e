"""The package runs OpenBLAS on one thread, whatever OPENBLAS_NUM_THREADS
says and whichever of numpy and the package is imported first.  Each case
runs in a child process, since a process's BLAS count is fixed by its
first imports."""

import os
import subprocess
import sys
from pathlib import Path

import meanfield_sgd

SRC = str(Path(meanfield_sgd.__file__).resolve().parents[1])

#: a product whose sums OpenBLAS splits differently at 1 and at 2 threads
_GEMM = ("rng = np.random.default_rng(0)\n"
         "a = rng.standard_normal((20, 784))\n"
         "b = rng.standard_normal((784, 64))\n"
         "print((a @ b).tobytes().hex())\n")


def _child(code: str, threads: str) -> list[str]:
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
           "OMP_NUM_THREADS": threads,
           "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True,
                          timeout=120).stdout.split()


def test_the_package_leaves_the_environment_as_it_found_it():
    """Importing the package first loads OpenBLAS at one thread and gives
    back the caller's OPENBLAS_NUM_THREADS, set or unset."""
    code = ("import os\n"
            "import meanfield_sgd\n"
            "from meanfield_sgd import _blas\n"
            "print(_blas.threads(), os.environ.get('OPENBLAS_NUM_THREADS'))\n")
    assert _child(code, "2") == ["1", "2"]
    unset = ("import os\n"
             "os.environ.pop('OPENBLAS_NUM_THREADS')\n" + code)
    assert _child(unset, "2") == ["1", "None"]


def test_numpy_loaded_first_is_pinned_to_one_thread():
    """numpy imported at 2 threads, then the package: the library is at one
    thread, and a (20 x 784)(784 x 64) product has the bits of a process
    that loaded OpenBLAS at one thread."""
    first = _child("import numpy as np\n"
                   "import meanfield_sgd\n"
                   "from meanfield_sgd import _blas\n"
                   "print(_blas.threads())\n" + _GEMM, "2")
    alone = _child("import numpy as np\n" + _GEMM, "1")
    assert first[0] == "1"
    assert first[1] == alone[0]


def test_no_setter_leaves_the_count_as_found():
    """Where the setter cannot be found, ``pin_one_thread`` raises nothing
    and leaves the count the library has, which the manifest records; where
    the getter cannot be found either, the manifest says unknown."""
    code = (
        "import tempfile\n"
        "from pathlib import Path\n"
        "import meanfield_sgd\n"
        "from meanfield_sgd import _blas, cli\n"
        "found = _blas._symbols\n"
        "found('set')[0](2)\n"
        "_blas._symbols = lambda verb: [] if verb == 'set' else found(verb)\n"
        "_blas.pin_one_thread('numpy')\n"
        "out = Path(tempfile.mkdtemp())\n"
        "for lookup in (_blas._symbols, lambda verb: []):\n"
        "    _blas._symbols = lookup\n"
        "    cli.write_manifest(out, 'abc', 1)\n"
        "    print(cli.read_manifest(out)['blas_threads'])\n")
    assert _child(code, "1") == ["2", "unknown"]


def test_study_workers_inherit_the_count():
    """``run_study`` at d = 20 with ``workers=2``: every forked worker runs
    OpenBLAS at one thread, and the clouds are bitwise those of
    ``workers=1``, in a process that loaded numpy at 2 threads."""
    code = (
        "import numpy as np\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from meanfield_sgd import (InitLaw, RandomStreams, activation,\n"
        "                           noisy_polynomial, run_study, _blas)\n"
        "with ProcessPoolExecutor(2) as pool:\n"
        "    print(*{f.result() for f in\n"
        "            [pool.submit(_blas.threads) for _ in range(4)]})\n"
        "model = noisy_polynomial(20, lin=(1.0,) * 20, noise_scale=0.25)\n"
        "studies = [run_study(model, InitLaw(d=20), activation('tanh'), 1.0,\n"
        "                     0.25, (100, 400), 4, RandomStreams(5), workers=k)\n"
        "           for k in (1, 2)]\n"
        "one, two = (s.clouds for s in studies)\n"
        "print(sorted(one) == sorted(two) and all(\n"
        "    one[k].c.tobytes() == two[k].c.tobytes() and\n"
        "    one[k].w.tobytes() == two[k].w.tobytes() for k in one))\n")
    assert _child(code, "2") == ["1", "True"]


def test_scipy_openblas_starts_at_one_thread(tmp_path):
    """A Picard ``meanfield`` at m = 64 takes exact Wasserstein distances,
    whose ``scipy.optimize`` loads scipy's own OpenBLAS: under
    OPENBLAS_NUM_THREADS=2 the run still ends with one OS thread, both
    libraries at one thread, and a manifest that says so."""
    code = (
        "from pathlib import Path\n"
        "from meanfield_sgd import _blas, cli\n"
        f"tmp = Path({str(tmp_path)!r})\n"
        "(tmp / 'p.cfg').write_text('mode=picard\\nm=64\\nquad_nodes=128\\n')\n"
        "print(cli.main(['meanfield', '--config', str(tmp / 'p.cfg'),\n"
        "                '--out', str(tmp / 'out'), '--quiet']))\n"
        "print(any('scipy.libs' in line and 'openblas' in line\n"
        "          for line in open('/proc/self/maps')))\n"
        "print(*[get() for get in _blas._symbols('get')])\n"
        "print(cli.read_manifest(tmp / 'out')['blas_threads'])\n"
        "print(*[line.split()[1] for line in open('/proc/self/status')\n"
        "        if line.startswith('Threads:')])\n")
    assert _child(code, "2") == ["0", "True", "1", "1", "1", "1"]
