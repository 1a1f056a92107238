"""The package's public names: each resolves, on first use, to the object
defined in its home submodule, and importing the package loads no submodule."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import steinhaus


def fresh_python(code: str) -> list[str]:
    """stdout lines of ``code`` run in a new interpreter that imports this package."""
    env = dict(os.environ, PYTHONPATH=str(Path(steinhaus.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


@pytest.mark.parametrize("name", steinhaus.__all__)
def test_name_is_its_home_modules_object(name):
    home = importlib.import_module(f"steinhaus.{steinhaus._HOME[name]}")
    value = getattr(steinhaus, name)
    assert value is vars(home)[name]
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_every_name_resolves_in_a_fresh_interpreter():
    """Each name resolves through the package's lookup hook, not a cached binding."""
    loaded_before, bad = fresh_python(
        "import sys, steinhaus\n"
        "print(sorted(m for m in sys.modules if m.startswith('steinhaus.')))\n"
        "print([n for n in steinhaus.__all__ if getattr(steinhaus, n) is not\n"
        "       getattr(sys.modules['steinhaus.' + steinhaus._HOME[n]], n)])\n")
    assert (loaded_before, bad) == ("[]", "[]")


def test_first_use_loads_only_the_home_submodule():
    assert fresh_python(
        "import sys, steinhaus\n"
        "steinhaus.BitSeq, steinhaus.orbit\n"
        "print(*sorted(m for m in sys.modules if m.startswith('steinhaus')))\n"
    ) == ["steinhaus steinhaus.bitseq steinhaus.symmetry"]


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from steinhaus import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(steinhaus.__all__)


def test_dir_lists_every_name():
    assert set(steinhaus.__all__) <= set(dir(steinhaus))
    assert fresh_python("import steinhaus\n"
                        "print(set(steinhaus.__all__) - set(dir(steinhaus)))\n") == ["set()"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'steinhaus' has no attribute 'nope'"):
        steinhaus.nope  # noqa: B018
    with pytest.raises(ImportError):
        from steinhaus import nope  # noqa: F401


def test_submodule_import_still_yields_the_submodule():
    from steinhaus import verify

    assert isinstance(verify, types.ModuleType)
    assert verify is sys.modules["steinhaus.verify"]
    assert fresh_python("from steinhaus import ends, verify\n"
                        "print(ends.__name__, verify.__name__)\n"
                        ) == ["steinhaus.ends steinhaus.verify"]


def test_verify_leaves_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, some 10 ms of a fresh process
    assert fresh_python(
        "import contextlib, io, sys\n"
        "from steinhaus.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['verify', '--from', '4', '--to', '6'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n") == ["0 False"]
