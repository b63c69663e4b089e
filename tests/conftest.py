import os
from pathlib import Path

import pytest

import seriescert


@pytest.fixture(scope="module")
def fresh_interpreter_env():
    """Environment for a child interpreter that imports this seriescert and
    starts at the interpreter's default int/str digit limit, which a test
    in this process may have changed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    src = str(Path(seriescert.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
