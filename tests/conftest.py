import os
from pathlib import Path

import pytest

from engeldim import SequenceFamily


@pytest.fixture(autouse=True, scope="session")
def _child_processes_import_the_source_tree():
    # pyproject's pythonpath puts src on this process's path only; the
    # tests that run `python -m engeldim` need it on the child's as well
    src = str(Path(__file__).resolve().parent.parent / "src")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", src, prepend=os.pathsep)
        yield


@pytest.fixture
def fam42() -> SequenceFamily:
    return SequenceFamily.geometric(4, 2)


@pytest.fixture
def fam22() -> SequenceFamily:
    return SequenceFamily.geometric(2, 2)


@pytest.fixture
def fam21() -> SequenceFamily:
    # t_n = 2 for every n
    return SequenceFamily.geometric(2, 1, t_coef=2)


@pytest.fixture
def test_families(fam42, fam22, fam21) -> list[SequenceFamily]:
    return [fam42, fam22, fam21]
