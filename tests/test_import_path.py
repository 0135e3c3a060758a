"""What `import cyclecalc` loads from the standard library, and the
immutable value classes, which share the `Frozen` base in place of
`@dataclass(frozen=True)` so that it loads no `dataclasses`.

Most shipped scenarios do a few milliseconds of algebra, so a cold
`engine run` is mostly interpreter start-up and import.  `dataclasses`
brings in `inspect`, `ast`, `dis` and `tokenize`, and every `@dataclass`
generates and `exec`s its methods on each import; `typing` is only ever
needed for annotations, which are strings here.  None of them may come
back onto the import path.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from cyclecalc import Block, Budget, Chart, FinitePresentation, ring_over
from cyclecalc.symbols import verify_regular_sequence

ROOT = Path(__file__).resolve().parents[1]

UNWANTED = ("dataclasses", "inspect", "ast", "dis", "typing")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S skips `site`, whose .pth files may preload modules (typing among them)
    # before cyclecalc is imported
    code = (
        "import sys\n"
        "import cyclecalc\n"
        f"print(' '.join(m for m in {UNWANTED!r} if m in sys.modules))\n"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


def test_frozen_values_are_immutable_and_hash_by_their_fields():
    R = ring_over(0, ["x", "y"])
    x, y = R.var("x"), R.var("y")
    pairs = [
        (Budget(), Budget(50_000, 120)),
        (Block("proj", ("a", "b")), Block("proj", ("a", "b"))),
        (Chart((x,)), Chart((x,))),
        (FinitePresentation(R, ("y",), ("x",), (y - x**2,)), FinitePresentation(R, ("y",), ("x",), (y - x**2,))),
    ]
    certificate = verify_regular_sequence(R, (x,))
    pairs.append((certificate, type(certificate)(certificate.basis)))
    for a, b in pairs:
        # every attribute __init__ set is a field, so none drops out of == and hash
        assert set(type(a)._fields) == set(vars(a))
        assert a == b and hash(a) == hash(b) and a is not b
        field = next(iter(vars(a)))
        with pytest.raises(AttributeError):
            setattr(a, field, None)
        with pytest.raises(AttributeError):
            delattr(a, field)
    assert Budget(max_pairs=3) != Budget()
    assert repr(Budget(max_pairs=3)) == "Budget(max_pairs=3, max_degree=120)"
    assert repr(Block("affine", ("u",))) == "Block(kind='affine', names=('u',))"
    # the cached staircase is stored past the frozen __setattr__
    pres = pairs[3][0]
    assert pres.staircase is pres.staircase
