"""What the benchmark's parent process and its workers both need; imports no cyclecalc."""

import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pass_rng(seed: int, k: int) -> random.Random:
    """The generator for pass k of a run; string seeds hash the same in every process."""
    return random.Random(f"{seed}:{k}")


def corpus_jobs() -> list:
    """Every shipped scenario stem, then the axiom harness in characteristic 0 and 5."""
    stems = sorted(p.stem for p in (ROOT / "scenarios").glob("*.scn"))
    return stems + ["axioms-char0", "axioms-char5"]
