"""Shared plumbing: where things live, inputs, artifact, statistics."""

from __future__ import annotations

import hashlib
import math
import os
import secrets
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout (git-ignored): the cached
#: artifact, per-run temp dirs, the last trace of each workload.
WORK = ROOT / ".bench_build" / "perfbench"


class BenchError(Exception):
    """The benchmark cannot run here (exit 2, no result line)."""


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def share_hash_seed() -> str:
    """Give every process of this run one random ``PYTHONHASHSEED``.

    Size-equivalent unit picks iterate a frozenset (a known defect,
    see NOTES.md), so two processes with different hash seeds can
    disagree on a few recipes.  The reference and the program under
    test must hash alike for the output check to test the program and
    not that defect, so the run re-executes itself once under a fresh
    random seed, which its children inherit.  The seed is never fixed:
    it differs per run (or is the caller's own), and is reported.
    """
    if "PYTHONHASHSEED" not in os.environ:
        env = dict(os.environ, PYTHONHASHSEED=str(secrets.randbelow(2**32 - 1) + 1))
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    return os.environ["PYTHONHASHSEED"]


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def paper_artifact() -> Path:
    """The paper-configuration artifact (trained perceptron).

    Built once per source tree with the program's own ``repro
    build-artifact`` and cached: building it is compilation, not a
    cost a batch or serve user pays per run.
    """
    path = WORK / "artifacts" / f"paper-{_source_digest()}.artifact"
    if not path.is_file():
        path.parent.mkdir(parents=True, exist_ok=True)
        partial = path.with_suffix(f".{os.getpid()}.partial")
        subprocess.run(
            [sys.executable, "-m", "repro", "build-artifact", str(partial),
             "--tagger", "perceptron"],
            env=child_env(), check=True, stdout=subprocess.DEVNULL, timeout=600,
        )
        os.replace(partial, path)
    return path


def generate_recipes(seed: int, n_recipes: int, line_reuse: float):
    from repro.recipedb.generator import GeneratorConfig, RecipeGenerator

    config = GeneratorConfig(seed=seed, line_reuse=line_reuse)
    return RecipeGenerator(config=config).generate(n_recipes)


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def recipe_digest(estimate) -> str:
    """What the output check compares per recipe: the per-serving
    profile (exact float reprs) and every ingredient's reason code."""
    key = repr((
        sorted(estimate.per_serving.values.items()),
        [item.reason for item in estimate.ingredients],
    ))
    return hashlib.blake2b(key.encode(), digest_size=8).hexdigest()


def output_digest(digests: list[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a process, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); ``inf`` entries stay."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
