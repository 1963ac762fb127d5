"""Golden report bodies for every battery config and every radial_grid config.

Each file ``tests/golden/<config>.json`` holds ``body_dict()`` of one config
under ``scripts/configs``.  Sampled configs run at 1_250_000 samples, one full
shard plus a partial one, so an edit to the random stream, the shard size or
the reduction order shows up as a diff; quadrature-only configs run as they
are.  ``tests/golden/radial_grid.json`` holds, for each of the benchmark's
``radial_grid`` configs (``perfbench/workloads.py``), the SHA-256 of its body
as ``json.dumps(body, sort_keys=True)``, keyed by the workload's operation
label.  ``tests/golden/mc_gram.json`` holds the SHA-256 of the matrix and
half-widths of one Monte Carlo Gram matrix at a fixed seed, so a change to
its draws, its masks, its weights or its reduction shows up bit for bit.
Each block is reduced by two BLAS SYRKs, which split their output, never a
sum, across threads; with numpy 2.4.6 and OpenBLAS 0.3.31 the digest was the
same at 1, 2, 3, 4 and 8 OpenBLAS threads on a 2-vCPU x86-64 machine.  Its
golden test runs at one thread, and a second test compares one thread with
the default count.
Any such change must regenerate the files on purpose:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from holoext.bergman import MultiIndexBasis, gram_matrix
from holoext.geometry import Ball
from holoext.scenarios import ScenarioConfig, run_scenario
from holoext.weights import LogSingularProfile, RadialWeight

CONFIG_DIR = Path(__file__).resolve().parent.parent / "scripts" / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
GOLDEN_SAMPLES = 1_250_000
CONFIGS = sorted(CONFIG_DIR.glob("*.json"))
SRC_ROOT = Path(__file__).resolve().parent.parent / "src"
PERFBENCH_DIR = Path(__file__).resolve().parent.parent / "perfbench"
RADIAL_GRID_GOLDEN = GOLDEN_DIR / "radial_grid.json"
MC_GRAM_GOLDEN = GOLDEN_DIR / "mc_gram.json"


def _body(config_path):
    config = ScenarioConfig.from_mapping(json.loads(config_path.read_text()))
    if config.samples:
        config.samples = GOLDEN_SAMPLES
    return run_scenario(config).body_dict()


def _radial_grid_digests(workloads):
    """Digest of each radial_grid config's body, keyed by its operation label."""
    grid = workloads.RadialGrid(0)
    digests = {}
    for kind, n, degree, label in workloads.RADIAL_GRID:
        body = run_scenario(grid._config(kind, n, degree, label)).body_dict()
        text = json.dumps(body, sort_keys=True)
        digests[f"{kind}_n{n}_d{degree}_{label}"] = hashlib.sha256(text.encode()).hexdigest()
    return digests


def _mc_gram_digest():
    """SHA-256 of the matrix and half-widths of the degree-8 Monte Carlo Gram on B^2."""
    gram = gram_matrix(
        Ball(1.0, 2),
        RadialWeight(LogSingularProfile(), 2),
        MultiIndexBasis(2, 8, 2),
        "monte_carlo",
        500_000,
        2026,
    )
    digest = hashlib.sha256(gram.matrix.tobytes())
    digest.update(gram.half_widths.tobytes())
    return {"gram_ball2_log_singular_d8_s500000_seed2026": digest.hexdigest()}


def _stdout_at_blas_threads(threads, script, *args):
    """Standard output of ``python -c script *args`` in a process with
    OPENBLAS_NUM_THREADS set to ``threads``, or unset when it is None."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC_ROOT), str(Path(__file__).parent)])
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        timeout=300,
    )
    return proc.stdout


_MC_GRAM_SCRIPT = "import json, test_golden; print(json.dumps(test_golden._mc_gram_digest()))"


def _mc_gram_digest_on_one_blas_thread():
    return json.loads(_stdout_at_blas_threads("1", _MC_GRAM_SCRIPT))


@pytest.mark.parametrize("config_path", CONFIGS, ids=lambda p: p.stem)
def test_report_body_matches_golden(config_path):
    golden = json.loads((GOLDEN_DIR / f"{config_path.stem}.json").read_text())
    assert json.loads(json.dumps(_body(config_path))) == golden


def test_battery_quadrature_never_bisects(monkeypatch):
    # every battery quadrature runs a Gauss–Jacobi ladder; the samples are cut
    # because no quadrature depends on them
    from holoext import integrate

    bisections = []
    adaptive = integrate.adaptive_gauss

    def checked(*args, **kwargs):
        if kwargs.get("rules") is None:
            bisections.append(args)
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(integrate, "adaptive_gauss", checked)
    for config_path in CONFIGS:
        config = ScenarioConfig.from_mapping(json.loads(config_path.read_text()))
        if config.samples:
            config.samples = 100_000
        run_scenario(config)
        assert not bisections, config_path.stem


def test_radial_grid_bodies_match_digests(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))  # workloads imports its sibling oracle
    digests = _radial_grid_digests(importlib.import_module("workloads"))
    golden = json.loads(RADIAL_GRID_GOLDEN.read_text())
    assert sorted(digests) == sorted(golden)
    changed = [label for label, digest in golden.items() if digests[label] != digest]
    assert not changed, f"{len(changed)} radial_grid bodies differ from their digests: {changed}"


def test_monte_carlo_gram_matches_digest():
    assert _mc_gram_digest_on_one_blas_thread() == json.loads(MC_GRAM_GOLDEN.read_text())


def test_monte_carlo_gram_does_not_depend_on_blas_threads():
    digests = {t: json.loads(_stdout_at_blas_threads(t, _MC_GRAM_SCRIPT)) for t in ("1", None)}
    assert digests["1"] == digests[None] == json.loads(MC_GRAM_GOLDEN.read_text())


def test_bound_ratio_body_does_not_depend_on_blas_threads():
    script = (
        "import json, sys; from pathlib import Path; import test_golden; "
        "print(json.dumps(test_golden._body(Path(sys.argv[1])), sort_keys=True))"
    )
    config = str(CONFIG_DIR / "bound_ratio.json")
    bodies = {t: _stdout_at_blas_threads(t, script, config) for t in ("1", None)}
    assert bodies["1"] == bodies[None]
    golden = json.loads((GOLDEN_DIR / "bound_ratio.json").read_text())
    assert json.loads(bodies[None]) == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for path in CONFIGS:
        text = json.dumps(_body(path), indent=2, sort_keys=True)
        (GOLDEN_DIR / f"{path.stem}.json").write_text(text + "\n")
        print(f"wrote {GOLDEN_DIR.name}/{path.stem}.json")
    sys.path.insert(0, str(PERFBENCH_DIR))
    digests = _radial_grid_digests(importlib.import_module("workloads"))
    RADIAL_GRID_GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_DIR.name}/{RADIAL_GRID_GOLDEN.name} ({len(digests)} digests)")
    digest = _mc_gram_digest_on_one_blas_thread()
    MC_GRAM_GOLDEN.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_DIR.name}/{MC_GRAM_GOLDEN.name}")
