"""The public API: every exported name resolves, every re-export is exported at home,
and a process that starts no pool loads no process machinery."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import saleval

MODULES = sorted(
    ["saleval"] + [m.name for m in pkgutil.walk_packages(saleval.__path__, "saleval.")]
)


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    if name == "saleval":
        assert exported is None  # the package re-exports; the test below covers it
        return
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert missing == [], f"{name}.__all__ names what {name} does not define: {missing}"


@pytest.mark.parametrize("package", ["saleval", "saleval.harness"])
def test_every_package_import_is_in_its_defining_modules_all(package):
    init = Path(importlib.import_module(package).__file__)
    tree = ast.parse(init.read_text(encoding="utf-8"))
    checked = 0
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
            continue
        assert node.level == 1, f"{package} imports from outside the package: {node.module}"
        home = importlib.import_module(f"{package}.{node.module}")
        for alias in node.names:
            assert alias.name in home.__all__, f"{package} imports {alias.name}, not in {home.__name__}.__all__"
            checked += 1
    assert checked > 0


def test_a_process_without_a_pool_loads_no_process_machinery(tmp_path):
    path = saleval.synth_dataset(tmp_path / "ds", num_images=2, frame=(48, 36), seed=3,
                                 fixations_per_image=6, models=("gt_copy",))
    script = (
        "import sys\n"
        "import saleval\n"
        "def loaded(*roots):\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] in roots)\n"
        "manifest = saleval.load_manifest(sys.argv[1])\n"
        "print(loaded('concurrent', 'multiprocessing', 'scipy'))\n"
        "config = saleval.EvalConfig(trials=2, blur_sweep=(0.0, 1.0), metrics=('sauc', 'cc', 'auc_f'))\n"
        "records = saleval.evaluate_batch(manifest, config, saleval.TrialPlan(2, 1), jobs=1)\n"
        "saleval.emit_report(records, saleval.build_rankings(saleval.aggregate_scores(records)),\n"
        "                    None, sys.argv[2])\n"
        "print(loaded('concurrent', 'multiprocessing'))\n"
        "print('scipy.ndimage._nd_image' in sys.modules, 'scipy.ndimage' in sys.modules)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, str(path), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # the blur loads scipy's compiled module, not the scipy.ndimage package, and
    # auc_f's uniform draws do not import numpy.ma
    assert proc.stdout.splitlines()[-4:] == ["[]", "[]", "True False", "False"]
    assert (tmp_path / "out" / "records.csv").is_file()


def test_a_banded_blur_without_a_pool_loads_no_multiprocessing(tmp_path):
    # 384x256 maps are blurred in bands, which first asks whether this is a
    # pool worker; that question must not import multiprocessing
    path = saleval.synth_dataset(tmp_path / "ds", num_images=2, frame=(384, 256), seed=3,
                                 fixations_per_image=6, models=("gt_copy",))
    script = (
        "import sys\n"
        "import saleval\n"
        "manifest = saleval.load_manifest(sys.argv[1])\n"
        "config = saleval.EvalConfig(trials=2, blur_sweep=(0.0, 1.0), metrics=('cc',))\n"
        "saleval.evaluate_batch(manifest, config, saleval.TrialPlan(2, 1), jobs=1)\n"
        "print('multiprocessing' in sys.modules)\n"
        "print('concurrent.futures' in sys.modules, saleval.maps._usable_cpus() > 1)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", script, str(path)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    multiprocessing, threads = proc.stdout.splitlines()[-2:]
    assert multiprocessing == "False"
    # the band threads, which load concurrent.futures, run where more than one CPU is usable
    assert threads in ("True True", "False False")
