"""Golden-output pin for the command-line interface.

Every subcommand runs on the small fixed inputs in tests/golden/ (a pair
CSV and two sample-by-feature matrices) and each output file is compared
with its copy in tests/golden/expected/.  Outputs must match byte for byte.
The pair rows have no kappa_max near-ties, so the row order of sorted
outputs is stable.

Regenerate the expected files only for an intended change of output, and
only those of the cases named (every case when none is named):

    PYTHONPATH=src python3 tests/test_golden_cli.py [CASE ...]
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import qualint
from qualint.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
# where the qualint under test was imported from (src/, or an installed
# copy), so that a subprocess runs the same copy
IMPORT_ROOT = Path(qualint.__file__).resolve().parents[1]
EXPECTED = GOLDEN / "expected"

PAIRS = "{golden}/pairs.csv"
SIMULATE = [
    "simulate", "--theta1", "1", "--theta2-min", "-0.5", "--theta2-max", "0.5",
    "--theta2-step", "0.5", "--n", "30", "--reps", "12", "--kappas", "2", "4",
    "--alpha", "0.05", "--seed", "3", "--output", "{out}/study",
]
# a seed of two 32-bit words (4294967301 = 2**32 + 5) seeds every stream
SIMULATE_WIDE_SEED = [
    "simulate", "--theta1", "0.8", "--theta2-min", "-1", "--theta2-max", "1",
    "--theta2-step", "1", "--n", "5", "30", "--reps", "6", "--kappas", "1.5", "3",
    "--alpha", "0.1", "--seed", "4294967301", "--output", "{out}/wide",
]

# (argv, output files); "{golden}" is the input directory and "{out}" the
# output directory.  A single-output command writes to "{out}/<file>".
CASES = {
    "test_rd": (["test", "--kind", "rd", "--est1", "1.3", "--se1", "0.4", "--est2", "0.2",
                 "--se2", "0.3", "--kappa", "2", "--alpha", "0.05"], ["test_rd.json"]),
    "test_omnibus": (["test", "--kind", "omnibus", "--est1", "1.1", "--se1", "0.3",
                      "--est2", "-0.4", "--se2", "0.35", "--kappa", "1.5"],
                     ["test_omnibus.json"]),
    # rho < 0 and both thresholds in [0, 5): the zero-point tail keeps its
    # relative accuracy, far below the boundary tail that binds
    "test_rd_deep_zero_point": (["test", "--kind", "rd", "--est1", "5.36846", "--se1", "0.510008",
                                 "--est2", "-0.821089", "--se2", "0.33672", "--kappa", "2"],
                                ["test_rd_deep_zero_point.json"]),
    "test_gs": (["test", "--kind", "gs", "--est1", "0.9", "--se1", "0.3", "--est2", "-0.7",
                 "--se2", "0.25"], ["test_gs.json"]),
    **{
        f"scan_{kind}_{fmt}": (["scan", PAIRS, "--kind", kind, "--kappa", "1.5", "--alpha", "0.1",
                                "--format", fmt], [f"scan_{kind}.{fmt}"])
        for kind in ("rd", "omnibus", "gs")
        for fmt in ("csv", "json")
    },
    "network": (["network", "{golden}/matrix1.csv", "{golden}/matrix2.csv", "--kappa", "1.5",
                 "--alpha", "0.05"], ["network.csv"]),
    "power_rd": (["power", "--kind", "rd", "--kappa", "2", "--c1-min", "-4", "--c1-max", "4",
                  "--c1-steps", "7", "--c2-min", "-4", "--c2-max", "4", "--c2-steps", "7"],
                 ["power_rd.csv"]),
    "power_rd_unbalanced": (["power", "--kind", "rd", "--kappa", "1.2", "--sigma1", "4",
                             "--sigma2", "0.5", "--lambda", "0.3", "--c1-steps", "5",
                             "--c2-steps", "5"], ["power_rd_unbalanced.csv"]),
    "power_omnibus": (["power", "--kind", "omnibus", "--kappa", "2", "--c1-steps", "7",
                       "--c2-steps", "7"], ["power_omnibus.csv"]),
    # at kappa = 1.1 the omnibus zero-point quantile, a root search, binds
    "power_omnibus_k11": (["power", "--kind", "omnibus", "--kappa", "1.1", "--c1-steps", "5",
                           "--c2-steps", "5"], ["power_omnibus_k11.csv"]),
    # past kappa = 2^510 a contrast's variance falls below the normal range
    # and its root is taken by hypot
    **{
        f"test_{kind}_low_variance": (["test", "--kind", kind, "--est1", "1", "--se1", "0.5",
                                       "--est2", "1e-201", "--se2", "1e-200", "--kappa", "1e200"],
                                      [f"test_{kind}_low_variance.json"])
        for kind in ("rd", "omnibus")
    },
    **{
        f"power_{kind}_low_variance": (["power", "--kind", kind, "--kappa", "1e200", "--sigma1",
                                        "1", "--sigma2", "1e-200", "--c1-steps", "3",
                                        "--c2-steps", "3"], [f"power_{kind}_low_variance.csv"])
        for kind in ("rd", "omnibus")
    },
    "kappa_max": (["kappa-max", PAIRS, "--alpha", "0.1"], ["kappa_max.csv"]),
    # one pair, written as a JSON object
    "kappa_max_pair": (["kappa-max", "--est1", "1.3", "--se1", "0.4", "--est2", "0.2",
                        "--se2", "0.3", "--alpha", "0.05"], ["kappa_max_pair.json"]),
    # the larger estimate within an ulp of z se: the test rejects at the
    # probe kappa 1 + 1e-9, where the closed-form root is 0 / 0
    "kappa_max_probe_edge": (["kappa-max", "--est1", "0.6746471018004875", "--se1", "1",
                              "--est2", "0", "--se2", "1e-200", "--alpha", "0.4999"],
                             ["kappa_max_probe_edge.json"]),
    "simulate": (SIMULATE, ["study_n30_rates.csv", "study_n30_kappa_max.csv",
                            "study_config.json"]),
    "simulate_wide_seed": (SIMULATE_WIDE_SEED, [
        "wide_n5_rates.csv", "wide_n5_kappa_max.csv", "wide_n30_rates.csv",
        "wide_n30_kappa_max.csv", "wide_config.json",
    ]),
}
# the network, power and kappa-max tables as JSON
CASES.update({
    f"{name}_json": ([*CASES[name][0], "--format", "json"], [f"{name}.json"])
    for name in ("network", "power_rd", "power_omnibus_k11", "kappa_max")
})

def case_argv(name: str, out_dir: Path, golden: Path = GOLDEN) -> list[str]:
    argv, outputs = CASES[name]
    argv = [a.format(golden=golden, out=out_dir) for a in argv]
    if "--output" not in argv:
        argv += ["--output", str(out_dir / outputs[0])]
    return argv


def run_case(name: str, out_dir: Path, golden: Path = GOLDEN) -> None:
    code = main(case_argv(name, out_dir, golden))
    assert code == 0, f"{name}: exit {code}"


def assert_matches_golden(name: str, out_dir: Path) -> None:
    for output in CASES[name][1]:
        got = (out_dir / output).read_bytes()
        assert got == (EXPECTED / output).read_bytes(), f"{output} differs from the golden copy"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name, tmp_path):
    run_case(name, tmp_path)
    assert_matches_golden(name, tmp_path)


# the golden pair file with CRLF or CR line ends, with every id quoted,
# behind a UTF-8 byte order mark (as Excel's "CSV UTF-8" writes) or with
# spaces after the header's commas holds the same rows: the outputs match
# the same expected files
PAIR_VARIANTS = {
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "cr": lambda text: text.replace("\n", "\r"),
    "quoted_ids": lambda text: re.sub(r"(?m)^(\w+),(?=[-\d])", r'"\1",', text),
    "bom": lambda text: "\ufeff" + text,
    "spaced_header": lambda text: text.replace(",", ", ", 4),
}


@pytest.mark.parametrize("variant", sorted(PAIR_VARIANTS))
@pytest.mark.parametrize(
    "name", [name for name in sorted(CASES) if name.startswith("scan_") or name == "kappa_max"]
)
def test_pair_file_variants_match_golden(name, variant, tmp_path):
    text = (GOLDEN / "pairs.csv").read_text(encoding="utf-8")
    changed = PAIR_VARIANTS[variant](text)
    assert changed != text
    (tmp_path / "pairs.csv").write_text(changed, encoding="utf-8", newline="")
    run_case(name, tmp_path, golden=tmp_path)
    assert_matches_golden(name, tmp_path)


def test_package_exports_the_union_of_the_module_lists():
    # each module's __all__ lists its public names once; the package exports
    # their union, and each deferred name loads from the module listing it
    modules = [import_module(f"qualint.{name}") for name in ("inference", "estimators",
                                                              "simulation")]
    assert sorted(qualint.__all__) == sorted(set().union(*(m.__all__ for m in modules)))
    for name, module in qualint._DEFERRED.items():
        assert name in import_module(module).__all__, (name, module)


def run_fresh(script: str) -> subprocess.CompletedProcess:
    """script run by a fresh interpreter that imports the qualint under test."""
    path = os.pathsep.join(filter(None, [str(IMPORT_ROOT), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


def test_dir_lists_every_public_name_and_loads_no_deferred_module():
    # dir() of the package lists the deferred names without importing their
    # modules, in a fresh interpreter as in this one
    assert set(qualint.__all__) <= set(dir(qualint))
    script = (
        "import sys, qualint\n"
        "names = dir(qualint)\n"
        "assert set(qualint.__all__) <= set(names), sorted(set(qualint.__all__) - set(names))\n"
        "loaded = {'qualint.estimators', 'qualint.simulation'} & set(sys.modules)\n"
        "assert not loaded, sorted(loaded)\n"
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr


# modules that only network (qualint.estimators) or simulate (the rest)
# runs; no other command may load them
DEFERRED = ("qualint.estimators", "qualint.simulation", "numpy.random", "numpy.polynomial")


def test_cli_runs_without_scipy(tmp_path):
    # the runtime needs numpy only: neither importing the CLI nor running a
    # golden case may load scipy, which the test extra installs for the
    # reference values; and a command loads only the modules it runs
    light = [case_argv(name, tmp_path) for name in sorted(CASES)
             if name.startswith(("test_", "scan_", "power_", "kappa_max"))]
    script = (
        "import sys\n"
        f"deferred = set({DEFERRED!r})\n"
        "import qualint.cli\n"
        "assert 'scipy' not in sys.modules, 'import qualint.cli loaded scipy'\n"
        "assert not deferred & set(sys.modules), sorted(deferred & set(sys.modules))\n"
        f"for argv in {light!r}:\n"
        "    assert qualint.cli.main(argv) == 0, argv\n"
        "assert 'scipy' not in sys.modules, 'main() loaded scipy'\n"
        "assert not deferred & set(sys.modules), sorted(deferred & set(sys.modules))\n"
        f"assert qualint.cli.main({case_argv('network', tmp_path)!r}) == 0\n"
        "assert deferred & set(sys.modules) == {'qualint.estimators'}\n"
        # every public name imports from the package and is listed by dir()
        "import qualint\n"
        "names = {}\n"
        "exec('from qualint import *', names)\n"
        "assert set(qualint.__all__) <= set(names) and set(qualint.__all__) <= set(dir(qualint))\n"
    )
    result = run_fresh(script)
    assert result.returncode == 0, result.stderr


if __name__ == "__main__":
    names = sys.argv[1:] or sorted(CASES)
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        sys.exit(f"unknown golden cases: {', '.join(unknown)}")
    EXPECTED.mkdir(exist_ok=True)
    for case in names:
        run_case(case, EXPECTED)
    print(f"wrote {sum(len(CASES[case][1]) for case in names)} files to {EXPECTED}",
          file=sys.stderr)
