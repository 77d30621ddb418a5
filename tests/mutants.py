"""Hand-made mutants of the package and the tests that must kill each one.

Each entry of MUTANTS replaces a source fragment that occurs exactly once
in its module with a plausible mistake, and names the tests that must fail
on it.  Run the catalogue with

    python tests/mutants.py

It copies ``src/`` to a temporary directory, applies one mutant at a time
to the copy, and runs only that mutant's killer tests (``pytest -x``)
against it.  A mutant whose killers all pass survives; the runner prints
every survivor and exits 1 if one survives or a killer run errors.  ``tests/test_mutants.py``
checks that the catalogue still matches the sources, without running it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str          # relative to src/
    fragment: str      # occurs exactly once in the file
    replacement: str
    killers: tuple     # pytest node ids without parameters, "tests/<file>::<function>"


# per-sample real central difference: sees any non-holomorphic step, on every grid
_ORACLE = "tests/test_fisher.py::test_coloured_derivative_matches_per_sample_loop"
# slabbed residual grids against one evaluation of the whole grid, bitwise
_SLAB_ORACLE = "tests/test_cli.py::test_slabbed_residual_grids_are_bitwise_the_whole_grid"
# parts that fail in a child, one after writing text, or here
_FAILED_PART = "tests/test_io.py::test_a_failed_part_reaps_every_child_and_closes_every_file"

MUTANTS = (
    Mutant(
        name="S integrand contracts the conjugated bracket",
        path="dirachydro/fisher.py",
        fragment="raise_index(bracket), bracket)",
        replacement="raise_index(bracket).conj(), bracket)",
        killers=(_ORACLE, "tests/test_fisher.py::test_phase_closure_is_exact_to_roundoff"),
    ),
    Mutant(
        name="Fisher density divides by the real part of rho",
        path="dirachydro/fisher.py",
        fragment="np.where(rho.real > 0.0, rho, 1.0)",
        replacement="np.where(rho.real > 0.0, rho.real, 1.0)",
        killers=(_ORACLE, "tests/test_fisher.py::test_functional_derivatives_reproduce_residual_grids"),
    ),
    Mutant(
        name="derivative reads the real part of the stepped integrand",
        path="dirachydro/fisher.py",
        fragment="integrand(field)[interior].imag",
        replacement="integrand(field)[interior].real",
        killers=(_ORACLE,),
    ),
    Mutant(
        name="colour keeps its step after its pass",
        path="dirachydro/fisher.py",
        fragment="        field[colour] = base_field[colour]\n",
        replacement="",
        killers=(_ORACLE, "tests/test_fisher.py::test_phase_closure_is_exact_to_roundoff"),
    ),
    Mutant(
        name="_metric_square casts its field to float64",
        path="dirachydro/hydro.py",
        fragment="g_lower = spec.gradient_lower(field)",
        replacement="g_lower = spec.gradient_lower(np.asarray(field, dtype=np.float64))",
        killers=(_ORACLE,),
    ),
    Mutant(
        name="_slashed reads gradient slot k as spacetime axis mu",
        path="dirachydro/hydro.py",
        fragment="slashed_e[..., a] += c * de_lower[..., k, b]",
        replacement="slashed_e[..., a] += c * de_lower[..., mu, b]",
        killers=("tests/test_hydro.py::test_slashed_term_matches_the_dense_contraction",),
    ),
    Mutant(
        name="the metric negates the time slot too",
        path="dirachydro/grids.py",
        fragment="return slice(1 if self.active_axes[0] == 0 else 0, None)",
        replacement="return slice(0, None)",
        killers=("tests/test_grids.py::test_gradient_has_one_bitwise_slot_per_active_axis",
                 "tests/test_hydro.py::test_gradient_contractions_match_a_zero_padded_four_axis_reference",
                 "tests/test_hydro.py::test_expanded_matches_bilinear_on_smooth_fields"),
    ),
    Mutant(
        name="active slots taken as the first ndim components",
        path="dirachydro/grids.py",
        fragment="        return list(self.active_axes)\n",
        replacement="        return list(range(self.ndim))\n",
        killers=("tests/test_grids.py::test_gradient_has_one_bitwise_slot_per_active_axis",),
    ),
    Mutant(
        name="expanded bracket adds dS into the first ndim slots",
        path="dirachydro/hydro.py",
        fragment="bracket_lower[..., spec.active_slots] += dS_lower",
        replacement="bracket_lower[..., : spec.ndim] += dS_lower",
        killers=("tests/test_hydro.py::test_expanded_matches_bilinear_on_smooth_fields",),
    ),
    Mutant(
        name="bilinear bracket adds the internal current into the first ndim slots",
        path="dirachydro/hydro.py",
        fragment="bracket_lower[..., spec.active_slots] += hbar * internal",
        replacement="bracket_lower[..., : spec.ndim] += hbar * internal",
        killers=("tests/test_hydro.py::test_expanded_matches_bilinear_on_smooth_fields",
                 "tests/test_hydro.py::test_squared_operator_reproduces_bilinear_residuals"),
    ),
    Mutant(
        name="second_partial squares the spacing with a float power",
        path="dirachydro/grids.py",
        fragment="(v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)",
        replacement="(v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2",
        killers=("tests/test_cli.py::test_spacing_whose_square_overflows_names_the_residual",),
    ),
    Mutant(
        name="slabs read a halo of 2 rows",
        path="dirachydro/cli.py",
        fragment="below, above = max(0, lo - _HALO), min(rows, hi + _HALO)",
        replacement="below, above = max(0, lo - 2), min(rows, hi + 2)",
        # only a vacuum point 2 or 3 rows from a cut tells a halo of 2 from one of 3
        killers=("tests/test_cli.py::test_a_vacuum_point_near_a_cut_is_masked_as_on_the_whole_grid",
                 _SLAB_ORACLE),
    ),
    Mutant(
        name="slab coordinates from a shifted origin",
        path="dirachydro/grids.py",
        fragment="self.origin, self.start + lo)",
        replacement=("tuple(c + lo * self.spacing[0] * (a == self.active_axes[0])"
                     " for a, c in enumerate(self.origin)), self.start)"),
        killers=("tests/test_grids.py::test_a_slab_has_the_bitwise_points_of_its_rows",
                 _SLAB_ORACLE),
    ),
    Mutant(
        name="slab rows stitched one row off",
        path="dirachydro/cli.py",
        fragment="out[index, lo:hi] = grid[lo - below:hi - below]",
        replacement="out[index, lo:hi] = grid[lo - below + 1:hi - below + 1]",
        killers=("tests/test_cli.py::test_benchmark_residual_grids_are_bitwise_the_whole_grid",
                 _SLAB_ORACLE),
    ),
    Mutant(
        name="fork_parts drops the rerun of a part no child finished",
        path="dirachydro/_parts.py",
        fragment="            if not finished:\n                run(k)\n",
        replacement="",
        killers=("tests/test_cli.py::test_a_slab_whose_child_fails_is_evaluated_again_here",
                 "tests/test_cli.py::test_a_fork_that_fails_runs_its_slabs_and_parts_here"),
    ),
    Mutant(
        name="the fork helper leaves this process pinned",
        path="dirachydro/_parts.py",
        fragment="        os.sched_setaffinity(0, cpus)\n",
        replacement="        pass\n",
        killers=("tests/test_io.py::test_parts_are_appended_in_row_order_each_from_its_own_cpu",),
    ),
    Mutant(
        name="the fork helper does not reap the children of a failed part",
        path="dirachydro/_parts.py",
        fragment="        for pid in pids:\n            os.waitpid(pid, 0)\n",
        replacement="        pass\n",
        killers=(_FAILED_PART,),
    ),
    Mutant(
        name="a part after the first drops its first row",
        path="dirachydro/io.py",
        fragment="render(part.write, bounds[k], bounds[k + 1])",
        replacement="render(part.write, bounds[k] + 1, bounds[k + 1])",
        killers=("tests/test_io.py::test_parts_are_appended_in_row_order_each_from_its_own_cpu",),
    ),
    Mutant(
        name="a part is appended from where its file was left",
        path="dirachydro/io.py",
        fragment="            files[k - 1].seek(0)\n",
        replacement="",
        killers=("tests/test_io.py::test_parts_are_appended_in_row_order_each_from_its_own_cpu",),
    ),
    Mutant(
        name="a part rendered again here keeps the text its child left",
        path="dirachydro/io.py",
        fragment="            part.truncate()\n",
        replacement="",
        killers=(_FAILED_PART,),
    ),
    Mutant(
        name="a failed write leaves its file",
        path="dirachydro/io.py",
        fragment="        Path(path).unlink(missing_ok=True)\n",
        replacement="        pass\n",
        killers=("tests/test_io.py::test_a_failed_write_leaves_no_file",),
    ),
)


def apply(mutant, source_root):
    """Write the mutant into the copy of src/ at source_root."""
    path = Path(source_root) / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.fragment) != 1:
        raise ValueError(f"{mutant.name}: fragment must occur exactly once in {mutant.path}")
    path.write_text(text.replace(mutant.fragment, mutant.replacement), encoding="utf-8")


def run_killers(mutant, source_root):
    """pytest's exit status on the mutated copy: 1 killed, 0 survived, else an error."""
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         "-o", f"pythonpath={source_root}", *mutant.killers],
        cwd=ROOT, capture_output=True, text=True,
    )
    return child.returncode


def main():
    start = time.perf_counter()
    survivors, errors = [], []
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "src"
        for mutant in MUTANTS:
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
            apply(mutant, copy)
            began = time.perf_counter()
            status = run_killers(mutant, copy)
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error (pytest exit {status})")
            print(f"{verdict:<8}  {time.perf_counter() - began:5.1f} s  {mutant.name}")
            if status == 0:
                survivors.append(mutant)
            elif status != 1:
                errors.append(mutant)
    print(f"{len(MUTANTS)} mutants, {len(survivors)} survived, {len(errors)} errors, "
          f"{time.perf_counter() - start:.1f} s")
    for mutant in survivors:
        print(f"survivor: {mutant.name} ({mutant.path})")
    return 1 if survivors or errors else 0


if __name__ == "__main__":
    sys.exit(main())
