"""Hand-made mutants of the package and the tests that must kill each one.

Each entry of MUTANTS replaces a source fragment that occurs exactly once
in its module with a plausible mistake, and names the tests that must fail
on it.  Run the catalogue with

    python tests/mutants.py

It runs one mutant per CPU this process may use at a time.  Each mutant
gets its own copy of ``src/`` in a temporary directory, with the mutant
applied, and only that mutant's killer tests (``pytest -x``) run against
it.  Verdicts are printed in catalogue order.  A mutant whose killers all
pass survives; the runner prints every survivor and exits 1 if one
survives or a killer run errors.  ``tests/test_mutants.py`` checks that
the catalogue still matches the sources, without running it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
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
# the slab count of every first axis of 5 to 60 rows against its rules
_SLAB_COUNT = ("tests/test_cli.py::"
               "test_every_slab_owns_3_rows_and_an_edge_slab_holds_5_with_its_halo")
# parts that fail in a child, one after writing text, or here
_FAILED_PART = "tests/test_io.py::test_a_failed_part_reaps_every_child_and_closes_every_file"
# every power of ten and its neighbours through the CSV renderer
_POWERS = ("tests/test_floattext.py::"
           "test_every_power_of_ten_and_its_neighbours_renders_as_percent_17g")
_CARRY = "tests/test_floattext.py::test_digits_that_round_up_to_the_next_decade"
# every power of ten and of two and their neighbours through the JSON renderer
_JSON_POWERS = ("tests/test_floattext.py::"
                "test_every_power_of_ten_and_of_two_and_their_neighbours_render_as_json_dumps")
_JSON_EDGES = "tests/test_floattext.py::test_integers_edges_and_extremes_render_as_json_dumps"
# an oracle and the code it checks share no code beyond the allow-list
_PAIRS = "tests/test_oracle_independence.py::test_oracle_pairs_meet_only_in_the_allow_list"
# draft 2020-12 cases against the jsonschema package, and the schema subset's refusals
_TRAPS = "tests/test_cli.py::test_draft_2020_12_traps"
_REFUSALS = "tests/test_cli.py::test_checker_refuses_keywords_it_does_not_implement"
# whole RK4 orbits against the closed-form plane wave
_PLANE_WAVE_RK4 = ("tests/test_dynamics.py::"
                   "test_rk4_converges_at_fourth_order_to_closed_form_plane_wave")
# one vacuum point on random 1-D to 4-D grids, against every entry that divides by rho0
_VACUUM_RULE = ("tests/test_fisher.py::"
                "test_every_entry_that_divides_by_rho0_refuses_one_vacuum_point")
# the first row past the blow-up limit, from the closed form of u^0
_OVERFLOW = "tests/test_dynamics.py::test_overflowing_plane_wave_raises_at_the_first_bad_row"

MUTANTS = (
    Mutant(
        name="one sign of the gamma-pair coefficients flipped",
        path="dirachydro/clifford.py",
        fragment="[-1j, -1j, -1j, -1j],",
        replacement="[-1j, -1j, -1j, 1j],",
        killers=("tests/test_clifford.py::test_anticommutator_is_twice_metric",),
    ),
    Mutant(
        name="the Dirac adjoint keeps its negative zeros",
        path="dirachydro/clifford.py",
        fragment="    out += 0.0\n",
        replacement="",
        killers=("tests/test_clifford.py::test_adjoint_is_the_matrix_product_bitwise",),
    ),
    Mutant(
        name="the CSV renderer rounds every value itself, ties included",
        path="dirachydro/_floattext.py",
        fragment="_TIE = 1e-6",
        replacement="_TIE = 0.0",
        killers=("tests/test_floattext.py::test_an_exact_tie_takes_the_scalar_fallback",),
    ),
    Mutant(
        name="the CSV renderer takes the decade from log10 alone",
        path="dirachydro/_floattext.py",
        fragment='upper = a >= _tables["threshold"].take(row)',
        replacement='upper = np.floor(np.log10(a)) > _tables["low_decade"].take(row)',
        killers=(_CARRY, _POWERS),
    ),
    Mutant(
        name="digits that round up to 10**17 stay in their decade",
        path="dirachydro/_floattext.py",
        fragment="    carry = d == 10**17\n    d[carry] = 10**16\n    x += carry\n",
        replacement="",
        killers=(_CARRY,),
    ),
    Mutant(
        name="the CSV renderer keeps trailing zeros",
        path="dirachydro/_floattext.py",
        fragment="    key -= trailing\n",
        replacement="",
        killers=("tests/test_floattext.py::"
                 "test_integers_near_the_ends_of_exact_doubles_and_of_17_digits",),
    ),
    Mutant(
        name="exponents of three digits written with two",
        path="dirachydro/_floattext.py",
        fragment="np.where(np.abs(x) >= 100, _SCI3, _SCI2)",
        replacement="_SCI2",
        killers=(_POWERS,),
    ),
    Mutant(
        name="no narrow gap below a power of two",
        path="dirachydro/_floattext.py",
        fragment="gap, gap / 2 if e > -1021 else gap",
        replacement="gap, gap",
        killers=(_JSON_POWERS,),
    ),
    Mutant(
        name="no fallback at an end of the interval",
        path="dirachydro/_floattext.py",
        fragment=("    near |= np.abs(up - np.rint(up)) < _TIE\n"
                  "    near |= np.abs(down - np.rint(down)) < _TIE\n"),
        replacement=("    near |= np.abs(up - np.rint(up)) < 0.0\n"
                     "    near |= np.abs(down - np.rint(down)) < 0.0\n"),
        killers=("tests/test_floattext.py::"
                 "test_an_end_of_the_interval_on_an_integer_takes_the_fallback",),
    ),
    Mutant(
        name="JSON fixed point up to a decimal exponent of 16",
        path="dirachydro/_floattext.py",
        fragment='_JSON = _Output("json", 15,',
        replacement='_JSON = _Output("json", 16,',
        killers=(_JSON_EDGES,),
    ),
    Mutant(
        name="no .0 after an integral JSON value",
        path="dirachydro/_floattext.py",
        fragment='"json", 15, (_POINT, _ZERO),',
        replacement='"json", 15, (),',
        killers=(_JSON_EDGES,),
    ),
    Mutant(
        name="the lowest multiple of ten in the interval, not the nearest",
        path="dirachydro/_floattext.py",
        fragment="np.minimum(np.maximum(r1, low1), high1)",
        replacement="low1",
        killers=(_JSON_POWERS,),
    ),
    Mutant(
        name="-0.0 written as 0.0",
        path="dirachydro/_floattext.py",
        fragment="key += np.signbit(values) * (_FORMS * 17)",
        replacement="key += (values < 0.0) * (_FORMS * 17)",
        killers=("tests/test_floattext.py::test_signed_zeros_nan_and_infinities",
                 "tests/test_io.py::"
                 "test_grid_container_round_trips_finite_values_and_nulls_the_rest"),
    ),
    Mutant(
        name="the antiparticle sign dropped from fisher_term at depth 0",
        path="dirachydro/fisher.py",
        fragment="fisher_term = sign * (particle.hbar * particle.hbar) * information",
        replacement=("fisher_term = (sign if depth else 1) * (particle.hbar * particle.hbar)"
                     " * information"),
        killers=("tests/test_fisher.py::test_functional_antisymmetry_is_exact",),
    ),
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
        name="the field coupling without its factor 2",
        path="dirachydro/hydro.py",
        fragment="((2.0 * lower) * F[..., m, n])",
        replacement="(lower * F[..., m, n])",
        killers=("tests/test_hydro.py::test_field_coupling_matches_the_dense_contraction",),
    ),
    Mutant(
        name="the bilinear bracket's q A scaled by 1.5",
        path="dirachydro/hydro.py",
        fragment="    bracket_lower = q * A_lower\n",
        replacement="    bracket_lower = 1.5 * q * A_lower\n",
        killers=("tests/test_hydro.py::test_expanded_matches_bilinear_on_smooth_fields",),
    ),
    Mutant(
        name="an extra key in TERM_COEFFS",
        path="dirachydro/hydro.py",
        fragment='    "quantum_potential": 2.0,\n}',
        replacement='    "quantum_potential": 2.0,\n    "spin": 0.0,\n}',
        killers=("tests/test_hydro.py::test_frozen_shape_coefficients",),
    ),
    Mutant(
        name="the bilinear density terms computed through quantum_potential",
        path="dirachydro/hydro.py",
        fragment="    return hbar * hbar * (0.25 * drho_sq - 0.5 * box_rho / rho0)\n",
        # the same terms, -hbar^2 box(sqrt rho)/sqrt rho = 2Q, from the expanded side
        replacement="    return 2.0 * quantum_potential(spec, rho0, hbar)\n",
        killers=(_PAIRS,),
    ),
    Mutant(
        name="the Pauli limit computed through expanded_terms",
        path="dirachydro/fisher.py",
        fragment=("    bb = np.einsum(\n"
                  "        \"...m,...m->...\", raise_index(bracket_lower), bracket_lower\n"
                  "    )\n"),
        replacement=("    from .hydro import expanded_terms\n\n"
                     "    terms = expanded_terms(fields, provider, particle)\n"
                     "    bb = terms[\"momentum\"] + particle.mass * particle.mass\n"),
        killers=(_PAIRS,),
    ),
    Mutant(
        name="the spin azimuth rate without its pole check",
        path="dirachydro/lagrangian.py",
        fragment="    if np.min(perp) <= 1e-9:\n        return np.zeros(s.shape[0])\n",
        replacement="",
        killers=("tests/test_lagrangian.py::test_spin_azimuth_rate_polar_fallback",),
    ),
    Mutant(
        name="an unused public alias of the density floor",
        path="dirachydro/hydro.py",
        fragment="DENSITY_FLOOR = 1e-300\n",
        replacement="DENSITY_FLOOR = 1e-300\nVACUUM_FLOOR = DENSITY_FLOOR\n",
        killers=("tests/test_public_api.py::test_every_public_name_has_a_caller",),
    ),
    Mutant(
        name="second_partial squares the spacing with a float power",
        path="dirachydro/grids.py",
        fragment="(v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)",
        replacement="(v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2",
        killers=("tests/test_cli.py::test_spacing_whose_square_overflows_names_the_residual",),
    ),
    Mutant(
        # no refusal in the CLI: a vacuum grid reaches the evaluators, which refuse it as a
        # contract error (exit 2), not a numerical failure (exit 3)
        name="slabs read a halo of 2 rows",
        path="dirachydro/cli.py",
        fragment="    if vacuum:\n        raise NonFiniteResultError(",
        replacement="    if False:\n        raise NonFiniteResultError(",
        killers=("tests/test_cli.py::test_a_vacuum_grid_is_refused_before_any_evaluator_runs",
                 "tests/test_cli.py::"
                 "test_a_rest_density_that_underflows_to_zero_exits_as_numerical_failure"),
    ),
    Mutant(
        # every slab is vacuum-free: _grid_state refuses a vacuum grid
        name="vacuum-free slabs read 1 row",
        path="dirachydro/hydro.py",
        fragment="_STENCIL_REACH = 2",
        replacement="_STENCIL_REACH = 1",
        killers=("tests/test_cli.py::test_slabs_read_the_halo_their_grid_needs", _SLAB_ORACLE),
    ),
    Mutant(
        name="slabs own 2 rows",
        path="dirachydro/cli.py",
        fragment="floor = _MIN_SAMPLES - _STENCIL_REACH",
        replacement="floor = _STENCIL_REACH",
        killers=(_SLAB_COUNT,),
    ),
    Mutant(
        name="the slab budget counts a halo of 3 rows a side",
        path="dirachydro/cli.py",
        fragment="_SLAB_POINTS // row - 2 * _STENCIL_REACH",
        replacement="_SLAB_POINTS // row - 6",
        killers=(_SLAB_COUNT,),
    ),
    Mutant(
        name="a GridSpec admits 4 samples on an axis",
        path="dirachydro/grids.py",
        fragment="_MIN_SAMPLES = 5",
        replacement="_MIN_SAMPLES = 4",
        killers=("tests/test_grids.py::test_spec_validation",),
    ),
    Mutant(
        name="the correction drops a partial last block",
        path="dirachydro/hydro.py",
        fragment="range(0, spec.shape[0], step)",
        replacement="range(0, spec.shape[0] - step + 1, step)",
        killers=("tests/test_hydro.py::"
                 "test_the_correction_in_blocks_of_rows_is_bitwise_one_block",),
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
        name="usable_cores also asks multiprocessing for the CPU count",
        path="dirachydro/_parts.py",
        fragment="    return len(os.sched_getaffinity(0))\n",
        # the same count wherever the process may use every CPU: only the source shows it
        replacement=("    import multiprocessing\n\n"
                     "    return min(multiprocessing.cpu_count(), len(os.sched_getaffinity(0)))\n"),
        killers=("tests/test_fork_site.py::test_os_fork_is_called_only_by_the_shared_fork_helper",),
    ),
    Mutant(
        name="the fork helper does not reap the children of a failed part",
        path="dirachydro/_parts.py",
        fragment="        for pid in pids:\n            os.waitpid(pid, 0)\n",
        replacement="        pass\n",
        killers=(_FAILED_PART,),
    ),
    Mutant(
        name="a child's exit status ignored",
        path="dirachydro/_parts.py",
        fragment="finished = os.waitpid(pids[0], 0)[1] == 0",
        replacement="finished = os.waitpid(pids[0], 0)[1] >= 0",
        killers=("tests/test_cli.py::test_a_slab_whose_child_fails_is_evaluated_again_here",),
    ),
    Mutant(
        name="every file written in one part",
        path="dirachydro/io.py",
        fragment="    parts = per_core(items, _PART_ROWS)\n",
        replacement="    parts = 1\n",
        killers=("tests/test_io.py::test_parts_are_appended_in_row_order_each_from_its_own_cpu",),
    ),
    Mutant(
        name="the CSV header written by every part",
        path="dirachydro/io.py",
        fragment="        if start == 0:\n",
        replacement="        if True:\n",
        killers=("tests/test_io.py::test_full_size_csv_bytes_do_not_depend_on_the_part_count",),
    ),
    Mutant(
        name="the JSON tail written by every part",
        path="dirachydro/io.py",
        fragment="        if stop == offsets[-1]:\n",
        replacement="        if True:\n",
        killers=("tests/test_io.py::test_a_part_cut_near_a_block_boundary_inside_an_array",),
    ),
    Mutant(
        name="the text before an array written by every part",
        path="dirachydro/io.py",
        fragment="write(text.encode() if begin == first else separator)",
        replacement="write(text.encode())",
        killers=("tests/test_io.py::test_a_part_cut_near_a_block_boundary_inside_an_array",),
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
        fragment="            part.seek(0)\n            shutil.copyfileobj(part, fh)\n",
        replacement="            shutil.copyfileobj(part, fh)\n",
        killers=("tests/test_io.py::test_parts_are_appended_in_row_order_each_from_its_own_cpu",),
    ),
    Mutant(
        name="a part that starts inside an array writes no separator",
        path="dirachydro/io.py",
        fragment="write(text.encode() if begin == first else separator)",
        replacement='write(text.encode() if begin == first else b"")',
        killers=("tests/test_io.py::test_a_part_cut_near_a_block_boundary_inside_an_array",),
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
    Mutant(
        name="a report written without its finiteness check",
        path="dirachydro/cli.py",
        fragment="    _require_finite(results=results, max_abs_residuals=max_abs)\n",
        replacement="",
        killers=("tests/test_cli.py::test_overflow_exits_as_numerical_failure",),
    ),
    Mutant(
        name="an OverflowError escapes main",
        path="dirachydro/cli.py",
        fragment="except (FitError, NonFiniteResultError, OverflowError) as exc:",
        replacement="except (FitError, NonFiniteResultError) as exc:",
        killers=("tests/test_cli.py::test_integer_beyond_float64_exits_as_numerical_failure",),
    ),
    Mutant(
        name="an output that cannot be written escapes main",
        path="dirachydro/cli.py",
        fragment="    except OSError as exc:\n        # the output directory",
        replacement="    except ValueError as exc:\n        # the output directory",
        killers=("tests/test_cli.py::test_an_output_that_cannot_be_written_exits_2",),
    ),
    Mutant(
        name="simulate ignores the antiparticle kind",
        path="dirachydro/cli.py",
        fragment="charge=species_sign(kind) * particle.charge",
        replacement="charge=particle.charge",
        killers=("tests/test_cli.py::test_antiparticle_orbit_is_the_opposite_charge_orbit",),
    ),
    Mutant(
        name="species_sign accepts any kind",
        path="dirachydro/spinors.py",
        fragment="    if kind not in _KINDS:\n",
        replacement="    if False:\n",
        killers=("tests/test_spinors.py::test_species_sign",),
    ),
    Mutant(
        name="an interior of no samples admitted",
        path="dirachydro/grids.py",
        fragment="if 2 * depth >= n:",
        replacement="if 2 * depth > n:",
        killers=("tests/test_grids.py::test_interior_slices_build_the_trusted_mask",),
    ),
    Mutant(
        name="the Fisher density admits a nonpositive rho",
        path="dirachydro/fisher.py",
        fragment="    if np.any(_is_vacuum(rho.real[interior])):\n",
        replacement="    if False:\n",
        killers=("tests/test_fisher.py::test_information_contract_checks",),
    ),
    Mutant(
        name="the Fisher density refuses only a nonpositive rho",
        path="dirachydro/fisher.py",
        fragment="_is_vacuum(rho.real[interior])",
        replacement="rho.real[interior] <= 0.0",
        killers=(_VACUUM_RULE,),
    ),
    Mutant(
        name="the process entry does not freeze",
        path="dirachydro/cli.py",
        fragment="    gc.freeze()\n",
        replacement="",
        killers=("tests/test_entry.py::test_the_entry_freezes_and_writes_the_bytes_of_main",),
    ),
    Mutant(
        name="quantum_potential skips the vacuum refusal",
        path="dirachydro/hydro.py",
        fragment="    _refuse_vacuum(rho0)\n    root = np.sqrt(rho0)\n",
        replacement="    root = np.sqrt(rho0)\n",
        killers=("tests/test_hydro.py::test_quantum_potential_refuses_vacuum",),
    ),
    Mutant(
        name="the bilinear density terms skip the vacuum refusal",
        path="dirachydro/hydro.py",
        fragment="    _refuse_vacuum(rho0)\n    # the normalised gradient",
        replacement="    # the normalised gradient",
        killers=("tests/test_hydro.py::test_both_second_order_evaluators_refuse_vacuum",),
    ),
    Mutant(
        name="bool counted as an integer",
        path="dirachydro/schema.py",
        fragment='"integer": lambda value: _is_number(value)',
        replacement='"integer": lambda value: isinstance(value, int) or _is_number(value)',
        killers=(_TRAPS,),
    ),
    Mutant(
        name="1.0 not an integer",
        path="dirachydro/schema.py",
        fragment="(isinstance(value, int) or value.is_integer())",
        replacement="isinstance(value, int)",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="exclusiveMinimum inclusive",
        path="dirachydro/schema.py",
        fragment="_is_number(instance) and instance <= minimum:",
        replacement="_is_number(instance) and instance < minimum:",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="minimum exclusive",
        path="dirachydro/schema.py",
        fragment="_is_number(instance) and instance < minimum:",
        replacement="_is_number(instance) and instance <= minimum:",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="uniqueItems off",
        path="dirachydro/schema.py",
        fragment="if unique and isinstance(instance, list) and any(",
        replacement="if False and any(",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="maxItems off by one",
        path="dirachydro/schema.py",
        fragment="isinstance(instance, list) and len(instance) > count:",
        replacement="isinstance(instance, list) and len(instance) >= count:",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="then applied unconditionally",
        path="dirachydro/schema.py",
        fragment='if "then" in schema and not any(_errors(root, condition, instance, path)):',
        replacement='if "then" in schema:',
        killers=(_TRAPS,),
    ),
    Mutant(
        name="bool equal to a number",
        path="dirachydro/schema.py",
        fragment="    if isinstance(one, bool) or isinstance(two, bool):\n        return False\n",
        replacement="",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="patternProperties ignored by additionalProperties",
        path="dirachydro/schema.py",
        fragment="and not any(re.search(pattern, name) for pattern in patterns))",
        replacement=")",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="array index left out of item paths",
        path="dirachydro/schema.py",
        fragment="yield from _errors(root, subschema, item, path + (index,))",
        replacement="yield from _errors(root, subschema, item, path)",
        killers=(_TRAPS,),
    ),
    Mutant(
        name="unknown keywords not refused",
        path="dirachydro/schema.py",
        fragment="    if schema.keys() - _KEYWORDS.keys():\n",
        replacement="    if False:\n",
        killers=(_REFUSALS,),
    ),
    Mutant(
        name="an additionalProperties schema not refused",
        path="dirachydro/schema.py",
        fragment='if not isinstance(schema.get("additionalProperties", False), bool):',
        replacement="if False:",
        killers=(_REFUSALS,),
    ),
    Mutant(
        name="a $ref outside $defs not refused",
        path="dirachydro/schema.py",
        fragment="if ref is not None and not (ref.startswith(_DEFS)",
        replacement="if False and not (ref.startswith(_DEFS)",
        killers=(_REFUSALS,),
    ),
    Mutant(
        name="the plane-wave orbit has no Taylor branch",
        path="dirachydro/dynamics.py",
        fragment="small = np.abs(y) < 2.0",
        replacement="small = np.abs(y) < 0.0",
        killers=("tests/test_dynamics.py::test_zero_wave_vector_is_free_motion",),
    ),
    Mutant(
        name="the plane wave's generator G with its sign flipped",
        path="dirachydro/dynamics.py",
        fragment="G = lower_index(-qm * wave.amplitude * wave._antisym)",
        replacement="G = lower_index(qm * wave.amplitude * wave._antisym)",
        killers=(_PLANE_WAVE_RK4,),
    ),
    Mutant(
        name="one quintic series coefficient off by 1/5040",
        path="dirachydro/dynamics.py",
        fragment="(2 ** (2 * m + 3) - 2) / math.factorial(2 * m + 5)",
        replacement="(2 ** (2 * m + 3) - 2) / math.factorial(2 * m + 5) + (m == 1) / 5040",
        killers=(_PLANE_WAVE_RK4,),
    ),
    Mutant(
        name="the plane-wave orbit runs without its errstate",
        path="dirachydro/dynamics.py",
        fragment=("        with np.errstate(over=\"ignore\", invalid=\"ignore\"):\n"
                  "            _plane_wave_orbit(provider, qm, ds, n_steps, state)\n"),
        replacement="        _plane_wave_orbit(provider, qm, ds, n_steps, state)\n",
        killers=(_OVERFLOW,),
    ),
    Mutant(
        name="the sin cos term of A2 doubled",
        path="dirachydro/dynamics.py",
        fragment="0.25 * sin0 * cos0 * y * sinc**4",
        replacement="0.5 * sin0 * cos0 * y * sinc**4",
        killers=(_PLANE_WAVE_RK4,),
    ),
    Mutant(
        name="A1 reads the cubic factor at 1.001 y",
        path="dirachydro/dynamics.py",
        fragment="cos0 * y * _cubic(y))",
        replacement="cos0 * y * _cubic(1.001 * y))",
        killers=(_PLANE_WAVE_RK4,),
    ),
    Mutant(
        name="the instability row off by one",
        path="dirachydro/dynamics.py",
        fragment="raise InstabilityError(first + int(np.argmax(bad)))",
        replacement="raise InstabilityError(first + 1 + int(np.argmax(bad)))",
        killers=(_OVERFLOW,),
    ),
    Mutant(
        name="plane waves not dispatched to their closed form",
        path="dirachydro/dynamics.py",
        fragment="    if isinstance(provider, PlaneWaveField):\n",
        replacement="    if False:\n",
        killers=(_PLANE_WAVE_RK4,),
    ),
    Mutant(
        # a half turn about x is diagonal and commutes with it: only the quarter turn sees it
        name="the plane wave's A^y with its sign flipped",
        path="dirachydro/fields.py",
        fragment="np.cos(phase)[..., np.newaxis] * self.polarization\n",
        replacement="np.cos(phase)[..., np.newaxis] * self.polarization * (1.0, -1.0, 1.0)\n",
        killers=("tests/test_fields.py::test_plane_wave_tensor_consistency",
                 "tests/test_hydro.py::"
                 "test_every_evaluator_is_covariant_under_a_quarter_turn_about_z"),
    ),
    Mutant(
        # a half turn commutes with it: the quarter turn and the y and z powers see it
        name="the polynomial potential's y-derivative with its sign flipped",
        path="dirachydro/fields.py",
        fragment="out[..., alpha] += coeff * powers[alpha] * _monomial(x, tuple(dp))",
        replacement=("out[..., alpha] += (-1.0 if alpha == 2 else 1.0) * coeff * powers[alpha]"
                     " * _monomial(x, tuple(dp))"),
        killers=("tests/test_fields.py::test_polynomial_field_exact_derivatives",
                 "tests/test_hydro.py::"
                 "test_every_evaluator_is_covariant_under_a_quarter_turn_about_z"),
    ),
    Mutant(
        name="the renderer fills only the first missing scale row",
        path="dirachydro/_floattext.py",
        fragment="_fill(np.flatnonzero(np.bincount(row[~filled])))",
        replacement="_fill(np.flatnonzero(np.bincount(row[~filled]))[:1])",
        killers=("tests/test_floattext.py::"
                 "test_a_block_of_many_binary_exponents_fills_every_scale_row_it_needs",),
    ),
    Mutant(
        name="the grid writer fills masks through np.ma unconditionally",
        path="dirachydro/io.py",
        fragment="    arr = np.asarray(values)\n",
        replacement="    arr = np.asarray(np.ma.filled(values, np.nan))\n",
        killers=("tests/test_cli.py::test_no_command_or_variational_api_call_loads_numpy_ma",),
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
    """pytest's exit status on the mutated copy: 1 killed, 0 survived, else an error.

    ``--assert=plain`` skips pytest's rewrite of every imported module's asserts,
    most of a short run's cost; a plain assert still fails, so no verdict changes.
    """
    child = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--assert=plain",
         "-o", f"pythonpath={source_root}", *mutant.killers],
        cwd=ROOT, capture_output=True, text=True,
    )
    return child.returncode


def _verdict(mutant):
    """pytest's exit status on a mutated copy of src/ of its own, and its seconds."""
    began = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        copy = Path(scratch) / "src"
        shutil.copytree(SOURCE, copy, ignore=shutil.ignore_patterns("__pycache__"))
        apply(mutant, copy)
        status = run_killers(mutant, copy)
    return status, time.perf_counter() - began


def main():
    start = time.perf_counter()
    survivors, errors = [], []
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        for mutant, (status, seconds) in zip(MUTANTS, pool.map(_verdict, MUTANTS)):
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"error (pytest exit {status})")
            print(f"{verdict:<8}  {seconds:5.1f} s  {mutant.name}", flush=True)
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
