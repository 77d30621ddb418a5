"""Every record of the package keeps the frozen-record contract of ``_record``.

The records are found by importing every module of the package, so a new
record is checked as soon as it exists, and it fails here until it has an
example in ``_EXAMPLES``.
"""

import importlib
import pkgutil

import numpy as np
import pytest

import dirachydro
from dirachydro._record import Record
from dirachydro.fields import ELECTRON, Particle, ScalarPolynomial, UniformField
from dirachydro.grids import GridSpec
from dirachydro.spinors import KinematicParams


def _records():
    found = {}
    for module in pkgutil.iter_modules(dirachydro.__path__):
        namespace = vars(importlib.import_module(f"dirachydro.{module.name}"))
        for value in namespace.values():
            if (isinstance(value, type) and issubclass(value, Record) and value is not Record
                    and value.__module__ == f"dirachydro.{module.name}"):
                found[value.__qualname__] = value
    return [found[name] for name in sorted(found)]


_LINE = GridSpec(active_axes=(1,), shape=(5,), spacing=(0.1,))

# per record: a valid value for every field, by name
_EXAMPLES = {
    "BilinearSet": {"scalar": np.ones(3), "vector": np.zeros((3, 4))},
    "CrossedField": {"E0": (0.1, 0.0, 0.0), "B0": (0.0, 0.0, 0.5)},
    "DynState": {"x": (0.0, 1.0, 0.0, 0.0), "u": (1.0, 0.0, 0.0, 0.0), "s_rest": (0.0, 0.0, 1.0)},
    "FirstOrderResiduals": {"continuity": np.zeros(3), "hamilton_jacobi": np.ones(3)},
    "FunctionalReport": {"fisher_term": 1.0, "lagrangian_term": 2.0, "total": 3.0,
                         "volume_element": 0.01, "fisher_information": 0.5},
    "GaugeShiftedProvider": {"base": UniformField(),
                             "gauge_function": ScalarPolynomial(((1.0, (0, 1, 0, 0)),))},
    "GridSpec": {"active_axes": (0, 2), "shape": (5, 6), "spacing": (0.1, 0.2),
                 "origin": (1.0, 0.0, 0.0, 0.0), "start": 2},
    "HydroFieldSet": {"spec": _LINE, "rho": np.ones(5), "S": np.zeros(5),
                      "params": KinematicParams(*[np.full(5, 0.5)] * 5), "kind": "antiparticle"},
    "KinematicParams": {"chi": 0.5, "theta_u": 0.3, "phi": 0.2, "theta": 1.0, "eta0": 0.1},
    "LagrangianBreakdown": {"mass": 1.0, "coupling": 2.0, "phase": 3.0, "sigma12": 4.0,
                            "spin_vorticity": 5.0},
    "Particle": {"mass": 2.0, "charge": 0.5, "hbar": 1.5},
    "PlaneWaveField": {"wave_vector": (2.0, 0.0, 0.0, 2.0), "polarization": (0.0, 3.0, 0.0),
                       "amplitude": 0.3},
    "PolynomialField": {"terms": {1: [(0.3, (2, 1, 0, 0))]}},
    "PrecessionFit": {"omega": 1.0, "axis": np.array([0.0, 0.0, 1.0]), "rms_residual": 0.0,
                      "total_angle": 6.5},
    "ScalarPolynomial": {"terms": ((0.5, (1, 0, 0, 0)),)},
    "SecondOrderResiduals": {"continuity": np.zeros(3), "qhj": np.ones(3),
                             "qhj_imag": np.zeros(3)},
    "SuiteResult": {"name": "clifford", "seed": 1, "samples": 10, "checks": {}},
    "Trajectory": {"table": np.zeros((3, 12))},
    "UniformField": {"E0": (0.1, 0.0, 0.0), "B0": (0.0, 0.2, 0.0)},
}
# attributes a record sets in __init__ besides its fields
_PRIVATE = {"PlaneWaveField": ("_antisym",)}


def test_the_package_has_its_records():
    assert [cls.__qualname__ for cls in _records()] == sorted(_EXAMPLES)


@pytest.mark.parametrize("cls", _records(), ids=lambda cls: cls.__qualname__)
def test_every_record_keeps_the_frozen_record_contract(cls):
    """Construction, defaults, refused assignment, ``vars()`` and ``repr``."""
    example = _EXAMPLES[cls.__qualname__]
    fields = cls._fields
    private = _PRIVATE.get(cls.__qualname__, ())
    assert sorted(example) == sorted(fields)
    positional = [example[name] for name in fields]
    record = cls(**example)
    mixed = cls(*positional[:1], **{name: example[name] for name in fields[1:]})
    assert repr(cls(*positional)) == repr(mixed) == repr(record)

    required = {name: value for name, value in example.items() if name not in cls._defaults}
    assert repr(cls(**required)) == repr(cls(**required, **cls._defaults))
    with pytest.raises(TypeError, match="unexpected keyword argument 'unknown'"):
        cls(**example, unknown=None)
    with pytest.raises(TypeError, match="positional arguments"):
        cls(*positional, None)
    with pytest.raises(TypeError, match=f"multiple values for keyword argument '{fields[0]}'"):
        cls(*positional, **{fields[0]: example[fields[0]]})
    if required:
        with pytest.raises(TypeError, match=f"missing required argument '{next(iter(required))}'"):
            cls()

    assert list(vars(record)) == [*fields, *private]
    for name in (*fields, "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, example.get(name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert list(vars(record)) == [*fields, *private]

    text = repr(record)
    assert text.startswith(f"{cls.__qualname__}(")
    assert all(f"{name}=" in text for name in fields)
    assert not any(f"{name}=" in text for name in private)


def test_grid_spec_and_particle_compare_and_hash_by_their_fields():
    """Equal fields in one class: equal and one hash; any field, the last too, tells apart."""
    spec = GridSpec(active_axes=(0, 1), shape=(5, 5), spacing=(0.1, 0.1))
    same = GridSpec([0, 1], [5, 5], [0.1, 0.1], (0, 0, 0, 0), 0)
    assert spec == same and hash(spec) == hash(same)
    assert {spec: "grid"}[same] == "grid"
    for other in (GridSpec(active_axes=(0, 1), shape=(5, 5), spacing=(0.1, 0.2)),
                  GridSpec(active_axes=(0, 1), shape=(5, 5), spacing=(0.1, 0.1), start=1)):
        assert spec != other and hash(spec) != hash(other)

    assert Particle() == ELECTRON and hash(Particle()) == hash(ELECTRON)
    assert (ELECTRON.mass, ELECTRON.charge, ELECTRON.hbar) == (1.0, -1.0, 1.0)
    assert Particle(hbar=2.0) != ELECTRON and Particle(mass=2.0) != ELECTRON
    assert hash(Particle(hbar=2.0)) != hash(ELECTRON)
    # another class, or the bare tuple of the fields, is never equal
    assert ELECTRON != (1.0, -1.0, 1.0) and ELECTRON != UniformField()
