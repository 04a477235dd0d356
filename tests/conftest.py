from types import SimpleNamespace

import numpy as np
import pytest

from condflow.config import StudyConfig
from condflow.covariance import KernelParams, assemble_covariance
from condflow.grid import make_grid
from condflow.kle import solve_kle
from condflow.study import default_reference_field_path, read_measurements


@pytest.fixture(scope="session")
def fine_grid():
    return make_grid(16, 16)


@pytest.fixture(scope="session")
def coarse_grid():
    return make_grid(8, 8)


@pytest.fixture(scope="session")
def kernel_params():
    return KernelParams(sigma2=1.0, lx=0.4, ly=0.8)


@pytest.fixture(scope="session")
def fine_cov(fine_grid, kernel_params):
    return assemble_covariance(fine_grid, kernel_params)


@pytest.fixture(scope="session")
def basis20(fine_cov, fine_grid):
    return solve_kle(fine_cov, fine_grid, 20)


@pytest.fixture(scope="session")
def measurements():
    return read_measurements(StudyConfig())


@pytest.fixture(scope="session")
def reference_field(fine_grid):
    from condflow.grid import read_field_csv

    return read_field_csv(default_reference_field_path(), fine_grid)


@pytest.fixture
def plant_in_dpbsv(monkeypatch):
    """``plant(move)`` makes every LAPACK ``dpbsv`` call of condflow.darcy
    hand its solution to ``move`` before darcy reads it: a wrong LAPACK
    result, which ``darcy._solve``'s backward-error gate must catch.
    ``move`` gets the solution of the call's fields, without the unit
    rows that pad the stack, as a view to change in place."""
    from condflow import darcy

    lapack = darcy._lapack()

    def plant(move):
        def dpbsv(ab, b, **kwargs):
            c, x, info = lapack.dpbsv(ab, b, **kwargs)
            u = ab.shape[0] - 1  # ab is (u + 1, rows + u)
            move(x[:ab.shape[1] - u])
            return c, x, info

        monkeypatch.setattr(darcy, "_lapack",
                            lambda: SimpleNamespace(dpbsv=dpbsv))

    return plant
