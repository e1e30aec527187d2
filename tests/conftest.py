import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import unitary_group

from dgbs.states import SourceConfig, TransferMatrix


def haar_unitary(d: int, seed: int) -> np.ndarray:
    return unitary_group.rvs(d, random_state=np.random.default_rng(seed))


def lossy_transfer(d: int, eta: float, seed: int) -> TransferMatrix:
    return TransferMatrix.square(math.sqrt(eta) * haar_unitary(d, seed))


def benchmark_workloads():
    """The benchmark's workload builder, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "workloads", Path(__file__).resolve().parents[1] / "perfbench"
        / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_config():
    return SourceConfig(r=0.35, alpha_mag=0.7, phi=0.4,
                        squeezer_ports=(0, 1), coherent_port=2)
