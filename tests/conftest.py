import os
from pathlib import Path

import numpy as np
import pytest

import trimarket
from trimarket.model import default_config
from trimarket.scenarios import SynthSpec, run_scenario, synth_data


@pytest.fixture(scope="session", autouse=True)
def _child_pythonpath():
    # tests that start `python -m trimarket.cli` need the package under test
    # importable in the child, also when only pytest's pythonpath found it
    src = str(Path(trimarket.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        yield


@pytest.fixture(scope="session")
def base_cfg():
    return default_config(168)


@pytest.fixture(scope="session")
def base_data():
    return synth_data(SynthSpec())


@pytest.fixture(scope="session")
def base_result(base_cfg, base_data):
    # shared across tests; nothing mutates it
    return run_scenario(base_cfg, base_data, properties="full")


@pytest.fixture(scope="session")
def uncapped_cfg(base_cfg):
    return base_cfg.with_caps(g_cap=np.inf, r_cap=np.inf, c_cap=np.inf)


@pytest.fixture(scope="session")
def uncapped_result(uncapped_cfg, base_data):
    return run_scenario(uncapped_cfg, base_data, properties="core")
