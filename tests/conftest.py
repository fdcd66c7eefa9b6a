import json

import pytest

from acg import sampler
from acg.degree_model import load_params

BAL2_PARAMS = {
    "K": 2,
    "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
    "Q": "independent",
}

# same node law, all edge mass off the (1,1) cell
DISAS_PARAMS = {
    "K": 2,
    "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
    "Q": [[0, 0, 0], [0, 0, 1 / 3], [0, 1 / 3, 1 / 3]],
}

# same node law, full-support non-product edge law
ASSORT_PARAMS = {
    "K": 2,
    "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]],
    "Q": [[0, 0, 0], [0, 1 / 6, 1 / 6], [0, 1 / 6, 1 / 2]],
}

# full-support edge law used on its own for solver and scaling checks
SKEW_Q = [[0, 0, 0], [0, 1 / 6, 1 / 3], [0, 1 / 3, 1 / 6]]


@pytest.fixture(scope="session")
def bal2():
    return load_params(BAL2_PARAMS)


@pytest.fixture(scope="session")
def disas():
    return load_params(DISAS_PARAMS)


@pytest.fixture(scope="session")
def assort():
    return load_params(ASSORT_PARAMS)


@pytest.fixture()
def bal2_file(tmp_path):
    path = tmp_path / "bal2.json"
    path.write_text(json.dumps(BAL2_PARAMS))
    return str(path)


@pytest.fixture()
def disas_file(tmp_path):
    path = tmp_path / "disas.json"
    path.write_text(json.dumps(DISAS_PARAMS))
    return str(path)


@pytest.fixture(params=["native", "python"])
def wiring_path(request, monkeypatch):
    """Run the test with the compiled wiring kernel, then with the Python loops."""
    if request.param == "python":
        monkeypatch.setattr(sampler, "_kernel", lambda: None)
    elif sampler._kernel() is None:
        pytest.skip("no C compiler to build the wiring kernel")
    return request.param
