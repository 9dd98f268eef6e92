"""One check per input: every front end gives a bad input one answer.

A sweep or matrix reaches the layer that checks its inputs — the spec
classes and the grid builders — from the library, from ``repro sweep``
/ ``repro matrix`` / ``repro submit`` and from the daemon's ``POST
/jobs``. Each row below is one bad input; every front end must reject
it with the same underlying message: the library with a
``ConfigurationError``, the CLI with a one-line ``SystemExit`` and no
traceback, the daemon with a 400 before any job is created.
"""

import json

import pytest

from repro import units
from repro.analysis.competition import compile_matrix_plan
from repro.analysis.plan import run_plan
from repro.analysis.sweep import sweep_rate_delay
from repro.cli import main
from repro.errors import ConfigurationError, ServiceError
from repro.service import (JobSpec, ServiceClient, SweepService,
                           serve_background)
from repro.spec import CCASpec, ScenarioSpec, single_flow_scenario
from repro.store import ResultStore

SWEEP = {"cca": "vegas", "rates_mbps": [2.0], "rm_ms": 40.0,
         "duration": 2.0}
MATRIX = {"ccas": ["vegas", "reno"], "rate_mbps": 10.0, "rm_ms": 40.0,
          "duration": 2.0}


def _lossy_template():
    doc = single_flow_scenario(CCASpec("vegas"), rate=units.mbps(2),
                               rm=0.04).to_json()
    doc["flows"][0]["data_elements"] = [
        {"kind": "random_loss", "params": {"loss_prob": 2.0}}]
    return doc


#: (row id, kind, params overriding SWEEP / MATRIX, message fragment).
ROWS = [
    ("rate-0", "sweep", {"rates_mbps": [0.0]}, "sweep rate must be > 0"),
    ("rate-negative", "sweep", {"rates_mbps": [-2.0]},
     "sweep rate must be > 0"),
    ("rate-nan", "sweep", {"rates_mbps": [float("nan")]},
     "sweep rate must be finite"),
    ("rates-repeat", "sweep", {"rates_mbps": [2.0, 2.0]},
     "sweep rates repeat the point 2mbps"),
    ("rates-repeat-after-format", "sweep",
     {"rates_mbps": [2.0, 2.0000001]},
     "sweep rates repeat the point 2mbps"),
    ("duration-0", "sweep", {"duration": 0.0}, "duration must be > 0"),
    ("duration-negative", "sweep", {"duration": -1.0},
     "duration must be > 0"),
    ("rm-0", "sweep", {"rm_ms": 0.0}, "rm must be > 0"),
    ("warmup-1", "sweep", {"warmup_fraction": 1.0},
     "warmup_fraction must be in [0, 1)"),
    ("unknown-cca", "sweep", {"cca": "nope"}, "unknown CCA 'nope'"),
    ("duplicate-matrix-cca", "matrix", {"ccas": ["vegas", "vegas"]},
     "duplicate CCA names"),
    ("template-bad-element", "sweep", {"template": _lossy_template()},
     "bad params for element 'random_loss'"),
]


def _library(kind, params):
    """Run the row through the library's own entry point."""
    if kind == "sweep":
        template = params.get("template")
        sweep_rate_delay(
            params["cca"], params["rates_mbps"], units.ms(params["rm_ms"]),
            duration=params["duration"],
            warmup_fraction=params.get("warmup_fraction", 0.5),
            template=(None if template is None
                      else ScenarioSpec.from_json(template)))
    else:
        run_plan(compile_matrix_plan(**params))


def _cli_args(kind, params, tmp_path):
    """The verb's flags for the row, or None when no flag spells it."""
    if "warmup_fraction" in params:
        return None
    if kind == "matrix":
        return ["--ccas", ",".join(params["ccas"]),
                "--rate", str(params["rate_mbps"]),
                "--rm", str(params["rm_ms"]),
                "--duration", str(params["duration"])]
    args = ["--cca", params["cca"],
            "--rates", ",".join(repr(r) for r in params["rates_mbps"]),
            "--rm", str(params["rm_ms"]),
            "--duration", str(params["duration"])]
    if "template" in params:
        path = tmp_path / "template.json"
        path.write_text(json.dumps(params["template"]))
        args += ["--spec", str(path)]
    return args


def _exit_message(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    message = excinfo.value.code
    assert isinstance(message, str), message
    assert "\n" not in message and "Traceback" not in message
    return message


@pytest.fixture
def daemon(tmp_path):
    service = SweepService(str(tmp_path / "jobs"),
                           ResultStore(str(tmp_path / "cache")))
    server = serve_background(service)
    try:
        yield service, f"http://127.0.0.1:{server.port}"
    finally:
        server.close()


@pytest.mark.parametrize("kind, override, fragment",
                         [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_every_front_end_gives_one_message(kind, override, fragment,
                                           daemon, tmp_path):
    params = {**(SWEEP if kind == "sweep" else MATRIX), **override}
    with pytest.raises(ConfigurationError) as excinfo:
        _library(kind, params)
    message = str(excinfo.value)
    assert fragment in message

    service, url = daemon
    client = ServiceClient(url, timeout=30.0)
    with pytest.raises(ServiceError) as excinfo:
        client.submit(JobSpec.from_json({"kind": kind, **params}))
    assert excinfo.value.status == 400
    assert str(excinfo.value).endswith(message)
    assert service.list_jobs() == []

    args = _cli_args(kind, params, tmp_path)
    if args is None:
        return
    assert _exit_message([kind, *args]) == f"repro {kind}: {message}"
    submitted = _exit_message(["submit", kind, *args, "--url", url])
    assert submitted.startswith("repro submit: ")
    assert submitted.endswith(message)
    assert service.list_jobs() == []
