"""Repository self-consistency: docs reference real artifacts.

Guards against the usual doc rot: every bench module, example script,
and CCA named in DESIGN.md / EXPERIMENTS.md / README.md must exist, and
the public packages must export what the docs promise.
"""

import os
import re

import pytest


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(name):
    with open(os.path.join(REPO, name)) as handle:
        return handle.read()


def test_design_bench_references_exist():
    text = read("DESIGN.md") + read("EXPERIMENTS.md")
    for match in set(re.findall(r"test_[a-z0-9_]+\.py", text)):
        candidates = [os.path.join(REPO, "benchmarks", match),
                      os.path.join(REPO, "tests", match)]
        assert any(os.path.exists(p) for p in candidates), \
            f"DESIGN/EXPERIMENTS references missing module {match}"


def test_readme_examples_exist():
    text = read("README.md")
    for match in set(re.findall(r"examples/([a-z_]+\.py)", text)):
        assert os.path.exists(os.path.join(REPO, "examples", match)), \
            f"README references missing example {match}"


def test_every_bench_module_has_a_test_function():
    bench_dir = os.path.join(REPO, "benchmarks")
    for name in os.listdir(bench_dir):
        if name.startswith("test_") and name.endswith(".py"):
            with open(os.path.join(bench_dir, name)) as handle:
                assert "def test_" in handle.read(), name


def test_public_cca_exports():
    """``repro.ccas`` exports the base classes and the paper's name
    lists; every CCA is reached through its registry name."""
    import repro.ccas as ccas
    from repro import resolve
    from repro.ccas import registry
    assert sorted(ccas.__all__) == ["CCA", "DELAY_CONVERGENT",
                                    "LOSS_BASED", "RateCCA", "WindowCCA"]
    classes = {resolve(registry.entry(name).path)[0].__name__
               for name in registry.names()}
    assert classes == {"Vegas", "FastTCP", "Copa", "BBR", "Vivace",
                       "Allegro", "NewReno", "Cubic", "Ledbat", "Verus",
                       "JitterAware", "DelayAimd", "EcnAimd",
                       "WindowTarget"}


def _catalog_rows():
    from repro.ccas import registry
    from repro.spec import ELEMENTS
    return ([pytest.param(registry.entry(name).path, name in
                          ("allegro", "bbr"), id=f"cca-{name}")
             for name in registry.names()]
            + [pytest.param(row.path, kind in ("random_loss",
                                               "gilbert_elliott",
                                               "reorder", "duplicate"),
                            id=f"element-{kind}")
               for kind, row in ELEMENTS.items()])


@pytest.mark.parametrize("path, seeded", _catalog_rows())
def test_catalog_row_resolves_to_what_it_names(path, seeded):
    """A catalog row is a ``module:QualName`` path: it resolves to the
    object at that path, and it is ``seeded`` exactly when that object
    takes a ``seed`` (the stochastic CCAs and elements)."""
    import importlib
    import inspect

    from repro import resolve
    resolved, resolved_seeded = resolve(path)
    module, _, qualname = path.partition(":")
    expected = importlib.import_module(module)
    for name in qualname.split("."):
        expected = getattr(expected, name)
    assert resolved == expected
    assert (resolved.__module__, resolved.__qualname__) == (module,
                                                            qualname)
    assert resolved_seeded == \
        ("seed" in inspect.signature(resolved).parameters) == seeded


def test_sim_exports_one_builder_and_one_run():
    """``build_topology`` is the one builder and ``ScenarioSpec.run``
    the one run: the simulator exports no second scenario vocabulary
    (the spec classes are the only one) and no ``sim.run``."""
    import repro.sim as sim
    assert sorted(sim.__all__) == [
        "Ack", "AckInfo", "BottleneckQueue", "Event", "FlowStats",
        "InvariantSentinel", "InvariantWarning", "Packet", "Receiver",
        "RunResult", "Scenario", "Sender", "Simulator", "build_topology",
        "override_mode", "resolve_mode"]
    assert not hasattr(sim, "run")


def test_spec_run_builds_through_the_rebindable_seam(monkeypatch):
    """The benchmark's coarse-recorder probe rebinds ``build_topology``
    on ``network`` and ``runner`` with this wrapper, and its tracer
    wraps the name on ``network``, ``runner`` and ``spec.scenario``. If
    ``ScenarioSpec.run`` stopped building through ``runner``, the probe
    would measure nothing without failing."""
    from repro import units
    from repro.sim import network, runner
    from repro.spec import CCASpec, FlowSpec, LinkSpec, ScenarioSpec
    from repro.spec import scenario

    for module in (network, runner, scenario):
        assert callable(vars(module)["build_topology"]), module.__name__
    spec = ScenarioSpec(link=LinkSpec(rate=units.mbps(12)),
                        flows=(FlowSpec(cca=CCASpec("vegas"),
                                        rm=units.ms(40)),),
                        sample_interval=0.01)

    def samples():
        return len(spec.run(duration=2.0).scenario.flows[0]
                   .recorder.sample_times)

    original = network.build_topology

    def build(links, flows, sample_interval=0.05, **kwargs):
        return original(links, flows,
                        sample_interval=sample_interval * 10, **kwargs)

    fine = samples()
    monkeypatch.setattr(runner, "build_topology", build)
    assert samples() < fine


def test_delay_convergent_registry_matches_paper_list():
    """The paper's Section 2.2 list (Vegas, FAST, Sprout*, BBR,
    PCC Vivace, Copa, PCC Proteus*, Verus) intersected with what we
    implement must all be registered as delay-convergent.
    (* not implemented; documented in DESIGN.md.)"""
    from repro import resolve
    from repro.ccas import DELAY_CONVERGENT, LOSS_BASED, registry

    def classes(names):
        return {resolve(registry.entry(name).path)[0].__name__
                for name in names}

    assert {"vegas", "fast", "copa", "bbr", "vivace",
            "verus"} <= set(DELAY_CONVERGENT)
    assert {"reno", "cubic"} <= set(LOSS_BASED)
    assert not set(DELAY_CONVERGENT) & set(LOSS_BASED)
    assert {"Vegas", "FastTCP", "Copa", "BBR", "Vivace",
            "Verus"} <= classes(DELAY_CONVERGENT)
    assert {"NewReno", "Cubic"} <= classes(LOSS_BASED)


def test_examples_are_executable_scripts():
    example_dir = os.path.join(REPO, "examples")
    for name in os.listdir(example_dir):
        if name.endswith(".py"):
            with open(os.path.join(example_dir, name)) as handle:
                text = handle.read()
            assert text.startswith("#!/usr/bin/env python3"), name
            assert '__name__ == "__main__"' in text, name
            assert '"""' in text, f"{name} missing a docstring"


def test_every_public_module_has_docstring():
    import importlib
    import pkgutil

    import repro

    for module_info in pkgutil.walk_packages(repro.__path__,
                                             prefix="repro."):
        module = importlib.import_module(module_info.name)
        assert module.__doc__, f"{module_info.name} missing docstring"


def test_version_single_source():
    """pyproject.toml must defer to repro.__version__, not pin its own.

    The store's cache-key fingerprint embeds ``repro.__version__``; a
    second version declared anywhere else could silently drift and
    leave stale cache entries looking current.
    """
    import repro

    assert re.fullmatch(r"\d+\.\d+\.\d+", repro.__version__)
    assert "__version__" in repro.__all__
    pyproject = read("pyproject.toml")
    assert 'dynamic = ["version"]' in pyproject
    assert 'version = {attr = "repro.__version__"}' in pyproject
    assert re.search(r'^version\s*=\s*"', pyproject,
                     re.MULTILINE) is None
