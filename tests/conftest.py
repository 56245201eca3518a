"""Session fixtures shared by the test modules."""

import os

import pytest

from repro.core.cache import ResultStore
from repro.experiments import ExperimentOptions, build_runner, experiment_names, run_experiment


@pytest.fixture(scope="session")
def warm_store_dir(tmp_path_factory):
    """A store holding every registered experiment assembled at scale 0.1,
    together with the job results and traces behind it.

    The CLI schema goldens, the read API suite and the experiment tests all
    read this one store, so the 11 reduced-scale experiments run once per
    session.  Honouring $REPRO_SWEEP_CACHE_DIR means CI (and any dev box
    that sets it) answers from its warm cache instead.
    """
    root = os.environ.get("REPRO_SWEEP_CACHE_DIR") or str(tmp_path_factory.mktemp("warm-store"))
    runner = build_runner(store=ResultStore(root))
    try:
        for name in experiment_names():
            run_experiment(name, runner=runner, options=ExperimentOptions(scale=0.1))
    finally:
        runner.engine.close()
    return root
