import pytest

from whisksim.config import ExperimentConfig
from whisksim.experiment import SYNTH_SCOPE, build_labeled_dataset, resolve_profiles


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_dataset(default_config):
    """The full default-profile dataset (2100 vectors), built once."""
    profiles = resolve_profiles(default_config)
    return build_labeled_dataset(default_config, default_config.speed_m_s,
                                 profiles, SYNTH_SCOPE)
