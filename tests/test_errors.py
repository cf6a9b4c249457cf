"""Exception hierarchy contracts."""

import pytest

from repro import errors


ALL_ERRORS = [
    errors.ConfigurationError,
    errors.ModelNotFoundError,
    errors.FrequencyError,
    errors.PowerCapError,
    errors.CapacityError,
    errors.SimulationError,
    errors.TraceError,
]


@pytest.mark.parametrize("exc", ALL_ERRORS)
def test_all_errors_derive_from_repro_error(exc):
    assert issubclass(exc, errors.ReproError)


def test_model_not_found_is_configuration_error():
    assert issubclass(errors.ModelNotFoundError, errors.ConfigurationError)


def test_frequency_and_power_cap_are_configuration_errors():
    assert issubclass(errors.FrequencyError, errors.ConfigurationError)
    assert issubclass(errors.PowerCapError, errors.ConfigurationError)


def test_catching_base_class_catches_subsystem_errors():
    with pytest.raises(errors.ReproError):
        raise errors.SimulationError("inconsistent state")
