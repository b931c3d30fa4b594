"""Shared exception types.

Each class is one exit code of the CLI, so the class a module raises
alone decides how a failure ends: ConfigError 2, SimulationDiverged 3,
AudioFormatError and ModelFormatError 4.
"""


class ConfigError(ValueError):
    """Bad parameter, config file, override, coefficient list or signal."""


class SimulationDiverged(RuntimeError):
    """A state variable or the training loss went non-finite."""


class AudioFormatError(ValueError):
    """WAV container exists but cannot be used (encoding, channels, rate)."""


class ModelFormatError(ValueError):
    """Persisted classifier file is malformed or inconsistent."""
