"""Failure taxonomy shared across the package.

ConfigError     user input rejected (CLI exit code 1)
NumericalError  non-finite state or a failed run (exit code 2)
CheckError      a configured inequality/acceptance check failed (exit code 3)
"""


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


class CheckError(RuntimeError):
    pass
