"""Bit-exact CIC decimation: streaming engine, response analysis, droop
compensation and a pin-level chip simulator."""

from .core import (
    CicConfig,
    ConfigError,
    DecimatorState,
    DifferentialDelayWarning,
    InputRangeError,
    boxcar_power,
    gain,
    reference_decimate,
    required_width,
)
from .analysis import (
    DB_FLOOR,
    DomainError,
    ResponseCurve,
    alias_attenuation,
    magnitude,
    null_frequencies,
    passband_droop,
    phase,
    response_curve,
    to_db,
)
from .compensator import (
    FirFilter,
    composite_response,
    design_compensator,
    passband_deviation_db,
)
from .chip import ChipModel, PinInputs, PinOutputs, ProtocolError, run_trace
from .sdm import OUTPUT_BITS, SigmaDeltaModulator

__version__ = "0.1.0"

__all__ = [
    "CicConfig",
    "ConfigError",
    "DecimatorState",
    "DifferentialDelayWarning",
    "InputRangeError",
    "boxcar_power",
    "gain",
    "reference_decimate",
    "required_width",
    "DB_FLOOR",
    "DomainError",
    "ResponseCurve",
    "alias_attenuation",
    "magnitude",
    "null_frequencies",
    "passband_droop",
    "phase",
    "response_curve",
    "to_db",
    "FirFilter",
    "composite_response",
    "design_compensator",
    "passband_deviation_db",
    "ChipModel",
    "PinInputs",
    "PinOutputs",
    "ProtocolError",
    "run_trace",
    "OUTPUT_BITS",
    "SigmaDeltaModulator",
]
