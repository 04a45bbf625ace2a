"""Non-uniform concatenated stabilizer codes: constructions, staircase
gate gadgets, oracle verification, and exhaustive fault-tolerance checks."""

__version__ = "0.1.0"   # set before the imports: report.py reads it

from .catalog import Catalog, default_catalog, dump_catalog, parse_catalog
from .circuits import GadgetCircuit, SynthesisError, circuit_from_text, circuit_to_text
from .codes import (LookupDecoder, StabilizerCode, build_decoder, distance,
                    five_prime, five_qubit, min_weight_logical, reed_muller_15,
                    steane, transform_code)
from .concat import (Layout, bare_layout, concatenated_distance, flatten,
                     non_uniform_layout, parse_layout, uniform_layout)
from .faults import (FaultLocation, FaultReport, check_single_fault_ft,
                     effective_distance_report, enumerate_locations,
                     find_min_uncorrectable, propagate)
from .gates import Gate, diagonal_gate, gate
from .library import AdmissionError, GadgetLibrary, logical_gate, verify_gadget
from .pauli import Pauli
from .simulate import (Certificate, apply_circuit, verify_clifford_action,
                       verify_diagonal_action, verify_logical_action)
