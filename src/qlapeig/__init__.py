"""qlapeig: desk-scale, circuit-level simulation and verification of quantum
spectral extraction for graph Laplacians of fully connected weighted graphs.

The package builds block-encodings of the weight, degree, and Laplacian
operators from purification pipelines over a hybrid statevector /
labeled-branch simulator, runs block-Hamiltonian simulation and phase
estimation on the maximally mixed input, and checks every construction
against exact classical linear algebra.
"""

from .arith import exp_neg_lambda_bound
from .blockenc import (BlockEncoding, StatePreparationPair, dilate,
                       encode_barL_unit_norm, encode_calL, encode_W_over_n,
                       identity_mixture_encoding, lcu_combine,
                       make_signed_pair, purified_density_encoding,
                       sandwich_negative_power, verify_block_encoding)
from .graph import (GraphMatrices, KernelParams, SpectralReference, VertexSet,
                    build_graph, build_laplacians, build_taylor_weight_matrix,
                    build_weight_matrix, classical_eigensolve,
                    truncation_error_report)
from .harness import RunConfig, run, verify_suite
from .sim import (DensityOperator, FixedPointSpec, Register, RegisterLayout,
                  SimState, operator_norm_distance, partial_trace,
                  sample_measurement)
from .simulation import SimulationConfig, simulate_hamiltonian
from .spectral import (PipelineConfig, QpeConfig, SpectralResult,
                       extract_d_smallest, full_pipeline,
                       recover_Lr_eigenvectors, run_qpe)
from .stateprep import (AmplificationStats, EstimatorConfig, ErrorBudget,
                        PrepConfig, QramOracle, amplitude_amplification,
                        apply_R_U, build_degree_state, build_phi_state,
                        build_psi_state, distance_estimation,
                        inner_product_estimation)

__version__ = "0.1.0"
