"""repro: reproduction of "Deep Learning-Enabled Supercritical Flame
Simulation at Detailed Chemistry and Real-Fluid Accuracy Towards
Trillion-Cell Scale" (SC '25).

Subpackages
-----------
``chemistry``
    Detailed kinetics: 17-species/44-reaction LOX/CH4 mechanism,
    NASA-7 thermo, stiff BDF/Rosenbrock integrators, reactors,
    the batched chemistry backends.
``thermo``
    Peng-Robinson / SRK real-fluid EoS, departure functions,
    high-pressure transport.
``mesh``
    Unstructured meshes (TGV box, rocket combustor), graphs,
    Cuthill-McKee renumbering, runtime refinement.
``partition``
    Multilevel recursive-bisection partitioner (SCOTCH substitute),
    two-level process x thread decomposition.
``sparse``
    LDU and t x t block-CSR formats, SpMV, Gauss-Seidel.
``solvers``
    PCG, PBiCGStab, GAMG, DIC/Jacobi/GS preconditioning.
``fv``
    Implicit/explicit finite-volume operators, boundary conditions,
    conflict-avoiding parallel assembly.
``dnn``
    From-scratch MLP stack: training, FP16 emulation, GeLU
    tabulation, ODENet and PRNet surrogates, inference engine.
``dist``
    Domain-decomposed execution: subdomains with halo layers, packed
    halo exchange, distributed blocked Krylov, the decomposed solver
    (each rank advances the chemistry of the cells it owns).
``runtime``
    Machine models of Sunway/Fugaku/LS, communication cost model,
    calibrated performance model, scaling drivers.
``io``
    Collated files, Foam file indexing, grouped parallel I/O,
    runtime-refinement pipeline.
``core``
    The DeepFlame solver and the TGV / rocket cases.

The subpackages re-export nothing: import each name from the module
that defines it (``from repro.core.settings import build_solver``), so
a process loads only the modules it runs.
"""

__version__ = "1.2.0"

from . import constants  # noqa: F401

__all__ = ["constants", "__version__"]
