"""The linear-solve seam: one ``krylov_solve`` over a *system* -- the
serial ``LocalSystem`` or a ``DistributedSystem`` -- with one
``(method, variant)`` table behind both."""

import numpy as np
import pytest

from repro.core import (
    DeepFlameSolver,
    IdealGasProperties,
    NoChemistry,
    SolverSettings,
    build_tgv_case,
)
from repro.dist import Decomposition, DistributedSystem, solve_distributed
from repro.fv import VolField, fvm_laplacian
from repro.runtime import SimulatedComm
from repro.solvers import LocalSystem, SolverControls, krylov_solve
from tests.conftest import make_laplacian_ldu

TIGHT = SolverControls(tolerance=1e-12, max_iterations=800)


def _convective(mesh):
    """An asymmetric (PBiCGStab) operator that is a function of the
    mesh alone, so the 1-rank local assembly reproduces the global one."""
    a = make_laplacian_ldu(mesh, shift=0.5)
    a.lower *= 0.7
    return a


class TestOneSeamTwoSystems:
    @pytest.mark.parametrize("variant", ["synchronous", "overlapped"])
    @pytest.mark.parametrize("k", [1, 3])
    def test_local_matches_one_rank_distributed(self, box_mesh, k, variant):
        """Jacobi-preconditioned PBiCGStab through both systems of the
        same operator: same iteration counts, same solution."""
        dec = Decomposition.from_mesh(box_mesh, 1)
        sub, = dec.subdomains
        dist = DistributedSystem(dec, SimulatedComm(1),
                                 [_convective(sub.mesh)])
        local = LocalSystem(_convective(box_mesh))
        assert (dist.n, dist.nnz) == (local.n, local.nnz)
        b = np.random.default_rng(k).standard_normal((local.n, k))
        x_l, res_l = krylov_solve(local, b, solver="PBiCGStab",
                                  variant=variant, controls=TIGHT)
        x_d, res_d = krylov_solve(dist, b[sub.owned_global],
                                  solver="PBiCGStab", variant=variant,
                                  controls=TIGHT)
        assert all(r.converged for r in res_l)
        assert [r.iterations for r in res_d] == [r.iterations for r in res_l]
        assert np.abs(x_d - x_l[sub.owned_global]).max() \
            <= 1e-12 * np.abs(x_l).max()
        if np.array_equal(sub.owned_global, np.arange(local.n)):
            np.testing.assert_array_equal(x_d, x_l)   # identity numbering

    def test_unknown_names_raise_the_same_error_on_both_paths(self, box_mesh):
        dec = Decomposition.from_mesh(box_mesh, 2)
        system = DistributedSystem(
            dec, SimulatedComm(2),
            [make_laplacian_ldu(s.mesh) for s in dec.subdomains])
        eqn = fvm_laplacian(1.0, VolField("p", box_mesh,
                                          np.zeros(box_mesh.n_cells))) * -1.0
        for bad in ({"solver": "GMRES"},
                    {"solver": "PCG", "variant": "bogus"}):
            with pytest.raises(ValueError) as serial:
                eqn.solve(**bad)
            with pytest.raises(ValueError) as decomposed:
                solve_distributed(system, np.ones((system.n, 1)), **bad)
            assert str(serial.value) == str(decomposed.value)
            assert all(repr(v) in str(serial.value) for v in bad.values())


class TestSerialHonoursTheVariant:
    def test_overlapped_agrees_with_synchronous(self, mech):
        """``settings.krylov_variant`` reaches the serial solves: the
        fused / pipelined bodies run (their results say so) and the
        step agrees with the synchronous one."""
        solvers, seen = {}, []
        for variant in ("synchronous", "overlapped"):
            s = solvers[variant] = DeepFlameSolver(
                build_tgv_case(n=6, mech=mech),
                SolverSettings(krylov_variant=variant),
                properties=IdealGasProperties(mech), chemistry=NoChemistry())
            if variant == "overlapped":
                inner = s._solve

                def spy(eqns, solver, controls):
                    xs, results = inner(eqns, solver, controls)
                    seen.extend(results)
                    return xs, results

                s._solve = spy
            s.run(3, 1e-8)
        assert seen and all("reduction_groups" in r.details for r in seen)
        sync, ovl = solvers["synchronous"], solvers["overlapped"]
        diffs = {name: np.abs(got - ref).max() for name, got, ref in (
            ("y", ovl.y, sync.y), ("T", ovl.temperature, sync.temperature),
            ("u", ovl.u.values, sync.u.values),
            ("p", ovl.p.values, sync.p.values), ("h", ovl.h, sync.h))}
        assert all(d <= 1e-8 for d in diffs.values()), diffs
