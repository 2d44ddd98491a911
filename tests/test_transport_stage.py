"""The one 2D transport stage against the stage bodies it replaced.

Euler, IPM and the passive scalar each step through
``operators._TransportStage``, over a velocity law of their own.  The three
reference bodies below are the stages those steppers had before they
shared one: the Euler stage class, the right-hand side of ``ipm.ipm_run``
and that of ``lagrangian.passive_scalar_evolve``.  The stage each run
hands to ``march`` must give their tendency and velocity samples bit for
bit.
"""

import numpy as np
import pytest

from eulerlab import euler2d as e2, ipm, lagrangian as lag, operators
from eulerlab.fields import SpectralField2, VectorField2, Workspace, to_coeffs, to_values
from eulerlab.grids import Grid2

GRIDS = [(16, 24), (32, 32)]


def band(g, seed):
    """Seeded mean-free coefficients on the modes the 2/3 rule keeps, well
    inside its cutoff."""
    c = to_coeffs(np.random.default_rng(seed).normal(size=g.shape))
    c *= (np.abs(g.mx)[:, None] <= g.nx // 4) & (np.abs(g.my)[None, :] <= g.ny // 4)
    c[0, 0] = 0.0
    return c


def euler_reference(g, c):
    work = Workspace()
    uc = work.array("stage.uc", g.coeff_shape, np.complex128)
    uv = [work.array(("stage.uv", i), g.shape) for i in range(2)]
    psi = operators._stream_function(c, g, operators._scratch(g, work)[0])
    u1v, u2v = (to_values(operators._velocity_component(psi, g, i, uc), v)
                for i, v in enumerate(uv))
    k = operators.transport_coeffs(c, u1v, u2v, g, None, work)
    k[0, 0] = 0.0
    return k, (u1v, u2v)


def ipm_reference(g, c):
    work = Workspace()
    symbols = ipm._velocity_symbols(g)
    uc = work.array("stage.uc", g.coeff_shape, np.complex128)
    velocity = tuple(work.array(("stage.uv", i), g.shape) for i in range(2))
    for m, v in zip(symbols, velocity):
        to_values(np.multiply(m, c, out=uc), v)
    return operators.transport_coeffs(c, *velocity, g, None, work), velocity


def frozen_reference(g, c, u):
    u1v, u2v = u.u1.values, u.u2.values
    return operators.transport_coeffs(c, u1v, u2v, g, None, Workspace()), (u1v, u2v)


class Grabbed(Exception):
    pass


def stage_of(monkeypatch, module, run, *args):
    """The stage that ``run(*args)`` hands to ``module.march``; nothing is stepped."""
    grabbed = {}

    def grab(rhs, *rest, **kwargs):
        grabbed["stage"] = rhs
        raise Grabbed

    monkeypatch.setattr(module, "march", grab)
    with pytest.raises(Grabbed):
        run(*args)
    return grabbed["stage"]


def frozen_velocity(g):
    u1c, u2c = operators.stream_velocity(band(g, 7), g)
    return VectorField2(SpectralField2(g, u1c), SpectralField2(g, u2c))


def stages(monkeypatch, g):
    """(name, stage, reference) of each stepper's stage on ``g``."""
    datum = SpectralField2(g, band(g, 1))
    u = frozen_velocity(g)
    return [
        ("euler", stage_of(monkeypatch, e2, e2.run, datum, 1.0), euler_reference),
        ("ipm", stage_of(monkeypatch, ipm, ipm.ipm_run, datum, 1.0), ipm_reference),
        ("frozen", stage_of(monkeypatch, lag, lag.passive_scalar_evolve, u, datum, 1.0),
         lambda g, c: frozen_reference(g, c, u)),
    ]


@pytest.mark.parametrize("nx, ny", GRIDS)
def test_each_law_gives_its_former_stage_bit_for_bit(monkeypatch, nx, ny):
    g = Grid2(nx, ny)
    for name, stage, reference in stages(monkeypatch, g):
        # two states in turn: the second finds the workspace the first left
        for seed in (2, 3):
            c = band(g, seed)
            out = np.empty(g.coeff_shape, np.complex128)
            k = stage(0.0, c, out)
            want_k, want_uv = reference(g, c)
            assert k is out and stage.k is k, name
            assert k.tobytes() == want_k.tobytes(), name
            for v, want in zip(stage.uv, want_uv):
                assert v.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("nx, ny", GRIDS)
def test_only_eulers_stage_zeroes_the_mean(monkeypatch, nx, ny):
    g = Grid2(nx, ny)
    c = band(g, 4)
    (_, euler, _), (_, density, _), _ = stages(monkeypatch, g)
    assert euler(0.0, c, None)[0, 0] == 0.0
    # IPM keeps the round-off mean of the transport itself
    k = density(0.0, c, None)
    own = operators.transport_coeffs(c, *density.uv, g)[0, 0]
    assert k[0, 0] == own and own != 0.0


@pytest.mark.parametrize("nx, ny", GRIDS)
def test_a_frozen_law_transforms_no_velocity(monkeypatch, nx, ny):
    g = Grid2(nx, ny)
    named = {name: stage for name, stage, _ in stages(monkeypatch, g)}
    targets, real = [], operators.to_values

    def recording(coeffs, out=None):
        targets.append(out)
        return real(coeffs, out)

    monkeypatch.setattr(operators, "to_values", recording)
    for name, stage in named.items():
        targets.clear()
        stage(0.0, band(g, 5), None)
        gradient = list(operators._scratch(g, stage.work)[1:])
        made = [] if name == "frozen" else list(stage.uv)
        assert [id(a) for a in targets] == [id(a) for a in made + gradient], name
    # and it takes no velocity coefficient scratch
    assert "stage.uc" not in named["frozen"].work._arrays
    assert "stage.uc" in named["euler"].work._arrays
