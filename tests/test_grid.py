import numpy as np
import pytest

from peqlab import PhysParams, make_grid
from peqlab.errors import ConfigError


def test_spacings():
    g = make_grid(PhysParams(lx=1.0, l=1.0, h=1.0), 4, 4, 4)
    assert g.dx == 0.5
    assert g.dy == 0.25
    assert g.dz == 0.25


def test_spacing_wide_channel():
    g = make_grid(PhysParams(lx=2.0, l=1.0, h=1.0), 8, 4, 4)
    assert g.dx == 0.5


def test_degenerate_counts_rejected():
    p = PhysParams()
    with pytest.raises(ValueError):
        make_grid(p, 8, 8, 2)
    with pytest.raises(ValueError):
        make_grid(p, 3, 8, 8)


@pytest.mark.parametrize("n", [float("nan"), float("inf")])
def test_non_integer_counts_raise_config_error(n):
    with pytest.raises(ConfigError, match=rf"^nx must be an integer >= 4, got {n!r}$"):
        make_grid(PhysParams(), n, 8, 8)


def test_cell_centers_inside_domain():
    p = PhysParams(lx=1.5, l=0.8, h=0.6)
    g = make_grid(p, 6, 5, 4)
    xs = g.x(np.arange(g.nx))
    ys = g.y(np.arange(g.ny))
    zs = g.z(np.arange(g.nz))
    assert xs[0] == -p.lx + g.dx / 2 and xs[-1] == pytest.approx(p.lx - g.dx / 2)
    assert (ys > 0).all() and (ys < p.l).all()
    assert (zs > -p.h).all() and (zs < 0).all()


def test_params_validation():
    with pytest.raises(ValueError):
        PhysParams(alpha=-1.0)
    with pytest.raises(ValueError):
        PhysParams(re1=0.0)
    # f0 and beta may be any sign
    PhysParams(f0=-1.0, beta=0.0)
