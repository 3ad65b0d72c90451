"""Ordered CLI structure pinned to literal lists.

Other tests compare check names as sets; these lists fix the order in which
``verify`` emits its rows and ``solve`` lists its waves, one config per fan
variant plus a single contact with A > 0.
"""

import pytest

from test_cli import run_json

WEAK = [
    "weak.psi0.mass",
    "weak.psi0.momentum",
    "weak.psi1.mass",
    "weak.psi1.momentum",
    "weak.psi2.mass",
    "weak.psi2.momentum",
    "weak.psi3.mass",
    "weak.psi3.momentum",
    "weak.psi4.mass",
    "weak.psi4.momentum",
]
RH_J = [
    "rh.J.mass.t0",
    "rh.J.momentum.t0",
    "rh.J.mass.t1",
    "rh.J.momentum.t1",
    "rh.J.mass.t10",
    "rh.J.momentum.t10",
]
RH_S1 = [
    "rh.S1.mass.t0",
    "rh.S1.momentum.t0",
    "rh.S1.mass.t1",
    "rh.S1.momentum.t1",
    "rh.S1.mass.t10",
    "rh.S1.momentum.t10",
]
DELTA = [
    "grh.path.t0",
    "grh.weight.t0",
    "grh.momentum.t0",
    "delta.source.t0",
    "grh.path.t1",
    "grh.weight.t1",
    "grh.momentum.t1",
    "delta.source.t1",
    "grh.path.t10",
    "grh.weight.t10",
    "grh.momentum.t10",
    "delta.source.t10",
    "delta.entropy",
    "delta.quadratic",
]

# config, variant, wave labels, star present, delta present, verify check names
PINNED = {
    "vacuum": (
        {"rho_l": 1.0, "u_l": -1.0, "rho_r": 1.0, "u_r": 1.0, "beta": -1.0},
        "two_contacts_vacuum",
        ["J1", "J2"],
        False,
        False,
        ["order.vacuum"] + WEAK,
    ),
    "contact_pressureless": (
        {"rho_l": 1.0, "u_l": 0.5, "rho_r": 2.0, "u_r": 0.5},
        "single_contact",
        ["J"],
        False,
        False,
        RH_J + WEAK,
    ),
    "contact_on_j": (
        {"rho_l": 2.0, "u_l": 0.5, "rho_r": 1.0, "u_r": 0.5, "A": 0.5},
        "single_contact",
        ["J"],
        False,
        False,
        RH_J + WEAK,
    ),
    "rarefaction": (
        {"rho_l": 1.0, "u_l": 0.0, "rho_r": 0.5, "u_r": 1.2, "A": 1.0},
        "rarefaction_contact",
        ["R1.head", "R1.tail", "J"],
        True,
        False,
        ["order.fan", "order.contact", "star.invariant", "star.speed"]
        + ["fan.head.match", "fan.tail.match"]
        + RH_J
        + WEAK,
    ),
    "shock": (
        {"rho_l": 1.0, "u_l": 1.8, "rho_r": 2.0, "u_r": 1.2, "A": 1.5},
        "shock_contact",
        ["S1", "J"],
        True,
        False,
        ["order.contact", "star.invariant", "star.speed", "lax.margin"] + RH_S1 + RH_J + WEAK,
    ),
    "delta": (
        {"rho_l": 1.0, "u_l": 1.0, "rho_r": 1.0, "u_r": -1.0, "A": 0.25, "beta": 2.0},
        "delta_shock",
        ["Sdelta"],
        False,
        True,
        DELTA + WEAK,
    ),
    "delta_pressureless": (
        {"rho_l": 4.0, "u_l": 1.0, "rho_r": 1.0, "u_r": 0.0},
        "delta_shock",
        ["Sdelta"],
        False,
        True,
        DELTA + WEAK,
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_solve_structure(tmp_path, name):
    cfg, variant, labels, has_star, has_delta, _ = PINNED[name]
    got = run_json(tmp_path, "solve", cfg)
    assert got["variant"] == variant
    assert [w["label"] for w in got["waves"]] == labels
    assert (got["star"] is not None) == has_star
    assert (got["delta"] is not None) == has_delta


@pytest.mark.parametrize("name", sorted(PINNED))
def test_verify_check_order(tmp_path, name):
    cfg, variant, _, _, _, checks = PINNED[name]
    got = run_json(tmp_path, "verify", cfg)
    assert got["variant"] == variant
    assert [c["name"] for c in got["checks"]] == checks
    assert got["passed"] is True


def test_pinned_configs_cover_every_variant():
    assert {entry[1] for entry in PINNED.values()} == {
        "two_contacts_vacuum",
        "single_contact",
        "rarefaction_contact",
        "shock_contact",
        "delta_shock",
    }
