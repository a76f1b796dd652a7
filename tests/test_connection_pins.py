"""Pinned outputs of the skeletal connection constructor.

The sha256 of connection_to_str for seeded random connections and for
clutch concordances, recorded before the Whitney-Bernstein transforms
moved to the integer kernel.  Any change to the constructed forms, the
rng draw order or the writer's spelling changes a hash.
"""

import hashlib

import pytest

from chernweil import io
from chernweil.bundles import clutch_bundle, concordance, random_connection, trivial_bundle
from chernweil.liealg import lie_algebra
from chernweil.simplicial import boundary_sphere, standard_simplex

SPACES = {"boundary_sphere(3)": lambda: boundary_sphere(3), "standard_simplex(4)": lambda: standard_simplex(4)}

RANDOM_CONNECTION = {
    ("boundary_sphere(3)", "su2", 0): "7663149f4f7f955fc40b0004d0eda23e6594f60de7b43d5a4f43deb0734f5629",
    ("boundary_sphere(3)", "su2", 1): "9a47d9767e4e9a2060a08954a9fb4713f49c52f76a01acb97d6f4a43b10774f6",
    ("boundary_sphere(3)", "su2", 2): "818eebf8452784ae4a4d64320198e7d374e7c1ece31bd61465cbdcc960bfa3e5",
    ("boundary_sphere(3)", "u2", 0): "06ecc405e6970b03ba1791c49a7ccb4947aef02ea9f7c4381e2b94d8f6051ae7",
    ("boundary_sphere(3)", "u2", 1): "a765fb706285a4dabc2d2cc44970c1cc2f77dea938394caee5b9e713b51fbced",
    ("boundary_sphere(3)", "u2", 2): "94bae53b7d8aeda627cbd2ae5fe257163f811c060ec4df3229dc3c96a3419dd5",
    ("boundary_sphere(3)", "so3", 0): "bdd9ec56dfd190c00902105dfdbc118363296261b5666f8a040daee24bfd3c0f",
    ("boundary_sphere(3)", "so3", 1): "112eac71137cbc81e013e7526902bf05ac4bdd070a48d7d3f15733a97a37b09e",
    ("boundary_sphere(3)", "so3", 2): "7b1988cf6a846a9673b4855b60064efb63905a94f3f729e5908beb59f7b1c989",
    ("boundary_sphere(3)", "u1", 0): "401a0d27febc05af91b5e36cfa7a743ed5cffa883095a54960e48984e8e2ac86",
    ("boundary_sphere(3)", "u1", 1): "d0b99e7730589f517c2cde0c092a0ef956b970b509f67f29ff0427ffcdef7866",
    ("boundary_sphere(3)", "u1", 2): "0269418b431983e34b61ff49c6a79e7a97fd2098c6901e2cbed2f3826112c622",
    ("standard_simplex(4)", "su2", 0): "971048d8eeecf53aafb9bb919f7e50f39fbef2ab04096eccf207b40903a56638",
    ("standard_simplex(4)", "su2", 1): "c844c9be0d5e21c08935db1fc79fefd4e1ec9d2801ff5c2766e45836b595f864",
    ("standard_simplex(4)", "su2", 2): "5c0f75b5561c2061aa8a6dc06be55dafac80f97aaee7bf6fa092f3174b27c44d",
    ("standard_simplex(4)", "u2", 0): "86ea78c19503efece2747d28c3fec4b285c67cf796d19f9d7afeb0bd1bd34895",
    ("standard_simplex(4)", "u2", 1): "ffbae07fa306d45da2574577c2c64ed1823a4fccfedd2ebb7375ea3f76fea9e1",
    ("standard_simplex(4)", "u2", 2): "6c6f452e62cd4df87a0e224ad4472dae6e17e14258210e0193e34500048b86f6",
    ("standard_simplex(4)", "so3", 0): "77e7abb339fbc68cd030fadccfccca235350cfb36aaaa2eb5fec9fb4fb84b724",
    ("standard_simplex(4)", "so3", 1): "df0f77093c15afe8960dd4372311686946a280c9057885aa1175da7ce5a21c8b",
    ("standard_simplex(4)", "so3", 2): "7092c5ad2e8a6ebffcc8ad0089195d1d381a25d2ec981e188e8375eb70cade30",
    ("standard_simplex(4)", "u1", 0): "5cf22fbf75e3b1476743ecb7cbce7a47a34c53df30b14040809814c12f376b70",
    ("standard_simplex(4)", "u1", 1): "503f71db4221035ee353f5ddca769822bdf492345cbf2a4dcc440c13837decd9",
    ("standard_simplex(4)", "u1", 2): "6ed7a4a0783b88fabddbe60c96abde72cc11949b6c6a8713bf6cd50cc193cb7b",
}

# concordance(P, D0, random_connection(P, 0)) on (P, D0) = clutch_bundle(n)
CONCORDANCE = {
    -2: "5674ab020e95a9af39e39b4b7d5500b9aa9dbaf1fc1f09d99b506af6c33018ae",
    1: "193c710372ee35d7c9cf5c75433fe3de3403f2485ee54f04fdc94d9d4cc5fcae",
    3: "59e204fcacce4636cd5230805be9d66e3fdfee6edfc0affa6eae8f1c8b8a5155",
}


def _sha(D):
    return hashlib.sha256(io.connection_to_str(D).encode()).hexdigest()


@pytest.mark.parametrize("space,group,seed", sorted(RANDOM_CONNECTION))
def test_random_connection_pinned(space, group, seed):
    P = trivial_bundle(SPACES[space](), lie_algebra(group))
    assert _sha(random_connection(P, seed)) == RANDOM_CONNECTION[(space, group, seed)]


@pytest.mark.parametrize("n", sorted(CONCORDANCE))
def test_clutch_concordance_pinned(n):
    P, D0 = clutch_bundle(n)
    assert _sha(concordance(P, D0, random_connection(P, 0)).connection) == CONCORDANCE[n]
