"""Pinned outputs of the seeded random simplicial form.

The sha256 of polyform_to_str over every cell of random_simplicial_form,
cells in all_cells() order, for four bases, every degree from 0 to the
base's dimension and seeds 0-2, recorded before the interior noise moved
into whitney_extend.  Any change to the extended forms, the rng draw
order or the writer's spelling changes a hash.
"""

import hashlib
import random

import pytest

from chernweil import io
from chernweil.forms import random_simplicial_form
from chernweil.simplicial import boundary_sphere, standard_simplex, two_disk_sphere

SPACES = {
    "boundary_sphere(2)": lambda: boundary_sphere(2),
    "two_disk_sphere()": two_disk_sphere,
    "standard_simplex(3)": lambda: standard_simplex(3),
    "boundary_sphere(3)": lambda: boundary_sphere(3),
}

RANDOM_SIMPLICIAL_FORM = {
    ("boundary_sphere(2)", 0, 0): "579578efd7d6a2b9e12926fdf0fe94d19df7cc93a844a4f5181b275fc38a522f",
    ("boundary_sphere(2)", 0, 1): "bda08278429a68490b13312c8a89566e7568fd3d689a1b1c5fd2dbda6be57032",
    ("boundary_sphere(2)", 0, 2): "6b2b2ed6dceba2ba1c2877040c7f6c50061fd6a217924e4698fda37f354718f9",
    ("boundary_sphere(2)", 1, 0): "115693878c8c0f93e370ed1e1fc72c97f8cf13ab9c82275e8408490b7f773388",
    ("boundary_sphere(2)", 1, 1): "8b8a252f1ac7bc3c189bb322566fc25b7c1ae1bb3e44fcdd3f44865b04a9b36d",
    ("boundary_sphere(2)", 1, 2): "19a9cc8813b2eeb544a970f40e009d371f6f3b4c64a1354bca2081ab4550bd69",
    ("boundary_sphere(2)", 2, 0): "6bd2065d51d74aa18b91f9cd44cc011fe4d506712e3b0e711401eb1ba30b9314",
    ("boundary_sphere(2)", 2, 1): "d7c7db5f29e4c92d4f61c771db66939ca94121b59966e13cd4f6a4f20a0f2522",
    ("boundary_sphere(2)", 2, 2): "c98af2eb3c799d19eba65e9f733f03e92cfeae00ab1a5d8d7dd14c9634698b62",
    ("two_disk_sphere()", 0, 0): "03f1e6342df5ac40ab69ccfdd0162bff0d8b2126f7f7384403acbc69859f2f08",
    ("two_disk_sphere()", 0, 1): "7b11b9490d9769031ab78de9a24809d497588168af13366192030387bd14edd2",
    ("two_disk_sphere()", 0, 2): "00eab3e17a32d1fde8ffa68d82f50430684e94511169fb99a5f2a6376d62e0de",
    ("two_disk_sphere()", 1, 0): "6f9d897b11572cca03d91269102658a4303bbc4f6c60b2dbf3686a4c4381ee43",
    ("two_disk_sphere()", 1, 1): "0a34e695d037174fed86775031f676cf87df7b6c67dd80525edc5fb522350f9d",
    ("two_disk_sphere()", 1, 2): "2ccad4d2a82a22326c51f75f7d46f4f35bdab63c69b4ecd524556925bd05d831",
    ("two_disk_sphere()", 2, 0): "d291e4df2cd30e346b6d867c26ba1b8daa30d7e5610a8cd94c08e6e48ecf561a",
    ("two_disk_sphere()", 2, 1): "4507fa008b44226ccfa94ed00c23b76ae49ac47e9271b1d9cdbc8bc012e75d4f",
    ("two_disk_sphere()", 2, 2): "cd6addb18bfed28f7115331ce33a342135bab595322866264e3f29650774e555",
    ("standard_simplex(3)", 0, 0): "a88cbcfd70ddc4a828802f84e04d39be93950c5efa5367baa271e9e20bcde4d8",
    ("standard_simplex(3)", 0, 1): "a9e22c5dc903c67553a22310a69764ba5f033ddd4e76f9a399d4d483ac3682e9",
    ("standard_simplex(3)", 0, 2): "2b6edc2dfda9c9d5cf46eb1c43bd5ee88cdafd76902aa8d1f36b46c4bc21950a",
    ("standard_simplex(3)", 1, 0): "3b69515788599d1170ac1084f1e90242127e914f350e61caf5166a5a65c3581b",
    ("standard_simplex(3)", 1, 1): "7b0a8ab3c055f22e41b263912e495873239f2220e5458799e6d0b93894764c0a",
    ("standard_simplex(3)", 1, 2): "188450bd97e3ee6d2457d50d73bbc7fd7b3dbcbcdd5623df7e1accb0ae8efc70",
    ("standard_simplex(3)", 2, 0): "9059b5f43089238d51403b9d1808854015f6e1dd98b21b506d8ac4beb76301fc",
    ("standard_simplex(3)", 2, 1): "d74e0c1b7277f56a8580faf77e059c887b8af736d19a08244e83548d9d93be55",
    ("standard_simplex(3)", 2, 2): "9ce3af1b26672a1b3970bb4656e1fea209792bfec791a951bdfebdc7b58af893",
    ("standard_simplex(3)", 3, 0): "67de9b2b4c961569a43325a0a8031405521c57e8f998d6703a447ee24a7a4881",
    ("standard_simplex(3)", 3, 1): "c1111d1696c53bd4c5e10ac6f00fc7df4edad6e83c00eb1867136349e6532906",
    ("standard_simplex(3)", 3, 2): "6600cacf27115fc6c92ac9eba36dfc7b7f8c07c0a7f1cfe7b0716e678542c29b",
    ("boundary_sphere(3)", 0, 0): "6f010e09676c39515def1a11bb6e14fe729770aeaefa1a4652027a38a91212d5",
    ("boundary_sphere(3)", 0, 1): "ba31b8760ec073efb110dd50e2a3c49294d1c67d626d9457eec10959dd6a0fed",
    ("boundary_sphere(3)", 0, 2): "82dca637cbe35382b09311093bfcb5cbdca9c3ea6433c416bcef51e8f48ba13e",
    ("boundary_sphere(3)", 1, 0): "8a267988aca00a0b246852b3827389e7a5a164f96d67029b258d3a69d5f68498",
    ("boundary_sphere(3)", 1, 1): "f4ca05f7dac3f2bca518f13523795db8d06066555b08f57293b9dd872fbcd6bf",
    ("boundary_sphere(3)", 1, 2): "822109f3cf7fe6d40f2eb740d052bb4b716ca2ec149ad5cf1485bb17a6ea0293",
    ("boundary_sphere(3)", 2, 0): "266d567b2508f7559fa1e6313cf561b20846fe10beaa3ba737d53236da09ee9a",
    ("boundary_sphere(3)", 2, 1): "6a11d6ff894ac667d2b84e02141799e7dbd4a7b2b8aa7fe8709ec7e33164894d",
    ("boundary_sphere(3)", 2, 2): "f02d97a9bc8419d24e3494ff9f3b6c1f7381cc64da0fa40d3ede9becc14c9119",
    ("boundary_sphere(3)", 3, 0): "1b4940e5aaf678b82a5ed97dd6f000c515edea17b2c47a87684dc30e21c7d693",
    ("boundary_sphere(3)", 3, 1): "55a81af8987b060d596c9e15e067a4595022cc98e42f32b9cb88529af1dee800",
    ("boundary_sphere(3)", 3, 2): "e5b208a64d1a3bf7a5d7aca1bd6a8951f1f70b8a62e0f210868d9f56bbac418b",
}


@pytest.mark.parametrize("space,deg,seed", sorted(RANDOM_SIMPLICIAL_FORM))
def test_random_simplicial_form_pinned(space, deg, seed):
    X = SPACES[space]()
    om = random_simplicial_form(X, deg, random.Random(seed))
    h = hashlib.sha256()
    for sid in X.all_cells():
        h.update(io.polyform_to_str(om.forms[sid]).encode())
    assert h.hexdigest() == RANDOM_SIMPLICIAL_FORM[(space, deg, seed)]

