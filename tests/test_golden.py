"""Golden-bytes regression: seeded generator and solver output must not drift.

The hashes pin the exact text of ``tokenslide gen`` and ``tokenslide solve``
for a few seeded instances, and the exact hitting-set instances and tree
solutions for a few seeds.  A change that alters any random draw, any scan
order or any tie-break shows up here as a hash mismatch.
"""

import hashlib

import pytest

import tokenslide as ts
from tokenslide.cli import main
from tokenslide.generators import gen_hitting_instance


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# (kind, n, k, seed) -> (sha256 of the gen output, sha256 of the solve output)
GEN_SOLVE = {
    ("tree", 12, 4, 7): (
        "9e2d7761f05f988ff2e0a9c368a4d7dfd37d9b6473ac3850285ec68004d3af07",
        "3e2183479ab73554a4cea912561bee8203bc3647e5851e933a1ff74db51ff1f3",
    ),
    ("tree", 60, 25, 3): (
        "c9acd53077dbd5297a9ed3d6cad0ae45869b9c0f61e3eeea01399b7ab97df5b2",
        "4854eaa285b3681de9445b7ac8e94c963d0a5b1e62e8c24301ce3e152dba3fca",
    ),
    ("tree", 300, 110, 11): (
        "8a4ab0ca2a696e4332c768445301eb9267d4b4afd5e8ada4242ba0481602ed5b",
        "2b9adda1d16447c141d16bf3329f12738e9ab42adc4140dc03af6aa1ac9948f5",
    ),
    ("interval", 12, 4, 7): (
        "d92d15f5f22c4b7f59155362d3d3ef23ce0f64959327de810133a94c9dcf0dc8",
        "5a63d61911903a0a892f9eeff9bf92b4f33028d8d21eb6eb01b01b86731bb50b",
    ),
    ("interval", 40, 14, 5): (
        "a41613bfc330306813050063994e40e5bf1cfba8c10424d28516a2eaa8829390",
        "2e0772fcb7bd171fb823d4a731c617e22a2846388ff81496cd56fc5b70ffee6a",
    ),
    ("interval", 120, 40, 9): (
        "edba04ef42f40b3981d17ab71c849c7de19e11638fe4dadbffd7e45aaec2bda0",
        "6ac94e7bb99b3e4413b877f08fb63394d28ce897aac87ed40128aeea45edf40d",
    ),
}

# (n, seed) -> sha256 of the instance and its reconf_tree solution
HITTING = {
    (10, 0): "fb0b79756fabd27919a06b4e5a68dd9031026f1bd4dc3a71c8e193e14275226e",
    (40, 1): "d88ef75b6542939c65c57b27b40fefdf854b8dc3af4a08913190a56a885a00fc",
    (200, 4): "d7d883d77b11c225f0c700561a257cf04fe5dc1923acc53d29164da63da0d9c7",
}


@pytest.mark.parametrize("kind,n,k,seed", sorted(GEN_SOLVE))
def test_gen_and_solve_bytes(kind, n, k, seed, tmp_path, capsys):
    argv = ["gen", "--kind", kind, "--n", str(n), "--k", str(k), "--seed", str(seed)]
    assert main(argv) == 0
    instance = capsys.readouterr().out
    path = tmp_path / "instance.txt"
    path.write_text(instance)
    assert main(["solve", str(path)]) == 0
    moves = capsys.readouterr().out
    assert (_sha(instance), _sha(moves)) == GEN_SOLVE[kind, n, k, seed]


@pytest.mark.parametrize("n,seed", sorted(HITTING))
def test_hitting_instance_and_solution_bytes(n, seed):
    tree, system, h_s, h_t = gen_hitting_instance(n, seed)
    seq = ts.reconf_tree(tree, system, h_s, h_t)
    text = repr((tree.graph.edges(), system.sets, h_s.items(), h_t.items(), seq.moves))
    assert _sha(text) == HITTING[n, seed]
