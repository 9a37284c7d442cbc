"""Pinned digests of the output-identity corpus slice.

The first eight digests were recorded before the decode accumulator
moved into one builder, the other six before the coefficient order was
written once (`linear._lexicographic`); a change that alters any
leader, its order, a grouping, a `table_sizes` entry, a syndrome, a
decoded word, a canonical matrix or witness, a profile, a degree, a
neighbor, a cut or a radius changes one of them.
`python tests/identity_corpus.py --against REV` runs the full corpus in
this tree and at a git revision and compares them.
"""

from identity_corpus import SLICE_PER_CELL, against, digests

SLICE_DIGESTS = {
    "instances": "86b66ebd3c1c4a96b436dfe5db1d9424512fb1fdf32ea417ab6b509a30e4a563",
    "leaders.full": "fd4e22df8158a079eb75d75ba7b9de9b5c55d6518858e644ec2d02f50eefd9f2",
    "leaders.groups": "c5a22931863a53a170c542de1b79c50a0479f79e85ff461e6bb8bd1a6ab5d71f",
    "plan": "65612f59d9483ee1366a5a3d2e7e913fb8a45c2a4130ae45603caadc8b710663",
    "decode.full": "40c65d14429a2406aeaf8419e77e6c996c5a04ecc024f3d19212555a4393e1c4",
    "decode.alg1": "6e713d0c65f39bfbed45618bea3313e8e669517ef283973242da1b0a0dd456b5",
    "decode.alg2": "9c4f7c654dc4d578fb4ac63872fc511ee8e18c9cf3655d0179cb4b5c74def519",
    "syndrome": "ae6d558fd32e90f3ec250d06a1370074813410d5711b7454d9641918a53f275a",
    "canonical": "249dc64eea65bcd017108aa83131410ba65969e1ab4bdca96e57778827784969",
    "profile": "58250976f8df80b43ad3456ccc0cafe8428085aa06b933220d4fc7c93b19ec2c",
    "degree": "8260e3a115e8708075844a0f1f61fb83cc41be5b2b1c9b0c929b84793f255e0e",
    "groups": "f54ec3230a9ac2223e83e79e8705315f42dc2e933a4f07ac5396209a14772bcb",
    "order": "7c58de8b260217cd18023fd25e0f70a6bf42911dc1cb046b839cae1c21c50cc1",
    "radius": "3ee00320fed8a1d4e7a3562bad6db089f708d8440feabd0d2922d12c8158f0e1",
}


def test_identity_corpus_slice_matches_recorded_digests():
    assert digests(SLICE_PER_CELL) == SLICE_DIGESTS


def test_against_an_unknown_revision_exits_2_with_gits_message(capsys):
    assert against("no-such-revision-for-the-corpus", ["--slice"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.strip()) > len("error:")
