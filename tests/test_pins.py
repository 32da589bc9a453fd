"""Pinned bytes: every report below is replayed in-process and its stdout
checked by sha256, and so is each file the table's inputs are made from.

The inputs are built once per module in a temporary directory, and each
command runs there through ``cli.main`` with paths relative to it. A
digest that changes means a report or a generated file changed byte for
byte; the tests that explain a number live in the other modules.
"""

from __future__ import annotations

import json
from hashlib import sha256

import pytest

from gridgaps import DigitalObject, ShapeSpec, dvo, generate
from gridgaps.cli import EXIT_OK, main

#: the files ``gen`` writes, and the flags that write them
GENERATED = {
    "diag.dvo": "gen --shape diagonal_pair --n 3",
    "diag8.dvo": "gen --shape diagonal_pair --n 8",
    "r5.dvo": "gen --shape random --n 5 --extents 4,4,4,4,4 --density 0.5 --seed 7",
    "r8.dvo": "gen --shape random --n 8 --extents 2,2,2,2,1,1,1,1 --density 0.5 --seed 7",
    "r8full.dvo": "gen --shape random --n 8 --extents 2,2,2,2,2,2,2,2 --density 0.5 --seed 3",
}

FAR = 2**59  # the largest center coordinate a .dvo file takes


def _two_clusters(n: int, extent: int) -> DigitalObject:
    """A random box and its copy 2**40 away on every axis."""
    box = generate(ShapeSpec("random", n, (extent,) * n, 0.5, 1))
    return DigitalObject(n, [*box.voxels, *box.translate((2**40,) * n).voxels])


def _with_notes(text: str) -> str:
    """A comment before every 7th line and a blank before every 11th."""
    lines = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if lineno % 7 == 0:
            lines.append("# a note")
        if lineno % 11 == 0:
            lines.append("")
        lines.append(line)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("pins")
    for name, flags in GENERATED.items():
        assert main([*flags.split(), "--out", str(d / name)]) == EXIT_OK
    dvo.dump(_two_clusters(3, 12), str(d / "two.dvo"))
    dvo.dump(_two_clusters(4, 5), str(d / "two4.dvo"))
    r5 = (d / "r5.dvo").read_bytes()
    (d / "r5crlf.dvo").write_bytes(r5.replace(b"\n", b"\r\n"))
    (d / "r5notes.dvo").write_bytes(_with_notes(r5.decode()).encode())
    (d / "far.dvo").write_bytes(
        f"dvo 3\n{FAR} {FAR} {FAR}\n{FAR - 1} {FAR - 1} {FAR}\n{-FAR} {-FAR} {-FAR}\n".encode()
    )
    line3k = "dvo 3\n" + "".join(f"{t} {t} {t}\n" for t in range(3000))
    (d / "line3k.dvo").write_bytes(line3k.encode())
    (d / "line3k-open.dvo").write_bytes(line3k[:-1].encode())
    (d / "line8.dvo").write_bytes(
        ("dvo 8\n" + "".join(" ".join([str(i)] * 8) + "\n" for i in range(10))).encode()
    )
    (d / "empty3.dvo").write_bytes(b"dvo 3\n")
    (d / "line1.dvo").write_bytes(b"dvo 1\n0\n1\n5\n")
    return d


#: sha256 of the bytes of each file the module writes through gridgaps
FILES = {
    "diag.dvo": "21d309bc260c90c8319f71e83b004b8a568325ee53938664262ca8043e632ba8",
    "diag8.dvo": "aca70a69de58add4929072d9c29728ed259a5b08140f3753e026c854c1b6222f",
    "r5.dvo": "13504ffa92e9e6c2f9137553c868e4f7af462080cb0c4166fbc41dddaa5ffcb9",
    "r8.dvo": "0a7957d7d03bd1c0253025a0bae055e8ebf4d540579f8c79038ee0cbb0c4524e",
    "r8full.dvo": "736f630e8c7563f6dc8fa47dfcf7fa11ff452b9349b2edb9348777c6cbfebbc8",
    "two.dvo": "8a4e88a76050b001005d0e2a32b71c64c1726ce117b873efb93e6c2783ffebc1",
    "two4.dvo": "97325c3d37d5a67bed0c8455e4df6ecb7262fdc1ddda5f4abda6cdc912d33bb9",
}

#: each command, the sha256 of its stdout, and what its input exercises
REPORTS = [
    # the pair of voxels that meet at one edge: one gap at n = 3
    ("count diag.dvo --json --hubs", "9627a38cc7716919ef15d590f644b29ab7fa1e58824cdc0684755bde24610709"),
    ("classify diag.dvo --json", "18904b5baa29755e44b09a96828e95f265b2e7248da43ab8b7a945004d3d4e19"),
    ("verify diag.dvo", "7606ce994ee9a2d709e3ba1cb7da086aebbf588f2023f1975cf50ac98f46f490"),
    # the vertex-window pass against the census at n = 5, one tile
    ("count r5.dvo --json --hubs", "abfe35f03214000ec06b61d6a6347d5223b03bae2d5630c0558f4b7ad0ec98e3"),
    ("classify r5.dvo", "0ad47bdd766c1b21c7f1821054afa01e7e13092f76f9096b4d61d480a3282545"),
    ("classify r5.dvo --json", "0011e3a2552a7b02f930289bb0d54670d3796a8b17771b07f4396bd43201d03a"),
    ("verify r5.dvo", "cc0034307b519cbeda34a31d35e61543a826942e135a3377a7edffbb519bdf4a"),
    ("verify r5.dvo --json", "542d69bdeb6e7fb43b4df5b68c0103f554bd128e272a384c4d0da6c49d6d477a"),
    # r5.dvo with CRLF ends: read as LF, whole blocks past the first
    ("count r5crlf.dvo --json --hubs", "abfe35f03214000ec06b61d6a6347d5223b03bae2d5630c0558f4b7ad0ec98e3"),
    # r5.dvo with comments and blanks throughout: every block line by line
    ("count r5notes.dvo --json --hubs", "abfe35f03214000ec06b61d6a6347d5223b03bae2d5630c0558f4b7ad0ec98e3"),
    # window masks at n = 8, where they pass 128 bits
    ("count r8.dvo --json --hubs", "1bc665035e9644a2c619facf8450c58079c8f53e6323b3c187f9705c3bef55f1"),
    ("classify r8.dvo", "c11c3a24184dde2e958d393fd6a28253b72a8e21051fe7f1c16663131120a36e"),
    ("verify r8.dvo", "f9454a46908942685494a4115c7088e3013b1b4ff27f6a2a34a206eeabf23c41"),
    # a dense 2^8 box: all 28 (i, j) pairs of border-sum on one tile
    ("count r8full.dvo --json --hubs", "0350d13d8f48162b7fb17c154e1fa287e2c0cb9fa3468f4dbaa1e538818b7296"),
    ("classify r8full.dvo --json", "d062c59335b38968bb41498d8988aaedab56f52e52824ac025f48984331eda65"),
    ("verify r8full.dvo --json", "3b99228d58442c4eb53fa37844f57b75ae55f6ed115a1bdada05083f6c5a5b12"),
    # the diagonal pair at n = 8: one gap among 223 (n-2)-cells
    ("classify diag8.dvo --json", "232336957df13825d969d42a1ffc799d4545cad479a1e348fb4d584b8ed3af1d"),
    # the +-2**59 corners of the range, in tiles far apart
    ("count far.dvo --json --hubs", "ecb8ceb68c57cadaec6ee4eada1df1f9aa48cfc9b94fd393b0b48781822f4b88"),
    ("classify far.dvo", "1bddbb3a5c8ced24ae1c6ace7d23b63f80d088dff5d842595f35286133551454"),
    ("verify far.dvo", "731dee2baadbf466a8fa5040295f9bfdb275ab69d565ac8834268d15e9ecdbf9"),
    # two random 3-D clusters 2**40 apart
    ("count two.dvo --json --hubs", "ea9b2451a3943411285510cb8fbc7aa381575767d1dca4b6d3284d17219d0411"),
    ("verify two.dvo --json", "401dde552fe64858354312bc7059e432fc3eb6b902e8625b53b09aeec7f9428d"),
    # a diagonal line of 3,000 voxels, each tile a stretch of it
    ("verify line3k.dvo --json", "667fc3eef3532fa575aef8b0b89f38402ebee42f2a2320936d8f97e5c474dc75"),
    # the same without its final newline: whole blocks, the last line by line
    ("verify line3k-open.dvo --json", "667fc3eef3532fa575aef8b0b89f38402ebee42f2a2320936d8f97e5c474dc75"),
    # 10 voxels on the n = 8 diagonal, each placed by the neighbour-tile search
    ("verify line8.dvo --json", "9a38b39d455aa91797829a3d2b2c6056619169d5c045430da21d4188d6b97531"),
    # two random 4-D clusters 2**40 apart, each placed inside a core and on its faces
    ("count two4.dvo --json --hubs", "3f155db9a9abecd67e474ee87300ecd2e91d9bb7fbdfc1b9be837e9dc1b2d95f"),
    ("verify two4.dvo --json", "6bf8a4796c60693b179dfd2701b85bc84d074a36d9420e15e32ec38f72594e49"),
    # dense n = 8 objects, one tile each, no guard slot on a spanning axis
    ("verify --random 8 2 0.5 1 3 --json", "44554ed3cb972ca08d291b3cfc39108dae185fa5ce2fb6f004eebdb47d557a04"),
    # n = 2, where the (n-2)-cells are vertices, flat on every axis
    ("verify --random 2 6 0.5 1 20", "126357e3aedc73128e679fe4fa208b9d81e75e3b69fb722f5ccd65f150c6ce07"),
    # the census's bitmaps at n = 6, 3 and 4, one tile each
    ("verify --random 6 3 0.5 1 2", "dea017aeea63a6c179c4ef5f10a73be4ab36bea9babdf9067f1e91214cda127e"),
    ("verify --random 3 4 0.5 1 5", "acce23665c8c68e8d946bbf1bf5e24c2ed9b9355c493e03e83c6e615bc99813d"),
    ("verify --random 4 3 0.5 1 3", "914079aba7ebfff684ea0535fd1f9a15331812265822c77725cbef536b910edb"),
    # the census with no voxel
    ("verify empty3.dvo --json", "7bb72a309222794cfbe24230927023f4c13a1378016e9961c52e7a7c79c4416b"),
    # the census at n = 1, with no (n-2)-cell
    ("verify line1.dvo --json", "9559c4c066e8d3837fcdfb67ba8a6b8f3bbea4f85316e0d73dd2922402230d93"),
]


def _stdout_digest(argv: list[str], capsys) -> str:
    assert main(argv) == EXIT_OK
    return sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("command, digest", REPORTS, ids=[c for c, _ in REPORTS])
def test_report(command, digest, inputs, monkeypatch, capsys):
    monkeypatch.chdir(inputs)
    assert _stdout_digest(command.split(), capsys) == digest


@pytest.mark.parametrize("name", FILES)
def test_file(name, inputs):
    assert sha256((inputs / name).read_bytes()).hexdigest() == FILES[name]


@pytest.mark.parametrize("name", GENERATED)
def test_gen_writes_to_stdout_what_it_writes_to_out(name, inputs, capsys):
    assert _stdout_digest(GENERATED[name].split(), capsys) == FILES[name]


@pytest.mark.parametrize("name, total", [("diag.dvo", 23), ("diag8.dvo", 223)])
def test_diagonal_pair_histogram(name, total, inputs, monkeypatch, capsys):
    # counted by hand: every (n-2)-cell is simple but the one gap
    monkeypatch.chdir(inputs)
    assert main(["classify", name, "--json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    hist = report["histogram"]
    assert report["total"] == sum(hist.values()) == total
    assert hist["simple"] == total - 1 and hist["gap_tandem"] == 1
