"""CLI reports pinned byte for byte: exit code and sha256 of stdout.

The values were recorded before the finite kernel replaced the
per-algorithm materializations, tracer scans and cycle walks; a change
to any of them shows here as a changed digest.
"""

import hashlib

import pytest

from pointdyn.cli import main

GOLDEN = (
    # the nine README invocations
    ("validate bundled:satellite3", 0,
     "3502957ca86050b97ac4bfeb401c8bd0d3c8dc38b193e27585f5d34ddbe2fdf6"),
    ("classify bundled:r12k3 --variant minimal --c 1/6", 0,
     "9813d0b1e6725b30d91100c92c61d4e506c6f2ef831afbbc7e233a51730ecbcd"),
    ("shadow bundled:r12k3 --x 0 --eps 1/4 --delta 1/24 --window 3", 0,
     "eaf646a9d709f27c63319c3d3dc37133732ceb33a6299ac309cc5d4352c2e615"),
    ("conjugacy bundled:id3 bundled:id3 --x 0 --eps 1/2 --delta 1/2", 0,
     "6f186b065eb1560fac05e03b5cdfc09c6adc603805add1ff25ca02ae34f1a0a3"),
    ("trackmap bundled:id3 --x 0 --eta 1/2", 0,
     "a554e7a4a428a4c9b0c2b3911a3721b7ffdb6c4f685d1f1780390c6460f7a0c6"),
    ("ghdist bundled:r12k1 bundled:r12k5 --budget 40000", 0,
     "2b438370ec60969d25c4194cad26eefcc640d1218a4e99db05e025e5d5234953"),
    ("ghstable bundled:id3 bundled:id3 --x 0 --eps 1/2 --delta 1/2", 0,
     "f5ef252487b382056523aab7904145b1814041a7d6d8778738540753ac5c5f0a"),
    ("mustable bundled:id3 --measure bundled:nullpoint3 --x 0 --eps 1/2 "
     "--delta 1/2", 0,
     "52084e9e535b2b4675c6e3d60321f8f15e5126fae6bec8f650d022ef9b4a5529"),
    ("satellite bundled:satellite3", 0,
     "6925a94a5ed2d54e09fa3762d30884045131e10837391bbcaefad5a29dc42b9f"),
    # the three classifiers at c = 1/4 on every finite bundled system
    ("classify bundled:id3 --variant expansive --c 1/4", 0,
     "0a6bf9a2333c973dc202fabf9479ac51f3d6350924e4d2649eaf39f611d27c7b"),
    ("classify bundled:id3 --variant uniform --c 1/4", 0,
     "c7dad301775d0a536d3bad8beefc53d5d47e49f87b41b9428588e4d5494d0b2c"),
    ("classify bundled:id3 --variant minimal --c 1/4", 0,
     "41961ede749a8e8456bd3a685e9701988280a98144cbf5baf2e7b7033f43ae33"),
    ("classify bundled:nearpair4 --variant expansive --c 1/4", 0,
     "97ba8f4b8cc56a186aae4c9243bb23b4babb64d80404e1bb0fecd5a339ac080a"),
    ("classify bundled:nearpair4 --variant uniform --c 1/4", 0,
     "06509fe633e20429552121dc4d0af0003075736c2c3a1d80db14b7820e8e566f"),
    ("classify bundled:nearpair4 --variant minimal --c 1/4", 0,
     "56b4a5c0f8da5d3475812ed76c357410d9ee3b207e6f5c18cd8b60cc9f78a494"),
    ("classify bundled:r6k2 --variant expansive --c 1/4", 0,
     "6ce02f620cbc1db7417c41e689b38d7c9580a2edd7e904f9473dffbce8478636"),
    ("classify bundled:r6k2 --variant uniform --c 1/4", 0,
     "76821eac63d5b8e8982ef144689ed83d4d18a06f9338a1265d6156f137650363"),
    ("classify bundled:r6k2 --variant minimal --c 1/4", 0,
     "13a190fd398e31d3f844b0a3b4212e2321732429ccbaeb446926547639ccd473"),
    ("classify bundled:r12k1 --variant expansive --c 1/4", 0,
     "8305caf5e8e41146705d84069fc970ce9c94f02626f39a387cc60a2f808417cc"),
    ("classify bundled:r12k1 --variant uniform --c 1/4", 0,
     "10c1c90398d6ec03578437939d659bf6d4517cfc56a10d55355a23cdd3228f97"),
    ("classify bundled:r12k1 --variant minimal --c 1/4", 0,
     "31f194c6cf4b467d0fea2f5851d3ceaf05e0bdb7ef957b596f509f2ca43a89e2"),
    ("classify bundled:r12k3 --variant expansive --c 1/4", 0,
     "cf217742da903e844bef4645d3e689d99c6be976d29016b9336b9632874a2389"),
    ("classify bundled:r12k3 --variant uniform --c 1/4", 0,
     "56eb9c03da66af625f90f8742b7b8039d9f6670e6775eed06a8e98c75753b48e"),
    ("classify bundled:r12k3 --variant minimal --c 1/4", 0,
     "737a43cf82b1818bbb35f94ecddf889b639872b68ca80579c5aa1ae9cabfb4c6"),
    ("classify bundled:r12k5 --variant expansive --c 1/4", 0,
     "bc585d0e5b425c05d63e8cd6a088f19a5cc98b7c379e00971e449041e3e79563"),
    ("classify bundled:r12k5 --variant uniform --c 1/4", 0,
     "2cafabf36703b8b47dedbe383c5df662ff7da62be704192fb5a39a95ec58acba"),
    ("classify bundled:r12k5 --variant minimal --c 1/4", 0,
     "456785c7987fba4b68b82af3f2047df3313068c7e396bfcdf79e4712320699b0"),
    ("classify bundled:cat5 --variant expansive --c 1/4", 0,
     "034ce96f089552a6751604c4d233bb21e1f5cdd6031a2d3142f864e0a9beb373"),
    ("classify bundled:cat5 --variant uniform --c 1/4", 0,
     "283e81271d687f5bc5cd06d01edb3ee17390cd3ba757dc76dd939db11a36e945"),
    ("classify bundled:cat5 --variant minimal --c 1/4", 0,
     "859280dd9ec4e55a3a9ae1276c0f43ed5b8da7ce42ecb34fc3f0fa03f92ecd29"),
    # verb paths no invocation above reaches, recorded before the code only
    # the tests read left the library: the measure classifier on a finite
    # and on the shift carrier, the exact shadowing classifier, B given
    # point by point, the shift's measure check and its identity rule
    ("classify bundled:id3 --variant mu-uniform --c 1/2 --measure bundled:nullpoint3", 0,
     "66b74c1451cdfc4200c20c0f57ddd88b72b135009bd82430dd604d18b2781787"),
    ("classify bundled:shift2 --variant mu-uniform --c 1/2 "
     "--measure bundled:bernoulli_half", 0,
     "4bb736dd38eb5dfc18d3173f6c33404d1e70a336c10d91682129ccfacc140b1b"),
    ("classify bundled:r12k3 --variant shadow --eps 1/4 --delta 1/12", 0,
     "1a32a2cd61a7f974267952b20b5d1215764b46647ad72cc1c423beeed40786fa"),
    ("mustable bundled:id3 --measure bundled:nullpoint3 --x 0 --eps 1/2 "
     "--delta 1/2 --through 1 --through 2", 0,
     "1fdb439330be0ae0e48e2527bc4148439fcd2c98cbd55af48c3f9379f70be375"),
    ("mustable bundled:shift2 --measure bundled:bernoulli_half --x 0~1~0@0 "
     "--eps 1/2 --delta 1/2", 0,
     "ae6c20327f2102a6257d049491dbfcaf7310470008d629ac36bbfdb1ead7c3cf"),
    ("trackmap bundled:shift2 --x 0~1~0@0 --eta 1/2", 0,
     "52cf65277ae8dacfed240935f3483d7ff04a1d99e04f954b98be57561cfc82b4"),
)


@pytest.mark.parametrize("command, code, digest", GOLDEN,
                         ids=[g[0] for g in GOLDEN])
def test_report_is_pinned(capsys, command, code, digest):
    assert main(command.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# a system file that carries its own measure stanza, read without --measure;
# the report echoes the file name, so the file sits in the working directory
MEASURED_LATTICE = ("lattice {\n  n = 6\n  map = rot 2\n}\n"
                    "measure {\n  weights = 0:1 1:1 2:0 3:1 4:1 5:0\n}\n")
MEASURED = (
    ("classify measured6.pdl --variant mu-uniform --c 1/12", 0,
     "4eca180472b351e604e1c57a500697a9f4460b01bbfd48828992c5cc1c14ceed"),
    ("mustable measured6.pdl --x 0 --eps 1/2 --delta 1/2", 1,
     "f1c2946c2cda6898d03f1e8e76c4aada9fc23b7053958b89fff6cb552079df87"),
)


@pytest.mark.parametrize("command, code, digest", MEASURED,
                         ids=[g[0] for g in MEASURED])
def test_file_measure_report_is_pinned(tmp_path, monkeypatch, capsys, command, code,
                                       digest):
    (tmp_path / "measured6.pdl").write_text(MEASURED_LATTICE)
    monkeypatch.chdir(tmp_path)
    test_report_is_pinned(capsys, command, code, digest)
