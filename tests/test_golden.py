"""Golden outputs: every sweep report and the dump bytes, pinned by digest.

A refactor that is meant to keep behaviour must keep these digests.  Each
`verify` report is hashed as its indented JSON with ``elapsed_ms`` removed;
each dump is hashed as the bytes ``dump --max-rho 4 --max-ell 4`` writes.
"""

import hashlib
import json

import pytest

from tklwb.cli import main
from tklwb.positivity import CHECK_NAMES, Bounds, verify
from tklwb.words import CoxeterSpec

# (gens, star) -> sweep bounds (max_rho, max_ell)
SPECS = {
    (3, "id"): (3, 3),
    (3, "(a b)"): (3, 3),
    (4, "(a b)(c d)"): (2, 2),
}

CHECKS = CHECK_NAMES + ("structure-theorems",)

REPORT_SHA256 = {
    (3, "id"): {
        "a-prime": "6e62734f7f359ef79c07e620df44c357b5fb7c83b11cb3e6f19af4c430edb9a0",
        "b-prime": "cdc7268be6b281c5b1c0fcc431977548dd6188f386a9f9d1b9166333a187114b",
        "c-prime": "6f45a724ffaf58113979c8e95efb9b3f6f8e60de092145f122ea0d1914ee5374",
        "a": "45f4378b8f8b4f96afcbb8ff02e75f1c3ad36976cd1be3a5c4bc10013197c982",
        "b": "eee44580685f5a2a1c06d4e76500e7593fb8238d35e7a2488620be852d5a7f4d",
        "c": "29837b0ccd3a185e79121bd96bba0098b9cd09e21bc8be7d6530ac5eae7550a7",
        "parity-p": "e08e2b15e4ff571c3c6cfd5fbc472ece1c0c9f54541ad7f2f3fbb6b74a521bab",
        "parity-h": "153a0bfc106ca48f2feabe5f96cc8ee6cc660753717a2d64e8d269efc1b54426",
        "oracle-equivalence": "8f32e700016cd797009263c45c4c3f749083c088ab9fed39739d37782ada559f",
        "rho-grading": "4acfa8151a4d7698e05d8522caff6083988d3eee3613ba33a4d0db8ed700d43a",
        "bruhat-agreement": "d701bca263b9f313c83b824dd9ec9738442e9a99b21268183ce1a99211eb3083",
        "regular-embedding": "f329cefecc8159d9b2e23bdb4a9b6630c05817fc942ac67d6189dd13e1725523",
        "msigma-closed-form": "a0c0ba49514bc53330a852493459a14cc95425339b1cb886891397708b929197",
        "mult-formula": "233557bc63618b488bb465bd298051f19d5bb83bf66612c3ad25d883121675ff",
        "structure-theorems": "255189a3fe8c4a5f087a068b1947096eaaef6b30d5744c859098fcd61445223c",
    },
    (3, "(a b)"): {
        "a-prime": "fdf86012ab6bf4eae9bae8b62b627774619ce5c63f4d568e828d66f7e50cc423",
        "b-prime": "eec6a27399efdd40d046c1c6b18e9cfa6703541f561f270e08f19d2675673fb9",
        "c-prime": "b172f507484445733ac97c7a1a3bda24f96a699182eb72428e4f8dc8e01ad890",
        "a": "d94dff3feec2f929feed8f5748e05575001d2ac88c4e5f74da35cc7ebb6caf04",
        "b": "6c2a99c9bf9b67a543016b19a4e815258bffe3b405cc51e92d0db7577241c988",
        "c": "8407d41a1824d7d9df7ce5f40391dadeb34d3c9f7f533616ab4e7bb93a9e657c",
        "parity-p": "02099776dbd9896d8919cfa6ef8b9494121baaeb157e8cc1b13160a33f051001",
        "parity-h": "91efa6c60144dd4691169458f04a850bf51e9e1eae771c0c5ccc813ae4a4f77c",
        "oracle-equivalence": "c850a20358571b5dc2f56c54d5ec860c36e16e4c40ad19f8d3b049255122be83",
        "rho-grading": "6edc35ac8e48dcd12c56c9b2fdf2cd67a51324f4e94d06dc6b5e2d2d18d58c8e",
        "bruhat-agreement": "4c110dac9a50b3963add4640121d857a599eba57b686a3514151d2a650970d52",
        "regular-embedding": "414facff0264b2e85c7b6f3b675f1f8b69fb3c5032860b09fd89929c85f1cdb4",
        "msigma-closed-form": "bdf0c65eb410e4a7ee021fc0f5fab9aef909bb14e3dfd83c9c6034925a2f1ed4",
        "mult-formula": "027d223e9f6133c138ab7aca9e77aed263da25dc5061de381448414d215a7cfc",
        "structure-theorems": "cfdf55ac2f638d8315cab78adde4641d6ff43b637fee6b3e21612fe81e9d797e",
    },
    (4, "(a b)(c d)"): {
        "a-prime": "0b5ddc832951d7c21d6782dd3f5b23a161ac379037eaae365617b2106c6b7b13",
        "b-prime": "f5111c77ba22a744744e7bfc1beb14d63ba0e3ce9356a46f8e04fa0d13759db3",
        "c-prime": "323bd7df8ca22882bf4f72051dde9ba53596bfbe2f4505ae5c06dc47c048f8a2",
        "a": "e7df0ab44bae41d46992244777b351c59f3a91e61c89ef47089110f84434eef3",
        "b": "ee852dee36d885c2013f248bcc7dcd6160963f5b43d7bb6e6aabecaff5434cdf",
        "c": "1e7d8e48cde953694eacb8b401a600cf3c49f639422b5f0c81ef3cef3413dbe5",
        "parity-p": "43eba3b478956c1002dc0895fb3ac80345e857e6bc898052308e3be9c5933ba5",
        "parity-h": "e8e3c22a1a057562106c8ef78d0eb02893bba13f470836e859b65c9ee31a5103",
        "oracle-equivalence": "530e55e240796f837c9a7bc8b9b31e4405191127bc14d4e660077c9dd732534c",
        "rho-grading": "537ca8b81110401cb70c5bf98b50d2574677dadb2549cd9440cb2c613931e31a",
        "bruhat-agreement": "fa73b91055ba111e910330d344f882571f95b5581bed61060aa4d9603d043661",
        "regular-embedding": "e485daf627f4ef90e9a04b4f7d88013e775ab8e8dc7494e8cbda4726b61bdccc",
        "msigma-closed-form": "cb8f319695fc84ba54bfe0fbd942e4f52820165b5d0ea6d163125b9c07c4e21e",
        "mult-formula": "625f3fb3bcb09f88a503e644e0923f7544715f6a4411d40aad2f06d14190bdae",
        "structure-theorems": "4ffdce0040121b26113cc5814dad6eac26efd5bc6b720b9efdbc9bbff766042a",
    },
}

DUMP_SHA256 = {
    (3, "id"): "441ff99ff22cf5225dd360c541f30d3df2ad9e845f0020ccf7f4c8f78b3b72b9",
    (3, "(a b)"): "b4ae762f5ac552ef7c86fd675ed3d6c0e382042acf6401a3704a18c0d5d681e2",
    (4, "(a b)(c d)"): "c2d2947e4a1a73f5f11fddd7682bd6057c571ec8326520c1c4d4f4b3ed06ce74",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("check", CHECKS)
@pytest.mark.parametrize("system", list(SPECS), ids=lambda s: f"{s[0]}:{s[1]}")
def test_verify_report_digest(system, check):
    spec = CoxeterSpec.make(*system)
    report = verify(check, spec, Bounds(*SPECS[system])).to_dict()
    del report["elapsed_ms"]
    assert sha256(json.dumps(report, indent=2).encode()) == REPORT_SHA256[system][check]


@pytest.mark.parametrize("system", list(SPECS), ids=lambda s: f"{s[0]}:{s[1]}")
def test_dump_digest(system, tmp_path):
    gens, star = system
    path = tmp_path / "dump.tsv"
    argv = ["--gens", str(gens), "--star", star, "dump", "--max-rho", "4", "--max-ell", "4"]
    assert main(argv + ["--out", str(path)]) == 0
    assert sha256(path.read_bytes()) == DUMP_SHA256[system]
