"""Byte-identity goldens: the sha256 and size of CLI outputs.

The digests were recorded from the scalar (per-point) implementation of
the curve functions, before they were rewritten to evaluate whole grids,
the simulate grids from the per-theta Monte Carlo, before every theta
came to share one noise panel per replication, and the iterated-solver
outputs from the solver with a fixed iteration budget, before it derived
its own, the JSON edge cases from the encoder that built one dict per
row and passed the list to json.dumps(indent=2), before JSON tables came
to be filled from one row template, the slice-crossing sweep from the
sweep evaluated in the CLI, before statics.sweep came to yield its slices,
the JSON number goldens from the encoder that ran every float cell
through format, parse and repr, before the .9g text came to be kept where it
already is that repr, and the multi-slice JSON sweep, the slice-crossing
compare tables and the two benchmark workloads from the writer that built
the whole table before writing it, before tables came to be written block
by block. The six simulate goldens were recorded again when a replication
came to be one multinomial draw over the lattice cells, in place of one
uniform draw per agent.
Any change to the printed bytes, in a number's last digit, a row's order
or the JSON layout, fails here. A deliberate output change must update the
digest and say why in CHANGES.md.
"""

import hashlib

import pytest

from regimelab import run

_SWEEP = ["--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8,1.0", "--theta", "0:7:0.01"]
_COMPARE = ["--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
            "--theta", "0:7:0.01"]

GOLDENS = {
    # The six README commands.
    "continuation-json": (
        ["continuation", "--sigma", "0.5", "--r", "0.25", "--format", "json"],
        "9c5bfedf665eda48e66ca1dcd027bbf18a668fa4d2ca8a48ae003ce5c7146917", 102,
    ),
    "signaling-csv": (
        ["signaling", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8"],
        "743a77d45de5072973f3fcadd6fd2826f50bc49e3377a328ad5047906b77f276", 115,
    ),
    "welfare-sweep-csv": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
         "--theta", "0:7:0.01"],
        "4effd83fea42b2bed942c76a6b3fa1c0be68480af58f894e3cca710d43e7bd9b", 28408,
    ),
    "compare-csv": (
        ["compare", *_COMPARE],
        "8935e208fd242e395ceb03a8b31b42925318b97fccadece135151b863117fe74", 49847,
    ),
    "simulate-csv": (
        ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25", "--theta", "1.0",
         "--agents", "100000", "--reps", "20", "--seed", "42"],
        "ecc27f9aebd71839a02c915999987ffe99aa9ec521d2997101f9225347e27f0a", 175,
    ),
    "verify-json": (
        ["verify"],
        "5afc43884a58bf26a95db10a38b2ceb79ab4d5311fa36698adc33a26f1772748", 2522,
    ),
    # The iterated-dominance solver, at its default and at a tighter tolerance.
    "continuation-iterated-json": (
        ["continuation", "--sigma", "0.5", "--r", "0.25", "--solver", "iterated",
         "--format", "json"],
        "8a41daf064741fae9bf2c9e1a734006b136df5c426054cd7739288b371b4f2fe", 99,
    ),
    "continuation-iterated-tight-csv": (
        ["continuation", "--sigma", "3", "--rbar", "0.2", "--r", "0.6", "--solver", "iterated",
         "--tol", "1e-12"],
        "6ddd3e3b40b47681ac2a312113efea51b5757064b108840e3b949a6c224ba5f7", 45,
    ),
    # A three-member family sweep, the compare table as JSON, verify as CSV.
    "welfare-sweep-family-csv": (
        ["welfare-sweep", *_SWEEP],
        "bebcb3da62b838b84bc6a3ce44080f6fd942f0b36b3f2cdd671778f629fe5816", 84957,
    ),
    "welfare-sweep-family-json": (
        ["welfare-sweep", *_SWEEP, "--format", "json"],
        "0cec60ec73c2bd2396e27b85c5fecb6492a635a18efe95e04faf38f1f6e4e13d", 326910,
    ),
    "compare-json": (
        ["compare", *_COMPARE, "--format", "json"],
        "f275170b1f3716ca1d1a88b0c5875454c3e4808f9e6e35fcf13324b6429e3d6f", 168586,
    ),
    "verify-csv": (
        ["verify", "--format", "csv"],
        "4c14101e17c85341b7c8c902ecef164563edcf6acabb22fdb57c9fd48935ed77", 849,
    ),
    # Monte Carlo over a theta grid, in both modes; the signalling grid
    # crosses both edges of the intervention band.
    "simulate-grid-continuation-csv": (
        ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
         "--theta", "0:1:0.05", "--agents", "20000", "--reps", "7"],
        "848679604f7aa7c0b57097142612a09767361573903b806345232fe073734e7a", 1558,
    ),
    "simulate-grid-signaling-csv": (
        ["simulate", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
         "--theta=-1:8:0.25"],
        "8ecb8d92e4687fadd4fd92b2b859f4b0e92070ca14c780c9048c56c390748b64", 2105,
    ),
    "simulate-grid-signaling-json": (
        ["simulate", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
         "--theta=-1:8:0.25", "--format", "json"],
        "6d062cc9615b5f9369e3c45ed9af0c1dd23641760a1941120c45b10c330cf7bb", 10130,
    ),
    # At sigma = 1e-10 and theta = x = 1e6 every signal theta + eps rounds to
    # a neighbour of theta, so the attack count hinges on rounding alone.
    "simulate-rounding-csv": (
        ["simulate", "--sigma", "1e-10", "--rbar", "0.2", "--r", "0.5",
         "--x-cutoff", "1000000", "--theta", "1000000", "--agents", "1000000", "--reps", "3"],
        "8392c5f2b2d529bb176f86b9b9ca051f49806f8a9385f60232cad8e3f462662b", 193,
    ),
    # A dense continuation grid: 1,001 theta on one draw per replication.
    "simulate-dense-grid-csv": (
        ["simulate", "--sigma", "0.5", "--rbar", "0.2", "--r", "0.25",
         "--theta", "0:1:0.001", "--agents", "20000", "--reps", "7"],
        "2975632711366848d73733ceafb264562149ae4b0d674326851170619d50c809", 71431,
    ),
    # JSON encoder edge cases: the single signalling object, a float whose
    # 9-digit rounding prints differently as .9g (1e+09) and as a float repr
    # (1000000000.0), and an empty table.
    "signaling-json": (
        ["signaling", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--format", "json"],
        "683de175b2842cfd1cf375553e390541b2e4bd52e764f26a08ed57a1d906afee", 168,
    ),
    "welfare-sweep-1e9-json": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
         "--theta", "1e9:1e9:1", "--format", "json"],
        "9b76d9fd1c347efd1e928f5aa3108c565a6c4d2fb12f409e6a03f57ce5726cec", 167,
    ),
    "welfare-sweep-empty-json": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "",
         "--theta", "0:1:0.5", "--format", "json"],
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570", 3,
    ),
    # One golden per branch of the JSON float cell rule, where the .9g text
    # either is the cell or is fixed up: exponent cells that print as
    # 1550000000000.0, exponent cells beside the solver string constant, and
    # 1e-05 cells, where .9g and the float repr agree, beside 0.0 cells.
    "signaling-exponent-json": (
        ["signaling", "--sigma", "1e12", "--rbar", "0.2", "--rprime", "0.8", "--format", "json"],
        "4c78eff6d9e8033e3eb4b9dd0bc1cef86e0234d2f5ded77195d088214c5bfcab", 212,
    ),
    "continuation-exponent-json": (
        ["continuation", "--sigma", "1e12", "--r", "0.25", "--format", "json"],
        "55023d390c60880061b0c56dc2ddd043b6650f1dc032d2ec5eec4e4d37764cba", 125,
    ),
    "welfare-sweep-small-theta-json": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8",
         "--theta", "0:0.00005:0.00001", "--format", "json"],
        "8e8b4d87ee0dc5d87fe44a08a96c67501e96bf44efd4e39a19c419794904714b", 916,
    ),
    # 33,001 points per r_prime: 33 grid slices of statics.sweep, the
    # last one partial, in both formats.
    "welfare-sweep-slices-csv": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8",
         "--theta", "0:3.3:0.0001"],
        "d2eb4ff6fe41956d5b44090a4d6b04fcda7dd68779b36b39d67280a4aff74344", 2905723,
    ),
    "welfare-sweep-slices-json": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8",
         "--theta", "0:3.3:0.0001", "--format", "json"],
        "1b60cff5808136fdc6a21abd018a64c20f51a0c7f2d084aed041d088e0a9b1ad", 10434438,
    ),
    # The compare table over the same 33 slices, in both formats.
    "compare-slices-csv": (
        ["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
         "--theta", "0:3.3:0.0001"],
        "9e23df8ac3e8431d5337a061fc4574b0291106023a2015400c30b91bc23ab60d", 2524034,
    ),
    "compare-slices-json": (
        ["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
         "--theta", "0:3.3:0.0001", "--format", "json"],
        "71487f91e4673393840a63fbf552881c06550dfdebde6e2077c76098d5ae9119", 8109653,
    ),
    # The argv of the sweep-dense and compare-json benchmark workloads.
    "sweep-dense-csv": (
        ["welfare-sweep", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.5,0.8,1.0",
         "--theta", "0:7:0.0001"],
        "5098f4fb3943d6e7aed989c5c35ff156bd8a4d20bbd1c03ece8ea8f1841b2e07", 9275427,
    ),
    "compare-dense-json": (
        ["compare", "--sigma", "3", "--rbar", "0.2", "--rprime", "0.8", "--rprime-hi", "0.9",
         "--theta", "0:7:0.0001", "--format", "json"],
        "e712f1238791bc3ac0d965fd378c1665f4e115a1abd6a2c339391f35246971c5", 17196323,
    ),
}


@pytest.mark.parametrize("name", list(GOLDENS))
def test_output_bytes_match_golden(tmp_path, name):
    argv, digest, size = GOLDENS[name]
    out = tmp_path / "out"
    assert run([*argv, "--out", str(out)]) == 0
    data = out.read_bytes()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (digest, size)
