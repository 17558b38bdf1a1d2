"""Pinned outputs: SHA-256 digests of CLI stdout, reports and census results.

The digests pin the bytes of every sweepable statement's n <= 5 sweep, the
product sweeps with m = 3 at n <= 6 and with m = 4 at n <= 5, the n = 5, 6
and 7 surveys (with the n = 7 CSV and its manifest), the F_k and H_k
certifications and the ratio extremes, so a refactor that changes any of
them fails here.  Each command runs in process through `cli.main`.
"""

import argparse
import hashlib
import io
from contextlib import redirect_stdout

import pytest

from edimlab import cli
from edimlab.errors import BadParamsError
from edimlab.experiments import ratio_extremes
from edimlab.theorems import CHECKS

# theorem id -> (stdout, --report JSON) of `verify <id> --sweep 5`
SWEEP5 = {
    "ncondition": (
        "b03e6750698b28831fbb62a75ed35728cc0f1b93f857d56134632a24195074da",
        "bdf143e76d5e612efe01be3946d1ce78a7eb8ad882977976b0d0238a4c23d0fc",
    ),
    "corollary": (
        "b03e6750698b28831fbb62a75ed35728cc0f1b93f857d56134632a24195074da",
        "c42ad5c976809b1217cd6a7a78771d14e67d11c623e42f6a341bf861a79e4bcf",
    ),
    "vertex_bound": (
        "3131244fb2bc195f02475c5f31b53bd839b92a02b9c4d9fb48915b21ce912b3f",
        "12746d8d3f202ed837c89750a68bfed1a5d3f56ac57b0105e6ffd9c08ef5abb8",
    ),
    "edge_bound": (
        "3131244fb2bc195f02475c5f31b53bd839b92a02b9c4d9fb48915b21ce912b3f",
        "d809d784ff9ac1ab8c56c38c1d3aae26038cb70dc8a94e01ab7aa4fc49422bb5",
    ),
    "degree_lemmas": (
        "b03e6750698b28831fbb62a75ed35728cc0f1b93f857d56134632a24195074da",
        "f5c70dd4305303a26b4f15bd03e9f6a33c5eb755a9f4746591824d9fe5cc2104",
    ),
    "join": (
        "3131244fb2bc195f02475c5f31b53bd839b92a02b9c4d9fb48915b21ce912b3f",
        "148e0b9607db5c4bc8156f97e079c238ab844240d12213db4fd7f6fae0456ddf",
    ),
    "product": (
        "3131244fb2bc195f02475c5f31b53bd839b92a02b9c4d9fb48915b21ce912b3f",
        "601a248742af69295d6e2021518938035c855abf956282d8fd5ecfb10fe402e9",
    ),
}

# (m, n_max) -> (stdout, --report JSON) of `verify product --sweep N_MAX --m M`
# with more than two path copies; the report does not record m
PRODUCT_MORE_COPIES = {
    (3, 6): (
        "158dd096a2155abe458ba7710302166ca66476d22a7a64b7fe7a3036efad866b",
        "e7f331bd63c6e95564d6debfffe9535c60345ca0b315b15d3e898fdc48815b77",
    ),
    (4, 5): (
        "3131244fb2bc195f02475c5f31b53bd839b92a02b9c4d9fb48915b21ce912b3f",
        "601a248742af69295d6e2021518938035c855abf956282d8fd5ecfb10fe402e9",
    ),
}

# family -> (stdout, --report JSON) of `verify <family> --kmax 3`
KMAX3 = {
    "fk": (
        "ce7fd8cadbaca8bc6dd55075a6636759bcb3deafcffe7d2462636e63d9b1328d",
        "9c30e9222f8c7cf6244c4b40ac3dcf42f0b4dbc0e5f8fbec29b7d91146a67df5",
    ),
    "hk": (
        "8d6103039400bdd3868b9af72502fc01194f0e1a7332550d64e815cee9a6cf47",
        "dbbfe42b508b94a86b1b66bedfcfdc1c8a85613b8c1ee25c515d14f5ee713a97",
    ),
}

# n -> stdout of `survey N`
SURVEY = {
    5: "a0205bba2832b8b142736b7736d9fe12334f48ed5c3597845cc0cc383fa3cef6",
    6: "6e2d2437fdc1e727e442a12c151809eba6e6d834cfafb9048b586660dca77976",
    7: "ef031623b6e19736341452d8d2f39581c54ecea510ce8c1ea0d0afcf8f519efe",
}

# (CSV, .manifest.json) of `survey 7 -o survey7.csv`
SURVEY7_OUT = (
    "ef031623b6e19736341452d8d2f39581c54ecea510ce8c1ea0d0afcf8f519efe",
    "4df3b7cd864f46905e22fe5eb9aa823faa6f30a6ae4563b051abd979047d384d",
)

# "\n".join(repr(ratio_extremes(n)) for n = 2..5)
RATIO2TO5 = "b423bbb3985c8cac53615176bcbfc902a8503d937ba33b10c0f51659cac03636"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _run_with_report(argv, tmp_path) -> tuple[int, str, str]:
    report = tmp_path / "report.json"
    code, out = _run([*argv, "--report", str(report)])
    return code, _sha(out), _sha(report.read_text())


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("theorem", sorted(SWEEP5))
def test_sweep_outputs_are_pinned(theorem, threads, tmp_path):
    extra = ["--m", "2"] if theorem == "product" else []
    argv = ["--threads", threads, "verify", theorem, "--sweep", "5", *extra]
    assert _run_with_report(argv, tmp_path) == (0, *SWEEP5[theorem])


@pytest.mark.parametrize("m, n_max", sorted(PRODUCT_MORE_COPIES))
def test_product_sweeps_with_more_path_copies_are_pinned(m, n_max, tmp_path):
    argv = ["verify", "product", "--sweep", str(n_max), "--m", str(m)]
    assert _run_with_report(argv, tmp_path) == (0, *PRODUCT_MORE_COPIES[m, n_max])


@pytest.mark.parametrize("family", sorted(KMAX3))
def test_family_certificates_are_pinned(family, tmp_path):
    argv = ["verify", family, "--kmax", "3"]
    assert _run_with_report(argv, tmp_path) == (0, *KMAX3[family])


def test_survey_is_pinned():
    for n, digest in SURVEY.items():
        code, out = _run(["survey", str(n)])
        assert (code, _sha(out)) == (0, digest), n


def test_survey_is_the_same_at_two_threads():
    assert _run(["--threads", "2", "survey", "6"]) == _run(["--threads", "1", "survey", "6"])


def test_survey_output_file_and_manifest_are_pinned(tmp_path):
    csv = tmp_path / "survey7.csv"
    code, out = _run(["survey", "7", "-o", str(csv)])
    assert (code, out) == (0, f"wrote {csv} (15 rows)\n")
    manifest = csv.with_name(csv.name + ".manifest.json")
    assert (_sha(csv.read_text()), _sha(manifest.read_text())) == SURVEY7_OUT


def test_ratio_extremes_are_pinned():
    with pytest.raises(BadParamsError):
        ratio_extremes(1)
    assert _sha("\n".join(repr(ratio_extremes(n)) for n in range(2, 6))) == RATIO2TO5


def _verify_choices() -> list[str]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices["verify"]._actions if a.dest == "theorem")


def test_cli_verify_choices_come_from_the_registry():
    assert _verify_choices() == sorted([*CHECKS, "fk", "hk"])


@pytest.mark.parametrize("theorem", sorted(CHECKS))
def test_every_registered_check_runs_on_one_graph(theorem):
    extra = ["--m", "2"] if theorem == "product" else []
    code, out = _run(["verify", theorem, "--g", "path:3", *extra])
    assert code == 0
    assert out.startswith(f"{theorem}\tBg") and out.endswith("1 checked, 1 holds, 0 fails, 0 not_applicable\n")
