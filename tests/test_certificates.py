"""Replayable non-openness certificates: build, verify, reload, recheck."""

import json
import pathlib

import pytest

from tropibary.core import TropVector, rho, scalar
from tropibary.errors import BadInput
from tropibary.geometry import (
    _y_sample_text,
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
)
from tropibary.io import (
    certificate_from_json,
    certificate_to_json,
    dump_document,
    validate_document,
)


class TestIdOplusCertificate:
    def test_verdict_and_counts(self):
        cert = certify_id_oplus_not_open(4, samples=60, seed=7)
        assert cert.claim == "id-oplus-not-open"
        assert cert.verdict
        assert cert.data["obstructed"] == 60
        assert cert.data["limit_split_inside"]
        assert cert.data["target_weights"] == ["-1/4", "0"]
        assert cert.data["alpha_phi_forced"] == "1"

    def test_every_exhibit_is_obstructed(self):
        cert = certify_id_oplus_not_open(2, samples=40, seed=3)
        assert 0 < len(cert.data["exhibits"]) <= 8
        for ex in cert.data["exhibits"]:
            assert ex["alpha_phi"] == "1"

    def test_digest_tracks_the_seed(self):
        a = certify_id_oplus_not_open(2, samples=50, seed=7)
        b = certify_id_oplus_not_open(2, samples=50, seed=7)
        c = certify_id_oplus_not_open(2, samples=50, seed=8)
        assert a.data["digest"] == b.data["digest"]
        assert a.data["digest"] != c.data["digest"]

    def test_index_must_be_positive(self):
        with pytest.raises(BadInput, match=">= 1"):
            certify_id_oplus_not_open(0)


class TestYBetaCertificate:
    def test_verdict_and_gap(self):
        cert = certify_y_beta_not_open(2, samples=40, seed=7)
        assert cert.claim == "y-beta-not-open"
        assert cert.verdict
        assert cert.data["feasible"] == 40
        assert cert.data["extremal_points_ok"]
        assert cert.data["gap"] == rho(scalar("-1/2"), scalar("-2"))
        assert cert.data["gap"] > 0
        assert cert.data["target_point"] == ["-1/2", "-1/2"]
        assert cert.data["nu_min_value"] == "-2"
        assert cert.data["min_value_lower_bound"] == "-1/2"

    def test_gap_shrinks_but_stays_positive(self):
        gaps = [certify_y_beta_not_open(i, samples=10, seed=7).data["gap"] for i in (2, 4, 8)]
        assert gaps[0] > gaps[1] > gaps[2] > 0
        for i, gap in zip((2, 4, 8), gaps):
            assert gap == rho(scalar(f"{-(i - 1)}/{i}"), scalar("-2"))

    def test_exhibits_record_atoms(self):
        cert = certify_y_beta_not_open(4, samples=25, seed=5)
        assert 0 < len(cert.data["exhibits"]) <= 5
        for ex in cert.data["exhibits"]:
            assert ex["min_value"] != "-2"
            assert all(len(atom) == 3 for atom in ex["atoms"])

    def test_index_must_be_positive(self):
        with pytest.raises(BadInput, match=">= 1"):
            certify_y_beta_not_open(0)


@pytest.mark.parametrize("samples", [0, -3])
@pytest.mark.parametrize("certify", [certify_id_oplus_not_open, certify_y_beta_not_open])
def test_certificates_need_a_sample(certify, samples):
    with pytest.raises(BadInput, match="at least one sample"):
        certify(2, samples=samples, seed=7)


class TestRecheck:
    def test_recheck_replays_from_params(self):
        cert = certify_id_oplus_not_open(3, samples=40, seed=9)
        assert cert.recheck()
        cert2 = certify_y_beta_not_open(3, samples=20, seed=9)
        assert cert2.recheck()

    def test_tampered_digest_fails(self):
        cert = certify_id_oplus_not_open(2, samples=30, seed=7)
        digest = cert.data["digest"]
        cert.data["digest"] = ("0" if digest[0] != "0" else "1") + digest[1:]
        assert not cert.recheck()

    def test_tampered_verdict_fails(self):
        cert = certify_y_beta_not_open(2, samples=15, seed=7)
        cert.verdict = not cert.verdict
        assert not cert.recheck()

    @pytest.mark.parametrize("certify", [certify_id_oplus_not_open, certify_y_beta_not_open])
    def test_empty_certificate_fails(self, certify):
        cert = certify(2, samples=1, seed=7)
        cert.params["samples"] = 0
        assert not cert.recheck()

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda doc: doc.update(claim="z-not-open"),
            lambda doc: doc["params"].update(extra=1),
            lambda doc: doc["params"].update(samples="30"),
            lambda doc: doc["data"].pop("digest"),
        ],
        ids=["unknown claim", "extra param", "string samples", "no digest"],
    )
    def test_unrebuildable_certificate_fails(self, tamper):
        doc = json.loads(dump_document(certificate_to_json(certify_id_oplus_not_open(2, samples=30, seed=7))))
        tamper(doc)
        validate_document(doc, "certificate")
        assert not certificate_from_json(doc).recheck()

    def test_tampered_exhibit_fails(self):
        cert = certify_id_oplus_not_open(2, samples=30, seed=7)
        cert.data["exhibits"][0]["alpha_phi"] = "0"
        assert not cert.recheck()


GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def issued(name):
    """The certificate document a golden CLI run printed."""
    return json.loads((GOLDEN / name).read_text())["outputs"]["certificate"]


class TestIssuedCertificates:
    """Certificates already handed out must keep replaying: their digests
    do not depend on how the library represents scalars."""

    @pytest.mark.parametrize("name", ["counterexample-y-beta.out", "counterexample-id-oplus.out"])
    def test_stored_certificate_replays(self, name):
        doc = issued(name)
        validate_document(doc, "certificate")
        assert certificate_from_json(doc).recheck()

    def test_changed_atom_weight_fails(self):
        doc = issued("counterexample-y-beta.out")
        atom = doc["data"]["exhibits"][0]["atoms"][1]
        assert atom[2] != "-1/16"
        atom[2] = "-1/16"
        assert not certificate_from_json(doc).recheck()

    def test_sample_text_spells_the_issued_bytes(self):
        one = ((TropVector([-1, -1]), scalar(0)),)
        two = one + ((TropVector(["-15/32", "-15/32"]), scalar("-1/32")),)
        assert _y_sample_text(one) == "((TropVector([-1, -1]), TropScalar('0')),)"
        assert _y_sample_text(two) == (
            "((TropVector([-1, -1]), TropScalar('0')), "
            "(TropVector([-15/32, -15/32]), TropScalar('-1/32')))"
        )


class TestSerialization:
    def test_roundtrip_preserves_recheck(self):
        cert = certify_id_oplus_not_open(2, samples=30, seed=7)
        doc = certificate_to_json(cert)
        validate_document(doc, "certificate")
        reloaded = certificate_from_json(json.loads(dump_document(doc)))
        assert reloaded.claim == cert.claim
        assert reloaded.params == cert.params
        assert reloaded.data == cert.data
        assert reloaded.verdict == cert.verdict
        assert reloaded.recheck()

    def test_y_roundtrip_keeps_float_gap(self):
        cert = certify_y_beta_not_open(4, samples=15, seed=7)
        doc = json.loads(dump_document(certificate_to_json(cert)))
        validate_document(doc, "certificate")
        assert certificate_from_json(doc).data["gap"] == cert.data["gap"]
        assert certificate_from_json(doc).recheck()

    def test_codec_round_trip_matches_constructor(self):
        cert = certify_id_oplus_not_open(2, samples=10, seed=1)
        assert certificate_from_json(certificate_to_json(cert)) == cert
