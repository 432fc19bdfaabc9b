"""Replayable non-openness certificates: build, verify, reload, recheck."""

import hashlib
import json
import pathlib
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest

from tropibary import geometry
from tropibary.barycenter import barycenter_point
from tropibary.core import ZERO, TropVector, _cmp, _ratio, odot, residual, rho, scalar, trop_min
from tropibary.errors import BadInput, InfeasibleBarycenter, TropibaryError
from tropibary.geometry import (
    _Y_DROPS,
    _Y_PARAM_GRID,
    _Y_WEIGHT_TEXT,
    Certificate,
    _y_atoms,
    _y_draw,
    _y_sample_text,
    _y_table,
    _YEntry,
    certify_id_oplus_not_open,
    certify_y_beta_not_open,
    extremal_points,
    hull_membership,
    phi_min,
    y_polytope,
)
from tropibary.io import (
    certificate_from_json,
    certificate_to_json,
    dump_document,
    validate_document,
)
from tropibary.measures import IdemMeasure


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
        def atom(coords, weight):
            # an (entry, weight) pair at denominator 32; the text reads
            # only the entry's text and the weight
            p = TropVector(coords)
            return _YEntry(0, 0, 0, 0, 0, True, reference_point_text(p), p), int(scalar(weight) * 32)

        one = [atom(["-1", "-1"], "0")]
        two = one + [atom(["-15/32", "-15/32"], "-1/32")]
        texts = {}
        assert _y_sample_text(one, 32, texts) == "((TropVector([-1, -1]), TropScalar('0')),)"
        assert _y_sample_text(two, 32, texts) == (
            "((TropVector([-1, -1]), TropScalar('0')), "
            "(TropVector([-15/32, -15/32]), TropScalar('-1/32')))"
        )
        assert texts == {0: "TropScalar('0'))", -1: "TropScalar('-1/32'))"}


def reference_point_text(p: TropVector) -> str:
    """A point's part of a sample's digest text."""
    return "(TropVector([" + ", ".join(map(str, p)) + "]), "


def reference_y_points(i: int) -> tuple:
    """What the y-beta sampler may draw for the target c_i, in Fractions,
    each point as (p, cap, attains, text): the largest weight cap <= 0
    with cap odot p <= (c, c) coordinatewise, whether it reaches c in both
    coordinates, and p's part of the digest text.  The points are the
    normalizer (-1, -1), the hook's three legs (-1-u, -1), (-1, -1-u) and
    (-1+u, -1+u) at each u of _Y_PARAM_GRID, and the diagonal points
    c + u(0 - c) at each u of _Y_PARAM_GRID."""
    c = Fraction(-1) + Fraction(1, i)

    def entry(p):
        cap = trop_min(trop_min(residual(c, p[0]), residual(c, p[1])), ZERO)
        attains = not _cmp(odot(cap, p[0]), c) and not _cmp(odot(cap, p[1]), c)
        return p, cap, attains, reference_point_text(p)

    legs = tuple(
        tuple(entry(TropVector(q)) for q in ([-1 - u, -1], [-1, -1 - u], [-1 + u, -1 + u]))
        for u in _Y_PARAM_GRID
    )
    diagonal = tuple(entry(TropVector([c - u * c, c - u * c])) for u in _Y_PARAM_GRID)
    return entry(TropVector([-1, -1])), legs, diagonal


def reference_sample_text(atoms, texts: dict) -> str:
    """The digest text of a sample's atoms as the sampler spelled it
    before it checked samples over integers; `texts` maps each atom's
    point to its part of the text."""
    parts = [texts[p] + _Y_WEIGHT_TEXT.format(w) + ")" for p, w in atoms]
    return "(" + ", ".join(parts) + ("," if len(parts) == 1 else "") + ")"


def reference_certify_y_beta(i: int, samples: int = 10000, seed: int = 7) -> Certificate:
    """`certify_y_beta_not_open` as it was before it checked samples over
    integers: each sample built as an `IdemMeasure` and checked through
    `barycenter_point` and `mu(phi_min)`."""
    if i < 1:
        raise BadInput("the sequence index must be >= 1")
    if samples < 1:
        raise BadInput("a certificate needs at least one sample")
    hull = y_polytope()
    a = TropVector([-2, -1])
    b = TropVector([-1, -2])
    nu = IdemMeasure([(a, ZERO), (b, ZERO)])
    c = Fraction(-1) + Fraction(1, i)
    c_i = TropVector([c, c])
    if hull_membership(hull, c_i) is None:
        raise TropibaryError("diagonal target fell outside the hull")
    center = barycenter_point(nu)
    if center != TropVector([-1, -1]):
        raise TropibaryError(f"barycenter of nu is {center!r}, expected (-1,-1)")
    nu_val = nu(phi_min)
    if nu_val != -2:
        raise TropibaryError(f"nu evaluates the min table to {nu_val}, expected -2")
    gap = rho(c, nu_val)
    rng = random.Random(seed)
    digest = hashlib.sha256()
    exhibits = []
    feasible = 0
    infeasible = 0
    attempts = 0
    normalizer, legs, diagonal = reference_y_points(i)
    while feasible < samples:
        attempts += 1
        if attempts > samples * 20:
            raise InfeasibleBarycenter(f"sampling could not keep hitting {c_i!r}")
        picks = [normalizer] + [rng.choice(legs)[rng.randrange(3)] for _ in range(rng.randrange(4))]
        if rng.random() < 0.8:
            # at c = 0 the diagonal is the origin alone, and nothing is drawn
            picks.append(rng.choice(diagonal) if c != 0 else diagonal[0])
        attain = [k for k, (_, _, hits, _) in enumerate(picks) if hits]
        if not attain:
            infeasible += 1
            continue
        keep = {rng.choice(attain), 0}
        pairs = []
        for k, (p, cap, _, _) in enumerate(picks):
            if k in keep:
                pairs.append((p, cap))
            elif rng.random() >= 0.2:
                pairs.append((p, odot(cap, rng.choice(_Y_DROPS))))
        mu = IdemMeasure(pairs)
        if barycenter_point(mu) != c_i:
            raise TropibaryError("constructed sample missed the target barycenter")
        val = mu(phi_min)
        if _cmp(val, c) < 0:
            raise TropibaryError(f"min-table value {val} fell below {c}")
        for p, w in mu.atoms:
            if _cmp(odot(w, p[0]), c) == 0:
                if _cmp(p[0], p[1]) or _cmp(w, c) < 0:
                    raise TropibaryError("a coordinate witness left the diagonal")
        if rho(val, nu_val) < gap:
            raise TropibaryError("sample closer to nu than the certified gap")
        feasible += 1
        digest.update(reference_sample_text(mu.atoms, {p: text for p, _, _, text in picks}).encode())
        if len(exhibits) < 5:
            exhibits.append(
                {
                    "atoms": [[str(p[0]), str(p[1]), str(w)] for p, w in mu.atoms],
                    "min_value": str(val),
                }
            )
    ext = set(extremal_points(hull))
    ext_ok = ext == {a, b, TropVector([0, 0])}
    data = {
        "target_point": [str(c), str(c)],
        "nu_min_value": "-2",
        "min_value_lower_bound": str(c),
        "gap": gap,
        "feasible": feasible,
        "infeasible_rejected": infeasible,
        "extremal_points_ok": ext_ok,
        "exhibits": exhibits,
        "digest": digest.hexdigest(),
    }
    verdict = feasible == samples and ext_ok
    return Certificate(
        claim="y-beta-not-open",
        params={"i": i, "samples": samples, "seed": seed},
        data=data,
        verdict=verdict,
    )


class TestIntegerSampler:
    """The y-beta certifier checks each sample over integers at the common
    denominator of `_y_table(i)`; it must issue what the sampler that
    built every sample as an `IdemMeasure` issued."""

    @pytest.mark.parametrize("i", [1, 2, 3, 4, 5, 7, 8, 16, 100])
    def test_same_certificate_as_the_measure_sampler(self, i):
        # i = 1 is the c = 0 branch; 5, 7 and 100 give denominators other than 16
        for seed in range(25):
            for samples in (1, 7, 50):
                got = certify_y_beta_not_open(i, samples=samples, seed=seed)
                want = reference_certify_y_beta(i, samples=samples, seed=seed)
                assert (got.data, got.verdict) == (want.data, want.verdict), (i, seed, samples)

    @pytest.mark.parametrize("i", [1, 5, 8])
    def test_every_sample_is_the_measure_it_stands_for(self, i):
        table = _y_table(i)
        den = table.den
        c = Fraction(-1) + Fraction(1, i)
        rng = random.Random(7)
        drawn = 0
        for _ in range(400):
            pairs = _y_draw(table, rng)
            if pairs is None:
                continue
            drawn += 1
            mu = IdemMeasure([(e.point, _ratio(w, den)) for e, w in pairs])
            atoms, top, bx, by, low = _y_atoms(pairs)
            assert [(e.point, _ratio(w, den)) for e, w in atoms] == list(mu.atoms)
            # the first-seen point object is the one kept
            assert all(e.point is p for (e, _), (p, _) in zip(atoms, mu.atoms))
            assert top == 0
            assert TropVector([_ratio(bx, den), _ratio(by, den)]) == barycenter_point(mu) == TropVector([c, c])
            assert _ratio(low, den) == mu(phi_min)
        assert drawn > 300

    def test_table_is_the_points_at_one_denominator(self):
        for i in (1, 5, 7, 100):
            table = _y_table(i)
            den = table.den
            normalizer, legs, diagonal = reference_y_points(i)
            pairs = [(normalizer, table.normalizer), *zip(diagonal, table.diagonal)]
            pairs += [pair for leg, row in zip(legs, table.legs) for pair in zip(leg, row)]
            c = Fraction(-1) + Fraction(1, i)
            assert den == 16 * i
            assert Fraction(table.c, den) == c
            assert [Fraction(d, den) for d in table.drops] == _Y_DROPS
            for (p, cap, attains, text), e in pairs:
                assert (e.point, e.attains, e.text) == (p, attains, text)
                assert Fraction(e.x, den) == p[0] and Fraction(e.y, den) == p[1]
                assert Fraction(e.low, den) == min(p[0], p[1]) and Fraction(e.cap, den) == cap
            # ranks order the points as their coordinates do; equal points share one
            for (p, *_), e in pairs:
                for (q, *_), f in pairs:
                    assert (e.rank < f.rank) == (p.coords < q.coords)
            assert table.normalizer.rank == table.legs[0][0].rank == table.legs[0][1].rank
            assert table.legs[16][2].rank == table.diagonal[16].rank

    @pytest.mark.parametrize("where", ["normalizer", "leg", "diagonal"])
    def test_a_raised_cap_is_caught(self, monkeypatch, where):
        monkeypatch.setattr(geometry, "_y_table", lambda i: sabotaged(_y_table(i), where))
        with pytest.raises(TropibaryError):
            certify_y_beta_not_open(8, samples=300, seed=7)

    def test_a_raised_cap_is_caught_under_python_O(self):
        # the checks are `if ... raise`, so they hold with assertions off
        script = textwrap.dedent(
            """
            import sys
            from tropibary import geometry
            from tropibary.errors import TropibaryError
            sys.path.insert(0, sys.argv[1])
            from test_certificates import sabotaged

            assert False, "assertions are on"
            table = geometry._y_table
            geometry._y_table = lambda i: sabotaged(table(i), sys.argv[2])
            try:
                geometry.certify_y_beta_not_open(8, samples=300, seed=7)
            except TropibaryError as exc:
                print(type(exc).__name__)
            """
        )
        here = pathlib.Path(__file__).resolve().parent
        src = str(here.parent / "src")
        for where in ("normalizer", "diagonal"):
            out = subprocess.run(
                [sys.executable, "-O", "-c", script, str(here), where],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": src, "PATH": ""},
                timeout=120,
            )
            assert out.returncode == 0, out.stderr
            assert out.stdout.split() == [{"normalizer": "NotNormalized", "diagonal": "TropibaryError"}[where]]


def sabotaged(table, where: str):
    """`table` with one cap raised by 1/16: the normalizer's, the first
    leg point's at u = 1/2, or the diagonal point's at u = 1/2."""
    def raised(e):
        return e._replace(cap=e.cap + table.den // 16)

    if where == "normalizer":
        return table._replace(normalizer=raised(table.normalizer))
    if where == "leg":
        legs = list(table.legs)
        legs[8] = (raised(legs[8][0]), *legs[8][1:])
        return table._replace(legs=tuple(legs))
    diagonal = list(table.diagonal)
    diagonal[8] = raised(diagonal[8])
    return table._replace(diagonal=tuple(diagonal))


# sha256 of the issued document, `dump_document(certificate_to_json(...))`,
# for (claim, i, seed, samples), as the certifiers wrote it before they
# drew from tables cached per i; i = 1 is the c = 0 branch of y-beta.
PINNED_CERTIFICATES = {
    ("id-oplus", 1, 0, 1): "ba6d183985217b5c51ca9e7beef4fb0e1546bd45aa8aff945f57a628892262bf",
    ("id-oplus", 1, 0, 50): "b2d54c7212a0e8ba53035a08b809cd06cc52d8931393f6515a9d39955c5f352f",
    ("id-oplus", 1, 7, 1): "88f49440f7bdf98021be1299de6999473f111a24dbbad21e7dc07c5911620d75",
    ("id-oplus", 1, 7, 50): "ff1e5c8a0c24d7ddc1598ab7b54943dc76e3d2ff3111f948c722161aa8bf1dc6",
    ("id-oplus", 1, 31, 1): "eccd4f0a36ce61d4612cda84e65b1784fd979c6e57c589b1cc053fca8cb60b40",
    ("id-oplus", 1, 31, 50): "518a426e31847e0c6818902cb852f353390d94149aa6ff584cc20025b9c4fa05",
    ("id-oplus", 2, 0, 1): "914cd460090c7fb596e42b38763fd5e3950dc70450c76db5e4e09e6e14f243b4",
    ("id-oplus", 2, 0, 50): "91f732f171c79b648dd424c7d5df9d5ac9d495f3597807923079f47bad2ad54d",
    ("id-oplus", 2, 7, 1): "83a5eecf791459d657b3d95a654729a5217315b625180148d3d18934a0fd0161",
    ("id-oplus", 2, 7, 50): "c3ba64590cbd4b5454641d08c1ebaabf26efd687ee6d225f02f21683be08d603",
    ("id-oplus", 2, 31, 1): "4b8deddb879d3f972a408e18b687ea390c71db8bed5ea4c1a75d0a2f50c369c6",
    ("id-oplus", 2, 31, 50): "3564bc1b940b5aa91a5b23d7df9c076814e6c4e32b758dd3ae7bb889839f5882",
    ("id-oplus", 3, 0, 1): "2d9b200ed1bc9cfe087731c21fac26a7692b413d8450f118b487fff85413fe10",
    ("id-oplus", 3, 0, 50): "6069f8dbbc5a6e730ed09ffd7ed44a25b5271e8dc04d262e7bd77338734ade28",
    ("id-oplus", 3, 7, 1): "28f46e9371ff791db2b1480b3651edb7056982045fd2827434d48b1992983364",
    ("id-oplus", 3, 7, 50): "e41f52d03a7549692e33a29f7b1042496543925f19b0ed28c1d455d7c824a942",
    ("id-oplus", 3, 31, 1): "381981fb56531474876d205e097738209a832ca102b63e46965c4ca4708dfa26",
    ("id-oplus", 3, 31, 50): "77a46f05adbf414468ce3657d3cdd60c07e0efd5de5c52f6d7f3e8ebe023e39b",
    ("id-oplus", 4, 0, 1): "9186298677b59bfc20d2f8cc0bfdc8dd592d30ee5f440fb502be5aa51d305ee1",
    ("id-oplus", 4, 0, 50): "7c41d1481cc2c134ad8cbce82c9e0ae1bb855e189f91693e550b818a9d1fc49b",
    ("id-oplus", 4, 7, 1): "d601e8fdeff2082a33470661e3a9fb9e76c0bebba6b23d925a991076546e1a90",
    ("id-oplus", 4, 7, 50): "bccf55b226975a023bfd6bad42400d8f18c351c0c60747c4ab87904a4c497cb8",
    ("id-oplus", 4, 31, 1): "8e476f78c8a0359e9c9b729cdba0c3c34173d29d8fd27284fd4c9260dd2ef51e",
    ("id-oplus", 4, 31, 50): "f5343cca9d249ca5a61fa252bef28d1ea4afe2582895ff8a4bca0b694a7bc283",
    ("id-oplus", 8, 0, 1): "a24e3635e283a8cf99ac48418fabba39e3649adc705c0d2a7394426675b30e42",
    ("id-oplus", 8, 0, 50): "d2d431f0d7299b03abfb4f1f135ad91d74b853539173403760a331f4a1f75417",
    ("id-oplus", 8, 7, 1): "cb581f474920f28622aa7b6cd078695f77087f6c37e355c300be84d95a48b68a",
    ("id-oplus", 8, 7, 50): "778043f46761d26e12f8cae510320a70a90cd0a1ff27c2b46ea9d4c309c47975",
    ("id-oplus", 8, 31, 1): "5e8f21efc7c9ba48321b188a4cc402dd94a71c5794f0bed5b03b21a824bfdb80",
    ("id-oplus", 8, 31, 50): "ee66750ffd708078a37650d97a6e24cdd138aae2be5443833040e11303d6b29b",
    ("id-oplus", 16, 0, 1): "69d8c18b2e476abe7121acc02bdb775ca56579b6cf9f488b8281e5404ffee192",
    ("id-oplus", 16, 0, 50): "9c6005c84322e528a39cd8c32759118134ceee159e60763a2b3f3cb58337452a",
    ("id-oplus", 16, 7, 1): "94799dabd314cd83eb042d5b0247ad5e172fa68705f472857cae772f2fdd50d7",
    ("id-oplus", 16, 7, 50): "e8831fc39375f065ca1cd92853313e399c8fd92fa7f3e2525466537be00718b7",
    ("id-oplus", 16, 31, 1): "ed124a749b09869bad77e48cdfd6c986c2d77f330aa0a3a738321ac1eee978ae",
    ("id-oplus", 16, 31, 50): "97eb85e32972df4ec132216e74d46b6a27b9d91168612c29f2c404087d77f99f",
    ("y-beta", 1, 0, 1): "ede54e8c9c35b5c7590cc8ff46b10e6a05e9160cd5c6cd142399b9c77e8a6df1",
    ("y-beta", 1, 0, 50): "975157503b9a2864d8e5b1850ff00d14aee6687a781afeb1ead47062acbf1f25",
    ("y-beta", 1, 7, 1): "8f23f112983f34fb0a2e1e411fff7b35b5be1e9078bff5d644d72e40f5c42236",
    ("y-beta", 1, 7, 50): "8472693609af21e305fa5470b882ed14db303fe215474c62cc4e4107d2eefead",
    ("y-beta", 1, 31, 1): "53b85abd36dc6f016b41c653de000627090affd7b8ae71a305edeb9a6dbb3286",
    ("y-beta", 1, 31, 50): "56b079c9eb07b25ce08bda9f6fb0983f6beeb2b2b1e21e084081f2b1c13b39a1",
    ("y-beta", 2, 0, 1): "f5e4b383fbafe4d00725c36bcc203e9e5d75c466c3ad1773b35f00c1bc8ae037",
    ("y-beta", 2, 0, 50): "0837d9135f49ecfd2d1e52cdf76d07d6cc812876e3681722118e0e93b7d4f460",
    ("y-beta", 2, 7, 1): "5a920111100e99e6ec859ba9a8355fac5ffc31c1f5be65505f9e220fe2927814",
    ("y-beta", 2, 7, 50): "feacb3daca21c99031d47d76a6fdf5469cd2b49f692e58f192fb0de46bc1b0f5",
    ("y-beta", 2, 31, 1): "c912ccb5a264eb92c2882efd5a94f62aed551cdca3ff77d0c61fb88a4854cb99",
    ("y-beta", 2, 31, 50): "7b48deeaccd0059a6a417d3a97112cb195214fb2e01dde003fa9800422ec8352",
    ("y-beta", 3, 0, 1): "ab290b8543d5de302274bc670313644c7157e1b0693abbbadbde4e3eb56ba521",
    ("y-beta", 3, 0, 50): "4028664d7ad262d8761cf7c5cdc281ac14fc492be59b4bf10db772a699914070",
    ("y-beta", 3, 7, 1): "65b458c69a2402ae13082700902a5d144b2a2d6e21fd3cbd0667c0a758f65057",
    ("y-beta", 3, 7, 50): "00137a03776d2471901b13f9be63a0a7b06bb561eee171994e3bec9986a35dfd",
    ("y-beta", 3, 31, 1): "02b2447bc102cc05660ef3d7ebdec4be7024a85cefdb551eda41f833810a16b8",
    ("y-beta", 3, 31, 50): "20dee967e5b6011fd19ffb71ce9788e5eca5c305f297170ee3bfa9b2ff340a1c",
    ("y-beta", 4, 0, 1): "1a6122270e3dfa04dbd6384cf4fea08ee560e6d2589879ad772b0b985385572b",
    ("y-beta", 4, 0, 50): "76667fa2c548d03c6b8a704259cc7e41b8f66d880ae60a655622f85fb1e80c77",
    ("y-beta", 4, 7, 1): "0adb257a9ddc1715cfc2b90e72fdbdd1156cd0484a1d67bdda5de5e86087f9f4",
    ("y-beta", 4, 7, 50): "6025a79394b012fdac2a6c9a976ade72edaf3e045bdd090b4fc7eb5a0460079d",
    ("y-beta", 4, 31, 1): "6a745a32f6fe43415111474250d63e71ea9f64e457254ef113e8c83ac840c55b",
    ("y-beta", 4, 31, 50): "04b32b69a60c71d1614ee60383b6c632147ba42925bf31a33bfb7aace573bedb",
    ("y-beta", 8, 0, 1): "9984957c918cd67c1c8ace7dd95a245c4589aefdd25f1a442d855526722caf83",
    ("y-beta", 8, 0, 50): "7a21a7b055643b02a6e32ad7a5310ec1f01d8f3c8702d4037d3f23578bc1cca8",
    ("y-beta", 8, 7, 1): "edb7ab668e55ed0e7029914e8649b518a7ddf368669254f07632187669ee7d37",
    ("y-beta", 8, 7, 50): "aac428897902403e111e58fb8a6b1a37b52cd149b5ff78a2eb24bdb0e95c7fa5",
    ("y-beta", 8, 31, 1): "66e66eb38de1fcd5a62d9fe13b95a1e37864ec1ef9232c761bc012857f25643a",
    ("y-beta", 8, 31, 50): "db42715bf645aabe97812cf0abfcfac3beab8b86c752cb55349bdb074f5efacd",
    ("y-beta", 16, 0, 1): "f4af517bdf0f744ef075128b529aefdd7cee5c05ef9b51d46f553114655b86f5",
    ("y-beta", 16, 0, 50): "4d68b96308217a457f8ec59e849a467415eb125b158877acabc5d0af0b3ac84d",
    ("y-beta", 16, 7, 1): "a0223d8ebb1ea26b07b30eab048e657e10f7a5f86fbd46e9bf2993dcb11e3ede",
    ("y-beta", 16, 7, 50): "e741f636f537359ba36e1439026d70eca64276a16e74cd0ccbb1e2bc14a123d6",
    ("y-beta", 16, 31, 1): "bb3991b2a73e3bd526df91789fec4775154887e75e82f93bc8d7c0b6fcef36e6",
    ("y-beta", 16, 31, 50): "a9fdaeb027f61f2cd754df15ecb9afeb198449291c5f82eb62e680aa09d10981",
}

CERTIFIERS = {"id-oplus": certify_id_oplus_not_open, "y-beta": certify_y_beta_not_open}


@pytest.mark.parametrize("claim, i, seed, samples", PINNED_CERTIFICATES)
def test_certificate_bytes_are_pinned(claim, i, seed, samples):
    cert = CERTIFIERS[claim](i, samples=samples, seed=seed)
    text = dump_document(certificate_to_json(cert))
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_CERTIFICATES[claim, i, seed, samples]
    assert cert.verdict and cert.recheck()


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
