import hashlib

import numpy as np
import pytest

from repmoduli.cyclo import factorize
from repmoduli.gf import FieldError, gf_make
from repmoduli.groups import _prime_power, psl2_model

from gf_ref import first_irreducible, ref_field

# every prime power q <= 256, the fields the tables are built for
_FIELDS = [_prime_power(q) for q in range(2, 257) if len(factorize(q)) == 1]


def test_gf4_generator_order_three():
    f = gf_make(2, 2)
    nu = f.generator
    assert nu != 1
    assert ref_field(2, 2).pow(nu, 3) == 1
    assert ref_field(2, 2).pow(nu, 2) != 1


def test_gf9_unique_involution():
    f = gf_make(3, 2)
    nu = f.generator
    assert ref_field(3, 2).pow(nu, 8) == 1
    assert ref_field(3, 2).pow(nu, 4) == f.neg[1]


def test_field_axioms_exhaustive_small():
    for p, n in [(2, 2), (3, 1), (2, 3), (5, 1), (3, 2)]:
        f = gf_make(p, n)
        els = list(range(f.q))
        for a in els:
            for b in els:
                assert f.add[a, b] == f.add[b, a]
                assert f.mul[a, b] == f.mul[b, a]
                if b:
                    assert f.mul[f.mul[a, b], f.inv[b]] == a
            if a:
                assert f.mul[a, f.inv[a]] == 1
        for a in els[:6]:
            for b in els[:6]:
                for c in els[:6]:
                    assert f.mul[a, f.add[b, c]] == f.add[f.mul[a, b], f.mul[a, c]]


def test_frobenius_fixes_exactly_prime_field():
    for p, n in [(2, 2), (2, 3), (3, 2)]:
        f, ref = gf_make(p, n), ref_field(p, n)
        fixed = [a for a in range(f.q) if ref.pow(a, p) == a]
        # constants are encoded as the integers 0..p-1
        assert sorted(fixed) == list(range(p))


def test_frobenius_is_additive_and_multiplicative():
    f = gf_make(2, 3)
    square = [ref_field(2, 3).pow(a, 2) for a in range(f.q)]
    for a in range(f.q):
        for b in range(f.q):
            assert square[f.add[a, b]] == f.add[square[a], square[b]]
            assert square[f.mul[a, b]] == f.mul[square[a], square[b]]


def test_generator_exact_order():
    for p, n in [(2, 2), (2, 3), (2, 5), (3, 1), (3, 2), (11, 1), (19, 1)]:
        f, ref = gf_make(p, n), ref_field(p, n)
        m = f.q - 1
        assert ref.pow(f.generator, m) == 1
        assert all(ref.pow(f.generator, m // r) != 1 for r, _ in factorize(m))


def test_bad_field_arguments():
    with pytest.raises(FieldError):
        gf_make(6, 1)
    with pytest.raises(FieldError):
        gf_make(2, 15)  # 2^15 above the supported bound
    with pytest.raises(FieldError):
        gf_make(257)    # the first prime above the table bound


def test_size_bound_comes_before_the_primality_test():
    # a prime far above the bound is refused by its size, without a
    # primality test by trial division
    with pytest.raises(FieldError, match="above supported bound"):
        gf_make(2305843009213693951)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                                 (83, 1)])
def test_tables_match_slow_arithmetic(p, n):
    # every table against the scalar reference, in its array form and,
    # where the scalar lookups read one, in its tuple view
    f, ref = gf_make(p, n), ref_field(p, n)
    for a in range(f.q):
        assert f.neg_table[a] == f.neg[a] == ref.neg(a)
        assert f.add[a, f.neg[a]] == 0
        assert f.inv_table[a] == f.inv[a]
        if a:
            assert ref.mul(a, f.inv[a]) == 1
        assert f.trace[a] == ref.trace(a) and 0 <= f.trace[a] < p
        for b in range(f.q):
            assert f.mul_table[a][b] == f.mul[a, b] == ref.mul(a, b)
            assert f.add_table[a][b] == f.add[a, b] == ref.add(a, b)
    assert f.inv[0] == 0


def test_modulus_and_generator_match_reference():
    # all 70 fields: the modulus is the first irreducible by Rabin's test,
    # and the generator the first element of order q - 1 under the
    # reference's arithmetic
    assert len(_FIELDS) == 70
    for p, n in _FIELDS:
        f = gf_make(p, n)
        assert f.modulus == first_irreducible(p, n), (p, n)
        assert f.generator == ref_field(p, n).first_generator(), (p, n)


# sha256 of each field's modulus, generator and tables, pinned from the
# scalar polynomial construction that built the tables before the digit
# arrays did
_DIGESTS = {
    2: "9e5be8616b0ac595b861462dd0f58712a60fb56dd2c1b05ea87f0d0b0047841b",
    3: "d411071642af03a63f8f3df9c930d64bef63197bf3b774e90eec47cc2b8048c6",
    4: "df1a1c9db9cf010a7412d70dac7ce1d1848705999202613789f528649e2bc32e",
    5: "1e2b3d241d6f6e542f5b76b388051a48bdb4b4219819fee942340ecf28dce14d",
    7: "9f2ab9a96216e5e41ccf3c5fdf26ee64ae0cb389fdcae241b4c6f3dc691612f6",
    8: "12909699d1cc90dbb5a19030973583dffef8ced043ed55805c5e09c39d4b64b3",
    9: "957403df8330a7ce114ffa22a46b2e80ff17b9267ee1b606f9bee435ee5542c9",
    11: "9c8898fd604309c08d4a7350c3588a074eee622d29c7af3c2c4b8024369bce89",
    13: "522067e094e7b64e5ee798d9fa3df0bfe8d436ea236c7d70c65fbb6c89b962e1",
    16: "184d331693d17cb560672ccdca8abe8479453590b57d2e742f3999419905c862",
    17: "70ef019ea982a18082c84b12e3e55100a8c5167fd0bbcd6026dc52771d73d2fb",
    19: "075ee14261824f6135e88d0f276527b163afc26718c9ac5d1317fcd1edbdecea",
    23: "7509ab75290e648f0479dfc717e3ac8735322586593a1a989d34529797df070a",
    25: "048d091ea4e21d90cd23395fd3c0645e102b6f0d01f6e2aca07eadd804dabb0b",
    27: "b1803d7b494c987c6af068116a35955a7b4489e3808af873407f73e3915e2aaa",
    29: "18927b834005d0ce57abda0eaa426794cea588104aaeb302b98e22834d93b465",
    31: "070ca82eaeb12724eebc151a8595fdb8fddf5d4b046fcf79245df92fd3accd89",
    32: "9c1946ea86c01b1777bca45e2f555fa77117d083f84290ed699105471ec13c8d",
    37: "156380d3de993ff006ba834af92049d0777615b72318f73a8db41f87ceb12a4e",
    41: "d0edc45a051948ef8dc49442aec60624d18d3679d0caec545beb7554132f3dc7",
    43: "5d460add5a56fc19b10dc37f80ec4897cbaa03acdc48c50bccde810027d30623",
    47: "4fc1d28e3e85057d886fe91c11f9d37b1f3d1b94383cb414206a739257eafbaa",
    49: "e60d4af8e97ab7accf30b59b9f02d1d9b3b34062b024a863c3ee7ecc3daaaf41",
    53: "b410271dcf70ae1b365f8fa33fed0cc9e176b0133c439e8465895f52b99b8ca3",
    59: "f570958ba2a35dd7b3b613e2af2b9ec6a7c7d2a731baecd0bbbe049727fee697",
    61: "5b54b1d70a462592490f5f1e471e563c393a65d48e5aa5915c3d24a538cb2e24",
    64: "f9d2d664ceb8ba40b388d91deb0b108b4b81933a301b235c7137143a874e2f82",
    67: "994c73cb1c3160808ae70802d441d1843b6e5da8e2e3408740c0216fab5b7b6c",
    71: "24f72a9c2a25a30c1b310343d983ff314d91119ad2e70b449d6f2541af6c15d0",
    73: "748bd1586aa424d1ebd8ad8b0f0e965acc35e1bd230316063bcb5ba670cbb0c9",
    79: "cb9f19b4d2ed2eed0cf6384906f793ec4c9ea0f8dfe2f9ff354538985e3f1709",
    81: "646f0be94519000e6622c79b19db9d3e5c0f8585469e9fc50b27ef50c94d65d5",
    83: "c1a187abd1485a97e42032702a4917ad9b7663ad339ef0ba4cc23e5ce52f17df",
    89: "51feaee958c95930a5416e0df62f3748baf35129109b2adf2695e085050f530a",
    97: "23fe2e9a5f562d94562d0663d29a25ba2e63ca86567fde5b0be3a3cf870e7970",
    101: "74ef735a0ea380e5fe42362a68a116745db4a0043ec5d093a2a04c9d017eb3cc",
    103: "085de0b911f6e8a1503de1062dfbf352f7a77ab18233162a968160e9aa86f779",
    107: "7d21638dec430b03769eaf48f3e6e3a78b0469b3db9b54227560eb5e0bb991aa",
    109: "799987f276957673920987c7479aef30c3817e644ec3b37ae305a7e15256e367",
    113: "0fe6f7d711561a2772358aa358081e0147779fd8d2c1f247937cf5e908d28ab7",
    121: "6b0fda0fd2447d884046c048a1c6ebd39ce8d0874951f2f9dae0ed1349a305d9",
    125: "7f635752faf677ecf82195083b42b1d0f04496239641a542f0a015a669b1bdd9",
    127: "6d7aa3333ecb1d2b42684884a9517e8a498f47b1952ab0222064b8aa189bc8b8",
    128: "c5a9c262c2be451b27f9d8dd5ab62d3d74f8d198b4bfb109f8224100b725018d",
    131: "e2f2835dc5e2f223a8bf4a206295ef40fb70e50a563a2b959873d1ca8feae383",
    137: "231f95dbd9c3bbc8d8cc251926f29dc01717192c58b1c40eb58c64d9798f03f5",
    139: "3e55adef9a2a28aa3807e9c292f225aa7b98d60f813d7a1430a1ca5d4d6aa330",
    149: "3cd220a2acb662ee12ef95f7d9b674ee1e5abadf837d844b2a108e297c6ee679",
    151: "a3c0797ca106d737bcfb40001e72fca062b3a88ad6ca046df5db0f81cefbcefa",
    157: "c7567bfb372a997072a7d78a85b6a6db1df0b3016b349a1044c757f2b1afaf1c",
    163: "3ffa0780ddc7566c0609404220e0b502d0b10feafa87d499e4b7fbf26cfbcbdb",
    167: "1dc60a96589843954247473db4427a5ec59500c1d3a4a128d1fda7fa274856a1",
    169: "ab8b76e5e31eb882910272b8cc6d4393c2422333018a592a81b2f4e4721633f9",
    173: "9bc1ef0b3dfbbf7ba156f9c0bf6b47f626c7bf41dcba98c92100e80195424de6",
    179: "5cb81909eca17b5ae2673706391a9516877481d549f4d8be37c6d0fec5ced0de",
    181: "1f506d00f4add266ab71f458f7780da186aba2a12e23c47e3d6486e2dd73e62e",
    191: "c7ff0fb2e2044b2204bc80544d44282c70f199944bff3d3895bf7c9df2f2f293",
    193: "dd0fe02bd97b2651573c945d10b8747aec1137aef4d96697c8d53f094d71177c",
    197: "b6ac72d32359faaa5ad7e5e58301a557f31d3072c27b36ae2a31502ba2c4407d",
    199: "eff79fcac701554b413d29da340691ee1b1536149cad7cf519b1b1d54f991f08",
    211: "8fbd5781666e8ab16c40bbdeddfdda6ada33e35458b04095b24f491a6486347d",
    223: "b7a5f12707813201470ae0f602b7139b9b51149c634b815025678585bf2e6450",
    227: "e77ecf18d7e301dcea45351514da6b13d4e7fb650557a6bf1af4c95d8cbd4ccc",
    229: "923de94cecb57987f4b8752e6af9e5a357a5b7db0a4400eb29de280f7b8c7556",
    233: "d064ac8c2e1b81b536fc2bd0e845213d52c1762183735974d195bc3ef3f1d3bf",
    239: "4aedbd33548e415aac701e12d88dc6495f911330329707208dc8eb3de8cc24ad",
    241: "209c211a78cd9415d1fa1bc70273fdc6d86cfb7b03456711af56c669df8677db",
    243: "59afaacaeb6c575e2938167f82538670fb4465f5c12e41991e3d3b8653990b55",
    251: "afafb0d790f4929c0520ffce8ee35ded6fcd2655ee711d028890d973e0585814",
    256: "157dd6c2af19ac8e3bca2d6cdbf0edbe8c94025f62c00f63314a0e9d591a0233",
}


def _digest(f):
    h = hashlib.sha256(repr((f.p, f.n, f.modulus, f.generator)).encode())
    for t in (f.add, f.mul, f.neg, f.inv, f.trace):
        h.update(np.asarray(t, dtype="<i8").tobytes())
    return h.hexdigest()


def test_tables_match_pinned_digests():
    assert {p ** n: _digest(gf_make(p, n)) for p, n in _FIELDS} == _DIGESTS
    for p, n in _FIELDS:
        f = gf_make(p, n)
        assert f.add_table == tuple(map(tuple, f.add.tolist()))
        assert f.mul_table == tuple(map(tuple, f.mul.tolist()))
        assert f.neg_table == tuple(f.neg.tolist())
        assert f.inv_table == tuple(f.inv.tolist())


def test_cached_tables_are_read_only():
    # a write into a cached field's table raises, and leaves the products
    # of a group built on the field unchanged
    f = gf_make(2, 2)
    before = [[psl2_model(4).mul(x, y) for y in psl2_model(4).scan()]
              for x in psl2_model(4).scan()]
    for name in ("add", "mul"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[1, 1] = 3
        with pytest.raises(TypeError):
            getattr(f, name + "_table")[1][1] = 3
    for name in ("neg", "inv", "trace"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(f, name)[1] = 3
    for name in ("neg_table", "inv_table"):
        with pytest.raises(TypeError):
            getattr(f, name)[1] = 3
    psl2_model.cache_clear()
    m = psl2_model(4)
    assert [[m.mul(x, y) for y in m.scan()] for x in m.scan()] == before
