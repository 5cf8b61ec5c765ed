"""Value semantics of every value type: equality, hashing, repr, immutability.

The reprs and hashes in RECORDED were printed by the frozen dataclasses
that these classes were before they became slotted ``Value`` subclasses;
the classes must keep behaving as those did.
"""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from spinref.hecke import (CertificateRow, HeckeWord, NonCriticalAudit, PairFlags,
                           ProfileSolution, SatakeMonomial, SlopeBoundRow, ValuationProfile)
from spinref.intertwine import NuBetaMatrix, ParahoricVector, PSVector, SupportVerdict
from spinref.parabolic import SpinParabolic
from spinref.ratfunc import RatFunc
from spinref.refine import GammaMap, ParahoricRefinement, Refinement, SpinProfile
from spinref.rootdata import (GLCharacter, GLCocharacter, GSpinCharacter, GSpinCocharacter,
                              PureWeight)
from spinref.weyl import LeviCoset, Perm, SignedPerm

SRC = Path(__file__).resolve().parent.parent / "src"


def build():
    """One instance of every value type, built afresh on each call."""
    q = SpinParabolic(2, frozenset({1, 3}))
    nu = NuBetaMatrix(2, (1, -1))
    row = CertificateRow((("slope:U_1", Fraction(1, 2)), ("purity:1", Fraction(-1))),
                         Fraction(3, 4))
    prof = ValuationProfile(1, (Fraction(1, 2), Fraction(-1, 2)))
    bound_row = SlopeBoundRow(1, 3, Fraction(5, 2), True)
    return {
        "Perm": Perm((2, 1, 3)),
        "SignedPerm": SignedPerm((2, -1, 3)),
        "LeviCoset": LeviCoset(Perm((1, 3, 2, 4)), frozenset({1})),
        "GLCharacter": GLCharacter(1, (3, -2)),
        "GLCocharacter": GLCocharacter(1, (3, -2)),
        "GSpinCharacter": GSpinCharacter(1, (3, -2)),
        "GSpinCocharacter": GSpinCocharacter(1, (3, -2)),
        "PureWeight": PureWeight(2, (3, 1, 0, -2), 1),
        "SpinParabolic": q,
        "Refinement": Refinement(2, Perm((2, 1, 4, 3))),
        "ParahoricRefinement": ParahoricRefinement(
            q, LeviCoset(Perm((1, 3, 2, 4)), frozenset({1, 3}))),
        "GammaMap": GammaMap((2, 1)),
        "SpinProfile": SpinProfile(frozenset({1}), q),
        "SatakeMonomial": SatakeMonomial(1, -1, (1, 0), 2),
        "ValuationProfile": prof,
        "HeckeWord": HeckeWord(1, (1, -1), 2, 1),
        "CertificateRow": row,
        "ProfileSolution": ProfileSolution("unique", prof, ("t_1",), (row,)),
        "SlopeBoundRow": bound_row,
        "NonCriticalAudit": NonCriticalAudit(True, (bound_row,)),
        "PairFlags": PairFlags(True, False),
        "PSVector": PSVector(Perm((1, 2)), {Perm((2, 1)): RatFunc.p_inverse(3)}),
        "ParahoricVector": ParahoricVector(
            Perm((1, 2)), {LeviCoset(Perm((1, 2)), frozenset({1})): RatFunc.const(2, 3)}),
        "NuBetaMatrix": nu,
        "SupportVerdict": SupportVerdict(True, "even", True, nu),
    }


# Fields in declaration order; the ones __init__ takes come first.
FIELDS = {
    "Perm": ("images",), "SignedPerm": ("word",), "LeviCoset": ("rep", "delta"),
    "GLCharacter": ("n", "coeffs"), "GLCocharacter": ("n", "coeffs"),
    "GSpinCharacter": ("n", "coeffs"), "GSpinCocharacter": ("n", "coeffs"),
    "PureWeight": ("n", "coeffs", "sw"),
    "SpinParabolic": ("n", "delta", "composition", "xp"),
    "Refinement": ("n", "sigma"), "ParahoricRefinement": ("parabolic", "coset"),
    "GammaMap": ("values",), "SpinProfile": ("spin_set", "optimal"),
    "SatakeMonomial": ("n", "half_p", "theta", "eta"),
    "ValuationProfile": ("n", "t", "eta_val"), "HeckeWord": ("n", "exps", "p_half", "v"),
    "CertificateRow": ("combination", "residual"),
    "ProfileSolution": ("status", "profile", "free", "certificate"),
    "SlopeBoundRow": ("index", "bound", "value", "ok"), "NonCriticalAudit": ("ok", "rows"),
    "PairFlags": ("reducible", "regular_fail"), "PSVector": ("twist", "terms"),
    "ParahoricVector": ("twist", "cosets"), "NuBetaMatrix": ("n", "exponents"),
    "SupportVerdict": ("integral", "block_count_parity", "contained_in_Q", "matrix"),
}
INIT_FIELDS = {name: fields[:2] if name == "SpinParabolic" else fields
               for name, fields in FIELDS.items()}
MUTABLE = {"PSVector", "ParahoricVector"}
FROZEN = sorted(set(FIELDS) - MUTABLE)

# repr, and the hash on 64-bit CPython where no field holds a str (str
# hashes change from one process to the next); None for the mutable types.
RECORDED = {
    "Perm": ("Perm(213)", 8920178154449372592),
    "SignedPerm": ("SignedPerm(word=(2, -1, 3))", 7371037003852099879),
    "LeviCoset": ("LeviCoset(rep=Perm(1324), delta=frozenset({1}))", -1473765314976957915),
    "GLCharacter": ("GLCharacter(n=1, coeffs=(3, -2))", 6953186860789343291),
    "GLCocharacter": ("GLCocharacter(n=1, coeffs=(3, -2))", 6953186860789343291),
    "GSpinCharacter": ("GSpinCharacter(n=1, coeffs=(3, -2))", 6953186860789343291),
    "GSpinCocharacter": ("GSpinCocharacter(n=1, coeffs=(3, -2))", 6953186860789343291),
    "PureWeight": ("PureWeight(n=2, coeffs=(3, 1, 0, -2), sw=1)", -144975798569943942),
    "SpinParabolic": ("SpinParabolic(2,2)", -7630146497984628260),
    "Refinement": ("Refinement(2143)", -5873834712523667396),
    "ParahoricRefinement": (
        "ParahoricRefinement(parabolic=SpinParabolic(2,2), "
        "coset=LeviCoset(rep=Perm(1324), delta=frozenset({1, 3})))", -9129482714721543161),
    "GammaMap": ("GammaMap(values=(2, 1))", 5848168292704103454),
    "SpinProfile": ("SpinProfile(spin_set=frozenset({1}), optimal=SpinParabolic(2,2))",
                    8628844924080712498),
    "SatakeMonomial": ("SatakeMonomial(n=1, half_p=-1, theta=(1, 0), eta=2)",
                       6073440396760403249),
    "ValuationProfile": ("ValuationProfile(n=1, t=(Fraction(1, 2), Fraction(-1, 2)), "
                         "eta_val=Fraction(0, 1))", 712898872915716583),
    "HeckeWord": ("HeckeWord(n=1, exps=(1, -1), p_half=2, v=1)", -8264619639166011502),
    "CertificateRow": ("CertificateRow(combination=(('slope:U_1', Fraction(1, 2)), "
                       "('purity:1', Fraction(-1, 1))), residual=Fraction(3, 4))", None),
    "ProfileSolution": (
        "ProfileSolution(status='unique', profile=ValuationProfile(n=1, t=(Fraction(1, 2), "
        "Fraction(-1, 2)), eta_val=Fraction(0, 1)), free=('t_1',), certificate=("
        "CertificateRow(combination=(('slope:U_1', Fraction(1, 2)), ('purity:1', "
        "Fraction(-1, 1))), residual=Fraction(3, 4)),))", None),
    "SlopeBoundRow": ("SlopeBoundRow(index=1, bound=3, value=Fraction(5, 2), ok=True)",
                      7579353347706038466),
    "NonCriticalAudit": ("NonCriticalAudit(ok=True, rows=(SlopeBoundRow(index=1, bound=3, "
                         "value=Fraction(5, 2), ok=True),))", -1113567439285097822),
    "PairFlags": ("PairFlags(reducible=True, regular_fail=False)", -5164621852614943976),
    "PSVector": ("PSVector(twist=Perm(12), terms={Perm(21): RatFunc((1) / (p))})", None),
    "ParahoricVector": ("ParahoricVector(twist=Perm(12), cosets={LeviCoset(rep=Perm(12), "
                        "delta=frozenset({1})): RatFunc(2)})", None),
    "NuBetaMatrix": ("NuBetaMatrix(n=2, exponents=(1, -1))", -611207307343569779),
    "SupportVerdict": ("SupportVerdict(integral=True, block_count_parity='even', "
                       "contained_in_Q=True, matrix=NuBetaMatrix(n=2, exponents=(1, -1)))",
                       None),
}


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_repr(name):
    assert repr(build()[name]) == RECORDED[name][0]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_equal_to_an_equal_instance(name):
    a, b = build()[name], build()[name]
    assert a is not b and a == b and not a != b


@pytest.mark.parametrize("name", FROZEN)
def test_hash_is_the_field_tuple_hash(name):
    a, b = build()[name], build()[name]
    assert hash(a) == hash(b) == hash(tuple(getattr(a, f) for f in FIELDS[name]))
    if RECORDED[name][1] is not None and sys.hash_info.width == 64:
        assert hash(a) == RECORDED[name][1]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_keyword_arguments(name):
    a = build()[name]
    assert type(a)(**{f: getattr(a, f) for f in INIT_FIELDS[name]}) == a


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_refused(name):
    a = build()[name]
    field = FIELDS[name][0]
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(a, field)
    assert repr(a) == RECORDED[name][0]


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_no_new_attributes(name):
    # __slots__ refuses a new attribute on every type, the four lattice subclasses
    # and the two mutable vectors included.
    with pytest.raises(AttributeError):
        build()[name].extra = 1


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_copy_and_pickle(name):
    a = build()[name]
    for clone in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(clone) is type(a) and clone == a and repr(clone) == repr(a)


def test_defaults():
    assert SatakeMonomial(1, 0, (0, 0)).eta == 0
    assert ValuationProfile(1, (Fraction(0), Fraction(0))).eta_val == Fraction(0)
    assert (HeckeWord(1, (0, 0)).p_half, HeckeWord(1, (0, 0)).v) == (0, 0)
    solution = ProfileSolution("unique", None)
    assert (solution.free, solution.certificate) == ((), ())


def test_lattices_unequal_across_classes():
    built = build()
    lattices = [built[name] for name in
                ("GLCharacter", "GLCocharacter", "GSpinCharacter", "GSpinCocharacter")]
    for i, a in enumerate(lattices):
        for j, b in enumerate(lattices):
            assert (a == b) == (i == j)
            assert (a != b) == (i != j)


def test_perm_unequal_to_signed_perm_with_the_same_tuple():
    assert Perm((2, 1, 3)) != SignedPerm((2, 1, 3))
    assert not Perm((2, 1, 3)) == SignedPerm((2, 1, 3))
    assert Perm((2, 1, 3)) != (2, 1, 3)


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_vectors_mutable_and_unhashable(name):
    a, b = build()[name], build()[name]
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
    a.twist = Perm((2, 1))
    assert a != b
    a.twist = b.twist
    assert a == b


def test_cli_import_pulls_in_no_code_generation():
    """Importing the CLI loads none of dataclasses, inspect or typing.

    -S keeps site's .pth files from importing typing before spinref.
    """
    probe = ("import sys, spinref.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
