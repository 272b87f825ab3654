import pytest

from gemcheck import find_countermodel, gem_f, gem_p
from gemcheck.export import emit_all, emit_obligation, encode
from gemcheck.search import SearchBounds
from gemcheck.syntax import parse
from gemcheck.theory import lemma_suite


def test_encode_ref_p_is_one_universal():
    assert encode(gem_p().get("ref_P").sentence) == \
        "(! [Vx] : (indiv(Vx) => part(Vx,Vx)))"


def test_encode_restricted_quantifiers():
    # every quantifier class, bounded and not: a bounded universal
    # parenthesizes its guard, a bounded existential does not
    cases = {
        "forall x . P(x, y)": "(! [Vx] : (indiv(Vx) => part(Vx,Vy)))",
        "forall x in XX + I(y) . P(x, y)":
            "(! [Vx] : ((indiv(Vx) & memb(Vx,un(Wxx,sing(Vy)))) => part(Vx,Vy)))",
        "exists x . P(x, y)": "(? [Vx] : (indiv(Vx) & part(Vx,Vy)))",
        "exists x in U(XX) . P(x, y)":
            "(? [Vx] : (indiv(Vx) & memb(Vx,u(Wxx)) & part(Vx,Vy)))",
        "forall XX . F(XX, y)": "(! [Wxx] : (plur(Wxx) => fuses(Wxx,Vy)))",
        "forall XX sub YY & I(y) . F(XX, y)":
            "(! [Wxx] : ((plur(Wxx) & are(Wxx,int(Wyy,sing(Vy)))) => fuses(Wxx,Vy)))",
        "exists XX . F(XX, y)": "(? [Wxx] : (plur(Wxx) & fuses(Wxx,Vy)))",
        "exists VV sub U(ZZ) . F(VV, x)":
            "(? [Wvv] : (plur(Wvv) & are(Wvv,u(Wzz)) & fuses(Wvv,Vx)))",
    }
    for text, want in cases.items():
        assert encode(parse(text)) == want, text


def test_fix_problem_contents():
    text = emit_obligation("FIx", gem_f(), lemma_suite().get("FIx"))
    axioms = [l for l in text.splitlines() if l.startswith("fof(") and
              ", axiom," in l]
    # seven definitional axioms (empty, I, union, intersection, are,
    # coext, U_F) plus the six theory axioms
    assert len(axioms) == 13
    assert text.count(", conjecture,") == 1
    assert "def_sing" in text and "def_u" in text
    assert "def_part" not in text  # the gem_f axioms never mention P
    assert "def_zzstar" not in text
    assert "% Source   : lemma: everything fuses its own singleton" in text


def test_comp_f_includes_zzstar_instance():
    nf = lemma_suite().get("comp_F")
    text = emit_obligation("comp_F", gem_p(), nf)
    assert "def_zzstar" in text and "star(Vx,Wzz)" in text
    assert "zzstar" in text.splitlines()[4]
    fix = emit_obligation("FIx", gem_f(), lemma_suite().get("FIx"))
    assert "zzstar" not in fix.splitlines()[4]


def test_p_f2_pulls_part_definition():
    nf = lemma_suite().get("P_F2")
    text = emit_obligation("P_F2", gem_f(), nf)
    assert "def_part" in text  # dfP_F is needed on the fusion side


def test_gem_p_side_unfolds_fusion():
    nf = lemma_suite().get("approx_F")
    text = emit_obligation("approx_F", gem_p(), nf)
    assert "def_fuses" in text and "def_overlap" in text


def test_byte_stability():
    nf = lemma_suite().get("sumtocl")
    assert emit_obligation("sumtocl", gem_f(), nf) == \
        emit_obligation("sumtocl", gem_f(), nf)


def test_emit_all(tmp_path):
    paths = emit_all(tmp_path)
    assert sorted(p.name for p in paths) == \
        sorted(f"{nf.name}.p" for nf in lemma_suite())
    assert len(paths) == 19
    for p in paths:
        assert ", conjecture," in p.read_text()


@pytest.mark.parametrize("nf", list(lemma_suite()), ids=lambda nf: nf.name)
def test_soundness_smoke(nf):
    # a necessary condition for provability: no countermodel among the
    # finite models of the axioms at n <= 2
    if nf.side == "gem_f":
        res = find_countermodel("fusion", gem_f(), nf, SearchBounds(max_n_fusion=2))
    else:
        res = find_countermodel("part", gem_p(), nf, SearchBounds(max_n_part=2))
    assert res.verdict == "exhausted bounds", nf.name
