"""Clause-level vectors for the two translations and their context apparatus.

The prefix clauses are pinned as exact ASTs (fresh names are deterministic,
least-index-first), the remaining operators as homomorphisms.  Context
building and filling are cross-checked against the recursive encoder, which
gives two independent code paths to the same term.
"""

import pytest
from hypothesis import given, settings
from test_syntax import TERMS

from picheck import (
    NIL,
    SUCCESS,
    Context,
    EncodingScheme,
    GeneratorConfig,
    Hole,
    Input,
    Mutation,
    Output,
    Par,
    Repl,
    Restrict,
    alpha_canonical,
    alpha_eq,
    anchor_steps,
    asyncify,
    bound_names,
    context_for,
    decompose,
    encode,
    fill,
    free_names,
    fresh,
    generate_terms,
    is_async,
    mutant_encoder,
    parse,
    pprint,
    user,
)

x, y, z, a = user("x"), user("y"), user("z"), user("a")

BOUDOL = EncodingScheme.BOUDOL
HONDA_TOKORO = EncodingScheme.HONDA_TOKORO
SCHEMES = (BOUDOL, HONDA_TOKORO)


def corpus(max_nodes=3, names=(x, y)):
    return list(generate_terms(GeneratorConfig(max_nodes=max_nodes, name_alphabet=names)))


# --- prefix clauses, exact ASTs ---


def test_nil_and_success_are_fixed_points():
    for scheme in SCHEMES:
        assert encode(NIL, scheme) == NIL
        assert encode(SUCCESS, scheme) == SUCCESS


def test_boudol_output_clause():
    got = encode(Output(x, y, NIL), BOUDOL)
    u, v = fresh(0), fresh(1)
    want = Restrict(
        u, Par(Output(x, u, NIL), Input(u, v, Par(Output(v, y, NIL), NIL)))
    )
    assert got == want


def test_boudol_input_clause():
    got = encode(Input(x, z, NIL), BOUDOL)
    u, v = fresh(0), fresh(1)
    want = Input(x, u, Restrict(v, Par(Output(u, v, NIL), Input(v, z, NIL))))
    assert got == want


def test_honda_tokoro_output_clause():
    got = encode(Output(x, y, NIL), HONDA_TOKORO)
    u = fresh(0)
    want = Input(x, u, Par(Output(u, y, NIL), NIL))
    assert got == want


def test_honda_tokoro_input_clause():
    got = encode(Input(x, z, NIL), HONDA_TOKORO)
    u = fresh(0)
    want = Restrict(u, Par(Output(x, u, NIL), Input(u, z, NIL)))
    assert got == want


def test_output_clause_wraps_encoded_continuation():
    p = Output(x, y, Input(x, z, NIL))
    for scheme in SCHEMES:
        got = encode(p, scheme)
        inner = encode(Input(x, z, NIL), scheme)

        def holds_inner(t):
            match t:
                case Par(left=l, right=r):
                    return holds_inner(l) or holds_inner(r)
                case Restrict(body=b) | Input(cont=b) | Repl(body=b):
                    return t == inner or holds_inner(b)
            return t == inner

        assert holds_inner(got)


def test_fresh_names_avoid_continuation_names():
    # The continuation mentions #0 free, so both clause layers move past it.
    cont = Output(fresh(0), fresh(0), NIL)
    inner = encode(cont, HONDA_TOKORO)
    assert inner == Input(fresh(0), fresh(1), Par(Output(fresh(1), fresh(0), NIL), NIL))
    got = encode(Output(x, y, cont), HONDA_TOKORO)
    assert got == Input(x, fresh(1), Par(Output(fresh(1), y, NIL), inner))


# --- homomorphic operators ---


def test_homomorphic_clauses_on_corpus():
    for scheme in SCHEMES:
        for t in corpus():
            assert encode(Par(t, t), scheme) == Par(encode(t, scheme), encode(t, scheme))
            assert encode(Restrict(a, t), scheme) == Restrict(a, encode(t, scheme))
            assert encode(Repl(t), scheme) == Repl(encode(t, scheme))


def test_images_are_asynchronous():
    for scheme in SCHEMES:
        for t in corpus():
            assert is_async(encode(t, scheme)), pprint(t)


def test_images_preserve_free_names():
    for scheme in SCHEMES:
        for t in corpus():
            assert free_names(encode(t, scheme)) == free_names(t), pprint(t)


def test_encoding_respects_alpha_classes():
    p = Input(x, z, Output(z, z, NIL))
    q = Input(x, y, Output(y, y, NIL))
    for scheme in SCHEMES:
        assert alpha_eq(encode(p, scheme), encode(q, scheme))
    for scheme in SCHEMES:
        for t in corpus():
            assert alpha_eq(encode(alpha_canonical(t), scheme), encode(t, scheme))


# --- operator decomposition and contexts ---


def test_decompose_vectors():
    assert decompose(NIL) == (NIL, ())
    op, args = decompose(Output(x, y, SUCCESS))
    assert op == Output(x, y, Hole(0)) and args == (SUCCESS,)
    op, args = decompose(Par(NIL, SUCCESS))
    assert op == Par(Hole(0), Hole(1)) and args == (NIL, SUCCESS)
    op, args = decompose(Repl(SUCCESS))
    assert op == Repl(Hole(0)) and args == (SUCCESS,)


def test_par_context_is_the_operator_itself():
    ctx = context_for(Par(Hole(0), Hole(1)), frozenset(), BOUDOL)
    assert ctx.term == Par(Hole(0), Hole(1))
    assert ctx.capturing == frozenset()


def test_repl_context_is_the_operator_itself():
    ctx = context_for(Repl(Hole(0)), frozenset({x}), HONDA_TOKORO)
    assert ctx.term == Repl(Hole(0))
    assert ctx.capturing == frozenset()


def test_output_context_binders_avoid_the_index_set():
    n = frozenset({x, y, a})
    for scheme in SCHEMES:
        ctx = context_for(Output(x, y, Hole(0)), n, scheme)
        assert ctx.capturing == frozenset()
        assert bound_names(ctx.term).isdisjoint(n)


def test_binding_contexts_declare_their_binder():
    assert context_for(Input(x, z, Hole(0)), frozenset(), BOUDOL).capturing == {z}
    assert context_for(Restrict(a, Hole(0)), frozenset(), HONDA_TOKORO).capturing == {a}


def test_fill_rejects_capture():
    ctx = Context(Input(x, z, Hole(0)), frozenset())
    with pytest.raises(ValueError):
        fill(ctx, (Output(z, z, NIL),))


def test_fill_lists_the_capturing_binders_in_name_order():
    # User names sort before fresh ones; the set itself iterates in address order.
    names = [fresh(1), user("h"), a, fresh(0), z, user("d"), x, y]
    ctx, plug = Hole(0), NIL
    for n in names:
        ctx, plug = Restrict(n, ctx), Par(Output(n, n, NIL), plug)
    with pytest.raises(ValueError) as caught:
        fill(Context(ctx, frozenset()), (plug,))
    assert str(caught.value) == "context binders a, d, h, x, y, z, #0, #1 would capture the plug"


def test_fill_with_declared_binder_captures_on_purpose():
    ctx = Context(Input(x, z, Hole(0)), frozenset({z}))
    assert fill(ctx, (Output(z, z, NIL),)) == Input(x, z, Output(z, z, NIL))


def test_context_fill_agrees_with_recursive_encoder():
    # Two code paths to the same image: instantiate the operator's context
    # and plug encoded subterms, or encode the composed term directly.
    for scheme in SCHEMES:
        for s in corpus():
            op, args = decompose(s)
            if not args:
                continue
            ctx = context_for(op, free_names(s), scheme)
            plugged = fill(ctx, tuple(encode(t, scheme) for t in args))
            assert plugged == encode(s, scheme), pprint(s)


# --- step expansion factors ---


def test_anchor_steps():
    assert anchor_steps(BOUDOL) == 3
    assert anchor_steps(HONDA_TOKORO) == 2


# --- deliberate defects ---


def test_every_mutant_differs_from_the_real_encoder():
    probe = parse("x!y.0")
    for scheme in SCHEMES:
        for mutation in Mutation:
            mutated = mutant_encoder(scheme, mutation)(probe)
            assert not alpha_eq(mutated, encode(probe, scheme)), (scheme, mutation)


def test_mutations_live_in_the_output_clause():
    probe = parse("x(z).0")
    for scheme in SCHEMES:
        for mutation in Mutation:
            assert mutant_encoder(scheme, mutation)(probe) == encode(probe, scheme)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(TERMS)
def test_images_are_asynchronous_and_keep_free_names_on_generated_terms(p):
    for scheme in SCHEMES:
        image = encode(p, scheme)
        assert is_async(image), pprint(p)
        assert free_names(image) == free_names(p), pprint(p)


def test_mutant_encoder_rejects_a_label_that_is_not_a_mutation():
    # The label's string, where the enum member belongs, used to fall
    # through to the real encoder's output clause.
    with pytest.raises(ValueError, match="not a Mutation"):
        mutant_encoder(BOUDOL, Mutation.DROP_FORWARDER.value)


# --- asyncify, the third clause walk ---


def ref_asyncify(p):
    """The nearest asynchronous term as first written: a recursive walk,
    memoised nowhere."""
    match p:
        case Output(subject=s, obj=o, cont=c):
            rest = ref_asyncify(c)
            send = Output(s, o, NIL)
            return send if rest == NIL else Par(send, rest)
        case Input(subject=s, binder=b, cont=c):
            return Input(s, b, ref_asyncify(c))
        case Par(left=l, right=r):
            return Par(ref_asyncify(l), ref_asyncify(r))
        case Restrict(binder=b, body=body):
            return Restrict(b, ref_asyncify(body))
        case Repl(body=body):
            return Repl(ref_asyncify(body))
    return p


def test_asyncify_equals_the_recursive_walk():
    random_terms = generate_terms(GeneratorConfig(max_nodes=8, random_count=2000, seed=9))
    for t in [*corpus(3), *random_terms]:
        got = asyncify(t)
        assert got is ref_asyncify(t), pprint(t)
        assert is_async(got) and asyncify(got) is got, pprint(t)
