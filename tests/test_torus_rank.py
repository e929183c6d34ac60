import json

import numpy as np
import pytest

import cartanmaps.cli as cli_mod
from cartanmaps import correspondence
from cartanmaps.cli import AUX_RANK_PRIME, aux_rank_prime, main
from cartanmaps.correspondence import (
    OperatorMatrix,
    build_H_s,
    build_psi,
    build_psi_plus,
    check_equivariance_incidence,
    check_equivariance_psi,
    incidence_operator,
    incidence_torus_columns,
    incidence_torus_ranks,
    path_incidence,
    restrict_to_affine,
    torus_rank_mod_p,
)
from cartanmaps.exact_linalg import RankPolicy, rank_exact, rank_mod_p, rank_mod_p_stack
from cartanmaps.geometry import (
    GroupElement,
    OrderedPair,
    UnorderedPair,
    mobius_act,
    permutation,
)
from cartanmaps.modular_arith import PrimeContext, is_odd_prime, is_prime
from cartanmaps.cli import run_verification

from conftest import PRIMES_SMALL


def operators(ctx):
    yield "psi+", build_psi_plus(ctx)
    yield "psi", build_psi(ctx)
    for s in range(1, ctx.ell):
        yield f"H_{s}", build_H_s(ctx, s)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_torus_rank_matches_dense_rank(ell, contexts):
    ctx = contexts[ell]
    for p in (ell, aux_rank_prime(ell)):
        for name, m in operators(ctx):
            assert torus_rank_mod_p(m, p, ctx) == rank_mod_p(m, p), (name, p)


def test_torus_rank_under_nondefault_context():
    ctx = PrimeContext(13, 5, 7)  # 5 is a non-square and 7 a primitive root mod 13
    assert (ctx.epsilon, ctx.g) == (5, 7)
    for p in (13, aux_rank_prime(13)):
        for name, m in operators(ctx):
            assert torus_rank_mod_p(m, p, ctx) == rank_mod_p(m, p), (name, p)


@pytest.mark.parametrize("ell", (5, 7))
def test_torus_rank_at_a_prime_too_large_for_float64_blocks(ell, contexts):
    """Above about 2^26 a product of two residues overflows the float64
    mantissa, so the blocks are formed in int64."""
    ctx = contexts[ell]
    start = (1 << 30) - (1 << 30) % (ell - 1) + 1  # 1 mod ell - 1
    p = next(q for q in range(start, 1 << 31, ell - 1) if is_prime(q))
    for name, m in operators(ctx):
        want = rank_mod_p(m, p)
        assert torus_rank_mod_p(m, p, ctx) == want, name
        # a unit multiple has the same rank, and residues near p in the blocks
        scaled = OperatorMatrix(m.row_basis, m.col_basis, m.data.astype(np.int64) * (p // 3))
        assert torus_rank_mod_p(scaled, p, ctx) == want, name


def test_torus_rank_rejects_primes_without_the_characters(contexts):
    ctx = contexts[7]
    m = build_H_s(ctx, 1)
    with pytest.raises(ValueError, match="order 6"):
        torus_rank_mod_p(m, 5, ctx)  # 6 does not divide 4
    with pytest.raises(ValueError):
        torus_rank_mod_p(m, AUX_RANK_PRIME, ctx)  # 6 does not divide 1048582


@pytest.mark.parametrize("ell", (3, 7))
def test_torus_rank_rejects_operator_not_fixed_by_the_torus(ell, contexts):
    ctx = contexts[ell]
    m = build_H_s(ctx, 1)
    data = m.data.copy()
    data[0, 0] ^= 1
    broken = OperatorMatrix(m.row_basis, m.col_basis, data)
    with pytest.raises(ValueError, match="not fixed"):
        torus_rank_mod_p(broken, ell, ctx)


@pytest.mark.parametrize("block_entries", (1, 1 << 17))
@pytest.mark.parametrize("ell", (3, 7))
def test_generator_check_sees_removed_and_added_entries(ell, block_entries,
                                                        contexts, monkeypatch):
    """Compared a row at a time or all at once, a lost or a new entry shows."""
    monkeypatch.setattr(correspondence, "_CHECK_ENTRIES", block_entries)
    ctx = contexts[ell]
    m = build_H_s(ctx, 2 % ell)
    assert check_equivariance_psi(m, ctx)
    flat = m.data.ravel()
    for index in (np.flatnonzero(flat)[0], np.flatnonzero(flat == 0)[-1]):
        data = m.data.copy()
        data.flat[index] ^= 1
        assert not check_equivariance_psi(OperatorMatrix(m.row_basis, m.col_basis,
                                                         data), ctx)


def planted_stack(rng, batch, m, k, p):
    """Random members of planted rank <= r, one of them all zero."""
    out = np.empty((batch, m, k), dtype=np.int64)
    for b in range(batch):
        r = int(rng.integers(0, min(m, k) + 1))
        left = rng.integers(0, p, size=(m, r, 1))
        right = rng.integers(0, p, size=(1, r, k))
        # reduce each product before summing so nothing overflows at large p
        out[b] = (left * right % p).sum(axis=1) % p
    out[int(rng.integers(batch))] = 0
    return out


@pytest.mark.parametrize("p", (2, 3, 31, 1_048_609, 2_147_483_647))
def test_rank_mod_p_stack_matches_rank_mod_p(p):
    rng = np.random.default_rng(p)
    for m, k in ((1, 1), (1, 7), (4, 4), (6, 9), (9, 5), (12, 12)):
        stack = planted_stack(rng, 12, m, k, p)
        got = rank_mod_p_stack(stack, p)
        want = [rank_mod_p(a, p) for a in stack]
        assert got.tolist() == want, (m, k)
        assert (got <= min(m, k)).all()
    # every member is reduced mod p first, like rank_mod_p
    shifted = stack + p * rng.integers(-3, 4, size=stack.shape)
    assert rank_mod_p_stack(shifted, p).tolist() == want


def test_rank_mod_p_stack_validation():
    with pytest.raises(ValueError, match="int64"):
        rank_mod_p_stack(np.zeros((1, 2, 2)), (1 << 31) + 11)
    with pytest.raises(ValueError, match="stack"):
        rank_mod_p_stack(np.zeros((2, 2)), 3)
    assert rank_mod_p_stack(np.zeros((0, 3, 3), dtype=np.int64), 3).tolist() == []
    assert rank_mod_p_stack(np.zeros((2, 0, 3), dtype=np.int64), 3).tolist() == [0, 0]


def test_aux_rank_prime():
    assert aux_rank_prime(3) == AUX_RANK_PRIME == 1_048_583
    for ell in filter(is_odd_prime, range(3, 102)):
        p = aux_rank_prime(ell)
        assert is_prime(p) and p >= AUX_RANK_PRIME and (p - 1) % (ell - 1) == 0
        # the least such prime
        assert not any(is_prime(q) for q in range(p - (ell - 1), AUX_RANK_PRIME - 1,
                                                    -(ell - 1)))


def test_h_s_phase_ranks_by_torus_characters(capsys, monkeypatch):
    dense_rank = cli_mod.rank_mod_p

    def rank_without_h_s(m, p):
        assert m.col_basis.tag != "ordered_pairs", "dense rank of an unrestricted H_s"
        return dense_rank(m, p)

    monkeypatch.setattr(cli_mod, "rank_mod_p", rank_without_h_s)
    assert main(["verify", "--ell-range", "5..7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for run in doc["runs"]:
        ell = run["ell"]
        assert run["h_s_rank_method"] == {"method": "torus characters",
                                          "primes": [ell, aux_rank_prime(ell)],
                                          "blocks": ell - 1,
                                          "block_shape": [ell, ell + 4]}
        assert run["equivariance"]["h_s"] is True
        assert run["theorem2"]["certificate"]["method"] == "torus characters"
    # ell = 5: H_2 and H_3 are rank-deficient at both primes
    assert doc["runs"][0]["h_s_ranks"]["2"] == {"rank_mod_ell": 15,
                                                "observed_rank": 15,
                                                "conclusive": False}
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "threads", "usable_cpus", "jobs",
                        "worker_processes"}
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}
    assert env["jobs"] == 1 and env["worker_processes"] == 0


def test_h_s_equivariance_failure_is_reported(capsys, monkeypatch):
    monkeypatch.setattr(cli_mod, "check_equivariance_incidence", lambda idx, ctx: False)
    assert main(["verify", "--ell", "3"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["equivariance"]["h_s"] is False
    assert any("H_s" in f for f in run["failures"])
    # without the proof the torus blocks of an H_s mean nothing, so no rank
    assert all(h == {"rank_mod_ell": None, "observed_rank": None, "conclusive": False}
               for h in run["h_s_ranks"].values())


def certified_operators(ctx):
    psi_plus, psi = build_psi_plus(ctx), build_psi(ctx)
    yield "psi+", psi_plus
    yield "psi", psi
    yield "psi+ affine", restrict_to_affine(psi_plus, "N")
    yield "psi affine", restrict_to_affine(psi, "C")


def cross_check_certificates(ctx):
    ell = ctx.ell
    for name, m in certified_operators(ctx):
        cert = cli_mod._rank_certificate(m, ctx)
        dense = rank_exact(m, RankPolicy(preferred_primes=(ell,)))
        full = min(m.shape)
        assert cert.rank == dense.rank == rank_mod_p(m, ell) == full, name
        assert (cert.method, cert.witnesses, cert.conclusive) == \
            ("torus characters", ((ell, full),), True), name
        assert (cert.rows, cert.cols) == m.shape


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_rank_certificate_matches_dense_rank(ell, contexts):
    cross_check_certificates(contexts[ell])


def test_rank_certificate_under_other_contexts():
    cross_check_certificates(PrimeContext(13, 5, 7))
    for ell in (3, 5, 7):
        for eps in PrimeContext(ell).nonsquares():
            cross_check_certificates(PrimeContext(ell, eps))


def test_rank_certificate_falls_back_below_full_rank(contexts):
    ctx = contexts[5]
    m = build_H_s(ctx, 2)
    cert = cli_mod._rank_certificate(m, ctx)
    assert cert.rank == 15 < min(m.shape) == 20
    assert cert == rank_exact(m, RankPolicy(preferred_primes=(5,)))


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_affine_pair_permutations(ell, contexts):
    """Elements fixing infinity permute the affine pairs in the column order
    of restrict_to_affine; an element moving infinity is refused."""
    ctx = contexts[ell]
    acts = {
        "N": lambda h, e: UnorderedPair(mobius_act(h, e.lo, ell),
                                        mobius_act(h, e.hi, ell)),
        "C": lambda h, e: OrderedPair(mobius_act(h, e.first, ell),
                                      mobius_act(h, e.second, ell)),
    }
    for side, m in (("N", build_psi_plus(ctx)), ("C", build_psi(ctx))):
        basis = restrict_to_affine(m, side).col_basis
        for h in (GroupElement(ctx.g, 0, 0, 1), GroupElement(1, 1, 0, 1)):
            perm = permutation(h, basis.tag, ctx).tolist()
            assert sorted(perm) == list(range(len(basis)))
            assert [basis.elements[i] for i in perm] == [acts[side](h, e) for e in basis]
        with pytest.raises(ValueError, match="infinity"):
            permutation(GroupElement(1, 0, 1, 1), basis.tag, ctx)


def test_verify_makes_no_dense_rank_call(capsys, monkeypatch):
    dense_calls = []
    for name in ("rank_exact", "rank_mod_p"):
        monkeypatch.setattr(cli_mod, name,
                            lambda *args, name=name: dense_calls.append(name))
    assert main(["verify", "--ell-range", "3..13"]) == 0
    assert dense_calls == []
    for run in json.loads(capsys.readouterr().out)["runs"]:
        for theorem in ("theorem1", "theorem2"):
            assert run[theorem]["certificate"]["method"] == "torus characters"
            assert run[theorem]["restricted_nonsingular"] is True
    # every non-square re-certifies psi+ the same way
    assert main(["verify", "--ell-range", "3..7", "--skip-cosets", "--all-epsilon"]) == 0
    assert dense_calls == []
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [len(run["all_epsilon"]) for run in runs] == [1, 2, 3]


# ---------------------------------------------------------------------------
# The H_s kept as incidence index arrays: the sparse generator proof and the
# stacked torus ranks against their dense counterparts.
# ---------------------------------------------------------------------------

def check_incidence_proofs(ctx):
    for s in range(1, ctx.ell):
        idx = path_incidence(ctx, s)
        m = incidence_operator(ctx, idx)
        assert m == build_H_s(ctx, s), s
        assert check_equivariance_incidence(idx, ctx) is True, s
        assert check_equivariance_psi(m, ctx) is True, s


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_incidence_proof_matches_dense_proof(ell, contexts):
    check_incidence_proofs(contexts[ell])


def test_incidence_proof_under_nondefault_context():
    check_incidence_proofs(PrimeContext(13, 5, 7))


def mutated_incidences(idx):
    """A moved entry (to a row outside its column) and two swapped columns."""
    for j in (0, idx.shape[1] // 2, idx.shape[1] - 1):
        moved = idx.copy()
        moved[1, j] = np.setdiff1d(np.arange(idx.max() + 1), idx[:, j])[j % 3]
        yield f"moved in column {j}", moved
    other = int(np.flatnonzero((idx != idx[:, :1]).any(axis=0))[-1])
    swapped = idx.copy()
    swapped[:, [0, other]] = idx[:, [other, 0]]
    yield f"columns 0 and {other} swapped", swapped


@pytest.mark.parametrize("ell", (3, 7))
def test_incidence_proof_sees_moved_entries_and_swapped_columns(ell, contexts):
    ctx = contexts[ell]
    for s in range(1, ell):
        for what, idx in mutated_incidences(path_incidence(ctx, s)):
            dense = check_equivariance_psi(incidence_operator(ctx, idx), ctx)
            assert check_equivariance_incidence(idx, ctx) is dense is False, (s, what)


def check_h_s_ranks(ctx):
    """The phase's ranks, and the stacked ranks of every slope at both primes,
    equal torus_rank_mod_p on the dense H_s."""
    ell, aux = ctx.ell, aux_rank_prime(ctx.ell)
    dense = {p: [torus_rank_mod_p(build_H_s(ctx, s), p, ctx) for s in range(1, ell)]
             for p in (ell, aux)}
    reps = [incidence_torus_columns(path_incidence(ctx, s), ctx) for s in range(1, ell)]
    for p in (ell, aux):
        assert incidence_torus_ranks(reps, p, ctx) == dense[p], p
    full = ell * (ell - 1)
    got = run_verification(ell, ctx.epsilon, ctx.g, skip_cosets=True)["h_s_ranks"]
    for s, r_ell, r_aux in zip(range(1, ell), dense[ell], dense[aux]):
        observed = r_ell if r_ell == full else max(r_ell, r_aux)
        assert got[s] == {"rank_mod_ell": r_ell, "observed_rank": observed,
                          "conclusive": observed == full}, s


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_h_s_phase_ranks_match_torus_rank(ell, contexts):
    check_h_s_ranks(contexts[ell])


def test_h_s_phase_ranks_under_nondefault_context():
    check_h_s_ranks(PrimeContext(13, 5, 7))


@pytest.mark.parametrize("slopes_per_stack", (1, 3))
def test_h_s_ranks_do_not_depend_on_the_stack_budget(slopes_per_stack, monkeypatch):
    ell = 13  # 8 of the 12 slopes are below full rank mod 13
    want = run_verification(ell, skip_cosets=True)["h_s_ranks"]
    block = (ell - 1) * ell * (ell + 4)
    monkeypatch.setattr(correspondence, "_STACK_ENTRIES", slopes_per_stack * block)
    batches, calls = [], []
    stack_rank, ranks = correspondence.rank_mod_p_stack, cli_mod.incidence_torus_ranks

    def recorded_stack(B, p):
        if calls:  # inside the h_s phase's ranking, not a theorem certificate
            batches.append((p, len(B)))
        return stack_rank(B, p)

    def recorded_ranks(reps, p, ctx):
        calls.append(p)
        try:
            return ranks(reps, p, ctx)
        finally:
            calls.pop()

    monkeypatch.setattr(correspondence, "rank_mod_p_stack", recorded_stack)
    monkeypatch.setattr(cli_mod, "incidence_torus_ranks", recorded_ranks)
    assert run_verification(ell, skip_cosets=True)["h_s_ranks"] == want
    # each stack holds the ell - 1 blocks of 1..slopes_per_stack slopes
    assert all(n in range(ell - 1, slopes_per_stack * (ell - 1) + 1, ell - 1)
               for _, n in batches)
    assert sum(n for p, n in batches if p == ell) == (ell - 1) ** 2
    low = sum(h["rank_mod_ell"] < ell * (ell - 1) for h in want.values())
    aux = [n for p, n in batches if p == aux_rank_prime(ell)]
    assert sum(aux) == low * (ell - 1)
    assert len(aux) == -(-low // slopes_per_stack) > 1  # the re-rank is split


def test_verify_builds_no_dense_h_s(monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense H_s was built")

    monkeypatch.setattr(cli_mod, "build_H_s", refuse)
    monkeypatch.setattr(correspondence, "build_H_s", refuse)
    monkeypatch.setattr(cli_mod, "incidence_operator", refuse)
    assert main(["verify", "--ell-range", "11..13"]) == 0


def test_coincidence_densifies_the_ranked_incidences(capsys, monkeypatch):
    ranked, densified = [], []
    columns, operator = cli_mod.incidence_torus_columns, cli_mod.incidence_operator

    def ranked_columns(idx, ctx):
        ranked.append(idx)
        return columns(idx, ctx)

    def densify(ctx, idx):
        densified.append(idx)
        return operator(ctx, idx)

    monkeypatch.setattr(cli_mod, "incidence_torus_columns", ranked_columns)
    monkeypatch.setattr(cli_mod, "incidence_operator", densify)
    assert main(["verify", "--ell-range", "3..7"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert all(run["coincidence"] == {"checked": True, "psi_plus": True, "h_s": True}
               for run in runs)
    assert len(densified) == len(ranked) == 2 + 4 + 6
    assert all(a is b for a, b in zip(densified, ranked))
