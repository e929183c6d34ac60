"""The rank route of verify: the unipotent-character blocks of psi+, psi and
every H_s at the auxiliary prime, against dense ranks and independent
oracles, and the proofs and symmetries the route rests on."""

import json
from collections import Counter

import numpy as np
import pytest

import cartanmaps.cli as cli_mod
from cartanmaps import circulant, correspondence, cosets, geometry
from cartanmaps.cli import AUX_RANK_PRIME, aux_rank_prime, main
from cartanmaps.correspondence import (
    OperatorMatrix,
    base_paths,
    build_H_s,
    build_psi,
    build_psi_plus,
    check_equivariance_incidence,
    check_equivariance_psi,
    check_equivariance_psi_plus,
    combined_ranks,
    geodesic_incidence,
    incidence_columns,
    incidence_operator,
    incidence_ranks,
    path_columns,
    path_incidence,
    restrict_to_affine,
)
from cartanmaps.exact_linalg import det_mod_p, rank_exact, rank_mod_p, rank_mod_p_stack
from cartanmaps.modular_arith import (PrimeContext, find_primitive_root, inverse_table,
                                      is_odd_prime, is_prime)
from cartanmaps.cli import run_verification

from conftest import PRIMES_ALL, PRIMES_SMALL, oracle_mod_p

U = geometry.GroupElement(1, 1, 0, 1)
TAGS = ("unordered_pairs", "ordered_pairs", "H_ell", "C_ell")
# verify's one failure line for a failed proof of psi+ (the generator proof)
# and of the H_s (the transported base path)
FAILURE_LINE = {
    "psi+": "equivariance fails on a generator of GL2",
    "H_1": "H_s equivariance unproved: the transported base path premises fail "
           "for some slope",
}


def equivariance_failures(run):
    """The failure lines of a run that report an equivariance proof."""
    return [f for f in run["failures"] if "equivariance" in f]


def least_prime_1_mod(n: int, start: int = 3) -> int:
    """The least prime >= start that is 1 mod n."""
    q = start + (1 - start) % n
    while not is_prime(q):
        q += n
    return q


def incidence_route(ctx, p, scale=1):
    """(name, (rank, affine rank) mod p from the incidence arrays, dense
    operator) for psi+, psi and every H_s; every weight times scale."""
    ell = ctx.ell
    geodesics = incidence_columns(geodesic_incidence(ctx), ctx)
    yield "psi+", combined_ranks([geodesics], [scale], p, ctx), build_psi_plus(ctx)
    reps = [incidence_columns(path_incidence(ctx, s), ctx) for s in range(1, ell)]
    # alpha_s + beta_s = 1 + s^-1
    weights = [scale * (1 + pow(s, -1, ell)) for s in range(1, ell)]
    yield "psi", combined_ranks(reps, weights, p, ctx), build_psi(ctx)
    # the weights matter: all slopes weighted 0 but one
    only_h_2 = [scale * (s == 2 % ell) for s in range(1, ell)]
    yield "H_2 of psi's terms", combined_ranks(reps, only_h_2, p, ctx), \
        build_H_s(ctx, 2 % ell)
    for s, rep in enumerate(reps, start=1):
        yield f"H_{s}", combined_ranks([rep], [scale], p, ctx), build_H_s(ctx, s)


def check_incidence_route(ctx, p, scale=1, dense_rank=rank_mod_p):
    """The incidence route's ranks equal the dense rank mod p of each
    operator and of its affine restriction."""
    for name, ranks, m in incidence_route(ctx, p, scale):
        want = (dense_rank(m, p), dense_rank(restrict_to_affine(m, ctx.ell), p))
        assert ranks == want, (name, p)


def route_primes(ell):
    """The auxiliary prime, and the least prime 1 mod ell, at which some of
    the operators fall below full rank."""
    return aux_rank_prime(ell), least_prime_1_mod(ell)


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_torus_rank_matches_dense_rank(ell, contexts):
    for p in route_primes(ell):
        check_incidence_route(contexts[ell], p)


def test_torus_rank_under_nondefault_context():
    ctx = PrimeContext(13, 5, 7)  # 5 is a non-square and 7 a primitive root mod 13
    assert (ctx.epsilon, ctx.g) == (5, 7)
    for p in route_primes(13):
        check_incidence_route(ctx, p)


def largest_stack_prime(n: int) -> int:
    """The largest prime below 2^31 that is 1 mod n."""
    start = (1 << 31) - 1 - ((1 << 31) - 2) % n  # 1 mod n
    return next(q for q in range(start, 0, -n) if is_prime(q))


@pytest.mark.parametrize("ell", (5, 7))
def test_torus_rank_at_a_prime_too_large_for_float64_blocks(ell, contexts):
    """From 2^26 on the float64 engine refuses a prime; the blocks are sums
    of residues and the stack engine is int64, so the route ranks up to
    2^31, here against the Python-int oracle of the dense operators, also
    with every weight a unit multiple that puts residues near p."""
    ctx = contexts[ell]
    p = largest_stack_prime(ell)
    assert 1 << 30 < p < 1 << 31

    def oracle(m, p):
        return oracle_mod_p(m.data.tolist(), p)[0]

    check_incidence_route(ctx, p, dense_rank=oracle)
    check_incidence_route(ctx, p, scale=p // 3, dense_rank=oracle)
    with pytest.raises(ValueError, match=r"2\^26"):
        rank_mod_p(build_psi_plus(ctx), p)
    too_large = next(q for q in range(p + ell, 1 << 32, ell) if is_prime(q))
    with pytest.raises(ValueError, match="int64"):
        check_incidence_route(ctx, too_large)


def character_blocks(m, p, ctx, h, order):
    """Every character block B_a mod p, a = 0..order-1, of the dense
    operator m under the group <h>, from the orbits h walks on its bases:
    B_a[i, j] = sum_k w^(ak) M[h^k r_i, c_j] over the orbit minima r_i and
    c_j, in Python ints; w an element of that order of F_p."""
    walks = []
    for tag in (m.row_tag, m.col_tag):
        perm = geometry.permutation(h, tag, ctx).tolist()
        orbit_of, walk = {}, []
        for e in range(len(perm)):
            if e in orbit_of:
                continue
            path = [e]
            while len(path) < order:
                path.append(perm[path[-1]])
            orbit_of.update(dict.fromkeys(path))
            walk.append(path)
        walks.append(walk)
    rows, cols = walks
    w = pow(find_primitive_root(p), (p - 1) // order, p)
    powers = [pow(w, t, p) for t in range(order)]
    M = m.data.tolist()
    return [[[sum(powers[a * k % order] * M[row[k]][col[0]] for k in range(order)) % p
              for col in cols] for row in rows] for a in range(order)]


def test_unipotent_blocks_equal_the_block_formula(contexts):
    """The two blocks, formed by bincount from the orbit and exponent of each
    listed point, against the block formula walked with u itself, for psi
    with weights near p at the largest stack prime.  Both take the exponent-0
    element of each orbit as its representative, so they are equal entry by
    entry, once w is the same."""
    ctx = contexts[7]
    ell, p = ctx.ell, largest_stack_prime(7)
    weights = [p - 1 - s for s in range(1, ell)]
    paths = [path_incidence(ctx, s) for s in range(1, ell)]
    m = incidence_operator(ctx, paths[0])
    data = sum(w * incidence_operator(ctx, idx).data.astype(object)
               for w, idx in zip(weights, paths))
    want = character_blocks(OperatorMatrix(m.row_tag, m.col_tag, data), p, ctx, U, ell)
    got = correspondence._blocks([incidence_columns(idx, ctx) for idx in paths],
                                 weights, np.zeros(ell - 1, dtype=np.int64), p, ctx)
    # the orbit minima are the exponent-0 elements, in orbit order, for C_ell
    # and the ordered pairs
    assert got.tolist() == [want[0], want[1]]


def test_float_kernels_refuse_primes_from_2_to_the_26(contexts):
    """The float64 engine names its bound, 2^26, also at a prime that holds
    the unipotent characters; the character route ranks there."""
    ctx = contexts[7]
    idx = path_incidence(ctx, 1)
    m = incidence_operator(ctx, idx)
    p = next(q for q in range(1 << 26, 1 << 27) if q % 42 == 1 and is_prime(q))
    for kernel in (lambda: rank_mod_p(m, p), lambda: det_mod_p(np.eye(2), p),
                   lambda: rank_exact(m, preferred_primes=(p,))):
        with pytest.raises(ValueError, match=r"not below 2\^26"):
            kernel()
    with pytest.raises(ValueError, match=r"2\^26"):
        rank_mod_p(np.eye(2), 1 << 26)  # the bound itself, prime or not
    want = oracle_mod_p(m.data.tolist(), p)[0]
    assert incidence_ranks([incidence_columns(idx, ctx)], p, ctx) == [want]


def recorded_stack_shapes(monkeypatch):
    """The shapes of the stacks correspondence ranks, in order."""
    shapes, stack_rank = [], correspondence.rank_mod_p_stack

    def recorded(B, p):
        shapes.append(B.shape)
        return stack_rank(B, p)

    monkeypatch.setattr(correspondence, "rank_mod_p_stack", recorded)
    return shapes


@pytest.mark.parametrize("ell", (5, 7))
def test_affine_rank_reads_only_the_affine_columns(ell, contexts, monkeypatch):
    """H_1 minus an operator that agrees with H_1 on the affine pairs and
    with H_2 at infinity vanishes on the affine columns only.  Its singular
    restriction still lets the full blocks be ranked, after the affine ones."""
    ctx = contexts[ell]
    shapes = recorded_stack_shapes(monkeypatch)
    h_1, h_2 = path_incidence(ctx, 1), path_incidence(ctx, 2)
    first, second = geometry.decode("ordered_pairs", ell)
    mixed = np.where((first < ell) & (second < ell), h_1, h_2)
    reps = [incidence_columns(idx, ctx) for idx in (h_1, mixed)]
    m = incidence_operator(ctx, h_1)
    m = OperatorMatrix(m.row_tag, m.col_tag, m.data - incidence_operator(ctx, mixed).data)
    for p in route_primes(ell):
        rank, affine_rank = combined_ranks(reps, [1, -1], p, ctx)
        assert affine_rank == rank_mod_p(restrict_to_affine(m, ell), p) == 0
        assert rank == rank_mod_p(m, p) > 0
        # the two blocks at the ell - 1 affine orbits of the ell + 1, then
        # at all of them
        assert shapes == [(2, ell - 1, ell - 1), (2, ell - 1, ell + 1)]
        shapes.clear()


@pytest.mark.parametrize("ell", (3, 7))
def test_a_nonsingular_restriction_spares_the_full_blocks(ell, contexts, monkeypatch):
    """The affine restriction is a column submatrix with the rows of the
    operator: at full rank there, the operator's own blocks are not ranked."""
    ctx = contexts[ell]
    shapes = recorded_stack_shapes(monkeypatch)
    geodesics = geodesic_incidence(ctx)
    rows, p = ell * ctx.r, aux_rank_prime(ell)
    assert combined_ranks([incidence_columns(geodesics, ctx)], [1], p, ctx) \
        == (rows, rows) == (rank_mod_p(build_psi_plus(ctx), p),) * 2
    # B_0 and B_1 at the r affine orbits of the unordered pairs
    assert shapes == [(2, ctx.r, ctx.r)]
    n_affine = (geometry.decode("unordered_pairs", ell)[1] < ell).sum()
    assert n_affine == rows == restrict_to_affine(incidence_operator(ctx, geodesics), ell).shape[1]


def test_torus_rank_rejects_primes_without_the_characters(contexts):
    """F_p must hold an element of order ell: p = 1 mod ell, so not ell."""
    ctx = contexts[7]
    rep = incidence_columns(path_incidence(ctx, 1), ctx)
    for p in (5, 7, AUX_RANK_PRIME):  # 7 divides none of 4, 6, 1048582
        with pytest.raises(ValueError, match="order 7"):
            combined_ranks([rep], [1], p, ctx)
        with pytest.raises(ValueError, match="order 7"):
            incidence_ranks([rep], p, ctx)


def test_orbits_are_those_u_walks(contexts):
    """orbits(tag, ell) against the permutation u = (1 1; 0 1) induces on
    each of the four bases: u adds 1 to the exponent and keeps the orbit,
    every orbit has ell elements, one of exponent 0, which representatives
    lists in orbit order, and an orbit is affine when its elements avoid
    infinity."""
    for ell in PRIMES_SMALL:
        ctx = contexts[ell]
        for tag in TAGS:
            orbit, exponent, affine = correspondence.orbits(tag, ell)
            perm = geometry.permutation(U, tag, ctx)
            assert np.array_equal(orbit[perm], orbit), (ell, tag)
            assert np.array_equal(exponent[perm], (exponent + 1) % ell), (ell, tag)
            assert (np.bincount(orbit) == ell).all() and len(affine) == len(orbit) // ell
            reps = correspondence.representatives(ctx, tag)
            assert np.array_equal(orbit[reps], np.arange(len(affine)))
            assert (exponent[reps] == 0).all()
            coords = geometry.decode(tag, ell)
            at_infinity = (coords[1] == ell) | (coords[0] == ell) if "pairs" in tag \
                else np.zeros(len(orbit), dtype=bool)
            assert np.array_equal(affine[orbit], ~at_infinity), (ell, tag)


def fail_proof(target, monkeypatch):
    """Make verify's proof of psi+ fail (the generator proof of its geodesic
    array), or that of H_1 (premise (a) on its base path)."""
    if target == "psi+":
        check = cli_mod.check_equivariance_incidence
        monkeypatch.setattr(cli_mod, "check_equivariance_incidence",
                            lambda idx, ctx: len(idx) != ctx.r and check(idx, ctx))
    else:
        check = cli_mod.check_base_fixed
        monkeypatch.setattr(cli_mod, "check_base_fixed", lambda base, ctx: (
            not np.array_equal(base, base_paths(ctx, [1])[1]) and check(base, ctx)))


def unranked(rows):
    """The theorem section of an operator whose equivariance proof failed."""
    return {"rank": None, "expected": rows, "surjective": None,
            "restricted_nonsingular": None, "certificate": None}


@pytest.mark.parametrize("ell", (3, 7))
def test_torus_rank_rejects_operator_not_fixed_by_the_torus(ell, capsys, monkeypatch):
    """An operator whose proof fails gets no character rank, and no other:
    its theorem section is null, and the run fails on the proof's own line
    alone."""
    want = run_verification(ell)
    ranked = cli_mod.combined_ranks
    rows = {"theorem1": ell * (ell - 1) // 2, "theorem2": ell * (ell - 1)}
    for target, theorem in (("psi+", "theorem1"), ("H_1", "theorem2")):
        ranked_reps = []

        def recorded(reps, weights, p, ctx):
            ranked_reps.append(len(reps))
            return ranked(reps, weights, p, ctx)

        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, "combined_ranks", recorded)
            fail_proof(target, patch)
            assert main(["verify", "--ell", str(ell)]) == 1
        run = json.loads(capsys.readouterr().out)["runs"][0]
        assert run[theorem] == unranked(rows[theorem])
        assert run["equivariance"]["psi_plus" if target == "psi+" else "psi"] is False
        assert run["failures"] == [FAILURE_LINE[target]]
        other = ({"theorem1", "theorem2"} - {theorem}).pop()
        assert run[other] == want[other]
        # only the proved operator was ranked by its blocks
        assert ranked_reps == ([ell - 1] if target == "psi+" else [1])
        if target == "H_1":
            assert run["equivariance"]["h_s"] is False
            assert run["h_s_ranks"]["1"]["observed_rank"] is None
            # ell - 1 cannot take the proof of H_1: it proved and ranked itself
            assert [1, ell - 1] not in run["h_s_rank_method"]["paired_slopes"]
            fixed = run["equivariance"]["h_s_proof"]["split_cartan_fixes_base"]
            assert 1 not in fixed and ell - 1 in fixed
            assert {s: h for s, h in run["h_s_ranks"].items() if s != "1"} == \
                {str(s): h for s, h in want["h_s_ranks"].items() if s != 1}


@pytest.mark.parametrize("ell", (3, 7))
def test_a_moved_geodesic_entry_leaves_theorem1_unranked(ell, capsys, monkeypatch):
    """psi+'s geodesic array with one entry moved to a row outside its column
    fails the generator proof, so its blocks are not ranked and theorem 1
    has no rank; theorem 2 keeps its own."""
    ctx = PrimeContext(ell)
    real = cli_mod.geodesic_incidence

    def moved(ctx):
        idx = real(ctx).copy()
        idx[-1, 0] = np.setdiff1d(np.arange(ell * ctx.r), idx[:, 0])[-1]
        return np.sort(idx, axis=0)

    monkeypatch.setattr(cli_mod, "geodesic_incidence", moved)
    ranked, combined = [], cli_mod.combined_ranks
    monkeypatch.setattr(cli_mod, "combined_ranks",
                        lambda *args: ranked.append(args) or combined(*args))
    assert main(["verify", "--ell", str(ell), "--skip-cosets"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["equivariance"]["psi_plus"] is False
    assert run["theorem1"] == unranked(ell * ctx.r)
    assert equivariance_failures(run) == [FAILURE_LINE["psi+"]]
    assert not any(f.startswith("theorem1") for f in run["failures"])
    # the blocks ranked theorem 2 only
    assert len(ranked) == 1 and len(ranked[0][0]) == ell - 1
    assert run["theorem2"]["certificate"]["method"] == "unipotent characters"


def test_verify_reports_without_a_dense_operator_or_rank(capsys, monkeypatch):
    """With the dense builders and ranks of cli made to raise, verify still
    reports, with exit 1, a failed proof of psi+, a failed proof of H_1, and
    psi's blocks one rank short."""
    def refuse(*args):
        raise AssertionError("verify built a dense operator or rank")

    ell = 7
    real = cli_mod.combined_ranks

    def short(reps, weights, p, ctx):
        """psi's two ranks one short; psi+ (one geodesic array) as it is."""
        rank, affine_rank = real(reps, weights, p, ctx)
        return (rank, affine_rank) if len(reps) == 1 else (rank - 1, affine_rank - 1)

    for target in ("psi+", "H_1", "short"):
        with monkeypatch.context() as patch:
            for name in ("build_psi", "build_psi_plus", "rank_exact", "rank_mod_p"):
                patch.setattr(cli_mod, name, refuse)
            if target == "short":
                patch.setattr(cli_mod, "combined_ranks", short)
            else:
                fail_proof(target, patch)
            assert main(["verify", "--ell", str(ell)]) == 1, target
        run = json.loads(capsys.readouterr().out)["runs"][0]
        if target == "short":
            p = aux_rank_prime(ell)
            assert run["theorem2"]["rank"] == 41
            assert run["theorem2"]["certificate"] == {
                "rows": 42, "cols": 56, "rank": 41, "witnesses": [[p, 41]],
                "method": "unipotent characters", "conclusive": False}
            assert run["failures"] == ["theorem2: rank 41 != expected 42",
                                       f"theorem2: affine restriction is singular mod {p}"]
        else:
            assert run["failures"] == [FAILURE_LINE[target]], target


@pytest.mark.parametrize("ell", (3, 7))
def test_generator_check_sees_removed_and_added_entries(ell, contexts):
    """A lost or a new entry of a dense operator shows."""
    ctx = contexts[ell]
    m = build_H_s(ctx, 2 % ell)
    assert check_equivariance_psi(m, ctx)
    flat = m.data.ravel()
    for index in (np.flatnonzero(flat)[0], np.flatnonzero(flat == 0)[-1]):
        data = m.data.copy()
        data.flat[index] ^= 1
        assert not check_equivariance_psi(OperatorMatrix(m.row_tag, m.col_tag, data), ctx)


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
    """Against the pure-Python oracle, which also reaches the primes above
    2^26 that rank_mod_p refuses and the stack's deferred reduction serves."""
    rng = np.random.default_rng(p)
    for m, k in ((1, 1), (1, 7), (4, 4), (6, 9), (9, 5), (12, 12)):
        stack = planted_stack(rng, 12, m, k, p)
        got = rank_mod_p_stack(stack, p)
        want = [oracle_mod_p(a.tolist(), p)[0] for a in stack]
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
    """The least prime from AUX_RANK_PRIME on that is 1 mod ell: F_p holds
    the characters of U (order ell)."""
    assert AUX_RANK_PRIME == 1_048_583
    assert [aux_rank_prime(ell) for ell in (3, 7, 101)] == [1_048_609, 1_048_601, 1_048_583]
    for ell in filter(is_odd_prime, range(3, 102)):
        p = aux_rank_prime(ell)
        assert is_prime(p) and p >= AUX_RANK_PRIME and (p - 1) % ell == 0
        # the least such prime
        assert not any(is_prime(q) for q in range(p - ell, AUX_RANK_PRIME - 1, -ell))


def test_h_s_phase_ranks_by_unipotent_characters(capsys, monkeypatch):
    dense_rank = cli_mod.rank_mod_p

    def rank_without_h_s(m, p):
        assert m.col_tag != "ordered_pairs", "dense rank of an unrestricted H_s"
        return dense_rank(m, p)

    monkeypatch.setattr(cli_mod, "rank_mod_p", rank_without_h_s)
    assert main(["verify", "--ell-range", "5..7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for run in doc["runs"]:
        ell = run["ell"]
        r = (ell - 1) // 2
        assert run["h_s_rank_method"] == {
            "method": "unipotent characters", "prime": aux_rank_prime(ell),
            "block_shape": [ell - 1, ell + 1],
            "paired_slopes": [[s, ell - s] for s in range(1, r + 1)]}
        assert run["equivariance"]["h_s"] is True
        assert run["theorem2"]["certificate"]["method"] == "unipotent characters"
    # ell = 5: H_2 and H_3 are rank-deficient at the auxiliary prime
    assert doc["runs"][0]["h_s_ranks"]["2"] == {"observed_rank": 15,
                                                "conclusive": False}
    env = doc["environment"]
    assert set(env) == {"python", "numpy", "blas", "threads", "usable_cpus", "jobs",
                        "worker_processes"}
    assert env["blas"] is None or set(env["blas"]) == {"name", "version"}
    assert set(env["threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS"}
    assert env["jobs"] == 1 and env["worker_processes"] == 0


def test_h_s_equivariance_failure_is_reported(capsys, monkeypatch):
    """Either premise of the H_s proof failing for every slope: premise (a),
    checked per slope, or premise (b), checked once per prime."""
    for premise in ("check_base_fixed", "check_transporters"):
        with monkeypatch.context() as patch:
            patch.setattr(cli_mod, premise, lambda *args: False)
            assert main(["verify", "--ell", "3"]) == 1
        run = json.loads(capsys.readouterr().out)["runs"][0]
        assert run["equivariance"]["h_s"] is False, premise
        # one failed proof, one line
        assert equivariance_failures(run) == [FAILURE_LINE["H_1"]], premise
        # without the proof the blocks of an H_s mean nothing, so no rank
        assert all(h == {"observed_rank": None, "conclusive": False}
                   for h in run["h_s_ranks"].values())
        assert run["equivariance"]["h_s_proof"] == {
            "method": "transported base path",
            "transporters_carry_base": premise != "check_transporters",
            "split_cartan_fixes_base": []}


def cross_check_certificates(ctx):
    """Both theorem certificates and restricted_nonsingular values of a run
    against dense rank_exact and rank_mod_p of the operators at the
    auxiliary prime."""
    ell, p = ctx.ell, aux_rank_prime(ctx.ell)
    run = run_verification(ell, ctx.epsilon, ctx.g, skip_cosets=True)
    for theorem, m in (("theorem1", build_psi_plus(ctx)), ("theorem2", build_psi(ctx))):
        dense = rank_exact(m, preferred_primes=(p,))
        full = min(m.shape)
        assert run[theorem]["rank"] == dense.rank == rank_mod_p(m, p) == full, theorem
        assert run[theorem]["certificate"] == {
            "rows": m.shape[0], "cols": m.shape[1], "rank": full,
            "witnesses": [[p, full]], "method": "unipotent characters", "conclusive": True,
        }, theorem
        restricted = restrict_to_affine(m, ell)
        assert rank_mod_p(restricted, p) == restricted.shape[1] == m.shape[0]
        assert run[theorem]["restricted_nonsingular"] is True, theorem


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_rank_certificate_matches_dense_rank(ell, contexts):
    cross_check_certificates(contexts[ell])


def test_rank_certificate_under_other_contexts():
    cross_check_certificates(PrimeContext(13, 5, 7))
    for ell in (3, 5, 7):
        for eps in PrimeContext(ell).nonsquares():
            cross_check_certificates(PrimeContext(ell, eps))


def test_theorem_section_below_full_rank_is_a_lower_bound(contexts):
    """Blocks below full rank: the rank mod the auxiliary prime is reported
    as a non-conclusive lower bound of the rank over Q, and fails."""
    ctx = contexts[5]
    m, p = build_H_s(ctx, 2), aux_rank_prime(5)
    ranks = combined_ranks([incidence_columns(path_incidence(ctx, 2), ctx)], [1], p, ctx)
    section, failures = cli_mod._theorem_section(m.shape, ranks, "H_2", ctx)
    rank, affine_rank = ranks
    assert rank == 15 < min(m.shape) == 20
    assert rank <= rank_exact(m, preferred_primes=(p,)).rank
    assert affine_rank == rank_mod_p(restrict_to_affine(m, 5), p) < 20
    assert section == {
        "rank": 15, "expected": 20, "surjective": False, "restricted_nonsingular": False,
        "certificate": {"rows": 20, "cols": 30, "rank": 15, "witnesses": [[p, 15]],
                        "method": "unipotent characters", "conclusive": False}}
    assert failures == ["H_2: rank 15 != expected 20",
                        f"H_2: affine restriction is singular mod {p}"]


def test_verify_makes_no_dense_rank_call(capsys, monkeypatch):
    dense_calls = []
    for name in ("rank_exact", "rank_mod_p"):
        monkeypatch.setattr(cli_mod, name,
                            lambda *args, name=name: dense_calls.append(name))
    assert main(["verify", "--ell-range", "3..13"]) == 0
    assert dense_calls == []
    for run in json.loads(capsys.readouterr().out)["runs"]:
        for theorem in ("theorem1", "theorem2"):
            assert run[theorem]["certificate"]["method"] == "unipotent characters"
            assert run[theorem]["restricted_nonsingular"] is True
    # every non-square carries theorem 1's block ranks by a relabelling
    assert main(["verify", "--ell-range", "3..7", "--skip-cosets", "--all-epsilon"]) == 0
    assert dense_calls == []
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [len(run["all_epsilon"]) for run in runs] == [1, 2, 3]


# ---------------------------------------------------------------------------
# The H_s kept as incidence index arrays: the sparse generator proof and the
# stacked character ranks against their dense counterparts.
# ---------------------------------------------------------------------------

def check_incidence_proofs(ctx):
    geodesics = geodesic_incidence(ctx)
    m = incidence_operator(ctx, geodesics)
    assert m.shape == (ctx.ell * ctx.r, ctx.ell * (ctx.ell + 1) // 2)
    assert (m.data.sum(axis=0) == ctx.r).all()
    assert check_equivariance_incidence(geodesics, ctx) is True
    assert check_equivariance_psi_plus(m, ctx) is True
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
        outside = np.setdiff1d(np.arange(idx.max() + 1), idx[:, j])
        moved[-1, j] = outside[j % len(outside)]
        yield f"moved in column {j}", moved
    other = int(np.flatnonzero((idx != idx[:, :1]).any(axis=0))[-1])
    swapped = idx.copy()
    swapped[:, [0, other]] = idx[:, [other, 0]]
    yield f"columns 0 and {other} swapped", swapped


@pytest.mark.parametrize("ell", (3, 7))
def test_incidence_proof_sees_moved_entries_and_swapped_columns(ell, contexts):
    ctx = contexts[ell]
    arrays = [("psi+", geodesic_incidence(ctx))]
    arrays += [(f"H_{s}", path_incidence(ctx, s)) for s in range(1, ell)]
    for name, array in arrays:
        for what, idx in mutated_incidences(array):
            dense = check_equivariance_psi(incidence_operator(ctx, idx), ctx)
            assert check_equivariance_incidence(idx, ctx) is dense is False, (name, what)


def check_h_s_ranks(ctx):
    """The phase's ranks, and the stacked ranks of every slope at the route's
    primes, equal dense rank_mod_p of the H_s."""
    ell, aux = ctx.ell, aux_rank_prime(ctx.ell)
    reps = [incidence_columns(path_incidence(ctx, s), ctx) for s in range(1, ell)]
    dense = {}
    for p in route_primes(ell):
        dense[p] = [rank_mod_p(build_H_s(ctx, s), p) for s in range(1, ell)]
        assert incidence_ranks(reps, p, ctx) == dense[p], p
    full = ell * (ell - 1)
    got = run_verification(ell, ctx.epsilon, ctx.g, skip_cosets=True)["h_s_ranks"]
    assert got == {s: {"observed_rank": r, "conclusive": r == full}
                   for s, r in enumerate(dense[aux], start=1)}


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_h_s_phase_ranks_match_torus_rank(ell, contexts):
    check_h_s_ranks(contexts[ell])


def test_h_s_phase_ranks_under_nondefault_context():
    check_h_s_ranks(PrimeContext(13, 5, 7))


@pytest.mark.parametrize("slopes_per_stack", (1, 3))
def test_h_s_ranks_do_not_depend_on_the_stack_budget(slopes_per_stack, monkeypatch):
    ell = 13  # 8 of the 12 slopes are below full rank at the auxiliary prime
    want = run_verification(ell, skip_cosets=True)["h_s_ranks"]
    assert sum(not h["conclusive"] for h in want.values()) == 8
    # the two (ell - 1) x (ell + 1) blocks of one slope
    budget = slopes_per_stack * 2 * (ell - 1) * (ell + 1)
    monkeypatch.setattr(correspondence, "_STACK_ENTRIES", budget)
    batches, calls = [], []
    stack_rank, ranks = correspondence.rank_mod_p_stack, cli_mod.incidence_ranks

    def recorded_stack(B, p):
        if calls:  # inside the h_s phase's ranking, not a theorem certificate
            batches.append((p, B.size))
        return stack_rank(B, p)

    def recorded_ranks(reps, p, ctx):
        calls.append(p)
        try:
            return ranks(reps, p, ctx)
        finally:
            calls.pop()

    monkeypatch.setattr(correspondence, "rank_mod_p_stack", recorded_stack)
    monkeypatch.setattr(cli_mod, "incidence_ranks", recorded_ranks)
    assert run_verification(ell, skip_cosets=True)["h_s_ranks"] == want
    # the slopes s <= (ell-1)/2 are ranked, 1..slopes_per_stack a stack, all
    # at the auxiliary prime
    one = 2 * (ell - 1) * (ell + 1)
    assert {p for p, _ in batches} == {aux_rank_prime(ell)}
    assert all(n in range(one, budget + 1, one) for _, n in batches)
    assert sum(n for _, n in batches) == (ell - 1) // 2 * one
    assert len(batches) == -(-(ell - 1) // 2 // slopes_per_stack) > 1


def refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"verify called {what}")
    return refused


def test_verify_builds_no_dense_h_s(capsys, monkeypatch):
    """A passing verify builds no dense operator: psi+, psi and every H_s
    stay incidence arrays through the proofs, the ranks, chart conjugacy and
    the coset coincidence."""
    for module in (cli_mod, correspondence, cosets):
        for name in ("incidence_operator", "build_psi_plus", "build_psi", "build_H_s",
                     "coset_operator", "restrict_to_affine"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse(name))
    assert main(["verify", "--ell-range", "3..13"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert [run["coincidence"]["checked"] for run in runs] == [True] * 3 + [False] * 2
    assert main(["verify", "--ell-range", "3..7", "--all-epsilon"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert all(eps["ok"] for run in runs for eps in run["all_epsilon"])


def test_coincidence_compares_the_ranked_incidences(capsys, monkeypatch):
    """The coincidence compares psi+'s ranked geodesic array and, for every
    slope, the full path array made from the very base path whose columns at
    the U-orbit representatives theorem2 ranked."""
    ranked, built, families, coset_arrays, compared = [], [], [], [], []
    columns, paths, incidence, equal = (cli_mod.incidence_columns, cli_mod.path_columns,
                                        cli_mod.coset_incidence, np.array_equal)

    def ranked_columns(idx, ctx):
        ranked.append(idx)
        return columns(idx, ctx)

    def recorded_paths(ctx, bases, cols):
        out = paths(ctx, bases, cols)
        built.append((ctx, dict(bases), cols, out))
        return out

    def recorded_incidence(dec, ctx):
        family = incidence(dec, ctx)
        families.append(len(family))
        coset_arrays.extend(family)
        return family

    def array_equal(a, b, *args, **kwargs):
        if any(a is c for c in coset_arrays):
            compared.append(b)
        return equal(a, b, *args, **kwargs)

    monkeypatch.setattr(cli_mod, "incidence_columns", ranked_columns)
    monkeypatch.setattr(cli_mod, "path_columns", recorded_paths)
    monkeypatch.setattr(cli_mod, "coset_incidence", recorded_incidence)
    monkeypatch.setattr(np, "array_equal", array_equal)
    assert main(["verify", "--ell-range", "3..7"]) == 0
    runs = json.loads(capsys.readouterr().out)["runs"]
    assert all(run["coincidence"] == {"checked": True, "psi_plus": True, "h_s": True}
               for run in runs)
    # per prime one call per family, psi+'s and the slopes'
    assert families == [1, 2, 1, 4, 1, 6]
    # per prime: psi+'s geodesic array, then every slope's path array in
    # slope order
    assert len(compared) == (1 + 2) + (1 + 4) + (1 + 6)
    want, geodesics = [], iter(ranked)
    for ctx in (PrimeContext(3), PrimeContext(5), PrimeContext(7)):
        ell = ctx.ell
        calls = [call for call in built if call[0].ell == ell]
        at_reps = [call for call in calls if np.array_equal(
            call[2], correspondence.representatives(ctx, "ordered_pairs"))]
        full = [call for call in calls if len(call[2]) == ell * (ell + 1)]
        assert len(at_reps) == len(full) == 1
        (_, rep_bases, _, _), (_, full_bases, _, arrays) = at_reps[0], full[0]
        assert list(full_bases) == list(rep_bases) == list(range(1, ell))
        assert all(full_bases[s] is rep_bases[s] for s in full_bases)
        want += [next(geodesics)] + [arrays[s] for s in range(1, ell)]
    assert len(ranked) == 3
    assert [id(a) for a in compared] == [id(b) for b in want]


@pytest.mark.parametrize("ell", [3, 5, 7])
@pytest.mark.parametrize("kind,section", [(cosets.NORMALIZER_NONSPLIT, "psi_plus"),
                                          (cosets.NONSPLIT_CARTAN, "h_s")])
def test_coincidence_sees_a_moved_coset_entry(ell, kind, section, capsys, monkeypatch):
    """One entry of psi+'s coset array, or of the last slope's, moved to a
    row outside its column fails that side of the coincidence."""
    incidence = cli_mod.coset_incidence

    def moved(dec, ctx):
        family = incidence(dec, ctx)
        if dec.K.kind == kind:
            # psi+'s one array, or the last slope's
            keys = family[-1]
            # the array hits every row, so keys.max() + 1 is the row count
            keys[-1, 0] = min(set(range(keys.max() + 1)) - set(keys[:, 0].tolist()))
            family[-1] = np.sort(keys, axis=0)
        return family

    monkeypatch.setattr(cli_mod, "coset_incidence", moved)
    assert main(["verify", "--ell", str(ell)]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    want = {"checked": True, "psi_plus": True, "h_s": True}
    want[section] = False
    assert run["coincidence"] == want
    assert run["failures"] == ["coset operator differs from the geometric map"]


def test_verify_proves_and_ranks_on_incidence_arrays_only(capsys, monkeypatch):
    """No dense psi, restriction or dense equivariance proof, and no full path
    array above COINCIDENCE_BOUND: each slope's columns are built once at the
    U-orbit representatives, shared by theorem2 and the h_s phase, and in
    full only for the coincidence, all slopes in one call.  path_incidence is
    not called at all."""
    for name in ("build_psi", "restrict_to_affine", "check_equivariance_psi",
                 "check_equivariance_psi_plus"):
        monkeypatch.setattr(cli_mod, name, refuse(name))
    monkeypatch.setattr(correspondence, "path_incidence", refuse("path_incidence"))
    built, calls = Counter(), Counter()
    paths = cli_mod.path_columns

    def counted(ctx, bases, cols):
        ell = ctx.ell
        kind = next(kind for kind, at in (
            ("representatives", correspondence.representatives(ctx, "ordered_pairs")),
            ("full", np.arange(ell * (ell + 1)))) if np.array_equal(cols, at))
        if kind == "full":
            assert ell <= cli_mod.COINCIDENCE_BOUND, "a full path array"
        built[ell, kind] += len(bases)
        calls[ell, kind] += 1
        return paths(ctx, bases, cols)

    monkeypatch.setattr(cli_mod, "path_columns", counted)
    for argv in (["verify", "--ell-range", "3..13"],
                 ["verify", "--ell-range", "3..7", "--all-epsilon"]):
        built.clear()
        calls.clear()
        assert main(argv) == 0
        runs = json.loads(capsys.readouterr().out)["runs"]
        assert all(run["equivariance"]["psi_plus"] and run["equivariance"]["psi"]
                   for run in runs)
        assert all(e["ok"] for run in runs for e in run.get("all_epsilon", []))
        for run in runs:
            ell = run["ell"]
            assert built[ell, "representatives"] == ell - 1
            assert calls[ell, "representatives"] == 1
            full = ell <= cli_mod.COINCIDENCE_BOUND
            assert (built[ell, "full"], calls[ell, "full"]) == ((ell - 1, 1) if full
                                                                else (0, 0))


def test_verify_builds_no_point_objects():
    """The four G-sets have one encoding, geometry's decoder and index
    arrays, so verify can build no other: no module keeps a point class, a
    Basis, an enumeration of points, a chart or an action that maps one
    point at a time, and route 2 keeps no kind or table beside
    geometry.STABILISERS."""
    removed = ["ProjectivePoint", "UnorderedPair", "OrderedPair", "CartanPoint",
               "CartanOrbit", "INFINITY", "Basis", "basis", "pair_to_tn", "tn_to_pair",
               "tn_to_orbit", "orbit_to_tn", "pair_to_diff", "diff_to_pair",
               "diff_to_cartan", "cartan_to_diff", "mobius_act", "cartan_act",
               "orbit_act", "transporter", "geodesic_points", "path_points",
               "parse_point", "p1_index", "random_invertible", "BOREL", "_DOMAIN_TAGS"]
    for module in (geometry, correspondence, cosets, circulant, cli_mod):
        names = [name for name in vars(module)
                 if name in removed or name.startswith("enumerate_")]
        assert names in ([], ["enumerate_subgroup"]), module.__name__


def test_a_second_sweep_misses_no_cache():
    """The per-prime tables verify caches (orbits, powers of w, generator
    permutations, the Galois field isomorphism, inverses, decoded
    coordinates, the auxiliary prime) are kept for the life
    of the process, so a second 3..23 sweep computes none of them again.  The
    column transporters are closed forms on the decoded coordinates and are
    not cached."""
    caches = (correspondence.orbits, correspondence._omega_powers,
              correspondence._generator_perms, correspondence.field_isomorphism,
              inverse_table, geometry.decode, aux_rank_prime)
    primes = [n for n in range(3, 24) if is_odd_prime(n)]
    for ell in primes:
        run_verification(ell)
    misses = [cache.cache_info().misses for cache in caches]
    for ell in primes:
        run_verification(ell)
    assert [cache.cache_info().misses for cache in caches] == misses


# ---------------------------------------------------------------------------
# The symmetries that spare ranks: each one against the full route.
# ---------------------------------------------------------------------------

def is_relabelling(perm, idx, idx_to):
    """Whether the rows of the incidence array idx relabelled by perm are
    idx_to, both with sorted columns: incidence_operator of idx_to is P_perm
    times that of idx.  The full-array form of the base-set compare verify
    makes."""
    return np.array_equal(np.sort(perm[idx], axis=0), idx_to)


def galois_conjugation(ell):
    """J: x + y*se -> x - y*se on C_ell, the field isomorphism with c = -1."""
    return correspondence.field_isomorphism("C_ell", -1, ell)


def check_galois_pairing(ctx):
    ell = ctx.ell
    J = galois_conjugation(ell)
    assert sorted(J.tolist()) == list(range(ell * (ell - 1)))
    assert (J[J] == np.arange(len(J))).all() and (J != np.arange(len(J))).all()
    # the index of x - y*se, from the closed form of the C_ell order
    x, y = geometry.decode("C_ell", ell)
    assert np.array_equal(J, x * (ell - 1) + (ell - y) - 1)
    assert correspondence.check_commutes(J, "C_ell", ctx, ctx) is True
    for s in range(1, ell):
        idx_s, idx_t = path_incidence(ctx, s), path_incidence(ctx, ell - s)
        assert is_relabelling(J, idx_s, idx_t) is True, s
        # J H_s, row i of which is row J(i) of H_s, is H_(ell-s)
        h_s = incidence_operator(ctx, idx_s).data
        assert np.array_equal(h_s[J], incidence_operator(ctx, idx_t).data), s
        # ell is odd, so s != ell - s, and J H_s is not H_s
        assert is_relabelling(J, idx_s, idx_s) is False, s


@pytest.mark.parametrize("ell", PRIMES_SMALL)
def test_galois_conjugation_pairs_the_slopes(ell, contexts):
    check_galois_pairing(contexts[ell])


def test_galois_conjugation_pairs_the_slopes_under_nondefault_context():
    check_galois_pairing(PrimeContext(13, 5, 7))


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_ALL]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_field_isomorphism_relabels_the_geodesic_array(ctx):
    """The lemma --all-epsilon reads, checked by building the geodesic array
    at every non-square: for every non-square eps' and every c != 0, the map
    x + y*se -> x + c*y*se' relabels psi+'s geodesic array at eps onto the
    array geodesic_incidence builds at eps' exactly when c^2 eps' = eps,
    and exactly then it commutes with the generators (premise 1); for such
    a c it maps the base geodesic onto the base geodesic (premise 2)."""
    ell = ctx.ell
    geodesics = geodesic_incidence(ctx)
    base = correspondence.base_geodesic(ctx)
    for eps in ctx.nonsquares():
        to = PrimeContext(ell, eps, ctx.g)
        want = geodesic_incidence(to)
        for c in range(1, ell):
            sigma = correspondence.field_isomorphism("H_ell", c, ell)
            isomorphism = c * c * eps % ell == ctx.epsilon
            assert is_relabelling(sigma, geodesics, want) is isomorphism, (eps, c)
            assert correspondence.check_commutes(sigma, "H_ell", ctx, to) is isomorphism
            if isomorphism:
                assert correspondence.check_maps_base(
                    sigma, base, correspondence.base_geodesic(to)), (eps, c)


def character_ranks(m, p, ctx, h, order):
    """The rank mod p of every character block of <h>, by the oracle."""
    B = np.array(character_blocks(m, p, ctx, h, order), dtype=np.int64)
    return rank_mod_p_stack(B, p).tolist()


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_SMALL]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_weyl_and_unipotent_pairings_hold_block_by_block(ctx):
    """The symmetries of the operators that the character ranks rest on, by
    the block oracle on the dense operators of psi+, psi and every H_s:
    every nontrivial character of U has the same rank, so rank B_0 +
    (ell - 1) rank B_1 is the dense rank; and for the split torus
    T = <diag(g, 1)>, which does not act freely, the Weyl element pairs
    rank B_a with rank B_(-a), and the blocks sum to the dense rank too.
    The torus blocks mod p need p = 1 mod ell - 1 as well."""
    ell, aux = ctx.ell, aux_rank_prime(ctx.ell)
    both = least_prime_1_mod(ell * (ell - 1), AUX_RANK_PRIME)
    torus_generator = geometry.GroupElement(ctx.g, 0, 0, 1)
    operators = [build_psi_plus(ctx), build_psi(ctx)]
    operators += [build_H_s(ctx, s) for s in range(1, ell)]
    for m in operators:
        unipotent = character_ranks(m, aux, ctx, U, ell)
        assert len(set(unipotent[1:])) == 1, m
        assert unipotent[0] + (ell - 1) * unipotent[1] == rank_mod_p(m, aux), m
        assert sum(character_ranks(m, both, ctx, torus_generator, ell - 1)) \
            == rank_mod_p(m, both), m
        torus = character_ranks(m, ell, ctx, torus_generator, ell - 1)
        assert torus == torus[:1] + torus[:0:-1], m
        assert sum(torus) == rank_mod_p(m, ell), m


def recorded_slope_work(monkeypatch):
    """The base paths proved on their own (premise (a)), and the number of
    slopes of every incidence_ranks call verify makes."""
    proved, ranked = [], []
    check, ranks = cli_mod.check_base_fixed, cli_mod.incidence_ranks

    def recorded_check(base, ctx):
        proved.append(base)
        return check(base, ctx)

    def recorded_ranks(reps, p, ctx):
        ranked.append(len(reps))
        return ranks(reps, p, ctx)

    monkeypatch.setattr(cli_mod, "check_base_fixed", recorded_check)
    monkeypatch.setattr(cli_mod, "incidence_ranks", recorded_ranks)
    return proved, ranked


@pytest.mark.parametrize("broken", ["identity", "rolled", "off the bases"])
def test_a_broken_conjugation_makes_every_slope_prove_and_rank_itself(broken, capsys,
                                                                      monkeypatch):
    """The identity commutes with GL2 but maps no slope onto its conjugate; a
    rolled J does not commute.  Nor does J with the images of 0 + se and
    0 + 2 se swapped, although it maps every base path as J does (their
    points have x != 0).  Either way no slope is paired, and the ranks are
    those of the paired run."""
    ell = 7
    ctx = PrimeContext(ell)
    want = json.loads(json.dumps(run_verification(ell)))
    J = galois_conjugation(ell)
    fake = {"identity": np.arange(len(J)), "rolled": np.roll(J, 1),
            "off the bases": J[[1, 0, *range(2, len(J))]]}[broken]
    real = cli_mod.field_isomorphism
    monkeypatch.setattr(cli_mod, "field_isomorphism", lambda tag, c, ell: (
        fake if tag == "C_ell" else real(tag, c, ell)))
    assert correspondence.check_commutes(fake, "C_ell", ctx, ctx) is (broken == "identity")
    proved, ranked = recorded_slope_work(monkeypatch)
    assert main(["verify", "--ell", str(ell)]) == 0
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["h_s_rank_method"]["paired_slopes"] == []
    assert len(proved) == ell - 1
    assert ranked == [ell - 1]
    assert run["h_s_ranks"] == want["h_s_ranks"]
    assert run["theorem2"] == want["theorem2"]


def test_a_slope_that_is_not_the_conjugate_proves_and_ranks_itself(capsys, monkeypatch):
    """With the base path of slope 6 replaced by that of slope 1 (fixed by the
    split Cartan, but not J applied to it), slope 6 takes its own proof and
    rank; the other pairs stay paired."""
    ell = 7
    paths = cli_mod.base_paths

    def swapped(ctx, slopes):
        bases = paths(ctx, slopes)
        bases[ell - 1] = bases[1]
        return bases

    monkeypatch.setattr(cli_mod, "base_paths", swapped)
    proved, ranked = recorded_slope_work(monkeypatch)
    main(["verify", "--ell", str(ell), "--skip-cosets"])
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["h_s_rank_method"]["paired_slopes"] == [[2, 5], [3, 4]]
    assert len(proved) == 4
    assert np.array_equal(proved[1], paths(PrimeContext(ell), [1])[1])
    assert ranked == [4]
    assert run["equivariance"]["h_s"] is True
    assert run["h_s_ranks"]["6"] == run["h_s_ranks"]["1"]


# ---------------------------------------------------------------------------
# Equivariance by construction: the columns verify builds and the two
# premises it proves each H_s from, against the full path arrays and their
# generator proof, and the mutations the premises must refuse.
# ---------------------------------------------------------------------------

def all_columns(ctx):
    return np.arange(ctx.ell * (ctx.ell + 1))


def check_path_columns(ctx, slopes):
    """path_columns at the U-orbit representatives equals the columns of the
    full path arrays there, and path_incidence the slope-s path carried by
    every transporter."""
    ell, tag = ctx.ell, "ordered_pairs"
    bases = base_paths(ctx, slopes)
    assert list(bases) == list(slopes)
    g = geometry.transporters(tag, *geometry.decode(tag, ell), ell)
    lam = np.arange(1, ell)[:, None]
    cols = path_columns(ctx, bases, correspondence.representatives(ctx, tag))
    for s in slopes:
        idx = path_incidence(ctx, s)
        assert cols[s].dtype == np.int32 and np.array_equal(
            cols[s], incidence_columns(idx, ctx)), s
        moved = geometry.move_cartan(g, lam * s % ell, lam, ctx)
        assert np.array_equal(idx, np.sort(geometry.cartan_index(*moved, ell), axis=0))


@pytest.mark.parametrize("ctx,step", [(PrimeContext(ell), 1) for ell in PRIMES_SMALL]
                         + [(PrimeContext(13, 5, 7), 1), (PrimeContext(61), 7)], ids=str)
def test_representative_columns_are_those_of_the_full_path_arrays(ctx, step):
    """Every slope, or every 7th at 61."""
    check_path_columns(ctx, range(1, ctx.ell, step))


def off_orbit(base, ell):
    """The base path with one point replaced by a point outside it."""
    moved = base.copy()
    moved[len(base) // 2] = np.setdiff1d(np.arange(ell * (ell - 1)), base)[0]
    return np.sort(moved)


@pytest.mark.parametrize("ctx", [PrimeContext(ell) for ell in PRIMES_SMALL]
                         + [PrimeContext(13, 5, 7)], ids=str)
def test_premise_verdicts_equal_the_generator_proof(ctx):
    """Premise (a) holds exactly when the full array it transports passes
    the generator proof: on every base path, and on each moved off its
    orbit.  The base-path compare of premise 2 agrees with the full-array
    relabelling, for J and for the identity, which commutes with GL2 but
    pairs nothing."""
    ell = ctx.ell
    assert correspondence.check_transporters(ctx) is True
    bases = base_paths(ctx, range(1, ell))
    for s, base in bases.items():
        for b in (base, off_orbit(base, ell)):
            (idx,) = path_columns(ctx, {s: b}, all_columns(ctx)).values()
            assert correspondence.check_base_fixed(b, ctx) \
                is check_equivariance_incidence(idx, ctx) is (b is base), s
    paths = {s: path_incidence(ctx, s) for s in bases}
    J = galois_conjugation(ell)
    for conjugation in (J, np.arange(len(J))):
        for s in bases:
            paired = correspondence.check_maps_base(conjugation, bases[s], bases[ell - s])
            assert paired is is_relabelling(
                conjugation, paths[s], paths[ell - s]) is (conjugation is J), s


# right factors u of a wrong transporter g u: w = (0 1; 1 0) moves both
# ends of (0, inf), the other two one end each
WRONG_FACTORS = (geometry.GroupElement(0, 1, 1, 0), geometry.GroupElement(1, 0, 1, 1),
                 geometry.GroupElement(1, 1, 0, 1))


def wrong_transporter(monkeypatch, ctx, col, u=WRONG_FACTORS[0]):
    """Replace the transporter g of ordered pair col, wherever correspondence
    reads it: by g u, or, for u None, by a singular matrix that move_p1 still
    sends 0 and infinity to the pair's ends, (j 0; 1 0) for the pair (inf, j)."""
    ell, tag = ctx.ell, "ordered_pairs"
    i0, j0 = (int(v[col]) for v in geometry.decode(tag, ell))
    real = correspondence.transporters

    def wrong(tag_, i, j, ell_):
        g = real(tag_, i, j, ell_)
        if tag_ != tag or ell_ != ell:
            return g
        at = (np.asarray(i) == i0) & (np.asarray(j) == j0)
        bad = (j0, 0, 1, 0) if u is None else geometry.mat_mul(g, u, ell)
        return geometry.GroupElement(*(np.where(at, y, x) for x, y in zip(g, bad)))

    monkeypatch.setattr(correspondence, "transporters", wrong)


@pytest.mark.parametrize("ell", (3, 7))
def test_premise_b_refuses_a_wrong_transporter_at_a_representative(ell, monkeypatch):
    """The wrong transporter changes the representative column the ranks
    read; premise (b) fails, and so does the generator proof of every full
    array.  A singular one is refused too, and its column is no path."""
    ctx = PrimeContext(ell)
    reps = correspondence.representatives(ctx, "ordered_pairs")
    bases = base_paths(ctx, range(1, ell))
    want = path_columns(ctx, bases, reps)
    for col in (reps[1], reps[-1]):  # an affine pair, then one with inf
        for u in WRONG_FACTORS:
            with monkeypatch.context() as patch:
                wrong_transporter(patch, ctx, col, u)
                assert correspondence.check_transporters(ctx) is False, (col, u)
                got = path_columns(ctx, bases, reps)
                full = path_columns(ctx, bases, all_columns(ctx))
            k = int(np.flatnonzero(reps == col)[0])
            for s in bases:
                assert not np.array_equal(got[s][:, k], want[s][:, k]), (col, u, s)
                assert check_equivariance_incidence(full[s], ctx) is False, (col, u, s)
    col = reps[-1]
    assert [int(v[col]) for v in geometry.decode("ordered_pairs", ell)] == [ell, 0]
    with monkeypatch.context() as patch:
        wrong_transporter(patch, ctx, col, None)
        assert correspondence.check_transporters(ctx) is False
        with pytest.raises(AssertionError, match=r"through \(inf,0\) is not"):
            path_columns(ctx, bases, reps)


def check_unproved_slopes(run, want, ctx, unproved):
    """A slope whose proof fails: no rank and no pairing for it, no rank for
    theorem2, and a failed run."""
    ell = ctx.ell
    assert run["theorem2"] == unranked(ell * (ell - 1))
    assert run["theorem1"] == want["theorem1"]
    assert run["equivariance"]["psi"] is run["equivariance"]["h_s"] is False
    assert equivariance_failures(run) == [FAILURE_LINE["H_1"]]
    assert not run["ok"]
    for s in range(1, ell):
        if s in unproved:
            assert run["h_s_ranks"][str(s)]["observed_rank"] is None, s
            assert not any(s in pair for pair in run["h_s_rank_method"]["paired_slopes"])
        else:
            assert run["h_s_ranks"][str(s)] == json.loads(
                json.dumps(want["h_s_ranks"][s])), s


@pytest.mark.parametrize("slope", (1, 6))
def test_a_base_path_off_its_orbit_is_not_proved(slope, capsys, monkeypatch):
    """One point of the base path of slope 1 (proved on its own) or of 6
    (else paired with 1) replaced: that slope is neither proved nor paired,
    and the coincidence, which builds its full array, sees it too."""
    ell = 7
    ctx = PrimeContext(ell)
    want = run_verification(ell)
    paths = cli_mod.base_paths

    def moved(ctx, slopes):
        bases = paths(ctx, slopes)
        bases[slope] = off_orbit(bases[slope], ctx.ell)
        return bases

    monkeypatch.setattr(cli_mod, "base_paths", moved)
    assert main(["verify", "--ell", str(ell)]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    check_unproved_slopes(run, want, ctx, {slope})
    assert slope not in run["equivariance"]["h_s_proof"]["split_cartan_fixes_base"]
    assert run["coincidence"] == {"checked": True, "psi_plus": True, "h_s": False}


def test_a_wrong_transporter_leaves_every_slope_unproved(capsys, monkeypatch):
    ell = 7
    ctx = PrimeContext(ell)
    want = run_verification(ell)
    # the transporter of (0, inf)
    col = correspondence.representatives(ctx, "ordered_pairs")[ell - 1]
    assert [int(v[col]) for v in geometry.decode("ordered_pairs", ell)] == [0, ell]
    wrong_transporter(monkeypatch, ctx, col)
    assert main(["verify", "--ell", str(ell), "--skip-cosets"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["equivariance"]["h_s_proof"]["transporters_carry_base"] is False
    monkeypatch.undo()
    check_unproved_slopes(run, want, ctx, set(range(1, ell)))


@pytest.mark.parametrize("ell, argv", ((7, ()), (7, ("--skip-cosets",)), (11, ())))
def test_a_repeated_base_path_point_fails_the_column_sums(ell, argv, capsys, monkeypatch):
    """Slope 1's base path with a point repeated: the column-sum check
    fails, and the coincidence, which cannot build that slope's full array,
    reports h_s false instead of raising."""
    paths = cli_mod.base_paths

    def repeated(ctx, slopes):
        bases = paths(ctx, slopes)
        bases[1] = bases[1].copy()
        bases[1][1] = bases[1][0]
        return bases

    monkeypatch.setattr(cli_mod, "base_paths", repeated)
    assert main(["verify", "--ell", str(ell), *argv]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["h_s_column_sums_ok"] is False
    assert "per-slope column sums differ from the coset degree" in run["failures"]
    if ell == 7 and not argv:
        assert run["coincidence"] == {"checked": True, "psi_plus": True, "h_s": False}
