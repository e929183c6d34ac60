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
    check_equivariance_psi,
    torus_rank_mod_p,
)
from cartanmaps.exact_linalg import rank_mod_p, rank_mod_p_stack
from cartanmaps.modular_arith import PrimeContext, is_odd_prime, is_prime

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


@pytest.mark.parametrize("p", (2, 3, 31, 1_048_609))
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
                                          "blocks": ell - 1}
        assert run["equivariance"]["h_s"] is True
        assert run["theorem2"]["certificate"]["method"] == "single-prime full rank"
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
    monkeypatch.setattr(cli_mod, "check_equivariance_psi", lambda m, ctx: False)
    assert main(["verify", "--ell", "3"]) == 1
    run = json.loads(capsys.readouterr().out)["runs"][0]
    assert run["equivariance"]["h_s"] is False
    assert any("H_s" in f for f in run["failures"])
