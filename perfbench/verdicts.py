"""The per-prime verdicts the benchmark checks against the recorded reference.

A verdict keeps what the verifier asserts or observes about one prime and
drops what later versions may legitimately change: certificate methods and
witnesses, equivariance sample counts, timings and failure messages.
"""

from __future__ import annotations


def _theorem(section: dict) -> dict:
    return {"rank": section["rank"],
            "restricted_nonsingular": section["restricted_nonsingular"]}


def verdict(run: dict) -> dict:
    """The verdict fields of one per-prime run record of a verify report."""
    v = {
        "ell": run["ell"],
        "epsilon": run["epsilon"],
        "g": run["g"],
        "sets": run["sets"],
        "theorem1": _theorem(run["theorem1"]),
        "theorem2": _theorem(run["theorem2"]),
        "chart_conjugacy": run["chart_conjugacy"],
        "circulant": {
            case: {"residues": [rec["residue"] for rec in sec["records"]],
                   "det_match": sec["det_match"]}
            for case, sec in sorted(run["circulant"].items())
        },
        "equivariance": {"psi_plus": run["equivariance"]["psi_plus"],
                         "psi": run["equivariance"]["psi"]},
        "degrees": {"NNp": run["degrees"]["NNp"]["degree"],
                    "CCp": run["degrees"]["CCp"]["degrees"]},
        "h_s_ranks": {s: [h["observed_rank"], h["conclusive"]]
                      for s, h in run["h_s_ranks"].items()},
        "coincidence": run["coincidence"],
        "ok": run["ok"],
    }
    if "all_epsilon" in run:
        v["all_epsilon"] = [
            {k: rec[k] for k in ("epsilon", "rank", "restricted_nonsingular", "ok")}
            for rec in run["all_epsilon"]
        ]
    if "strict_roots" in run:
        v["strict_roots"] = [[rec["g"], rec["ok"]] for rec in run["strict_roots"]]
    return v


def differences(ref: dict, got: dict) -> list[str]:
    """Names of the verdict fields where `got` differs from the reference.

    One asymmetry: where the reference did not run the coset coincidence check
    (ell above the coincidence bound), a report that does run it is accepted
    when every check in it passed, since extending that check is allowed.
    """
    out = []
    for key, want in ref.items():
        have = got.get(key)
        if key == "coincidence" and not want.get("checked") and have \
                and have.get("checked"):
            if not all(val is True for k, val in have.items() if k != "checked"):
                out.append(key)
        elif have != want:
            out.append(key)
    return out
