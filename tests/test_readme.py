"""The README's examples run as written, so an API change cannot leave them stale."""

import json
import os
import re

from cartanmaps.cli import SCHEMA_VERSION, run_verification


def readme() -> str:
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                        "README.md")
    with open(path) as fh:
        return fh.read()


def test_readme_library_example_runs():
    section = readme().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md (Library)", "exec"), {})


def test_readme_h_s_rank_method_example_is_the_report():
    example = re.search(r"`h_s_rank_method` says how the per-slope ranks were found, "
                        r"e\.g\. at `ell = 7`\n`(\{.*?\})`", readme())
    assert example is not None
    report = json.loads(json.dumps(run_verification(7)["h_s_rank_method"]))
    assert json.loads(example.group(1)) == report


def test_readme_h_s_proof_example_is_the_report():
    example = re.search(r"`h_s_proof` names the premises of the `H_s` proof, "
                        r"e\.g\. at `ell = 7`\n`(\{.*?\})`", readme())
    assert example is not None
    report = json.loads(json.dumps(run_verification(7)["equivariance"]["h_s_proof"]))
    assert json.loads(example.group(1)) == report


def test_readme_schema_version_is_the_report():
    example = re.search(r"The verify report is schema-versioned JSON \(version (\d+)\)",
                        readme())
    assert example is not None
    assert int(example.group(1)) == SCHEMA_VERSION


def test_readme_theorem_certificate_example_is_the_report():
    example = re.search(r"theorem 1 at `ell = 7` reads\n`(\{.*?\})`", readme())
    assert example is not None
    report = json.loads(json.dumps(run_verification(7)["theorem1"]["certificate"]))
    assert json.loads(example.group(1)) == report
