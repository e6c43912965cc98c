"""The README's "Corrected findings" names exactly the corrected checks."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_corrected_findings_name_every_pass_corrected_check():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Corrected findings", 1)[1].split("\n## ", 1)[0]
    named = re.findall(r"`([a-z]+/[a-z0-9-]+)`", section)
    statuses = json.loads(
        (ROOT / "perfbench" / "references.json").read_text()
    )["verify_all"]["statuses"]
    corrected = {name for name, status in statuses.items()
                 if status == "pass-corrected"}
    assert len(corrected) == 23
    assert sorted(named) == sorted(corrected)
