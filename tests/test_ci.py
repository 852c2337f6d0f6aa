"""ci/checks.sh and the workflow that runs it name one list of checks."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_checks_array_functions_and_workflow_steps_name_the_same_checks_in_order():
    script = (ROOT / "ci" / "checks.sh").read_text()
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    array = re.search(r"^CHECKS=\((.*?)\)", script, re.M | re.S).group(1).split()
    functions = re.findall(r"^check_([\w-]+)\(\) \{", script, re.M)
    steps = re.findall(r"^\s+run: ci/checks\.sh (\S+)$", workflow, re.M)
    assert len(array) == 16
    assert functions == array
    assert steps == array
