"""The test suite leaves tracked files exactly as it found them.

Experiment runners write ``results/`` artifacts, some of which are
tracked; tests must send such output to ``tmp_path`` instead.  The
tracked-file ``git status`` is taken at session start
(``tests/conftest.py``) and this guard is ordered after every other
test, so a run of the whole suite checks every test before it.
"""

import pytest

from tests.conftest import TRACKED_STATE, tracked_state


@pytest.mark.hermeticity_guard
def test_suite_leaves_tracked_files_unchanged(request):
    before = request.config.stash[TRACKED_STATE]
    if before is None:
        pytest.skip("not a git checkout")
    after = tracked_state()
    changed = sorted(set(after.splitlines()) - set(before.splitlines()))
    assert after == before, f"tests changed tracked files: {changed}"
