"""The README's library tour runs and gives the values its comments state."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_tour_runs_as_documented():
    tour = re.search(r"^## Library tour\n+```python\n(.*?)^```$", README.read_text(),
                     re.M | re.S)
    scope = {}
    exec(tour.group(1), scope)
    chain, certified_prefix = scope["chain"], scope["certified_prefix"]
    assert chain.elements == (2, 11, 1361, 2521008887)
    assert certified_prefix(chain, 9) == (9, "1.30637788")
    assert scope["verify_representation"](chain).all_passed
