# Convenience targets; CI-equivalent gates.
#
#   make lint   - simlint + ruff + mypy (latter two skipped if absent)
#   make test   - the tier-1 pytest suite (includes the simlint gate)
#   make check  - both
#   make e2e-pairs BASE=<rev> [HEAD=<rev>] [PAIRS=<n>]
#               - alternating end-to-end benchmark runs of two commits,
#                 compared by benchmarks/e2e/compare.py

PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: lint test check e2e-pairs

lint:
	bash scripts/check.sh

test:
	PYTHONPATH=$(PYTHONPATH) python -m pytest -x -q

check: lint test

e2e-pairs:
	bash scripts/e2e_pairs.sh $(BASE) $(or $(HEAD),HEAD) $(or $(PAIRS),10)
