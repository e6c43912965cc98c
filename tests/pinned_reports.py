"""The pinned sha256 digests of the verify reports, in one place.

Not a test module: ``test_cli.py`` and ``test_verify.py`` import it.  A
report built in process is its JSON text, and the CLI prints that text
plus one newline, so each in-process digest has a CLI twin.  The CI
workflow checks the CLI digests; ``perfbench/references.json`` pins the
default one as well.
"""

# ``lpgg verify --suite all --seed 2024 --format json``, from the CLI.
DEFAULT_REPORT_CLI = "9821fa2e97220a4a641ad7e141373cd6f38fceda070881255c99e86f392c6c5b"

# The seed-9 report at n_max = 4, in process.  CLI twin:
# 7bc9b77d8e7ec7aa70c428c885ab773d8c84cb045b2323e6c0f31786187e0980
SEED_9_N_MAX_4 = "f9886965ba1a8712911c97d0098b93cf5cd442730564ae6b4caf38aa3003e900"

# The seed-2024 report at n_max = 4, in process.  CLI twin:
# bab09c229444484e48221c6f0baa589a2e952a2b44cb3292a7f595d56283d73e
SEED_2024_N_MAX_4 = "003e9eb52e8956511c093cbfe5665f29cdd7435158d94fdfe220ae26bf6ec09a"
