"""The evidence behind each status: how many samples every check examined.

The report's bytes say what each check concluded, not how much it looked
at, so a change that shrinks a sampling loop but keeps every status would
leave the digest alone.  These tests pin the sample count of each check of
the seed-2024 report, at the default n_max and at n_max = 4.  The counts
are recorded while the session's memo builds each suite in this process
(``suite_evidence`` in ``conftest.py``): ``run_suite("all")`` runs them in
worker processes, and the counts recorded there would be lost.
"""

import pytest

from lpgg import DEFAULT_N_MAX, SUITES

SEED = 2024

# check -> samples in the seed-2024 report at the default n_max.
SAMPLES = {
    "core/associativity": 3000,
    "core/generator-metric": 85,
    "core/vector-product-split": 280,
    "core/radical-arithmetic": 2,
    "core/reverse-antiautomorphism": 90,
    "frame/frame-axioms": 252,
    "frame/multiplication-tables": 14,
    "frame/transition-3": 2,
    "frame/transition-8": 2,
    "frame/transition-inverse": 7,
    "frame/coordinate-round-trip": 35,
    "frame/k-sum-squares": 14,
    "frame/reciprocal-frame": 245,
    "frame/pseudoscalar-relation": 8,
    "frame/canonical-basis-invertible": 21,
    "frame/canonical-form-e1f1": 1,
    "frame/canonical-form-e1f2": 2,
    "frame/canonical-form-e1f1f2": 2,
    "star/involution": 240,
    "star/homomorphism": 120,
    "star/contraction-normalization": 120,
    "star/mediated-product": 200,
    "star/a-matrix-diagonal": 6,
    "star/coefficient-matrix": 23,
    "calculus/gradient-of-x": 7,
    "calculus/gradient-of-x-squared": 7,
    "calculus/gradient-via-flat-sum": 4,
    "calculus/gradient-via-dual": 4,
    "calculus/A-dot-gradient": 4,
    "calculus/dual-plus-null": 4,
    "calculus/A-dot-dual-plus-null": 4,
    "calculus/null-laplacian": 4,
    "calculus/dual-laplacian": 4,
    "calculus/gradient-laplacian": 4,
    "calculus/dual-dot-null": 4,
    "calculus/vector-dot-full-sum": 4,
    "calculus/dual-dot-dual": 4,
    "calculus/mixed-partials": 60,
    "calculus/laplacians-scalar-valued": 50,
    "calculus/finite-differences": 120,
    "spectral/wedge-endo-eigenvalues": 300,
    "spectral/cayley-grassmann": 100,
    "spectral/projective-reconstruction": 100,
    "spectral/pseudoscalar-endo": 60,
    "spectral/pseudoscalar-central": 30,
    "spectral/bivector-gram": 6,
    "spectral/pauli-normalization": 3,
    "spectral/spectral-idempotents": 400,
    "spectral/rep-a1-a2": 2,
    "spectral/rep-position-vector": 1,
    "spectral/rep-homomorphism": 200,
    "spectral/regular-representation-faithful": 28,
    "spectral/rep-regular-similarity": 100,
    "simplex/content-forms": 5,
    "simplex/barycentric-wedge": 50,
    "simplex/centroid-norm": 2,
    "simplex/vertices-on-cone": 14,
    "simplex/grid-nonnegative": 112,
    "simplex/simplicial-rows": 20,
    "simplex/order-equals-rank": 20,
    "simplex/closed-graphs": 4,
    "simplex/content-alternating": 2,
    "simplex/laplacian-dual-gradient-of-x-n2": 1,
    "simplex/laplacian-dual-laplacian-scalar-valued-n2": 20,
    "simplex/laplacian-dual-laplacian-expansion-n2": 1,
    "simplex/laplacian-dual-laplacian-of-x-squared-n2": 1,
    "simplex/laplacian-dual-gradient-of-x-n3": 1,
    "simplex/laplacian-dual-laplacian-scalar-valued-n3": 35,
    "simplex/laplacian-dual-laplacian-expansion-n3": 1,
    "simplex/laplacian-three-simplex-display-n3": 1,
    "simplex/laplacian-dual-laplacian-of-x-squared-n3": 1,
    "atlas/level-strings": 6,
    "atlas/aggregate-sign-sequence": 6,
    "atlas/product-sequence": 1,
    "atlas/eightfold-periodicity": 1,
    "atlas/pair-sign-products": 8,
}

# The checks whose count changes at n_max = 4, where frames and
# signatures stop at size 4; ``transition-8`` examines nothing there.
SAMPLES_AT_N_MAX_4 = {
    **SAMPLES,
    "frame/frame-axioms": 44,
    "frame/multiplication-tables": 6,
    "frame/transition-8": 0,
    "frame/transition-inverse": 3,
    "frame/coordinate-round-trip": 15,
    "frame/k-sum-squares": 6,
    "frame/reciprocal-frame": 41,
    "frame/pseudoscalar-relation": 4,
    "frame/canonical-basis-invertible": 9,
    **{f"calculus/{name}": 3 for name in (
        "gradient-of-x", "gradient-of-x-squared", "gradient-via-flat-sum",
        "gradient-via-dual", "A-dot-gradient", "dual-plus-null",
        "A-dot-dual-plus-null", "null-laplacian", "dual-laplacian",
        "gradient-laplacian", "dual-dot-null", "vector-dot-full-sum",
        "dual-dot-dual")},
    "simplex/content-forms": 3,
    "simplex/barycentric-wedge": 30,
    "atlas/pair-sign-products": 6,
}

# ``projective-reconstruction`` skips degenerate draws (v1 ^ v2 = 0), so
# its count depends on the draws; every other count is fixed.
RANGES = {"spectral/projective-reconstruction": range(98, 101)}

# Claims whose stated count is not the count examined, pinned so that a
# fix must edit this list: check -> (the claim's words, the count they
# state, the count examined, the samples that count gives).
KNOWN_CLAIM_MISMATCHES = {
    # 30 points (20 at size 3, 10 more at size 4), one sample per field tag.
    "calculus/finite-differences": ("at 20 random interior points", 20, 30, 30 * 4),
    # 200 triples u, v, w per signature, one sample each, 15 signatures.
    "core/associativity": ("on 200 random multivectors per signature", 200, 3 * 200,
                           15 * 200),
}


def evidence(n_max, suite_evidence):
    """``{check name: (samples, claim)}`` of the seed-``SEED`` report, its
    seven suites run in this process, from ``suite_evidence(suite, n_max,
    seed)``, which gives one suite's table by check name."""
    return {f"{suite}/{name}": entry for suite in SUITES
            for name, entry in suite_evidence(suite, n_max, SEED).items()}


@pytest.fixture(scope="module")
def tables(suite_evidence):
    return {n_max: evidence(n_max, suite_evidence) for n_max in (DEFAULT_N_MAX, 4)}


@pytest.mark.parametrize("n_max,pinned,total", [
    (DEFAULT_N_MAX, SAMPLES, 6702),
    (4, SAMPLES_AT_N_MAX_4, 6189),
])
def test_every_check_examines_its_pinned_sample_count(tables, n_max, pinned, total):
    samples = {name: count for name, (count, _) in tables[n_max].items()}
    assert list(samples) == list(pinned)
    for name, count in samples.items():
        assert count in RANGES.get(name, (pinned[name],)), (name, count)
    assert sum(pinned.values()) == total


def test_known_claim_count_mismatches(tables):
    table = tables[DEFAULT_N_MAX]
    for name, (words, stated, examined, samples) in KNOWN_CLAIM_MISMATCHES.items():
        assert words in table[name][1] and str(stated) in words, name
        assert table[name][0] == samples and examined != stated, name
