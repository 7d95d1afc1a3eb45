package pipeline

import (
	"math/rand"
	"testing"

	"ricsa/internal/cost"
)

// These tests audit the destination-set digest a multi-viewer cache entry
// keys on: an aliased digest would serve one viewer set a tree solved for
// another — a tree missing a viewer's branch. The digest is defined over
// *sets* (duplicate destinations are deduplicated, matching what
// OptimizeMulti solves), so the contracts are: permutation and duplicate
// invariance, and no collisions across distinct sets.

// TestDstSetFingerprintPermutationInvariance: every permutation and
// duplicate-multiplicity of the same destination set digests identically.
func TestDstSetFingerprintPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(8)
		set := rng.Perm(64)[:n]
		want := dstSetFingerprint(set)
		for rep := 0; rep < 8; rep++ {
			shuffled := append([]int(nil), set...)
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			// Inject duplicates at random positions: multisets with the
			// same support must digest as the set.
			for d := 0; d < rng.Intn(3); d++ {
				shuffled = append(shuffled, set[rng.Intn(n)])
			}
			rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
			if got := dstSetFingerprint(shuffled); got != want {
				t.Fatalf("trial %d: %v digests %x, set %v digests %x", trial, shuffled, got, set, want)
			}
		}
	}
}

// TestDstSetFingerprintNoCollisions enumerates every one of the 2^16
// subsets of a 16-node universe — including all the XOR-cancelling and
// near-colliding pairs an additive or xor-combining digest would alias —
// and requires all non-empty subsets to digest distinctly.
func TestDstSetFingerprintNoCollisions(t *testing.T) {
	seen := make(map[uint64]uint32, 1<<16)
	for mask := uint32(1); mask < 1<<16; mask++ {
		var set []int
		for b := 0; b < 16; b++ {
			if mask&(1<<b) != 0 {
				set = append(set, b)
			}
		}
		fp := dstSetFingerprint(set)
		if prev, ok := seen[fp]; ok {
			t.Fatalf("subsets %016b and %016b collide on %x", prev, mask, fp)
		}
		seen[fp] = mask
	}
	// Spot-check sets beyond the small universe: shifted and scaled
	// variants of the same index pattern must not alias either.
	base := []int{2, 3, 5, 8, 13}
	variants := [][]int{
		{3, 2, 5, 8, 13},          // permutation (must collide — same set)
		{2, 3, 5, 8, 14},          // one element moved
		{102, 103, 105, 108, 113}, // shifted
		{4, 6, 10, 16, 26},        // doubled
		{2, 3, 5, 8},              // prefix
		{2, 3, 5, 8, 13, 21},      // superset
	}
	want := dstSetFingerprint(base)
	if got := dstSetFingerprint(variants[0]); got != want {
		t.Fatalf("permutation of the same set diverged: %x vs %x", got, want)
	}
	for _, v := range variants[1:] {
		if got := dstSetFingerprint(v); got == want {
			t.Fatalf("distinct set %v aliases %v", v, base)
		}
	}
}

// TestCacheTierBudgetKeysSeparately: the same viewer set under different
// tier budgets must occupy distinct cache entries — a budget change
// re-solves rather than serving the other budget's tree.
func TestCacheTierBudgetKeysSeparately(t *testing.T) {
	g, p := tierFanSetup()
	g.Rev = NextGraphRev()
	c := NewCache(0)
	full, err := c.OptimizeMultiTiered(g, p, 0, []int{2, 3}, cost.TierFull)
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := c.OptimizeMultiTiered(g, p, 0, []int{2, 3}, cost.TierQuarter)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Fatalf("tier budgets shared an entry: %+v", st)
	}
	if full.Delay == tiered.Delay {
		t.Fatalf("budgets solved to the same delay %v on the starved fan — suspicious", full.Delay)
	}
	// Repeats hit, order-insensitively, within each budget.
	if _, err := c.OptimizeMultiTiered(g, p, 0, []int{3, 2}, cost.TierQuarter); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Fatalf("tiered repeat missed: %+v", st)
	}
	// The untiered entry point shares the full-res budget's entries.
	if _, err := c.OptimizeMultiTiered(g, p, 0, []int{2, 3}, cost.TierFull); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 2 {
		t.Fatalf("OptimizeMulti did not share the TierFull entry: %+v", st)
	}
}
