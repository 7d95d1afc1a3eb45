package pipeline

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ricsa/internal/cost"
)

// TestParallelMatchesSerial checks that the sharded column evaluation is
// bit-identical to the serial dynamic program across many random instances.
func TestParallelMatchesSerial(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGraph(rng, 64, 2)
		p := RandomPipeline(rng, 6, false)
		serial, serr := optimize(g, p, 0, 63, 1)
		par, perr := optimize(g, p, 0, 63, 8)
		// The tree consumes the prefix column directly: whole columns and
		// choice tables must agree, not just the cell a destination reads.
		split := RenderSplit(p)
		sT, sChoice := forward(g, p, 0, split, 1)
		pT, pChoice := forward(g, p, 0, split, 8)
		if !reflect.DeepEqual(sT, pT) || !reflect.DeepEqual(sChoice, pChoice) {
			t.Fatalf("seed %d: prefix column %d differs between serial and parallel", seed, split)
		}
		if (serr == nil) != (perr == nil) {
			t.Fatalf("seed %d: serial err %v, parallel err %v", seed, serr, perr)
		}
		if serr != nil {
			continue
		}
		if serial.Delay != par.Delay {
			t.Fatalf("seed %d: delay %v (serial) vs %v (parallel)", seed, serial.Delay, par.Delay)
		}
		if !reflect.DeepEqual(serial.Groups, par.Groups) {
			t.Fatalf("seed %d: groups differ:\n%v\n%v", seed, serial, par)
		}
	}
}

// TestAutoParallelThreshold checks the automatic mode on both sides of the
// threshold (it must still agree with the serial result).
func TestAutoParallelThreshold(t *testing.T) {
	for _, nodes := range []int{8, DefaultParallelThreshold + 16} {
		rng := rand.New(rand.NewSource(7))
		g := RandomGraph(rng, nodes, 2)
		p := RandomPipeline(rng, 5, false)
		auto, aerr := Optimize(g, p, 0, nodes-1)
		serial, serr := optimize(g, p, 0, nodes-1, 1)
		if (aerr == nil) != (serr == nil) {
			t.Fatalf("%d nodes: auto err %v, serial err %v", nodes, aerr, serr)
		}
		if aerr == nil && auto.Delay != serial.Delay {
			t.Fatalf("%d nodes: auto delay %v, serial %v", nodes, auto.Delay, serial.Delay)
		}
		// The tree picks its worker count the same way; the reference tree
		// DP is serial at every size.
		dsts := []int{nodes - 1, nodes / 2, 3}
		tree, terr := OptimizeMultiTiered(g, p, 0, dsts, cost.TierDelta)
		ref, rerr := refOptimizeMultiTiered(g, p, 0, dsts, cost.TierDelta)
		if !sameErr(terr, rerr) || !reflect.DeepEqual(tree, ref) {
			t.Fatalf("%d nodes: auto tree %v (%v), serial reference %v (%v)", nodes, tree, terr, ref, rerr)
		}
	}
}

// BenchmarkOptimizeSerial512 and BenchmarkOptimizeParallel512 compare the
// serial DP against the size-selected sharded column evaluation on a graph
// large enough for the fan-out to pay.
func BenchmarkOptimizeSerial512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := RandomGraph(rng, 512, 4)
	p := RandomPipeline(rng, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := optimize(g, p, 0, 511, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeParallel512(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := RandomGraph(rng, 512, 4)
	p := RandomPipeline(rng, 8, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(g, p, 0, 511); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomGraph(rng, 12, 1.5)
	p := RandomPipeline(rng, 4, false)

	gf, pf := g.Fingerprint(), p.Fingerprint()
	if g.Fingerprint() != gf || p.Fingerprint() != pf {
		t.Fatal("fingerprints are not deterministic")
	}

	// A bandwidth re-measurement must change the graph fingerprint.
	g.Adj[0][0].Bandwidth *= 1.001
	if g.Fingerprint() == gf {
		t.Fatal("graph fingerprint ignored a bandwidth change")
	}
	// A steering-driven cost change must change the pipeline fingerprint.
	p.Modules[1].RefTime *= 1.001
	if p.Fingerprint() == pf {
		t.Fatal("pipeline fingerprint ignored a module cost change")
	}
}

// TestGraphRevStamp checks the O(1) fingerprint path: a stamped graph is
// digested from its revision token, distinct tokens yield distinct
// fingerprints, and clearing the stamp falls back to content hashing.
func TestGraphRevStamp(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := RandomGraph(rng, 12, 1.5)
	content := g.Fingerprint()

	g.Rev = NextGraphRev()
	stamped := g.Fingerprint()
	if stamped != g.Fingerprint() {
		t.Fatal("stamped fingerprint is not deterministic")
	}
	if stamped == content {
		t.Fatal("stamped fingerprint collides with the content hash")
	}
	// A re-measurement epoch changes the fingerprint even if edge values
	// happen to repeat.
	g.Rev = NextGraphRev()
	if g.Fingerprint() == stamped {
		t.Fatal("new revision token did not change the fingerprint")
	}
	// Clearing the stamp restores content hashing.
	g.Rev = 0
	if g.Fingerprint() != content {
		t.Fatal("unstamped fingerprint diverged from the content hash")
	}
}

func TestCacheHitMissAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := RandomGraph(rng, 20, 2)
	p := RandomPipeline(rng, 5, false)
	c := NewCache(16)

	direct, err := Optimize(g, p, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	first, err := c.Optimize(g, p, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	second, err := c.Optimize(g, p, 0, 19)
	if err != nil {
		t.Fatal(err)
	}
	if first.Delay != direct.Delay || second.Delay != direct.Delay {
		t.Fatalf("cached delays %v/%v, want %v", first.Delay, second.Delay, direct.Delay)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 entry", st)
	}

	// A different endpoint is a different instance.
	if _, err := c.Optimize(g, p, 0, 10); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("stats %+v, want 2 misses / 2 entries", st)
	}

	// Changing the network invalidates by construction: new fingerprint,
	// new entry, no stale reuse.
	g.Adj[0][0].Bandwidth /= 2
	if _, err := c.Optimize(g, p, 0, 19); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 3 {
		t.Fatalf("stats %+v, want third miss after re-measurement", st)
	}

	// Mutating a returned VRT must not corrupt the cached copy.
	got, _ := c.Optimize(g, p, 0, 19)
	got.Groups[0].Node = "corrupted"
	again, _ := c.Optimize(g, p, 0, 19)
	if again.Groups[0].Node == "corrupted" {
		t.Fatal("cache returned an aliased VRT")
	}
}

func TestCacheNegativeResult(t *testing.T) {
	// Two isolated nodes: no feasible mapping, and the failure is cached.
	g := NewGraph(Node{Name: "a", Power: 1}, Node{Name: "b", Power: 1})
	p := &Pipeline{SourceBytes: 1e6, Modules: []Module{{Name: "M", RefTime: 1, OutBytes: 1e5}}}
	c := NewCache(4)
	for i := 0; i < 3; i++ {
		if _, err := c.Optimize(g, p, 0, 1); !errors.Is(err, ErrNoFeasibleMapping) {
			t.Fatalf("want ErrNoFeasibleMapping, got %v", err)
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats %+v, want failure cached after first miss", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := RandomGraph(rng, 16, 2)
	p := RandomPipeline(rng, 4, false)
	c := NewCache(2)
	for dst := 1; dst <= 3; dst++ {
		c.Optimize(g, p, 0, dst)
	}
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("entries %d, want capacity bound 2", st.Entries)
	}
	// dst=1 was evicted; re-asking is a miss.
	before := c.Stats().Misses
	c.Optimize(g, p, 0, 1)
	if c.Stats().Misses != before+1 {
		t.Fatal("evicted entry was still served")
	}
}

// TestCacheConcurrentSingleFlight hammers one key from many goroutines; the
// single-flight path must produce one miss and consistent results.
func TestCacheConcurrentSingleFlight(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := RandomGraph(rng, 48, 2)
	p := RandomPipeline(rng, 6, false)
	c := NewCache(8)
	want, err := Optimize(g, p, 0, 47)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 16
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vrt, err := c.Optimize(g, p, 0, 47)
			if err != nil {
				errs <- err
				return
			}
			if vrt.Delay != want.Delay {
				errs <- errors.New("divergent cached delay")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 {
		t.Fatalf("stats %+v, want single flight (1 miss, %d hits)", st, callers-1)
	}
}
