package serve

import (
	"context"
	"testing"
)

// TestRefitAllocs pins the allocations of one steady-state refit: a
// tenant with a full 512-sample window and an incumbent model refits, the
// challenger fits the same window, and the drift rule keeps the
// incumbent. An allocation count does not move with machine load the way
// a timing threshold does, so this gate holds the refit's garbage down
// deterministically.
func TestRefitAllocs(t *testing.T) {
	s := mustServer(t, Options{Workers: 1, Queue: 1, Window: 512, RefitInterval: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	if _, err := s.Ingest("alloc", learnSamples(learnRows(1), 512, 5)); err != nil {
		t.Fatal(err)
	}
	if _, swaps, err := s.RefitNow(context.Background()); err != nil || swaps != 1 {
		t.Fatalf("seed sweep: swaps %d, err %v; want the incumbent published", swaps, err)
	}
	tn := s.tenants.get("alloc")
	rf := s.refit
	rf.sweepMu.Lock()
	defer rf.sweepMu.Unlock()

	var disp refitDisposition
	var err error
	allocs := testing.AllocsPerRun(20, func() { disp, err = rf.refitTenant(tn) })
	if err != nil || disp != refitKeep {
		t.Fatalf("refit: %s, %v; want keep", disp, err)
	}
	const bound = 40
	if allocs > bound {
		t.Errorf("one refit allocates %.0f times, want <= %d", allocs, bound)
	}
	t.Logf("%.0f allocations per refit", allocs)
}
