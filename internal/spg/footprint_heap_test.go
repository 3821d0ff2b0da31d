package spg_test

import (
	"errors"
	"math"
	"runtime"
	"testing"

	"spgcmp/internal/spg"
	"spgcmp/internal/streamit"
)

// TestMemoryFootprintTracksHeap: the estimate the campaign cache's byte
// account is fed stays within 25% of the heap an analysis really retains,
// measured on the largest structure it holds in practice — a 150k-state
// FMRadio downset space, exhausted by its first expansion.
func TestMemoryFootprintTracksHeap(t *testing.T) {
	a, err := streamit.ByName("FMRadio")
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)

	g, err := a.GraphWithCCR(1)
	if err != nil {
		t.Fatal(err)
	}
	an := spg.NewAnalysis(g)
	ds, err := an.DownsetSpace(150_000)
	if err != nil {
		t.Fatal(err)
	}
	ds.BeginRun()
	if _, err := ds.ExpansionsInRun(0, math.Inf(1)); !errors.Is(err, spg.ErrStateLimit) {
		t.Fatalf("first expansion: %v, want the state limit", err)
	}
	if n := ds.NumStates(); n != 150_000 {
		t.Fatalf("space holds %d states, want 150000", n)
	}

	runtime.GC()
	runtime.ReadMemStats(&after)
	estimate := an.MemoryFootprint()
	runtime.KeepAlive(an)
	measured := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if ratio := float64(estimate) / float64(measured); ratio < 0.75 || ratio > 1.25 {
		t.Fatalf("MemoryFootprint %d bytes, heap grew %d bytes (ratio %.2f)", estimate, measured, ratio)
	}
	t.Logf("MemoryFootprint %d bytes, heap grew %d bytes", estimate, measured)
}
