package online

import (
	"runtime"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
)

// TestSessionHeapFlat steps one fig7a session through 5000 churn events and
// requires its live heap to stay flat from event 1000 on: a session may hold
// state sized by its market, never state that grows with its history, such
// as a cache of past coalition decisions. The test is not parallel, so no
// other test allocates between the two readings.
func TestSessionHeapFlat(t *testing.T) {
	m, err := market.Generate(market.Config{Sellers: 10, Buyers: 320, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(m, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	const warm, maxGrowth = 1000, 256 << 10
	events := SyntheticChurn(m, 1, 5000)
	var early uint64
	for k, ev := range events {
		switch k {
		case warm:
			early = liveHeap()
		case len(events) - 1:
			// Read before the last step, so events is still live.
			if grew := int64(liveHeap()) - int64(early); grew >= maxGrowth {
				t.Fatalf("live heap grew %d bytes from step %d to step %d, want < %d", grew, warm, k, maxGrowth)
			}
		}
		if _, err := s.Step(ev); err != nil {
			t.Fatalf("step %d: %v", k, err)
		}
	}
}

// liveHeap returns the bytes of live heap objects after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
