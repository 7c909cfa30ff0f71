package online

import (
	"encoding/json"
	"reflect"
	"testing"

	"specmatch/internal/core"
	"specmatch/internal/market"
)

// restore round-trips a snapshot through JSON (the form the WAL stores) and
// FromSnapshot, failing the test on any error.
func restore(t *testing.T, m *market.Market, snap Snapshot) *Session {
	t.Helper()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Snapshot
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	s, err := FromSnapshot(m, decoded, core.Options{})
	if err != nil {
		t.Fatalf("FromSnapshot: %v", err)
	}
	return s
}

// Snapshot → JSON → FromSnapshot must be the identity at every point of a
// session's life, under every event type — and the restored session must not
// merely look identical, it must behave identically: stepping the original
// and the restoration with the same subsequent events keeps them
// bit-for-bit equal. That behavioral half is what crash recovery leans on.
func TestSnapshotRoundTripEveryEventType(t *testing.T) {
	s, m := newSession(t, 4, 12, 7)
	script := []Event{
		{Arrive: []int{0, 1, 2, 3, 4, 5}},
		{Depart: []int{1, 3}},
		{ChannelDown: []int{0}},
		{Arrive: []int{6, 7}, Depart: []int{0}},
		{ChannelUp: []int{0}},
		{ChannelDown: []int{1, 2}, Arrive: []int{8}},
		{}, // empty event still counts a step
		{ChannelUp: []int{1}, Depart: []int{4}, Arrive: []int{9, 10}},
	}
	for k, ev := range script {
		if _, err := s.Step(ev); err != nil {
			t.Fatalf("script step %d: %v", k, err)
		}
		snap := s.Snapshot()
		r := restore(t, m, snap)
		if got := r.Snapshot(); !reflect.DeepEqual(got, snap) {
			t.Fatalf("step %d: restored snapshot diverges:\n got %+v\nwant %+v", k, got, snap)
		}
		// Behavioral equivalence: both sessions run the rest of the script
		// plus a rebuild, and must stay identical throughout.
		if k == len(script)/2 {
			cont := append(script[k+1:len(script):len(script)], Event{Arrive: []int{11}})
			for kk, next := range cont {
				sStats, sErr := s.Step(next)
				rStats, rErr := r.Step(next)
				if sErr != nil || rErr != nil {
					t.Fatalf("continuation %d: errs %v / %v", kk, sErr, rErr)
				}
				if sStats != rStats {
					t.Fatalf("continuation %d: stats diverge: %+v vs %+v", kk, sStats, rStats)
				}
				if !reflect.DeepEqual(s.Snapshot(), r.Snapshot()) {
					t.Fatalf("continuation %d: snapshots diverge", kk)
				}
			}
			sw, err1 := s.Rebuild(true)
			rw, err2 := r.Rebuild(true)
			if err1 != nil || err2 != nil {
				t.Fatalf("rebuild: %v / %v", err1, err2)
			}
			if sw != rw || !reflect.DeepEqual(s.Snapshot(), r.Snapshot()) {
				t.Fatalf("rebuild diverges: welfare %v vs %v", sw, rw)
			}
			return
		}
	}
}

// An event that fails Validate must leave the snapshot unchanged — the
// server relies on this to keep rejected events out of the WAL: what was
// not applied must not be replayed.
func TestSnapshotUnchangedByFailedEvent(t *testing.T) {
	s, m := newSession(t, 3, 10, 3)
	if _, err := s.Step(Event{Arrive: []int{0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	before := s.Snapshot()
	bad := []Event{
		{Arrive: []int{10}},                   // buyer out of range
		{Depart: []int{-1}},                   // negative buyer
		{ChannelDown: []int{99}},              // channel out of range
		{ChannelUp: []int{-2}},                // negative channel
		{Arrive: []int{4}, Depart: []int{77}}, // valid part must not apply either
	}
	for k, ev := range bad {
		if _, err := s.Step(ev); err == nil {
			t.Fatalf("bad event %d was accepted", k)
		}
		after := s.Snapshot()
		if !reflect.DeepEqual(before, after) {
			t.Fatalf("bad event %d mutated the session:\nbefore %+v\nafter  %+v", k, before, after)
		}
	}
	// And the untouched snapshot still round-trips.
	r := restore(t, m, before)
	if !reflect.DeepEqual(r.Snapshot(), before) {
		t.Fatal("snapshot after rejected events does not round-trip")
	}
}

// FromSnapshot must reject snapshots that do not describe a reachable state
// of the given market; recovery uses it as a checksum over checkpoint data.
func TestFromSnapshotRejectsInconsistency(t *testing.T) {
	s, m := newSession(t, 3, 10, 5)
	if _, err := s.Step(Event{Arrive: []int{0, 1, 2, 3, 4}}); err != nil {
		t.Fatal(err)
	}
	good := s.Snapshot()
	if _, err := FromSnapshot(m, good, core.Options{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}

	mutate := func(name string, f func(snap *Snapshot)) {
		snap := good
		// Deep-copy the slices so mutations don't leak across cases.
		snap.OfflineChannels = append([]int(nil), good.OfflineChannels...)
		snap.ActiveBuyers = append([]int(nil), good.ActiveBuyers...)
		snap.Assignment = append([]int(nil), good.Assignment...)
		f(&snap)
		if _, err := FromSnapshot(m, snap, core.Options{}); err == nil {
			t.Errorf("%s: corrupted snapshot accepted", name)
		}
	}
	mutate("wrong channel count", func(snap *Snapshot) { snap.Channels++ })
	mutate("wrong buyer count", func(snap *Snapshot) { snap.Buyers-- })
	mutate("short assignment", func(snap *Snapshot) { snap.Assignment = snap.Assignment[:3] })
	mutate("negative steps", func(snap *Snapshot) { snap.Steps = -1 })
	mutate("assignment out of range", func(snap *Snapshot) { snap.Assignment[0] = 99 })
	mutate("offline channel out of range", func(snap *Snapshot) { snap.OfflineChannels = []int{7} })
	mutate("active buyer out of range", func(snap *Snapshot) { snap.ActiveBuyers = append(snap.ActiveBuyers, 10) })
	mutate("matched but inactive buyer", func(snap *Snapshot) {
		for j, ch := range snap.Assignment {
			if ch != market.Unmatched {
				snap.ActiveBuyers = removeInt(snap.ActiveBuyers, j)
				snap.Active--
				return
			}
		}
		t.Fatal("no matched buyer in fixture")
	})
	mutate("matched on offline channel", func(snap *Snapshot) {
		for _, ch := range snap.Assignment {
			if ch != market.Unmatched {
				snap.OfflineChannels = append(snap.OfflineChannels, ch)
				return
			}
		}
		t.Fatal("no matched buyer in fixture")
	})
	mutate("welfare drift", func(snap *Snapshot) { snap.Welfare += 1e-9 })
	mutate("matched count drift", func(snap *Snapshot) { snap.Matched++ })
	mutate("active count drift", func(snap *Snapshot) { snap.Active++ })
}

// A coalition with interference is no state a session can be in, even when
// its recorded welfare agrees: matching.Welfare zeroes both conflicting
// buyers. Accepting it would split the two engine paths on the next Step —
// the incremental engine repairs from it while core.Repair rejects it.
func TestFromSnapshotRejectsInterference(t *testing.T) {
	m, err := market.Generate(market.Config{Sellers: 3, Buyers: 12, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Graph(0).HasEdge(0, 1) {
		t.Fatal("fixture: buyers 0 and 1 do not interfere on channel 0")
	}
	snap := Snapshot{
		Channels: 3, Buyers: 12, Active: 2, Matched: 2, Welfare: 0,
		ActiveBuyers: []int{0, 1},
		Assignment:   []int{0, 0, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1},
	}
	if _, err := FromSnapshot(m, snap, core.Options{}); err == nil {
		t.Fatal("snapshot with interfering buyers 0 and 1 on channel 0 accepted")
	}
}

func removeInt(s []int, v int) []int {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}
