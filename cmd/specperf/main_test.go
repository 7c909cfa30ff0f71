package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesCatalog keeps the repository's BENCHMARK.json and
// the metric and workload tables compiled into specperf in step.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, specperf has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), specperf %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, specperf has %d", kind, len(got), len(want))
		}
		for i, m := range got {
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != d.bound) {
				t.Errorf("%s %d: BENCHMARK.json %+v, specperf %+v", kind, i, m, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestPinnedFingerprints(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		in, err := makeInputs(w, 1, fingerprintBodies)
		if err != nil {
			t.Fatal(err)
		}
		if want := pinnedFingerprints[w.name]; in.fingerprint != want {
			t.Errorf("%s: seed-1 inputs hash to %s, pinned %s", w.name, in.fingerprint, want)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, with the oracle on, and checks every contract metric is printed.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("boots the serving stack eight times")
	}
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append([]workload(nil), saved...)
	for i := range workloads {
		w := &workloads[i]
		w.sessions, w.sellers, w.buyers = 4, 3, 16
		w.pacedRate, w.satHint = min(w.pacedRate, 200), 400
	}
	traces := t.TempDir()
	for _, mode := range []struct {
		flag string
		defs []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		// Seed 1's fingerprints are pinned for the full-scale fleets.
		code, err := run([]string{"-seed", "3", "-seconds", "1", "-trace", mode.flag,
			"-data-dir", t.TempDir(), "-trace-dir", traces}, &out)
		if code != 0 || err != nil {
			t.Fatalf("-trace %s: exit %d, %v\n%s", mode.flag, code, err, out.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res jsonResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("-trace %s: last line is not the result: %v", mode.flag, err)
		}
		if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
			t.Errorf("-trace %s: correct=%v attempted=%d failed=%d", mode.flag, res.Correct, res.Attempted, res.Failed)
		}
		for _, w := range workloads {
			for _, d := range mode.defs {
				m, ok := res.Metrics[w.name+"/"+d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("-trace %s: %s/%s missing or with unit %q", mode.flag, w.name, d.name, m.Unit)
				}
				if !strings.Contains(out.String(), " "+d.name+" ") {
					t.Errorf("-trace %s: report does not print %s", mode.flag, d.name)
				}
			}
		}
	}
	for _, w := range workloads {
		if _, err := os.Stat(filepath.Join(traces, w.name+".trace.json")); err != nil {
			t.Errorf("no trace written for %s: %v", w.name, err)
		}
	}
}
