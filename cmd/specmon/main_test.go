package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/server"
)

// startNode runs an in-process serving node with a fast sampler and
// returns its base URL.
func startNode(t *testing.T) (*server.Server, string) {
	t.Helper()
	s, err := server.New(server.Config{
		Metrics:        obs.NewRegistry(),
		SampleInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Drain()
	})
	return s, hs.URL
}

// drive issues n list requests against a node through its public handler.
func drive(t *testing.T, s *server.Server, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sessions", nil))
		if rec.Code != 200 {
			t.Fatalf("list request %d: HTTP %d", i, rec.Code)
		}
	}
}

// waitSampled blocks until the node's sampler has flushed the driven
// traffic into at least one window.
func waitSampled(t *testing.T, s *server.Server) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var total int64
		for _, w := range s.Rollup().Windows(0) {
			total += w.Counters["server.requests.list"]
		}
		if total > 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("sampler never flushed the driven traffic")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAggregationTwoNodes is the satellite-required end-to-end: two
// in-process nodes, real traffic, and specmon's -json timeline must
// account for every request exactly once across both.
func TestAggregationTwoNodes(t *testing.T) {
	s1, url1 := startNode(t)
	s2, url2 := startNode(t)
	drive(t, s1, 7)
	drive(t, s2, 5)
	waitSampled(t, s1)
	waitSampled(t, s2)

	var buf bytes.Buffer
	err := run([]string{"-json", "-interval", "100ms", "-duration", "350ms", url1, url2}, &buf)
	if err != nil {
		t.Fatalf("specmon -json: %v\noutput:\n%s", err, buf.String())
	}

	var ticks []Tick
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tk Tick
		if err := json.Unmarshal(sc.Bytes(), &tk); err != nil {
			t.Fatalf("bad timeline line %q: %v", sc.Text(), err)
		}
		ticks = append(ticks, tk)
	}
	if len(ticks) < 2 {
		t.Fatalf("timeline has %d ticks, want >= 2", len(ticks))
	}

	// Every driven request is attributed to its node exactly once across
	// the run (windows are consumed by seq high-water mark, never twice),
	// and the monitor's own status polls are not counted as load.
	perNode := map[string]int64{}
	var evidence int
	for _, tk := range ticks {
		if len(tk.Nodes) != 2 {
			t.Fatalf("tick %d sees %d nodes, want 2", tk.Seq, len(tk.Nodes))
		}
		for _, n := range tk.Nodes {
			if n.Err != "" {
				t.Fatalf("tick %d node %s unreachable: %s", tk.Seq, n.URL, n.Err)
			}
			perNode[n.URL] += n.Requests
			evidence += len(n.Evidence)
		}
	}
	if perNode[url1] != 7 || perNode[url2] != 5 {
		t.Fatalf("attributed requests = %v, want %s:7 %s:5", perNode, url1, url2)
	}
	if evidence != 0 {
		t.Fatalf("no anomalies were provoked, but %d evidence files listed", evidence)
	}

	// The first tick (which consumed the pre-run windows) carries the
	// cluster quantiles from merged per-node delta buckets.
	first := ticks[0]
	if first.P99 <= 0 || first.P50 <= 0 || first.P99 < first.P50 {
		t.Fatalf("first tick quantiles p50=%v p99=%v, want 0 < p50 <= p99", first.P50, first.P99)
	}
	if first.ErrorRate != 0 {
		t.Fatalf("error rate %v with no 5xx driven", first.ErrorRate)
	}
}

// TestPollSpanningDeadline: a poll still in flight when -duration runs out
// must complete, not be aborted and reported as an unreachable node. The
// node answers its series endpoint slowly, so the first poll straddles the
// deadline.
func TestPollSpanningDeadline(t *testing.T) {
	s, err := server.New(server.Config{Metrics: obs.NewRegistry(), SampleInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/debug/metrics/series" {
			time.Sleep(300 * time.Millisecond)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		slow.Close()
		s.Drain()
	})

	var buf bytes.Buffer
	start := time.Now()
	if err := run([]string{"-json", "-interval", "50ms", "-duration", "100ms", slow.URL}, &buf); err != nil {
		t.Fatalf("specmon -json: %v\noutput:\n%s", err, buf.String())
	}
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("run returned after %v, before the slow poll could finish", elapsed)
	}
	var ticks []Tick
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var tk Tick
		if err := json.Unmarshal(sc.Bytes(), &tk); err != nil {
			t.Fatalf("bad timeline line %q: %v", sc.Text(), err)
		}
		ticks = append(ticks, tk)
	}
	if len(ticks) != 1 {
		t.Fatalf("timeline has %d ticks, want exactly the one poll that spanned the deadline", len(ticks))
	}
	for _, n := range ticks[0].Nodes {
		if n.Err != "" {
			t.Fatalf("healthy slow node reported unreachable: %s", n.Err)
		}
	}
}

// TestCheckPassAndBreach drives the SLO gate both ways against a live
// node.
func TestCheckPassAndBreach(t *testing.T) {
	s, url := startNode(t)
	drive(t, s, 10)
	waitSampled(t, s)

	var buf bytes.Buffer
	err := run([]string{"-check", "-interval", "80ms", "-duration", "250ms",
		"-slo-p99", "10s", "-slo-error-rate", "0.01", "-slo-lag-lsn", "0", url}, &buf)
	if err != nil {
		t.Fatalf("-check with generous SLOs: %v\noutput:\n%s", err, buf.String())
	}
	for _, want := range []string{"SLO p99-latency", "PASS", "SLO error-rate", "SLO replica-lag-lsn"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("check output missing %q:\n%s", want, buf.String())
		}
	}
	if strings.Contains(buf.String(), "FAIL") {
		t.Fatalf("no SLO should fail:\n%s", buf.String())
	}

	buf.Reset()
	drive(t, s, 10)
	waitSampled(t, s)
	err = run([]string{"-check", "-interval", "80ms", "-duration", "250ms",
		"-slo-p99", "1ns", url}, &buf)
	if !errors.Is(err, errSLOBreach) {
		t.Fatalf("-slo-p99 1ns: err = %v, want SLO breach\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "FAIL") {
		t.Errorf("breach output missing FAIL:\n%s", buf.String())
	}
}

// TestCheckRequiresDurationAndSeeds pins the CLI contract.
func TestCheckRequiresDurationAndSeeds(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-check"}, &buf); err == nil {
		t.Fatal("-check without seeds must fail")
	}
	if err := run([]string{"-check", "http://127.0.0.1:1"}, &buf); err == nil ||
		!strings.Contains(err.Error(), "-duration") {
		t.Fatalf("-check without -duration: err = %v", err)
	}
}

// TestCheckNoTraffic: a -check run that saw zero requests cannot certify a
// latency or error SLO and must fail instead of vacuously passing.
func TestCheckNoTraffic(t *testing.T) {
	_, url := startNode(t)
	var buf bytes.Buffer
	err := run([]string{"-check", "-interval", "80ms", "-duration", "200ms", "-slo-p99", "1s", url}, &buf)
	if !errors.Is(err, errSLOBreach) {
		t.Fatalf("zero-traffic check: err = %v, want breach\noutput:\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "no-traffic") {
		t.Errorf("output missing no-traffic verdict:\n%s", buf.String())
	}
}
