// Package e2e drives the serving binaries end to end as real processes:
// specserved nodes on ephemeral ports, loaded by specload, inspected by
// specwal, specmon and specstrace, and stopped with the signals an operator
// or a crash sends. Real processes are the unit under test because the
// contracts checked here — acked means durable across a SIGKILL, a clean
// SIGTERM drain, a follower is a prefix of its leader, no acked write is
// lost across failover — live in the binaries' signal handling and fsync
// ordering, which an in-process server would not exercise.
//
// The scenarios run only under RUN_E2E=1 (`make e2e`); without it TestMain
// builds nothing and TestE2E skips. -short shrinks the soak from five
// minutes to twenty seconds. With E2E_OUT set, a failed scenario's
// directory (logs, reports, ledgers, data dirs, trace dumps) is copied to
// $E2E_OUT/<scenario>.
package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"specmatch/internal/obs"
	"specmatch/internal/online"
	"specmatch/internal/replica"
	"specmatch/internal/server"
	"specmatch/internal/trace"
)

// tools are the binaries the scenarios run, built once by TestMain.
var tools = []string{"specserved", "specload", "specmon", "specwal", "specstrace"}

// binDir holds the built tools; empty when RUN_E2E is not set.
var binDir string

func TestMain(m *testing.M) {
	os.Exit(runMain(m))
}

func runMain(m *testing.M) int {
	if os.Getenv("RUN_E2E") != "1" {
		return m.Run()
	}
	dir, err := os.MkdirTemp("", "specmatch-e2e-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	args := []string{"build", "-o", dir + string(filepath.Separator)}
	for _, tool := range tools {
		args = append(args, "specmatch/cmd/"+tool)
	}
	if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "e2e: go build: %v\n%s", err, out)
		return 1
	}
	binDir = dir
	return m.Run()
}

// TestE2E runs every scenario in order, one subtest each, so a CI matrix
// cell can select one with -run '^TestE2E/<name>$'.
func TestE2E(t *testing.T) {
	if binDir == "" {
		t.Skip("end-to-end scenarios run only under RUN_E2E=1 (make e2e)")
	}
	scenarios := []struct {
		name string
		run  func(*env)
	}{
		{"serve", scenarioServe},
		{"trace", scenarioTrace},
		{"churn", scenarioChurn},
		{"crash", scenarioCrash},
		{"replica", scenarioReplica},
		{"mon", scenarioMon},
		{"soak", scenarioSoak},
		{"compat", scenarioCompat},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			sc.run(newEnv(t, sc.name))
		})
	}
}

// scenarioServe: specload at ≥1000 events/s with zero lost events, a clean
// drain, and a metrics dump whose applied counter covers every accepted
// event.
func scenarioServe(e *env) {
	rep, metrics := e.loadOnce("-sessions", "8", "-concurrency", "8", "-duration", "3s", "-min-rps", "1000")
	if applied := metrics.Counters["server.events.applied"]; applied < rep.EventsOK {
		e.t.Fatalf("metrics dump: server.events.applied = %d, want >= %d accepted", applied, rep.EventsOK)
	}
}

// servingChain is one event request's span ancestry on the default
// incremental path, leaf first (PROTOCOL.md, "Spans").
var servingChain = []string{"core.solve", "core.round", "core.dirty", "online.step", "server.shard_op", "http.events"}

// scenarioTrace: a SIGQUIT flight dump taken under load holds a whole
// request's span chain, has no orphans, and the node keeps serving.
func scenarioTrace(e *env) {
	n := e.serve("node")
	e.run("load", "specload", "-addr", n.url, "-sessions", "4", "-concurrency", "4", "-duration", "2s")
	n.signal(syscall.SIGQUIT)
	n.waitLine("(SIGQUIT)")
	if code := n.call(http.MethodGet, "/v1/status", nil, nil); code != http.StatusOK || n.exited() {
		e.t.Fatalf("node stopped serving after SIGQUIT: HTTP %d, exited %t", code, n.exited())
	}
	dump := e.path("node-trace.json")
	f, err := os.Open(dump)
	if err != nil {
		e.t.Fatal(err)
	}
	spans, err := trace.ReadChrome(f)
	f.Close()
	if err != nil {
		e.t.Fatal(err)
	}
	if !hasChain(spans, servingChain) {
		e.t.Fatalf("SIGQUIT dump (%d spans) has no parent-linked chain %s", len(spans), strings.Join(servingChain, " → "))
	}
	e.run("strace", "specstrace", "-check", dump)
	n.drain()
}

// hasChain reports whether some span's ancestry, read leaf first, spells
// names.
func hasChain(spans []trace.Span, names []string) bool {
	byID := make(map[trace.SpanID]trace.Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		for k := 0; s.Name == names[k]; k++ {
			if k == len(names)-1 {
				return true
			}
			parent, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = parent
		}
	}
	return false
}

// scenarioChurn: a churn-heavy mix at ≥500 events/s is fully applied and
// runs on the incremental engine.
func scenarioChurn(e *env) {
	_, metrics := e.loadOnce("-sessions", "8", "-concurrency", "8", "-duration", "3s",
		"-channel-churn", "0.5", "-batch", "8", "-min-rps", "500")
	if steps := metrics.Counters["core.incremental.steps"]; steps <= 0 {
		e.t.Fatalf("core.incremental.steps = %d: the incremental engine never ran", steps)
	}
}

// scenarioCrash: SIGKILL a durable node under ≥1000 acked events/s, then
// every acked event survives the restart.
func scenarioCrash(e *env) {
	data := e.path("data")
	n := e.serve("node", "-data-dir", data)
	// No -min-rps: the run outlives the server, so its average rate says
	// nothing. The pre-kill rate is gated on the ledger instead.
	load := e.spawn("load", "specload", "-addr", n.url, "-sessions", "16", "-concurrency", "16",
		"-duration", "4s", "-rps", "2000", "-ledger", e.path("ledger.json"), "-report", e.path("report.json"))
	time.Sleep(2 * time.Second)
	n.kill()
	load.wait()
	if acked := e.ackedEvents(); acked < 2*1000 {
		e.t.Fatalf("%d acked events in 2s before SIGKILL, want >= 1000/s", acked)
	}
	e.walVerify(data)
	n = e.serve("restart", "-data-dir", data)
	n.waitLine("recovered 16 sessions ")
	e.verifyLedger("-addr", n.url)
	n.drain()
}

// scenarioReplica: SIGKILL the leader under ≥2000 acked events/s, promote
// the follower, and every event the cluster acked is durable on it.
func scenarioReplica(e *env) {
	leader := e.serve("leader", "-data-dir", e.path("leader"), "-shards", "4")
	follower := e.serve("follower", "-data-dir", e.path("follower"), "-follow", leader.url)
	leader.requireRole(replica.RoleLeader)
	follower.requireRole(replica.RoleFollower)
	cluster := leader.url + "," + follower.url
	// No -min-rps: the failover window burns a few hundred ms of errors.
	load := e.spawn("load", "specload", "-cluster", cluster, "-sessions", "16", "-concurrency", "16",
		"-duration", "6s", "-rps", "4000", "-channel-churn", "0.3",
		"-ledger", e.path("ledger.json"), "-report", e.path("report.json"))
	time.Sleep(2 * time.Second)
	leader.kill()
	follower.promote()
	follower.requireRole(replica.RoleLeader)
	load.wait()
	if acked := e.ackedEvents(); acked < 2*2000 {
		e.t.Fatalf("%d acked events, want >= 2000/s over the 2s before SIGKILL", acked)
	}
	e.walVerify(e.path("leader"), e.path("follower"))
	// -cluster makes -verify pick the first reachable non-follower: the
	// promoted node.
	e.verifyLedger("-cluster", cluster)
	follower.drain()
}

// scenarioMon: specmon's SLO gate is green on a loaded two-node cluster, and
// a provoked overload leaves an evidence pair that /debug/evidence and
// specmon both list.
func scenarioMon(e *env) {
	// Two 16-deep shard queues and 100 ms windows, capturing after two
	// anomalous windows at half depth, make the overload observable.
	leader := e.serve("leader", "-data-dir", e.path("leader"), "-shards", "2", "-queue-depth", "16",
		"-sample-interval", "100ms", "-anomaly-sustain", "2", "-anomaly-queue-frac", "0.5")
	follower := e.serve("follower", "-data-dir", e.path("follower"), "-follow", leader.url, "-sample-interval", "100ms")
	load := e.spawn("load", "specload", "-addr", leader.url, "-sessions", "8", "-concurrency", "4",
		"-duration", "6s", "-rps", "500", "-channel-churn", "0.3", "-timeline", "250ms",
		"-ledger", e.path("ledger.json"), "-report", e.path("report.json"))
	time.Sleep(time.Second)
	e.checkSLOs("500ms", "3s", leader, follower)
	load.wait()
	if rep := e.reconciled(); len(rep.Timeline) < 3 {
		e.t.Fatalf("report timeline has %d points, want >= 3", len(rep.Timeline))
	}
	e.verifyLedger("-addr", leader.url)

	// Big markets make each repair slow, so 32 unthrottled workers saturate
	// the queues and blow up p99. 429s are expected.
	e.run("burst", "specload", "-addr", leader.url, "-sessions", "8", "-concurrency", "32",
		"-sellers", "48", "-buyers", "384", "-duration", "3s", "-channel-churn", "0.5")
	pprof := waitEvidence(e, filepath.Join(e.path("leader"), "evidence"))
	var listing server.EvidenceListing
	leader.get("/debug/evidence", &listing)
	if !slices.ContainsFunc(listing.Files, func(f server.EvidenceFile) bool { return f.Name == pprof }) {
		e.t.Fatalf("/debug/evidence does not list %s: %+v", pprof, listing.Files)
	}
	// The evidence predates specmon, so its first poll must list it.
	var tick struct {
		Nodes []struct {
			Evidence []string `json:"evidence"`
		} `json:"nodes"`
	}
	out := e.run("mon", "specmon", "-json", "-interval", "300ms", "-duration", "700ms", leader.url)
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&tick); err != nil || len(tick.Nodes) != 1 ||
		!slices.Contains(tick.Nodes[0].Evidence, pprof) {
		e.t.Fatalf("specmon -json does not list %s (decode error %v):\n%s", pprof, err, out)
	}

	follower.drain()
	leader.drain()
	e.walVerify(e.path("leader"), e.path("follower"))
}

// waitEvidence polls the evidence dir for a flight dump whose CPU profile
// has landed too (the profile takes 2 s) and returns the profile's name.
func waitEvidence(e *env, dir string) string {
	e.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		dumps, err := filepath.Glob(filepath.Join(dir, "anomaly-*.trace.json"))
		if err != nil {
			e.t.Fatal(err)
		}
		for _, d := range dumps {
			pprof := strings.TrimSuffix(d, ".trace.json") + ".pprof"
			if _, err := os.Stat(pprof); err == nil {
				return filepath.Base(pprof)
			}
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("no anomaly evidence pair in %s after the overload (dumps: %v)", dir, dumps)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// scenarioSoak: a leader and follower under the mobile, diurnal and flash
// scenario for five minutes (20 s under -short): specmon SLOs green
// mid-soak, zero lost events, buyer moves applied, the ledger verified, and
// a welfare drift report.
func scenarioSoak(e *env) {
	dur := 5 * time.Minute
	if testing.Short() {
		dur = 20 * time.Second
	}
	leader := e.serve("leader", "-data-dir", e.path("leader"), "-shards", "4")
	follower := e.serve("follower", "-data-dir", e.path("follower"), "-follow", leader.url)
	// -rps is the peak the diurnal curve thins. Four cycles per run and
	// sixty timeline windows at either length.
	load := e.spawn("load", "specload", "-addr", leader.url, "-sessions", "8", "-concurrency", "4",
		"-scenario", "mobile,diurnal,flash", "-scenario-period", (dur / 4).String(),
		"-duration", dur.String(), "-rps", "300", "-channel-churn", "0.2", "-timeline", (dur / 60).String(),
		"-ledger", e.path("ledger.json"), "-report", e.path("report.json"))
	time.Sleep(5 * time.Second)
	e.checkSLOs("1s", "10s", leader, follower)
	load.wait()
	rep := e.reconciled()
	if rep.Scenario != "mobile,diurnal,flash" || len(rep.Timeline) < 3 {
		e.t.Fatalf("report scenario %q with %d timeline points, want mobile,diurnal,flash with >= 3", rep.Scenario, len(rep.Timeline))
	}
	var metrics obs.Snapshot
	leader.get("/debug/metrics", &metrics)
	if moved := metrics.Counters["server.churn.moved"]; moved <= 0 {
		e.t.Fatalf("server.churn.moved = %d: no buyer moves applied", moved)
	}
	e.verifyLedger("-addr", leader.url)
	reportDrift(e, leader)

	follower.drain()
	leader.drain()
	e.walVerify(e.path("leader"), e.path("follower"))
}

// reportDrift logs, per session, the welfare of the online repair policy
// against a fresh non-adopting rebuild of the same sub-market. Either
// heuristic can win at a given instant, so the drift is reported, not
// gated.
func reportDrift(e *env, n *node) {
	e.t.Helper()
	var list server.ListResponse
	n.get("/v1/sessions", &list)
	if len(list.Sessions) == 0 {
		e.t.Fatal("no sessions listed for the drift report")
	}
	adopt := false
	var sum, maxAbs float64
	for _, id := range list.Sessions {
		var live online.Snapshot
		n.get("/v1/sessions/"+id, &live)
		var fresh server.RebuildResponse
		if code := n.call(http.MethodPost, "/v1/sessions/"+id+"/rebuild", server.RebuildRequest{Adopt: &adopt}, &fresh); code != http.StatusOK {
			e.t.Fatalf("rebuild %s: HTTP %d", id, code)
		}
		drift := 0.0
		if fresh.Welfare != 0 {
			drift = (fresh.Welfare - live.Welfare) / fresh.Welfare * 100
		}
		e.t.Logf("%s online %.4f rebuild %.4f drift %+.2f%%", id, live.Welfare, fresh.Welfare, drift)
		sum += drift
		maxAbs = math.Max(maxAbs, math.Abs(drift))
	}
	e.t.Logf("welfare drift: %d sessions, mean %+.2f%%, max |drift| %.2f%%",
		len(list.Sessions), sum/float64(len(list.Sessions)), maxAbs)
}

// scenarioCompat: the committed v0-generation data dir (JSON record bodies)
// recovers to its pinned sessions, then serves binary batches and a fork,
// and verifies again with v1 checkpoints in the same dir.
func scenarioCompat(e *env) {
	data := e.path("data")
	if err := copyTree("../server/testdata/v0-datadir", data); err != nil {
		e.t.Fatal(err)
	}
	// The fixture ends in a deliberately torn tail on shard-001, which
	// verify reports and accepts.
	e.walVerify(data)
	n := e.serve("node", "-shards", "2", "-data-dir", data)
	var want map[string]online.Snapshot
	e.readJSON("../server/testdata/v0-expected.json", &want)
	for id, snap := range want {
		var got online.Snapshot
		n.get("/v1/sessions/"+id, &got)
		if !reflect.DeepEqual(got, snap) {
			e.t.Fatalf("recovered %s = %+v, want the pinned %+v", id, got, snap)
		}
	}
	// m00000002 was deleted in the fixture's live log.
	if code := n.call(http.MethodGet, "/v1/sessions/m00000002", nil, nil); code != http.StatusNotFound {
		e.t.Fatalf("deleted m00000002: HTTP %d, want 404", code)
	}
	e.run("load", "specload", "-addr", n.url, "-sessions", "4", "-concurrency", "4", "-duration", "2s",
		"-binary", "-report", e.path("report.json"))
	e.reconciled()
	var fork server.ForkResponse
	if code := n.call(http.MethodPost, "/v1/sessions/m00000001/fork", nil, &fork); code != http.StatusCreated {
		e.t.Fatalf("fork m00000001: HTTP %d", code)
	}
	if fork.From != "m00000001" || !reflect.DeepEqual(fork.Snapshot, want["m00000001"]) {
		e.t.Fatalf("fork of m00000001 = %+v, want a copy of the pinned %+v", fork, want["m00000001"])
	}
	n.drain()
	e.walVerify(data)
}

// env is one scenario's sandbox: every process it starts writes its log,
// reports, ledgers, data dirs and trace dumps under dir.
type env struct {
	t   *testing.T
	dir string
}

func newEnv(t *testing.T, name string) *env {
	e := &env{t: t, dir: t.TempDir()}
	// Registered after TempDir, so it runs before the dir is removed and
	// after every process cleanup registered later has killed its process.
	t.Cleanup(func() {
		out := os.Getenv("E2E_OUT")
		if !t.Failed() || out == "" {
			return
		}
		dst := filepath.Join(out, name)
		if err := copyTree(e.dir, dst); err != nil {
			t.Logf("copying scenario dir to %s: %v", dst, err)
			return
		}
		t.Logf("scenario dir copied to %s", dst)
	})
	return e
}

// path names a file or directory inside the scenario dir.
func (e *env) path(name string) string {
	return filepath.Join(e.dir, name)
}

// readJSON decodes a JSON file into v.
func (e *env) readJSON(path string, v any) {
	e.t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		e.t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		e.t.Fatalf("decoding %s: %v", path, err)
	}
}

// copyTree copies the directories and regular files under src to dst.
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}

// proc is one child process; its combined output goes to <dir>/<name>.log.
type proc struct {
	e    *env
	name string
	log  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has exited
	err  error         // Wait's result, read only after done
}

// spawn starts a tool in the background. The scenario's cleanup kills it
// if it is still running.
func (e *env) spawn(name, tool string, args ...string) *proc {
	e.t.Helper()
	p := &proc{e: e, name: name, log: e.path(name + ".log"), done: make(chan struct{})}
	f, err := os.Create(p.log)
	if err != nil {
		e.t.Fatal(err)
	}
	// The child gets its own copy of the descriptor at Start.
	defer f.Close()
	p.cmd = exec.Command(filepath.Join(binDir, tool), args...)
	p.cmd.Stdout, p.cmd.Stderr = f, f
	if err := p.cmd.Start(); err != nil {
		e.t.Fatalf("starting %s: %v", name, err)
	}
	go func() {
		p.err = p.cmd.Wait()
		close(p.done)
	}()
	e.t.Cleanup(func() {
		if !p.exited() {
			_ = p.cmd.Process.Kill() // losing the race with a natural exit is fine
			<-p.done
		}
	})
	return p
}

// run executes a tool to completion, requires exit status 0 and returns its
// output.
func (e *env) run(name, tool string, args ...string) string {
	e.t.Helper()
	return e.spawn(name, tool, args...).wait()
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

func (p *proc) output() string {
	p.e.t.Helper()
	data, err := os.ReadFile(p.log)
	if err != nil {
		p.e.t.Fatal(err)
	}
	return string(data)
}

// wait blocks until the process exits, requires exit status 0 and returns
// its output.
func (p *proc) wait() string {
	p.e.t.Helper()
	<-p.done
	out := p.output()
	if p.err != nil {
		p.e.t.Fatalf("%s: %v\n%s", p.name, p.err, out)
	}
	return out
}

// waitLine polls the output for up to 10 s for a line containing substr
// and returns that line.
func (p *proc) waitLine(substr string) string {
	p.e.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		exited := p.exited()
		out := p.output()
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, substr) {
				return line
			}
		}
		if exited || time.Now().After(deadline) {
			p.e.t.Fatalf("%s: no line containing %q:\n%s", p.name, substr, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// node is a running specserved.
type node struct {
	*proc
	url string // http://127.0.0.1:<port>, read from the startup line
}

const listening = "specserved listening on "

// serve starts specserved on an ephemeral port with its flight-recorder
// dump at <dir>/<name>-trace.json, and waits until it listens.
func (e *env) serve(name string, args ...string) *node {
	e.t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0", "-trace-dump", e.path(name + "-trace.json")}, args...)
	p := e.spawn(name, "specserved", args...)
	line := p.waitLine(listening)
	return &node{proc: p, url: strings.TrimPrefix(line, listening)}
}

func (n *node) signal(sig os.Signal) {
	n.e.t.Helper()
	if err := n.cmd.Process.Signal(sig); err != nil {
		n.e.t.Fatalf("%s: sending %v: %v", n.name, sig, err)
	}
}

// drain sends SIGTERM and requires exit status 0 and the drained: line.
func (n *node) drain() {
	n.e.t.Helper()
	n.signal(syscall.SIGTERM)
	n.wait()
	n.waitLine("drained: ")
}

// kill SIGKILLs the node and waits for it to die.
func (n *node) kill() {
	n.e.t.Helper()
	n.signal(syscall.SIGKILL)
	<-n.done
}

var client = &http.Client{Timeout: 10 * time.Second}

// call sends one request with an optional JSON body and returns the status
// code, decoding a 2xx reply into out when out is non-nil.
func (n *node) call(method, path string, body, out any) int {
	n.e.t.Helper()
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			n.e.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, n.url+path, rd)
	if err != nil {
		n.e.t.Fatal(err)
	}
	resp, err := client.Do(req)
	if err != nil {
		n.e.t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 == 2 && out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			n.e.t.Fatalf("%s %s: decoding reply: %v", method, path, err)
		}
	}
	return resp.StatusCode
}

// get requires a 200 for GET path and decodes the reply into out.
func (n *node) get(path string, out any) {
	n.e.t.Helper()
	if code := n.call(http.MethodGet, path, nil, out); code != http.StatusOK {
		n.e.t.Fatalf("%s: GET %s: HTTP %d", n.name, path, code)
	}
}

// requireRole checks the role /v1/status reports.
func (n *node) requireRole(want string) {
	n.e.t.Helper()
	var st replica.NodeStatus
	n.get("/v1/status", &st)
	if st.Role != want {
		n.e.t.Fatalf("%s: /v1/status role %q, want %q", n.name, st.Role, want)
	}
}

// promote turns a follower into a leader. Promote races the follower
// noticing that its leader died, so it is retried, but it must succeed
// within 2 s.
func (n *node) promote() {
	n.e.t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for n.call(http.MethodPost, "/v1/replica/promote", nil, nil) != http.StatusOK {
		if time.Now().After(deadline) {
			n.e.t.Fatalf("%s: promote did not succeed within 2s:\n%s", n.name, n.output())
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// loadOnce runs one specload pass (plus loadArgs) against a fresh
// in-memory node, requires every accepted event applied and a clean drain,
// and returns the report and the node's final metrics dump.
func (e *env) loadOnce(loadArgs ...string) (loadReport, obs.Snapshot) {
	e.t.Helper()
	n := e.serve("node", "-metrics-json", e.path("metrics.json"))
	e.run("load", "specload", append([]string{"-addr", n.url, "-report", e.path("report.json")}, loadArgs...)...)
	rep := e.reconciled()
	n.drain()
	var metrics obs.Snapshot
	e.readJSON(e.path("metrics.json"), &metrics)
	return rep, metrics
}

// loadReport is the part of specload's -report document the scenarios
// check.
type loadReport struct {
	Scenario   string            `json:"scenario"`
	EventsOK   int64             `json:"events_accepted"`
	LostEvents int64             `json:"lost_events"`
	Reconciled bool              `json:"reconciled"`
	Timeline   []json.RawMessage `json:"timeline"`
}

// reconciled decodes the scenario's specload report.json and requires that
// the server applied every event it accepted.
func (e *env) reconciled() loadReport {
	e.t.Helper()
	var rep loadReport
	e.readJSON(e.path("report.json"), &rep)
	if !rep.Reconciled || rep.LostEvents != 0 || rep.EventsOK == 0 {
		e.t.Fatalf("specload report: accepted %d events, lost %d, reconciled %t", rep.EventsOK, rep.LostEvents, rep.Reconciled)
	}
	return rep
}

// ackedEvents counts the events the scenario's specload ledger.json records
// as acked.
func (e *env) ackedEvents() int {
	e.t.Helper()
	var led struct {
		Sessions []struct {
			Acked []json.RawMessage `json:"acked"`
		} `json:"sessions"`
	}
	e.readJSON(e.path("ledger.json"), &led)
	n := 0
	for _, s := range led.Sessions {
		n += len(s.Acked)
	}
	return n
}

// verifyLedger runs `specload -verify` against target (an -addr node or a
// -cluster list): every acked event must be durable, and the recovered
// sessions must equal a replay of the ledger.
func (e *env) verifyLedger(flag, target string) {
	e.t.Helper()
	e.t.Log(lastLine(e.run("verify", "specload", flag, target, "-verify", e.path("ledger.json"), "-diff", e.path("diff.json"))))
}

// walVerify requires `specwal -mode verify` to pass on each data dir: a torn
// tail is fine, corruption is not.
func (e *env) walVerify(dataDirs ...string) {
	e.t.Helper()
	for _, dir := range dataDirs {
		e.t.Log(lastLine(e.run("specwal-"+filepath.Base(dir), "specwal", "-data-dir", dir, "-mode", "verify")))
	}
}

// lastLine returns a tool's summary line; the full output stays in its log.
func lastLine(out string) string {
	out = strings.TrimRight(out, "\n")
	return out[strings.LastIndexByte(out, '\n')+1:]
}

// checkSLOs runs specmon's SLO gate against live nodes: cluster p99 at most
// 1 s, at most 1% errors, follower lag at most 100000 LSNs.
func (e *env) checkSLOs(interval, duration string, nodes ...*node) {
	e.t.Helper()
	args := []string{"-check", "-interval", interval, "-duration", duration,
		"-slo-p99", "1s", "-slo-error-rate", "0.01", "-slo-lag-lsn", "100000"}
	for _, n := range nodes {
		args = append(args, n.url)
	}
	e.t.Log(e.run("check", "specmon", args...))
}
