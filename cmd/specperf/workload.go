package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"specmatch/internal/eventlog"
	"specmatch/internal/geom"
	"specmatch/internal/market"
	"specmatch/internal/online"
	"specmatch/internal/server"
	"specmatch/internal/xrand"
)

// workload is one named traffic mix. The names, shapes and rates are the
// benchmark's contract: performance changes cite them, so changing one is a
// benchmark change, never part of an optimisation.
type workload struct {
	name string
	why  string

	// Fleet: sessions markets of sellers × buyers, durable (WAL on) or
	// in-memory, optionally mirrored by an in-process follower.
	sessions, sellers, buyers int
	durable, follower         bool

	// Traffic: batch events per request, as a binary eventlog batch or (batch
	// 1 only) a single JSON event; mobile adds random-waypoint moves; every
	// readEvery-th request (0 = never) is a snapshot GET instead.
	batch     int
	binary    bool
	mobile    bool
	readEvery int

	// pacedRate is the open-loop request rate of the paced phase, both
	// senders together. satHint is the expected saturate request rate on a
	// 2-core machine; it only sizes the pre-encoded body pool.
	pacedRate float64
	satHint   float64
}

var workloads = []workload{
	{
		name:     "churn-fig7a",
		why:      "engine-bound: core.Incremental does most of each request's CPU, decode and WAL are small shares, so engine changes show here",
		sessions: 8, sellers: 10, buyers: 320, durable: true,
		batch: 8, binary: true,
		pacedRate: 200, satHint: 600,
	},
	{
		name:     "mobile-fig7a",
		why:      "buyer moves: Move rewiring and its dirty closure dominate each step; churn-fig7a is its no-move control",
		sessions: 8, sellers: 10, buyers: 320, durable: true,
		batch: 8, binary: true, mobile: true,
		pacedRate: 45, satHint: 140,
	},
	{
		name:     "json-small-mem",
		why:      "front-end-bound: no WAL and a near-idle engine, so HTTP, JSON and the shard-queue handoff are the whole cost; control for engine and WAL changes",
		sessions: 64, sellers: 4, buyers: 24,
		batch:     1,
		pacedRate: 3000, satHint: 16000,
	},
	{
		name:     "replicated-mixed",
		why:      "durable leader plus in-process follower with 1 in 5 requests a snapshot GET: reads share the shard queue and replication shares the cores",
		sessions: 16, sellers: 8, buyers: 200, durable: true, follower: true,
		batch: 4, binary: true, readEvery: 5,
		pacedRate: 200, satHint: 600,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// fleetSeed fixes every workload's markets: market k is generated from
// xrand.Split(fleetSeed, k) whatever the run seed, so a fresh seed changes
// the traffic, not the fleet. Markets drawn per seed made the per-event cost
// of a run vary with the seed by more than the metrics' bounds (one seed's
// eight mobile-fig7a markets ran 30% faster than three others'), which would
// bury any change under the choice of seed.
const fleetSeed = 1

// Stream indices under the run seed: session k's event stream draws from
// xrand.Split(seed, eventStreams+k) and sender i's arrival schedule from
// schedStreams+i, so no two inputs share a random stream.
const (
	eventStreams = 1 << 16
	schedStreams = 1 << 17
)

// fingerprintBodies is how many leading request bodies of every session the
// input fingerprint covers, beside the specs.
const fingerprintBodies = 16

// pinnedFingerprints holds each workload's seed-1 input fingerprint. A
// mismatch means market generation, the churn model copy below or an
// encoding changed, which would silently shift every number the benchmark
// reports, so the run fails instead.
var pinnedFingerprints = map[string]string{
	"churn-fig7a":      "3c07c5695c3cf28661ffaebf90197757b90dd4e4b6a2d33d69332e79ecdba37d",
	"mobile-fig7a":     "202e9550ed95a0e4d74417a4a338407829c9ed16a744b3d05ef1dc3bde6baeb0",
	"json-small-mem":   "b70be23265d1550fee131f6ebe33164f4ffa0eb779432923afc325133b482fbe",
	"replicated-mixed": "d2c98a9db3b05f3ad4f231575e4bed8b61762d8b3adc52ff8af564e3ae253dbf",
}

// inputs is everything a run sends, derived from the seed alone and encoded
// before any clock starts.
type inputs struct {
	specs       [][]byte // POST /v1/sessions bodies, one per session
	streams     []*stream
	fingerprint string
}

// makeInputs generates a workload's fleet and pre-encodes poolPerSession
// request bodies per session (streams extend lazily past that, so a faster
// server never runs dry, it only pays for encoding beyond the pool).
func makeInputs(w *workload, seed int64, poolPerSession int) (*inputs, error) {
	in := &inputs{}
	h := sha256.New()
	for k := 0; k < w.sessions; k++ {
		m, err := market.Generate(market.Config{Sellers: w.sellers, Buyers: w.buyers, Seed: xrand.Split(fleetSeed, k)})
		if err != nil {
			return nil, fmt.Errorf("market %d: %w", k, err)
		}
		spec, err := json.Marshal(server.CreateRequest{Spec: m.Spec()})
		if err != nil {
			return nil, fmt.Errorf("market %d spec: %w", k, err)
		}
		st := &stream{
			gen:    newChurnGen(m, xrand.Split(seed, eventStreams+k), w.mobile),
			batch:  w.batch,
			binary: w.binary,
			bodies: make([][]byte, 0, poolPerSession),
		}
		for len(st.bodies) < poolPerSession {
			st.extend()
		}
		in.specs = append(in.specs, spec)
		in.streams = append(in.streams, st)
		h.Write(spec)
		for _, b := range st.bodies[:min(fingerprintBodies, len(st.bodies))] {
			h.Write(b)
		}
	}
	in.fingerprint = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// stream is one session's request bodies in send order. Only the session's
// sender touches it while load runs.
type stream struct {
	gen    *churnGen
	batch  int
	binary bool
	bodies [][]byte
	sent   int // bodies handed out so far
}

// take returns the index and bytes of the next body, encoding one more when
// the pre-encoded pool is used up.
func (s *stream) take() (int, []byte) {
	if s.sent == len(s.bodies) {
		s.extend()
	}
	s.sent++
	return s.sent - 1, s.bodies[s.sent-1]
}

func (s *stream) extend() {
	events := make([]online.Event, s.batch)
	for i := range events {
		events[i] = s.gen.event()
	}
	var body []byte
	if s.binary {
		body = eventlog.EncodeBatch(events)
	} else {
		// A single JSON event: only batch-1 workloads send JSON.
		var err error
		if body, err = json.Marshal(events[0]); err != nil {
			panic(fmt.Sprintf("specperf: encoding event: %v", err)) // plain ints and floats always encode
		}
	}
	s.bodies = append(s.bodies, body)
}

// churnGen is the benchmark's own copy of the churn model behind
// online.SyntheticChurn (and, with mobility, online.SyntheticMobileChurn):
// per step every buyer departs with p 0.10 when active or arrives with p
// 0.25 when not, every channel is reclaimed with p 0.05 or re-offered with p
// 0.35, and, when mobile, 5% of buyers advance a 0.6 stride along a
// random-waypoint leg. It is a copy so that a change to the library's
// generators cannot silently change this benchmark's inputs.
type churnGen struct {
	r       *rand.Rand
	active  []bool
	offline []bool
	area    geom.Area
	pos, wp []geom.Point // nil unless mobile
}

const (
	departP   = 0.10
	arriveP   = 0.25
	chanUpP   = 0.35
	chanDownP = 0.05
	moveP     = 0.05
	stride    = 0.6
)

func newChurnGen(m *market.Market, seed int64, mobile bool) *churnGen {
	g := &churnGen{
		r:       xrand.New(seed),
		active:  make([]bool, m.N()),
		offline: make([]bool, m.M()),
		area:    geom.PaperArea(),
	}
	if mobile {
		g.pos = make([]geom.Point, m.N())
		g.wp = make([]geom.Point, m.N())
		for j := range g.pos {
			g.pos[j], _ = m.BuyerPos(j)
			g.wp[j] = g.area.RandomPoint(g.r)
		}
	}
	return g
}

// event draws one churn step against the generator's simulated state.
func (g *churnGen) event() online.Event {
	var ev online.Event
	for j := range g.active {
		if g.active[j] {
			if g.r.Float64() < departP {
				ev.Depart = append(ev.Depart, j)
				g.active[j] = false
			}
		} else if g.r.Float64() < arriveP {
			ev.Arrive = append(ev.Arrive, j)
			g.active[j] = true
		}
	}
	for i := range g.offline {
		if g.offline[i] {
			if g.r.Float64() < chanUpP {
				ev.ChannelUp = append(ev.ChannelUp, i)
				g.offline[i] = false
			}
		} else if g.r.Float64() < chanDownP {
			ev.ChannelDown = append(ev.ChannelDown, i)
			g.offline[i] = true
		}
	}
	for j := range g.pos {
		if g.r.Float64() >= moveP {
			continue
		}
		dx, dy := g.wp[j].X-g.pos[j].X, g.wp[j].Y-g.pos[j].Y
		if d := math.Hypot(dx, dy); d <= stride {
			g.pos[j] = g.wp[j]
			g.wp[j] = g.area.RandomPoint(g.r)
		} else {
			g.pos[j] = geom.Point{X: g.pos[j].X + dx/d*stride, Y: g.pos[j].Y + dy/d*stride}
		}
		ev.Move = append(ev.Move, online.BuyerMove{Buyer: j, To: g.pos[j]})
	}
	return ev
}
