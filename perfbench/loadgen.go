package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/server"
	"authteam/internal/workload"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// project is one discover request of the mix.
type project struct {
	method string
	skills []string
	body   []byte
}

func skillNames(g expertgraph.GraphView, ids []expertgraph.SkillID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = g.SkillName(id)
	}
	return out
}

func projectKey(ids []expertgraph.SkillID) string {
	s := append([]expertgraph.SkillID(nil), ids...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var b strings.Builder
	for _, id := range s {
		b.WriteString(strconv.Itoa(int(id)))
		b.WriteByte(',')
	}
	return b.String()
}

// numStrata is how many equally likely classes of holder mass the
// read projects of each size are drawn from. It is coprime with the
// nine (method, size) pairs, so every run covers the pairs and the
// classes evenly whatever its length.
const numStrata = 16

// strata holds, per project size, the upper bounds of the holder-mass
// classes. Holder mass — the summed holder counts of a project's
// skills — is what the search's work grows with, so drawing read i
// from class i%numStrata (stratified sampling) keeps the mix of cheap
// and costly projects the same under every seed without changing the
// generator's distribution. The bounds come from a fixed pilot sample.
type strata map[int][]float64

func newStrata(g *expertgraph.Graph, opt workload.Options) (strata, error) {
	const pilot = 400
	gen, err := workload.NewGenerator(g, 7, opt)
	if err != nil {
		return nil, err
	}
	st := strata{}
	for _, n := range sizes {
		keys := make([]float64, 0, pilot)
		for i := 0; i < pilot; i++ {
			ids, err := gen.Project(n)
			if err != nil {
				return nil, fmt.Errorf("pilot %d-skill project: %w", n, err)
			}
			keys = append(keys, massKey(g, ids))
		}
		sort.Float64s(keys)
		for c := 1; c < numStrata; c++ {
			st[n] = append(st[n], keys[c*pilot/numStrata])
		}
	}
	return st, nil
}

// massKey is a project's holder mass plus a fraction hashed from its
// skills, which breaks ties between equal masses so the classes stay
// equally likely.
func massKey(g *expertgraph.Graph, ids []expertgraph.SkillID) float64 {
	mass := 0
	for _, id := range ids {
		mass += len(g.ExpertsWithSkill(id))
	}
	h := fnv.New32a()
	h.Write([]byte(projectKey(ids)))
	return float64(mass) + float64(h.Sum32())/(1<<32)
}

func (st strata) class(n int, key float64) int {
	return sort.SearchFloat64s(st[n], key)
}

// distinctProjects hands out the mix with a skill set never used
// before in the run (nor by the warm-up), so no read is a cache hit.
type distinctProjects struct {
	mu      sync.Mutex
	g       *expertgraph.Graph
	gen     *workload.Generator
	classes strata
	seen    map[string]bool
	i       int
}

func (d *distinctProjects) next() (project, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	method, n := mixAt(d.i)
	class := d.i % numStrata
	d.i++
	for attempt := 0; attempt < 100*numStrata; attempt++ {
		ids, err := d.gen.Project(n)
		if err != nil {
			return project{}, err
		}
		k := projectKey(ids)
		if d.seen[k] || d.classes.class(n, massKey(d.g, ids)) != class {
			continue
		}
		d.seen[k] = true
		skills := skillNames(d.g, ids)
		return project{method: method, skills: skills, body: discoverBody(skills, method)}, nil
	}
	return project{}, fmt.Errorf("no fresh %d-skill project of holder-mass class %d after %d draws", n, class, 100*numStrata)
}

// sample is one read kept for the reference check.
type sample struct {
	method   string
	skills   []string
	minEpoch uint64
	status   int
	resp     server.DiscoverResponse
}

// discoverReply is the part of a discover reply every read inspects.
type discoverReply struct {
	Epoch  uint64            `json:"epoch"`
	Cached bool              `json:"cached"`
	Trace  *server.TraceInfo `json:"trace"`
}

// reservoir keeps a uniform random sample of at most its capacity of
// the observations offered to it, in a buffer allocated up front. The
// benchmark's own memory then stays the same however many operations a
// run completes, and percentiles of the sample estimate those of all
// observations. It is safe for concurrent use.
type reservoir struct {
	mu  sync.Mutex
	xs  []float64
	n   int
	rng *rand.Rand
}

func newReservoir(size int, seed int64) *reservoir {
	return &reservoir{xs: make([]float64, 0, size), rng: rand.New(rand.NewSource(seed))}
}

func (r *reservoir) add(x float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n++
	if len(r.xs) < cap(r.xs) {
		r.xs = append(r.xs, x)
	} else if j := r.rng.Intn(r.n); j < len(r.xs) {
		r.xs[j] = x
	}
}

// values returns a copy of the sample.
func (r *reservoir) values() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.xs...)
}

// count is the number of observations offered.
func (r *reservoir) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

func (r *reservoir) bytes() int { return 8 * cap(r.xs) }

// opStats counts one goroutine's operations.
type opStats struct {
	attempted, failed int
	// uncached counts timed reads of a pre-answered pool that missed
	// the cache.
	uncached int
	errs     []string
}

func (s *opStats) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

func (s *opStats) merge(o *opStats) {
	s.attempted += o.attempted
	s.failed += o.failed
	s.uncached += o.uncached
	s.errs = append(s.errs, o.errs...)
}

// runner drives one booted instance.
type runner struct {
	w  spec
	in *instance
	tr *tracer // nil in the timed run
	// lastAck is the epoch of the last acknowledged write.
	lastAck atomic.Uint64
	// reads numbers every read for the deterministic check sample.
	reads   atomic.Int64
	smu     sync.Mutex
	samples []sample
	// Latencies (ms) of successful operations. In a traced run only the
	// untraced half of the reads lands in readLat, the traced half in
	// tracedLat. writeLat holds the writes made during the measured
	// phase, probeLat those of the idle write probe.
	readLat, tracedLat, writeLat, probeLat *reservoir
	// lag is the load generator's own delay per read (ms): the gap
	// between a read's reply and the next read's send, less the writes
	// in between.
	lag *reservoir
}

func newRunner(w spec, in *instance, tr *tracer, seed int64) *runner {
	const reads, writes = 1 << 17, 1 << 12
	return &runner{w: w, in: in, tr: tr,
		readLat:   newReservoir(reads, seed+1),
		tracedLat: newReservoir(reads, seed+2),
		lag:       newReservoir(reads, seed+3),
		writeLat:  newReservoir(writes, seed+4),
		probeLat:  newReservoir(writes, seed+5),
	}
}

// ownBytes is the size of the runner's sample buffers.
func (r *runner) ownBytes() int {
	return r.readLat.bytes() + r.tracedLat.bytes() + r.lag.bytes() + r.writeLat.bytes() + r.probeLat.bytes()
}

// read sends one discover and accounts for it. traced reads carry the
// benchmark's request id and ask the server for its stage trace.
func (r *runner) read(p project, traced bool, st *opStats) {
	seq := int(r.reads.Add(1) - 1)
	hdr := http.Header{}
	minEpoch := r.lastAck.Load()
	if r.w.writesPerRead > 0 {
		hdr.Set(minEpochHeader, strconv.FormatUint(minEpoch, 10))
	}
	path := "/v1/discover"
	var id int64
	if traced {
		id = r.tr.newRequest()
		hdr.Set(traceHeader, strconv.FormatInt(id, 10))
		path += "?debug=trace"
	}
	st.attempted++
	rep, err := r.in.do(http.MethodPost, path, p.body, hdr)
	if err != nil {
		st.fail("discover: %v", err)
		return
	}
	keep := seq%r.w.checkEvery == 0
	switch rep.status {
	case http.StatusOK:
	case http.StatusNotFound:
		// Only the reference can tell whether the project really has
		// no team at this epoch.
		keep = true
	default:
		st.fail("discover: status %d: %.200s", rep.status, rep.body)
		return
	}
	if keep {
		s := sample{method: p.method, skills: p.skills, minEpoch: minEpoch, status: rep.status}
		if rep.status == http.StatusOK {
			if err := json.Unmarshal(rep.body, &s.resp); err != nil {
				st.fail("discover: decode: %v", err)
				return
			}
		}
		r.smu.Lock()
		if len(r.samples) < r.w.checkMax || rep.status != http.StatusOK {
			r.samples = append(r.samples, s)
		}
		r.smu.Unlock()
	}
	if rep.status != http.StatusOK {
		return
	}
	var dr discoverReply
	if err := json.Unmarshal(rep.body, &dr); err != nil {
		st.fail("discover: decode: %v", err)
		return
	}
	if dr.Epoch < minEpoch {
		st.fail("read-your-writes: answered at epoch %d, last acknowledged write %d", dr.Epoch, minEpoch)
		return
	}
	if r.w.pool > 0 && !dr.Cached {
		st.uncached++
	}
	if traced {
		r.tr.record(id, "client.discover", rep, dr.Trace)
		r.tracedLat.add(rep.ms())
		return
	}
	r.readLat.add(rep.ms())
}

// closedLoop sends reads back to back until the deadline, each after
// w.writesPerRead writes from m (nil without writes), every operation
// awaiting the previous one's reply. In a traced run every second read
// and every second write is traced, so the untraced half measures the
// tracing overhead on the same inputs in the same window.
func (r *runner) closedLoop(next func(i int) (project, error), m *writeModel, deadline time.Time, st, wst *opStats) {
	var prevEnd time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		p, err := next(i)
		if err != nil {
			st.fail("project: %v", err)
			return
		}
		if !prevEnd.IsZero() {
			r.lag.add(ms(time.Since(prevEnd)))
		}
		for j := 0; j < r.w.writesPerRead; j++ {
			start := time.Now()
			if end, ok := r.write(m, r.tr != nil && j%2 == 1, wst); ok {
				r.writeLat.add(ms(end.Sub(start)))
			}
		}
		r.read(p, r.tr != nil && i%2 == 1, st)
		prevEnd = time.Now()
	}
}

// write sends one mutation from the model and returns its reply time.
func (r *runner) write(m *writeModel, traced bool, st *opStats) (time.Time, bool) {
	op := m.next()
	hdr := http.Header{}
	var id int64
	if traced {
		id = r.tr.newRequest()
		hdr.Set(traceHeader, strconv.FormatInt(id, 10))
	}
	st.attempted++
	rep, err := r.in.do(op.method, op.path, op.body, hdr)
	if err != nil {
		st.fail("%s: %v", op.kind, err)
		return time.Time{}, false
	}
	if !rep.ok() {
		st.fail("%s: status %d: %.200s", op.kind, rep.status, rep.body)
		return time.Time{}, false
	}
	var mr server.MutationResponse
	if err := json.Unmarshal(rep.body, &mr); err != nil {
		st.fail("%s: decode: %v", op.kind, err)
		return time.Time{}, false
	}
	m.commit(op, mr)
	if mr.Epoch > r.lastAck.Load() {
		r.lastAck.Store(mr.Epoch) // one writer: no lost update
	}
	if traced {
		r.tr.record(id, "client."+op.kind, rep, nil)
	}
	return rep.end, true
}

// probeWrites sends n writes back to back on the idle server, each
// timed from its send. A forced GC first puts the probe's collections
// at the same writes in every run.
func (r *runner) probeWrites(m *writeModel, n int, st *opStats) {
	runtime.GC()
	for i := 0; i < n; i++ {
		start := time.Now()
		if end, ok := r.write(m, false, st); ok {
			r.probeLat.add(ms(end.Sub(start)))
		}
	}
}

type edgeKey struct{ u, v expertgraph.NodeID }

func keyOf(u, v expertgraph.NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{u, v}
}

// writeModel mirrors the graph the writer mutates, so every mutation
// it generates is valid, and keeps the churn local the way a
// co-authorship network grows: a new edge closes a triangle (it links
// two experts with a common collaborator), a re-weight or an authority
// update drifts the current value by a few percent, and an edge is
// removed only if the writer inserted it, so the served component stays
// connected and no project turns infeasible. Every new value lies
// strictly inside the base graph's range.
type writeModel struct {
	rng        *rand.Rand
	prefix     string
	adj        [][]expertgraph.NodeID
	authority  []float64
	edges      []edgeKey
	pos        map[edgeKey]int
	weight     map[edgeKey]float64
	added      []edgeKey
	minW, maxW float64
	minA, maxA float64
	skills     []string
	seq        int
	// n counts the mutations drawn.
	n int
}

func newWriteModel(g *expertgraph.Graph, seed int64, skills []expertgraph.SkillID) *writeModel {
	n := g.NumNodes()
	m := &writeModel{
		rng:       rand.New(rand.NewSource(seed)),
		prefix:    fmt.Sprintf("bench-%d-", seed),
		adj:       make([][]expertgraph.NodeID, n),
		authority: make([]float64, n),
		pos:       make(map[edgeKey]int),
		weight:    make(map[edgeKey]float64),
		minW:      math.Inf(1),
		minA:      math.Inf(1),
		skills:    skillNames(g, skills),
	}
	for u := expertgraph.NodeID(0); int(u) < n; u++ {
		a := g.Authority(u)
		m.authority[u] = a
		m.minA, m.maxA = min(m.minA, a), max(m.maxA, a)
		g.Neighbors(u, func(v expertgraph.NodeID, w float64) bool {
			if u < v {
				m.addEdge(keyOf(u, v), w)
			}
			m.minW, m.maxW = min(m.minW, w), max(m.maxW, w)
			return true
		})
	}
	return m
}

func (m *writeModel) addEdge(e edgeKey, w float64) {
	m.pos[e] = len(m.edges)
	m.edges = append(m.edges, e)
	m.weight[e] = w
	m.adj[e.u] = append(m.adj[e.u], e.v)
	m.adj[e.v] = append(m.adj[e.v], e.u)
}

func (m *writeModel) dropEdge(e edgeKey) {
	i := m.pos[e]
	last := m.edges[len(m.edges)-1]
	m.edges[i] = last
	m.pos[last] = i
	m.edges = m.edges[:len(m.edges)-1]
	delete(m.pos, e)
	delete(m.weight, e)
	m.adj[e.u] = without(m.adj[e.u], e.v)
	m.adj[e.v] = without(m.adj[e.v], e.u)
}

func without(ns []expertgraph.NodeID, v expertgraph.NodeID) []expertgraph.NodeID {
	for i, x := range ns {
		if x == v {
			ns[i] = ns[len(ns)-1]
			return ns[:len(ns)-1]
		}
	}
	return ns
}

// inside draws uniformly from the middle 80% of [lo, hi].
func (m *writeModel) inside(lo, hi float64) float64 {
	return lo + (0.1+0.8*m.rng.Float64())*(hi-lo)
}

// drift moves x by a factor in [0.9, 1.1), or the other way if that
// would leave the open range (lo, hi); it falls back to inside when
// neither direction fits or the value would not change.
func (m *writeModel) drift(x, lo, hi float64) float64 {
	f := 0.9 + 0.2*m.rng.Float64()
	for _, y := range []float64{x * f, x / f} {
		if y > lo && y < hi && y != x {
			return y
		}
	}
	for {
		if y := m.inside(lo, hi); y != x {
			return y
		}
	}
}

// triangle finds two unlinked experts with a common collaborator.
func (m *writeModel) triangle() (edgeKey, bool) {
	for attempt := 0; attempt < 100; attempt++ {
		e := m.edges[m.rng.Intn(len(m.edges))]
		x, u := e.u, e.v
		if m.rng.Intn(2) == 0 {
			x, u = u, x
		}
		nx := m.adj[x]
		v := nx[m.rng.Intn(len(nx))]
		k := keyOf(u, v)
		if _, linked := m.weight[k]; u != v && !linked {
			return k, true
		}
	}
	return edgeKey{}, false
}

// writeOp is one generated mutation.
type writeOp struct {
	kind, method, path string
	body               []byte
	e                  edgeKey
	w                  float64
	u                  expertgraph.NodeID
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs of numbers and strings always marshal
	}
	return b
}

// next draws the next mutation: authority update, edge insertion,
// edge re-weight, edge removal and expert insertion in turn, so every
// run has the same mix (a removal with no removable edge, or an
// insertion with no open triangle, re-weights instead).
func (m *writeModel) next() writeOp {
	kind := m.n % 5
	m.n++
	if kind == 3 && len(m.added) == 0 {
		kind = 2
	}
	if kind == 1 {
		e, ok := m.triangle()
		if ok {
			w := m.inside(m.minW, m.maxW)
			return writeOp{kind: "add_edge", method: http.MethodPost, path: "/v1/graph/edges",
				body: mustJSON(server.AddEdgeRequest{U: e.u, V: e.v, W: w}), e: e, w: w}
		}
		kind = 2
	}
	switch kind {
	case 0:
		u := expertgraph.NodeID(m.rng.Intn(len(m.authority)))
		a := m.drift(m.authority[u], m.minA, m.maxA)
		return writeOp{kind: "update_node", method: http.MethodPatch,
			path: "/v1/graph/nodes/" + strconv.Itoa(int(u)),
			body: mustJSON(server.UpdateNodeRequest{Authority: &a}), u: u, w: a}
	case 2:
		e := m.edges[m.rng.Intn(len(m.edges))]
		w := m.drift(m.weight[e], m.minW, m.maxW)
		return writeOp{kind: "update_edge", method: http.MethodPatch, path: "/v1/graph/edges",
			body: mustJSON(server.UpdateEdgeRequest{U: e.u, V: e.v, W: w}), e: e, w: w}
	case 3:
		i := m.rng.Intn(len(m.added))
		e := m.added[i]
		m.added[i] = m.added[len(m.added)-1]
		m.added = m.added[:len(m.added)-1]
		return writeOp{kind: "remove_edge", method: http.MethodDelete, path: "/v1/graph/edges",
			body: mustJSON(server.RemoveEdgeRequest{U: e.u, V: e.v}), e: e}
	default:
		m.seq++
		skills := []string{m.skills[m.rng.Intn(len(m.skills))]}
		if s := m.skills[m.rng.Intn(len(m.skills))]; s != skills[0] && m.rng.Intn(2) == 0 {
			skills = append(skills, s)
		}
		a := m.inside(m.minA, m.maxA)
		return writeOp{kind: "add_node", method: http.MethodPost, path: "/v1/graph/nodes",
			body: mustJSON(server.AddNodeRequest{
				Name:      m.prefix + strconv.Itoa(m.seq),
				Authority: a,
				Skills:    skills,
			}), w: a}
	}
}

// commit folds an acknowledged mutation into the model. A removal
// already left the removable list when it was drawn.
func (m *writeModel) commit(op writeOp, resp server.MutationResponse) {
	switch op.kind {
	case "add_edge":
		m.addEdge(op.e, op.w)
		m.added = append(m.added, op.e)
	case "update_edge":
		m.weight[op.e] = op.w
	case "update_node":
		m.authority[op.u] = op.w
	case "remove_edge":
		m.dropEdge(op.e)
	case "add_node":
		if resp.ID != nil && int(*resp.ID) == len(m.authority) {
			m.authority = append(m.authority, op.w)
			m.adj = append(m.adj, nil)
		}
	}
}
