package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"authteam/internal/obs"
	"authteam/internal/server"
)

// traceHeader carries the benchmark's request id from the client span
// to the handler span of a traced request.
const traceHeader = "X-Bench-Req"

// span is one recorded interval of a traced request. Times are
// nanoseconds since the tracer started; Parent 0 marks a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps the traced run's spans in memory. The benchmark records
// them around the calls it makes into the program: the client request
// (root), the handler's ServeHTTP (child), and one child of the
// handler per pipeline stage the server reports with ?debug=trace.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	nextReq int64
	nextID  int64
	handler map[int64][2]time.Time
	spans   []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), handler: make(map[int64][2]time.Time)}
}

func (t *tracer) newRequest() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextReq++
	return t.nextReq
}

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// wrap times the server handler of every request that carries a
// benchmark request id. The handler writes into an in-memory recorder,
// so the span covers ServeHTTP alone and not the socket write; the
// recorded reply is then copied to the connection.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(traceHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(rec, r)
		end := time.Now()
		t.mu.Lock()
		t.handler[id] = [2]time.Time{start, end}
		t.mu.Unlock()
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		_, _ = w.Write(rec.Body.Bytes()) // a broken client connection shows on the client side
	})
}

// record stores the spans of one completed traced request. The server
// reports stage durations, not offsets, so the stage spans are laid
// end to end from the handler's start.
func (t *tracer) record(req int64, name string, rep reply, info *server.TraceInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	root := span{Name: name, ID: t.nextID, Req: req, Start: t.ns(rep.start), End: t.ns(rep.end)}
	t.spans = append(t.spans, root)
	hw, ok := t.handler[req]
	if !ok {
		return
	}
	delete(t.handler, req)
	t.nextID++
	hs := span{Name: "server.handler", ID: t.nextID, Parent: root.ID, Req: req,
		Start: t.ns(hw[0]), End: t.ns(hw[1])}
	t.spans = append(t.spans, hs)
	if info == nil {
		return
	}
	at := hs.Start
	for _, st := range info.Spans {
		t.nextID++
		d := int64(st.MS * 1e6)
		t.spans = append(t.spans, span{Name: st.Stage, ID: t.nextID, Parent: hs.ID, Req: req,
			Start: at, End: min(at+d, hs.End)})
		at += d
	}
}

// layerTimes are the per-request durations (ms) the spans give, by
// span name, plus the self time of the handler (handler minus its
// stage children) and of the client request (request minus handler).
type layerTimes struct {
	byName      map[string][]float64
	handlerSelf []float64
	httpSelf    []float64
}

// layers computes durations and self times from the recorded spans,
// counting only discover requests. record appends each request's
// spans together, root first, so one pass over the slice sees every
// request's spans in a row.
func (t *tracer) layers() layerTimes {
	t.mu.Lock()
	defer t.mu.Unlock()
	lt := layerTimes{byName: make(map[string][]float64)}
	for i := 0; i < len(t.spans); {
		j := i + 1
		for j < len(t.spans) && t.spans[j].Parent != 0 {
			j++
		}
		req := t.spans[i:j]
		i = j
		if req[0].Name != "client.discover" {
			continue
		}
		covered := make(map[int64]float64, 2) // child time per parent span
		for _, s := range req[1:] {
			covered[s.Parent] += s.ms()
		}
		for _, s := range req {
			lt.byName[s.Name] = append(lt.byName[s.Name], s.ms())
			switch {
			case s.Parent == 0:
				lt.httpSelf = append(lt.httpSelf, s.ms()-covered[s.ID])
			case s.Name == "server.handler":
				lt.handlerSelf = append(lt.handlerSelf, s.ms()-covered[s.ID])
			}
		}
	}
	return lt
}

// writeOut saves the spans as gzipped JSON lines.
func (t *tracer) writeOut(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = bw.Flush()
	}
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// exposition is one parsed /metrics scrape, by family name.
type exposition map[string]obs.Family

func (in *instance) scrapeMetrics() (exposition, error) {
	body, err := in.get("/metrics")
	if err != nil {
		return nil, err
	}
	fams, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parse /metrics: %w", err)
	}
	out := make(exposition, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out, nil
}

// sum adds every sample of the family named exactly sample (all label
// sets); ok is false when the family is not exposed.
func (e exposition) sum(family, sample string) (float64, bool) {
	f, ok := e[family]
	if !ok {
		return 0, false
	}
	total := 0.0
	for _, s := range f.Samples {
		if s.Name == sample {
			total += s.Value
		}
	}
	return total, true
}

// delta is a counter's or gauge's change between two scrapes.
func delta(before, after exposition, name string) (float64, bool) {
	a, ok := after.sum(name, name)
	if !ok {
		return 0, false
	}
	b, _ := before.sum(name, name)
	return a - b, true
}

// histMean is the mean of the observations a histogram family took
// between two scrapes, over all label sets; ok is false when the
// family is not exposed or saw no observations.
func histMean(before, after exposition, name string) (float64, bool) {
	sa, ok := after.sum(name, name+"_sum")
	if !ok {
		return 0, false
	}
	ca, _ := after.sum(name, name+"_count")
	sb, _ := before.sum(name, name+"_sum")
	cb, _ := before.sum(name, name+"_count")
	if ca-cb <= 0 {
		return 0, false
	}
	return (sa - sb) / (ca - cb), true
}

// statsField reads a number from a /stats payload by its JSON path,
// so the benchmark depends on field names, not on the Go type.
func statsField(stats map[string]any, path ...string) (float64, bool) {
	var cur any = stats
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			return 0, false
		}
		cur = m[p]
	}
	f, ok := cur.(float64)
	return f, ok
}

func (in *instance) scrapeStats() (map[string]any, error) {
	body, err := in.get("/stats")
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		return nil, fmt.Errorf("decode /stats: %w", err)
	}
	return out, nil
}
