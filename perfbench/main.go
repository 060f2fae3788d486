// Command perfbench is the repository's benchmark. It boots the real
// internal/server in-process on loopback and drives one workload
// through the public HTTP API for a fixed time:
//
//	perfbench --workload distinct-3k|hot-1k|churn-1k --seed N --seconds S --trace 0|1
//
// Run it from the repository root through perfbench/run.sh, which
// builds it first. The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics of a traced pass over
// the same inputs with --trace 1. failed counts non-2xx replies,
// transport errors, timeouts, answers the reference check rejects and
// read-your-writes violations. The line before it records what makes
// the numbers comparable (nproc, Go version, graph sizes, seed,
// journal sync policy, tail percentiles), fail_frac, and which
// per-layer metrics the run could not measure ("absent", reported as
// 0). Inputs depend only on the seed; answers are checked against an
// index-free reference outside the timed window. Times and rates are
// reported at the reference machine speed of calib.go; the context
// line also holds them as measured ("unscaled") and the speed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"authteam/internal/dblp"
	"authteam/internal/expertgraph"
	"authteam/internal/workload"
)

// options are one invocation's settings. The last four exist so the
// self-test can run every workload in seconds; main uses the defaults.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workdir  string
	// reps overrides how many times set-up runs (0 keeps the
	// workload's own count); setup_s is their median.
	reps int
	// authors overrides the workload's graph size (0 keeps it).
	authors int
	// probeWrites is the length of the idle write probe.
	probeWrites int
	// obsPairs is the number of interleaved request pairs behind
	// obs.overhead_pct.
	obsPairs int
	// calibration is the length of each of the two calibration passes.
	calibration time.Duration
}

func main() {
	o := options{probeWrites: probeWrites, obsPairs: 3000, calibration: calibrationFor}
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured phase length in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for journals and span files")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, ctx, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if line, err = json.Marshal(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// buildGraph synthesizes the workload's corpus (graph seed 1) and
// keeps its largest component.
func buildGraph(authors int) (*expertgraph.Graph, error) {
	c := dblp.Synthesize(dblp.SynthConfig{Seed: 1, Authors: authors})
	g, _, err := dblp.BuildGraph(c, dblp.GraphOptions{LargestComponent: true})
	return g, err
}

func execute(o options) (*result, map[string]any, error) {
	w, ok := findWorkload(o.workload)
	if !ok {
		return nil, nil, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return nil, nil, fmt.Errorf("need --seconds > 0")
	}
	if o.authors > 0 {
		w.authors = o.authors
	}
	if o.reps > 0 {
		w.setupReps = o.reps
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, nil, err
	}

	t0 := time.Now()
	g, err := buildGraph(w.authors)
	if err != nil {
		return nil, nil, fmt.Errorf("build graph: %w", err)
	}
	inputS := time.Since(t0).Seconds()

	// The read projects and the writer's mutations derive from the
	// seed. The warm-up project does not: set-up then does the same
	// work under every seed.
	genOpts := workload.Options{MinHolders: 2}
	warmGen, err := workload.NewGenerator(g, 17, genOpts)
	if err != nil {
		return nil, nil, err
	}
	warmIDs, err := warmGen.Project(4)
	if err != nil {
		return nil, nil, fmt.Errorf("warm-up project: %w", err)
	}
	warm := skillNames(g, warmIDs)
	gen, err := workload.NewGenerator(g, o.seed, genOpts)
	if err != nil {
		return nil, nil, err
	}
	classes, err := newStrata(g, genOpts)
	if err != nil {
		return nil, nil, err
	}
	projects := &distinctProjects{g: g, gen: gen, classes: classes, seen: map[string]bool{projectKey(warmIDs): true}}
	var skills []expertgraph.SkillID
	for s := 0; s < g.NumSkills(); s++ {
		if len(g.ExpertsWithSkill(expertgraph.SkillID(s))) >= genOpts.MinHolders {
			skills = append(skills, expertgraph.SkillID(s))
		}
	}
	writes := newWriteModel(g, o.seed*104729+3, skills)

	var tr *tracer
	var wrap func(http.Handler) http.Handler
	if o.trace {
		tr = newTracer()
		wrap = tr.wrap
	}
	phases := map[string]float64{"input": inputS}
	lap := time.Now()
	in, st, err := setUp(w, g, warm, o.workdir, w.setupReps, wrap)
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	defer in.close()
	r := newRunner(w, in, tr, o.seed)

	// The read stream: fresh projects, or a pool answered once here so
	// every timed read is a cache hit.
	var pool []project
	for i := 0; i < w.pool; i++ {
		p, err := projects.next()
		if err != nil {
			return nil, nil, err
		}
		rep, err := in.do(http.MethodPost, "/v1/discover", p.body, nil)
		if err != nil {
			return nil, nil, fmt.Errorf("pool answer %d: %w", i, err)
		}
		if rep.status != http.StatusOK {
			return nil, nil, fmt.Errorf("pool answer %d: status %d", i, rep.status)
		}
		pool = append(pool, p)
	}
	phases["setup"] = time.Since(lap).Seconds()

	cal := calibrate(o.calibration, runtime.NumCPU(), nil)
	runtime.GC() // set-up and calibration garbage is not the measured phase's
	var before, after exposition
	if o.trace {
		if before, err = in.scrapeMetrics(); err != nil {
			return nil, nil, err
		}
	}
	statsBefore, err := in.scrapeStats()
	if err != nil {
		return nil, nil, err
	}
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)

	// The measured phase: closed-loop readers (the churn workload's one
	// reader writing before each read) and the live-heap sampler.
	reads := make([]opStats, w.readers)
	var wrote opStats
	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	stopHeap := make(chan struct{})
	heapCh := make(chan []float64, 1)
	go func() { heapCh <- sampleLiveHeap(stopHeap, heapEvery) }()
	var wg sync.WaitGroup
	for c := 0; c < w.readers; c++ {
		next := func(int) (project, error) { return projects.next() }
		if pool != nil {
			off := c * len(pool) / w.readers
			next = func(i int) (project, error) { return pool[(off+i)%len(pool)], nil }
		}
		st := &reads[c]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r.closedLoop(next, writes, deadline, st, &wrote)
		}()
	}
	wg.Wait()
	wall := time.Since(start).Seconds()
	close(stopHeap)
	heapLive := <-heapCh
	runtime.ReadMemStats(&msAfter)

	var read opStats
	for c := range reads {
		read.merge(&reads[c])
	}
	if o.trace {
		if after, err = in.scrapeMetrics(); err != nil {
			return nil, nil, err
		}
	}
	statsAfter, err := in.scrapeStats()
	if err != nil {
		return nil, nil, err
	}
	cal = calibrate(o.calibration, runtime.NumCPU(), cal)
	speed := calibrationRefMS / median(cal)

	// The idle write probe: back-to-back writes on the now idle server,
	// the same on every workload.
	lap = time.Now()
	if o.trace {
		r.probeWrites(writes, o.probeWrites, &wrote)
	}
	phases["probe"] = time.Since(lap).Seconds()

	var overheadPct float64
	overheadOK := false
	if o.trace && w.pool > 0 {
		if overheadPct, err = obsOverhead(g, pool, o); err != nil {
			return nil, nil, fmt.Errorf("obs overhead: %w", err)
		}
		overheadOK = true
	}

	lap = time.Now()
	checkErrs := checkSamples(in.srv.Store(), r.samples, runtime.NumCPU())
	phases["check"] = time.Since(lap).Seconds()
	failed := read.failed + wrote.failed
	for _, e := range checkErrs {
		if e != nil {
			failed++
			read.errs = append(read.errs, "check: "+e.Error())
		}
	}
	for _, e := range append(read.errs, wrote.errs...) {
		fmt.Fprintln(os.Stderr, "perfbench:", e)
	}
	attempted := read.attempted + wrote.attempted
	res := &result{
		Correct:   failed == 0 && len(r.samples) > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   map[string]metric{},
	}
	readLat, writeLat, probeLat := r.readLat.values(), r.writeLat.values(), r.probeLat.values()
	ctx := map[string]any{
		"workload":                     w.name,
		"seed":                         o.seed,
		"seconds":                      o.seconds,
		"trace":                        o.trace,
		"nproc":                        runtime.NumCPU(),
		"gomaxprocs":                   runtime.GOMAXPROCS(0),
		"go":                           runtime.Version(),
		"graph":                        map[string]int{"nodes": g.NumNodes(), "edges": g.NumEdges(), "skills": g.NumSkills(), "authors": w.authors},
		"journal":                      w.journal,
		"journal_sync":                 false,
		"readers":                      w.readers,
		"writes_per_read":              w.writesPerRead,
		"tail_percentile":              w.tailPct,
		"idle_write_tail_percentile":   mutateTailPct,
		"loaded_write_tail_percentile": w.mutateTailPct,
		"setup_reps":                   w.setupReps,
		"reads":                        r.readLat.count() + r.tracedLat.count(),
		"writes":                       r.writeLat.count(),
		"probe_writes":                 r.probeLat.count(),
		"uncached_pool_reads":          read.uncached,
		"checked":                      len(r.samples),
		"fail_frac":                    float64(failed) / float64(max(attempted, 1)),
		"phase_s":                      phases,
		"measured_s":                   wall,
		"calibration":                  map[string]float64{"loop_ms": median(cal), "reference_ms": calibrationRefMS, "speed": speed},
	}
	if n, ok := statsField(statsAfter, "live", "epoch"); ok {
		ctx["end_epoch"] = n
	}
	if n, ok := statsField(statsBefore, "live", "nodes"); ok {
		ctx["start_nodes"] = n
	}
	if n, ok := statsField(statsAfter, "live", "nodes"); ok {
		ctx["end_nodes"] = n
	}
	if n := beyond(r.readLat.count(), w.tailPct); !o.trace && n < 10 {
		ctx["warning"] = fmt.Sprintf("only %d reads beyond p%g", n, w.tailPct)
	}

	if !o.trace {
		put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
		put("setup_s", "s", median(st.totalS))
		put("discover_p50_ms", "ms", median(readLat))
		put("discover_tail_ms", "ms", percentile(readLat, w.tailPct))
		put("discover_qps", "1/s", float64(r.readLat.count())/wall)
		put("heap_live_mb", "MB", (median(heapLive)-float64(r.ownBytes()))/(1<<20))
		ctx["unscaled"] = scale(res.Metrics, speed)
		return res, ctx, nil
	}

	lm := &layerMetrics{out: res.Metrics}
	lm.setup(inputS, st)
	lm.spans(tr.layers(), w.tailPct)
	lm.scrapes(before, after)
	lm.put("mutate.idle_p50_ms", "ms", median(probeLat), len(probeLat) > 0)
	lm.put("mutate.idle_tail_ms", "ms", percentile(probeLat, mutateTailPct), len(probeLat) > 0)
	lm.put("mutate.loaded_p50_ms", "ms", median(writeLat), len(writeLat) > 0)
	lm.put("mutate.loaded_tail_ms", "ms", percentile(writeLat, w.mutateTailPct), len(writeLat) > 0)
	ops := float64(max(attempted, 1))
	lm.put("go.alloc_kb_per_op", "KB", float64(msAfter.TotalAlloc-msBefore.TotalAlloc)/1024/ops, true)
	lm.put("go.gc_per_kop", "count", float64(msAfter.NumGC-msBefore.NumGC)*1000/ops, true)
	lag := r.lag.values()
	lm.put("loadgen.lag_tail_ms", "ms", percentile(lag, 99), len(lag) > 0)
	lm.put("check.answers", "count", float64(len(r.samples)), true)
	untraced, traced := median(readLat), median(r.tracedLat.values())
	lm.put("trace.overhead_pct", "%", (traced/untraced-1)*100, !math.IsNaN(untraced) && !math.IsNaN(traced))
	lm.put("obs.overhead_pct", "%", overheadPct, overheadOK)
	sort.Strings(lm.absent)
	ctx["absent"] = lm.absent
	ctx["unscaled"] = scale(res.Metrics, speed)
	path := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl.gz", w.name, o.seed))
	if err := tr.writeOut(path); err != nil {
		return nil, nil, err
	}
	ctx["spans"] = path
	return res, ctx, nil
}

// scale converts the times and rates of metrics to the reference machine
// speed of the calibration (a speed above 1 means this machine ran the
// loop faster) and returns their values as measured.
func scale(metrics map[string]metric, speed float64) map[string]metric {
	raw := make(map[string]metric, len(metrics))
	for name, m := range metrics {
		raw[name] = m
		switch m.Unit {
		case "ms", "s":
			m.Value *= speed
		case "1/s":
			m.Value /= speed
		}
		metrics[name] = m
	}
	return raw
}

// heapEvery is how often the measured phase samples the live heap.
const heapEvery = 100 * time.Millisecond

// sampleLiveHeap reads the runtime's live-heap figure — the heap the
// last completed GC found reachable — every interval until stop is
// closed. Sampling over the phase instead of forcing one GC at its end
// keeps the figure steady where resident state fills and empties in
// cycles (the server's per-epoch parameter memo under churn).
func sampleLiveHeap(stop <-chan struct{}, every time.Duration) []float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var out []float64
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		metrics.Read(s)
		if s[0].Value.Kind() == metrics.KindUint64 {
			out = append(out, float64(s[0].Value.Uint64()))
		}
		select {
		case <-stop:
			return out
		case <-t.C:
		}
	}
}
