package main

// spec is one workload: a traffic mix the benchmark drives through the public
// HTTP API of an in-process server.
type spec struct {
	name string
	// authors sizes the dblp.Synthesize corpus (graph seed 1); the
	// served graph is its largest component.
	authors int
	// readers is the number of closed-loop discover clients.
	readers int
	// pool > 0 makes the readers cycle through this many projects that
	// were answered once before timing (every timed read is a cache
	// hit); 0 makes every read a distinct project.
	pool int
	// writesPerRead > 0 makes the one reader send this many writes,
	// each awaited, before every read of the measured phase.
	writesPerRead int
	// journal enables the write-ahead journal (JournalSync off).
	journal bool
	// tailPct is the discover tail percentile: the highest percentile
	// with at least ten samples beyond it at the workload's sample
	// count, fixed here so every run reports the same one.
	tailPct float64
	// mutateTailPct is the same choice for the writes of the measured
	// phase (churn only).
	mutateTailPct float64
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// checkEvery and checkMax pick the deterministic sample of reads
	// recomputed by the reference after the measured phase: reads
	// 0, checkEvery, 2·checkEvery, … up to checkMax of them.
	checkEvery, checkMax int
}

var workloads = []spec{
	// The core search does nearly all the work here, and it is the
	// largest graph today's code serves within a short run, so index
	// build time and index memory show up in setup_s and heap_live_mb.
	{
		name:    "distinct-3k",
		authors: 3000,
		readers: 1,
		// About 60 reads a run: p90 would have six beyond it.
		tailPct:    75,
		setupReps:  3,
		checkEvery: 7,
		checkMax:   2,
	},
	// Search does no work here: HTTP, JSON, skill resolution, cache
	// lookup and obs instruments are the whole cost, so fixed
	// per-request costs show up here first.
	{
		name:    "hot-1k",
		authors: 1200,
		// One reader: two clients and their two handlers would want more
		// than the machine's two vCPUs, and every read would then also
		// time the wait for one.
		readers: 1,
		pool:    32,
		// Over 100k reads a run would allow p99.9, but about one read in
		// a hundred meets a GC cycle of the process (client and server
		// share its heap) and waits 1-3 ms, so p99.9 lands in that group:
		// on a shared 2-vCPU machine it moved 13-86% (IQR over median)
		// between seeds, and p95, at the edge of the group, up to 24%.
		tailPct:    90,
		setupReps:  9,
		checkEvery: 4999,
		checkMax:   6,
	},
	// Every write advances the epoch, so every read pays a refit, an
	// index repair or rebuild, and an overlay-chain read: the layers
	// that keep the index fresh do most of their work here and none in
	// the other two workloads.
	{
		name:    "churn-1k",
		authors: 1200,
		readers: 1,
		// Two writes before each read, rather than writes on a clock:
		// then every read repairs the index over the same two-write
		// delta, where a clock lets a slow spell put more writes, and
		// so more repair work, in front of every read.
		writesPerRead: 2,
		journal:       true,
		// About 300 reads and 600 writes a run.
		tailPct:       90,
		mutateTailPct: 90,
		setupReps:     9,
		checkEvery:    11,
		checkMax:      6,
	},
}

// Request mix shared by every workload: request i asks for
// methods[i%3] with sizes[(i/3)%3] skills, so each (method, size)
// pair appears equally often.
var (
	methods = []string{"cc", "ca-cc", "sa-ca-cc"}
	sizes   = []int{2, 4, 6}
)

const topK = 3

// The idle write probe of the traced run: probeWrites back-to-back
// writes after the measured phase. mutateTailPct is the highest of
// p90/p99/p99.9 with at least ten samples beyond it at that count.
const (
	probeWrites   = 2000
	mutateTailPct = 99
)

func mixAt(i int) (method string, size int) {
	return methods[i%len(methods)], sizes[(i/len(methods))%len(sizes)]
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}
