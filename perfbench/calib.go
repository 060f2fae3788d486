package main

import (
	"sort"
	"sync"
	"time"
)

// The machine this benchmark runs on is a share of a host whose
// per-core speed moves with the host's other load: over minutes, the
// same code ran 25-40% faster or slower on every workload, and a fixed
// loop moved with it (about 35%). So every run also times such a loop,
// on every vCPU at once, on the idle process just before and just after
// the measured phase, and reports its times scaled to a machine on
// which that loop takes calibrationRefMS: speed is the reference time
// over the loop's median time, a time is multiplied by it and a rate
// divided by it. The loop runs no code of the program, so a change to
// the program moves the scaled figures as much as the raw ones; the
// raw figures and the speed are in the context line. On one goroutine
// alone the loop tracked the parallel distinct-3k worse: in one set of
// runs it sped up 35% where distinct-3k sped up about 10%.

// calibrationRefMS is the loop's median time, on both vCPUs at once,
// of the reference machine: the slower of the two speeds its 2-vCPU
// share of the host showed while this benchmark was defined.
const calibrationRefMS = 3.8

// calibrationFor is how long each of the two calibration passes runs.
const calibrationFor = time.Second

// calibrationLoop is one timed iteration: it fills a map and sorts a
// slice, the allocation, hashing and branching a request's handling
// is made of.
func calibrationLoop() int {
	const n = 20000
	m := make(map[int]int)
	xs := make([]int, n)
	for i := range xs {
		xs[i] = (i * 7919) % 20011
		m[xs[i]] = i
	}
	sort.Ints(xs)
	return len(m) + xs[n/2]
}

// calibrate runs the loop on goroutines goroutines at once for d and
// appends every iteration's time (ms) to into.
func calibrate(d time.Duration, goroutines int, into []float64) []float64 {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own []float64
			sink := 0
			for end := time.Now().Add(d); time.Now().Before(end); {
				t := time.Now()
				sink += calibrationLoop()
				own = append(own, ms(time.Since(t)))
			}
			if sink == 0 {
				panic("calibration loop optimised away") // len(m) > 0 always
			}
			mu.Lock()
			into = append(into, own...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return into
}
