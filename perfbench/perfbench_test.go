package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return endToEnd, perLayer
}

// TestTinyRuns drives every workload briefly on a tiny graph, timed
// and traced, and requires exactly the declared metrics, checked
// answers and no failed operation.
func TestTinyRuns(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, ctx, err := execute(options{
				workload:    w.name,
				seed:        3,
				seconds:     0.5,
				trace:       trace,
				workdir:     t.TempDir(),
				reps:        1,
				authors:     400,
				probeWrites: 50,
				obsPairs:    50,
				calibration: 50 * time.Millisecond,
			})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if ctx["fail_frac"] != 0.0 {
				t.Errorf("%s trace=%v: fail_frac %v", w.name, trace, ctx["fail_frac"])
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, name := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, name)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
				}
			}
			if trace && res.Metrics["check.answers"].Value <= 0 {
				t.Errorf("%s: no answer checked", w.name)
			}
		}
	}
}
