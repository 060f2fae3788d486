package main

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strings"
	"sync"

	"authteam/internal/core"
	"authteam/internal/expertgraph"
	"authteam/internal/live"
	"authteam/internal/server"
	"authteam/internal/team"
	"authteam/internal/transform"
)

// checkTol is the relative tolerance on a rank's method objective.
const checkTol = 1e-9

func methodOf(name string) core.Method {
	switch name {
	case "cc":
		return core.CC
	case "ca-cc":
		return core.CACC
	default:
		return core.SACACC
	}
}

func objective(method string, cc, cacc, sacacc float64) float64 {
	switch method {
	case "cc":
		return cc
	case "ca-cc":
		return cacc
	default:
		return sacacc
	}
}

func close9(a, b float64) bool {
	return math.Abs(a-b) <= checkTol*math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-300)
}

// checkSamples recomputes every sampled read with the index-free
// reference — core.NewDiscoverer's per-root Dijkstra on the snapshot
// the server answered from, under a fresh transform.Fit — on up to
// workers goroutines. It returns one error per rejected sample (nil
// entries for accepted ones).
func checkSamples(store *live.Store, samples []sample, workers int) []error {
	errs := make([]error, len(samples))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkOne(store, samples[i])
			}
		}()
	}
	for i := range samples {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

func checkOne(store *live.Store, s sample) error {
	epoch, gamma, lambda := s.minEpoch, 0.6, 0.6
	if s.status == http.StatusOK {
		epoch, gamma, lambda = s.resp.Epoch, s.resp.Gamma, s.resp.Lambda
	}
	snap, ok := store.SnapshotAt(epoch)
	if !ok {
		return fmt.Errorf("epoch %d not retained", epoch)
	}
	g := snap.View()
	p, err := transform.Fit(g, gamma, lambda, transform.Options{Normalize: true})
	if err != nil {
		return err
	}
	ids := make([]expertgraph.SkillID, len(s.skills))
	for i, name := range s.skills {
		if ids[i], ok = g.SkillID(name); !ok {
			return fmt.Errorf("skill %q unknown at epoch %d", name, epoch)
		}
	}
	ref, err := core.NewDiscoverer(p, methodOf(s.method)).TopK(ids, topK)
	if s.status != http.StatusOK {
		if errors.Is(err, core.ErrNoTeam) || errors.Is(err, core.ErrNoExpert) {
			return nil
		}
		return fmt.Errorf("%s %v: server found no team, reference: %v", s.method, s.skills, err)
	}
	if err != nil {
		return fmt.Errorf("%s %v: reference: %w", s.method, s.skills, err)
	}
	if len(ref) != len(s.resp.Teams) {
		return fmt.Errorf("%s %v: %d teams, reference %d", s.method, s.skills, len(s.resp.Teams), len(ref))
	}
	byName := make(map[string]expertgraph.NodeID, g.NumNodes())
	for u := 0; u < g.NumNodes(); u++ {
		byName[g.Name(expertgraph.NodeID(u))] = expertgraph.NodeID(u)
	}
	for rank, tm := range s.resp.Teams {
		want := team.Evaluate(ref[rank], p)
		got := objective(s.method, tm.Scores.CC, tm.Scores.CACC, tm.Scores.SACACC)
		exp := objective(s.method, want.CC, want.CACC, want.SACACC)
		if !close9(got, exp) {
			return fmt.Errorf("%s %v rank %d: objective %.17g, reference %.17g", s.method, s.skills, rank, got, exp)
		}
		if err := checkAssignment(g, byName, s.skills, tm); err != nil {
			return fmt.Errorf("%s %v rank %d: %w", s.method, s.skills, rank, err)
		}
	}
	return nil
}

// checkAssignment requires every project skill to be assigned to a
// member who holds it at the answer's epoch.
func checkAssignment(g expertgraph.GraphView, byName map[string]expertgraph.NodeID, skills []string, tm server.TeamResult) error {
	assigned := make(map[string]bool, len(skills))
	for _, m := range tm.Members {
		u, ok := byName[m.Name]
		if !ok {
			return fmt.Errorf("member %q not in the graph", m.Name)
		}
		for _, name := range m.Skills {
			id, ok := g.SkillID(name)
			if !ok || !g.HasSkill(u, id) {
				return fmt.Errorf("member %q assigned %q it does not hold", m.Name, name)
			}
			assigned[name] = true
		}
	}
	var missing []string
	for _, name := range skills {
		if !assigned[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("skills %s assigned to no member", strings.Join(missing, ","))
	}
	return nil
}
