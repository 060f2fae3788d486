package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"authteam/internal/expertgraph"
	"authteam/internal/server"
)

// minEpochHeader is the read-your-writes header of the HTTP API: a
// discover carrying it is answered at this epoch or a later one.
const minEpochHeader = "X-Authteam-Min-Epoch"

// clientTimeout bounds one request from the client side, a little
// beyond the server's default 30 s discovery timeout.
const clientTimeout = 35 * time.Second

// instance is one booted server listening on loopback, with the
// client that drives it.
type instance struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
	// dir holds the journal (removed on close); empty without one.
	dir string
}

// serve starts srv on a loopback listener. wrap, when non-nil, wraps
// the server's handler (the traced run's handler spans).
func serve(srv *server.Server, wrap func(http.Handler) http.Handler) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	in := &instance{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{
			Timeout: clientTimeout,
			// At most nproc connections, as the workloads promise.
			Transport: &http.Transport{
				MaxConnsPerHost:     runtime.NumCPU(),
				MaxIdleConnsPerHost: runtime.NumCPU(),
				DisableCompression:  true,
			},
		},
	}
	go func() {
		defer close(in.done)
		_ = in.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return in, nil
}

// close stops the listener, waits for the serve loop, closes the
// server and removes its journal directory.
func (in *instance) close() error {
	in.client.CloseIdleConnections()
	err := in.hs.Close()
	<-in.done
	if cerr := in.srv.Close(); err == nil {
		err = cerr
	}
	if in.dir != "" {
		if rerr := os.RemoveAll(in.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// reply is one completed HTTP exchange, timed from the call to the
// last body byte.
type reply struct {
	status     int
	body       []byte
	start, end time.Time
}

func (r reply) ms() float64 { return float64(r.end.Sub(r.start)) / float64(time.Millisecond) }

func (r reply) ok() bool { return r.status >= 200 && r.status < 300 }

// do sends one request. A transport error or timeout is returned as
// an error; any HTTP status is a reply.
func (in *instance) do(method, path string, body []byte, hdr http.Header) (reply, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, in.url+path, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	r := reply{start: time.Now()}
	resp, err := in.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	if err != nil {
		return reply{}, err
	}
	r.status = resp.StatusCode
	return r, nil
}

// get fetches an observability route.
func (in *instance) get(path string) ([]byte, error) {
	r, err := in.do(http.MethodGet, path, nil, nil)
	if err != nil {
		return nil, err
	}
	if !r.ok() {
		return nil, fmt.Errorf("GET %s: status %d", path, r.status)
	}
	return r.body, nil
}

func discoverBody(skills []string, method string) []byte {
	b, err := json.Marshal(server.DiscoverRequest{Skills: skills, Method: method, K: topK})
	if err != nil {
		panic(err) // plain strings and ints always marshal
	}
	return b
}

// setupTimes are the per-repetition phases of one set-up.
type setupTimes struct {
	newS, warmS, totalS []float64
}

// setUp boots the workload's server reps times and keeps the last:
// each repetition times server.New and then one warm-up discover per
// method over HTTP, which pays every lazy build the first requests
// would otherwise pay. Earlier repetitions are closed before the next
// starts, so only the kept server's state stays resident.
func setUp(w spec, g *expertgraph.Graph, warm []string, workdir string, reps int,
	wrap func(http.Handler) http.Handler) (*instance, setupTimes, error) {
	var st setupTimes
	var in *instance
	ok := false
	defer func() {
		if !ok && in != nil {
			_ = in.close() // the set-up error is the one to report
		}
	}()
	for r := 0; r < reps; r++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, st, fmt.Errorf("close set-up %d: %w", r, err)
			}
			in = nil
			runtime.GC()
		}
		cfg := server.Config{Graph: g}
		dir := ""
		if w.journal {
			var err error
			if dir, err = os.MkdirTemp(workdir, "journal-"); err != nil {
				return nil, st, err
			}
			cfg.JournalPath = filepath.Join(dir, "graph.wal")
		}
		t0 := time.Now()
		srv, err := server.New(cfg)
		if err != nil {
			_ = os.RemoveAll(dir)
			return nil, st, fmt.Errorf("server.New: %w", err)
		}
		tNew := time.Since(t0)
		if in, err = serve(srv, wrap); err != nil {
			_ = srv.Close()
			_ = os.RemoveAll(dir)
			return nil, st, err
		}
		in.dir = dir
		for _, m := range methods {
			rep, err := in.do(http.MethodPost, "/v1/discover", discoverBody(warm, m), nil)
			if err != nil {
				return nil, st, fmt.Errorf("warm-up %s: %w", m, err)
			}
			if rep.status != http.StatusOK {
				return nil, st, fmt.Errorf("warm-up %s: status %d: %s", m, rep.status, rep.body)
			}
		}
		total := time.Since(t0)
		st.newS = append(st.newS, tNew.Seconds())
		st.warmS = append(st.warmS, (total - tNew).Seconds())
		st.totalS = append(st.totalS, total.Seconds())
	}
	ok = true
	return in, st, nil
}
