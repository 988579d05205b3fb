package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
	"repro/internal/worker"
)

// fleetSpec describes one serving deployment: a fleet-transport
// orchestrator on a loopback listener and in-process workers that reach it
// over HTTP, exactly as cmd/serve and cmd/worker processes would.
type fleetSpec struct {
	objective sched.Objective
	proto     core.Workload
	warm      []string
	workers   []workerSpec
}

type workerSpec struct {
	id      string
	backend backend.Kind
	config  uarch.Config
}

type fleet struct {
	srv    *serve.Server
	hs     *http.Server
	base   string
	client *http.Client // the load client, capped at nproc connections
	stamps *stamps

	stopWorkers context.CancelFunc
	workersDone sync.WaitGroup
	serverDone  chan error
}

// startFleet brings the deployment up: serve.New, the listener, Warm over
// the catalog, then every worker registered and parked on a poll. Its
// wall time is the serve workloads' set-up.
func startFleet(ctx context.Context, spec fleetSpec, seed uint64) (*fleet, error) {
	srv, err := serve.New(serve.Config{
		Objective: spec.objective,
		Proto:     spec.proto,
		Seed:      newStream(seed, purposeOrder).next(),
		Fleet:     &serve.FleetOptions{},
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{
		srv:  srv,
		hs:   &http.Server{Handler: srv.Handler()},
		base: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     runtimeWorkers(),
			MaxIdleConnsPerHost: runtimeWorkers(),
		}},
		stamps:     newStamps(),
		serverDone: make(chan error, 1),
	}
	go func() { f.serverDone <- f.hs.Serve(ln) }()
	srv.Start(context.Background())
	if err := srv.Warm(ctx, spec.warm); err != nil {
		f.close()
		return nil, err
	}
	wctx, cancel := context.WithCancel(context.Background())
	f.stopWorkers = cancel
	for _, ws := range spec.workers {
		w, err := worker.New(worker.Options{
			Orchestrator: f.base,
			ID:           ws.id,
			Backend:      ws.backend,
			Config:       ws.config,
			Client:       &http.Client{Transport: &stampingTransport{base: http.DefaultTransport, st: f.stamps}},
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.workersDone.Add(1)
		go func() {
			defer f.workersDone.Done()
			w.Run(wctx) // returns only once wctx is canceled
		}()
	}
	if err := f.waitParked(ctx, len(spec.workers)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// waitParked polls GET /healthz until n workers are registered and idle.
func (f *fleet) waitParked(ctx context.Context, n int) error {
	for {
		var h struct {
			Workers []serve.WorkerView `json:"workers"`
		}
		if err := f.getJSON(ctx, "/healthz", &h); err != nil {
			return err
		}
		parked := 0
		for _, w := range h.Workers {
			if w.Parked && !w.Gone {
				parked++
			}
		}
		if parked == n {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// close drains the orchestrator, then stops the workers and the listener,
// and waits for all of them.
func (f *fleet) close() {
	f.srv.Stop()
	if f.stopWorkers != nil {
		f.stopWorkers()
	}
	f.workersDone.Wait()
	f.hs.Close()
	<-f.serverDone
	f.client.CloseIdleConnections()
}

// submit POSTs one job; status is the HTTP status (202 admitted).
func (f *fleet) submit(ctx context.Context, req serve.JobRequest) (serve.JobView, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, f.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobView{}, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(hreq)
	if err != nil {
		return serve.JobView{}, 0, err
	}
	defer resp.Body.Close()
	var v serve.JobView
	if resp.StatusCode == http.StatusAccepted {
		err = json.NewDecoder(resp.Body).Decode(&v)
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return v, resp.StatusCode, err
}

func (f *fleet) getJSON(ctx context.Context, path string, v any) error {
	b, status, err := f.get(ctx, path)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, b)
	}
	return json.Unmarshal(b, v)
}

func (f *fleet) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// stamps records, per job id, when the worker side saw the fleet protocol
// messages: the assignment arriving (poll response), the result leaving
// (result request) and its acknowledgement. Recording is off until the
// traced phase enables it.
type stamps struct {
	on atomic.Bool

	mu         sync.Mutex
	assigned   map[string]time.Time
	resultSent map[string]time.Time
	resultAck  map[string]time.Time
	polls      int
	emptyPolls int
}

func newStamps() *stamps {
	return &stamps{
		assigned:   map[string]time.Time{},
		resultSent: map[string]time.Time{},
		resultAck:  map[string]time.Time{},
	}
}

func (s *stamps) lookup(id string) (assigned, sent, acked time.Time, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	assigned, ok1 := s.assigned[id]
	sent, ok2 := s.resultSent[id]
	acked, ok3 := s.resultAck[id]
	return assigned, sent, acked, ok1 && ok2 && ok3
}

// stampingTransport is the worker's HTTP client transport in every serve
// run. It tee-parses the job id out of /fleet/poll responses and
// /fleet/result requests, so worker-side spans need no change to the
// worker itself.
type stampingTransport struct {
	base http.RoundTripper
	st   *stamps
}

type jobIDOnly struct {
	JobID string `json:"job_id"`
}

func (t *stampingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.st.on.Load() {
		return t.base.RoundTrip(req)
	}
	switch req.URL.Path {
	case "/fleet/poll":
		resp, err := t.base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		now := time.Now()
		t.st.mu.Lock()
		t.st.polls++
		if resp.StatusCode == http.StatusNoContent {
			t.st.emptyPolls++
		}
		t.st.mu.Unlock()
		if resp.StatusCode != http.StatusOK {
			return resp, nil
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		resp.Body = io.NopCloser(bytes.NewReader(body))
		var a jobIDOnly
		if json.Unmarshal(body, &a) == nil {
			t.st.mu.Lock()
			t.st.assigned[a.JobID] = now
			t.st.mu.Unlock()
		}
		return resp, nil
	case "/fleet/result":
		if req.Body == nil {
			return t.base.RoundTrip(req)
		}
		body, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		var r jobIDOnly
		_ = json.Unmarshal(body, &r) // a body without a job id is simply not stamped
		clone := req.Clone(req.Context())
		clone.Body = io.NopCloser(bytes.NewReader(body))
		sent := time.Now()
		resp, err := t.base.RoundTrip(clone)
		acked := time.Now()
		if err == nil && r.JobID != "" {
			t.st.mu.Lock()
			t.st.resultSent[r.JobID] = sent
			t.st.resultAck[r.JobID] = acked
			t.st.mu.Unlock()
		}
		return resp, err
	}
	return t.base.RoundTrip(req)
}

// fleetSetup is a serve workload's set-up-only process: bring the
// deployment up, take the time, tear it down.
func fleetSetup(spec fleetSpec) func(context.Context, options) (childOut, error) {
	return func(ctx context.Context, o options) (childOut, error) {
		f, err := startFleet(ctx, spec, o.seed)
		if err != nil {
			return childOut{}, err
		}
		setup := time.Since(processStart).Seconds()
		f.close()
		return childOut{Setup: setup}, nil
	}
}

// drainLimit is how long in-flight work may take to finish after the
// timed phase; anything still unsettled then counts as lost.
const drainLimit = 20 * time.Second

// drain waits for wg, canceling the operations' context once drainLimit
// has passed, and then waits for them to return.
func drain(wg *sync.WaitGroup, cancel context.CancelFunc) {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(drainLimit):
		cancel()
		<-done
	}
}

// checkLedger is the serving gate: every admitted job settled exactly
// once and the client's bill equals the server's.
func checkLedger(out *childOut, tot serve.Totals, clientCost float64) {
	if tot.Submitted != tot.Completed+tot.Failed+tot.Canceled {
		out.problem("ledger: submitted %d != completed %d + failed %d + canceled %d",
			tot.Submitted, tot.Completed, tot.Failed, tot.Canceled)
	}
	// Relative: both sides sum the same float costs, in different orders.
	if math.Abs(clientCost-tot.CostCents) > 1e-9*math.Max(math.Abs(clientCost), math.Abs(tot.CostCents)) {
		out.problem("ledger: client cost %.12g cents != server Totals.CostCents %.12g", clientCost, tot.CostCents)
	}
	out.note("ledger: submitted %d completed %d failed %d canceled %d rejected %d cost %.6g cents",
		tot.Submitted, tot.Completed, tot.Failed, tot.Canceled, tot.Rejected, tot.CostCents)
}

// chain splits the span from the first to the last stamp into the
// contiguous intervals between consecutive stamps (ms). Stamps come from
// different goroutines and can land out of order (the orchestrator may
// hand a job to a worker before the client has read its 202), so each is
// raised to the latest before it and intervals never overlap. What the
// intervals leave of the span is returned as unattributed: zero, or
// negative when the final stamp precedes an earlier one.
func chain(ts ...time.Time) ([]float64, float64) {
	parts := make([]float64, len(ts)-1)
	at := ts[0]
	for i := range parts {
		next := ts[i+1]
		if next.Before(at) {
			next = at
		}
		parts[i] = ms(next.Sub(at))
		at = next
	}
	return parts, ms(ts[len(ts)-1].Sub(ts[0])) - ms(at.Sub(ts[0]))
}

func (s *stamps) emptyRatio() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return ratio(float64(s.emptyPolls), float64(s.polls))
}
