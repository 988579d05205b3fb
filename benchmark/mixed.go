package main

import (
	"context"
	"errors"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
	"repro/internal/vbench"
)

// mixedRate is the open-loop arrival rate, about half of what two
// workers sustain on this mix, so queueing is present but bounded. The
// self-test's rate leaves room for the race detector's ~10x slowdown.
const (
	mixedRate = 20.0
	tinyRate  = 2.0
)

func mixedSpec() fleetSpec {
	return fleetSpec{
		objective: sched.ObjectiveSeconds,
		proto:     core.Workload{Frames: 4, Scale: 16},
		warm:      vbench.Names(),
		workers: []workerSpec{
			{id: "w-fe_op", backend: backend.Software, config: uarch.FeOp()},
			{id: "w-be_op1", backend: backend.Software, config: uarch.BeOp1()},
		},
	}
}

// openJob is one open-loop request: its task and the client-side stamps
// along its path.
type openJob struct {
	task                      sched.Task
	due, sent, admitted, done time.Time
	status                    int
	view                      serve.JobView
	err                       error
}

func mixedRun(ctx context.Context, o options) (childOut, error) {
	f, err := startFleet(ctx, mixedSpec(), o.seed)
	if err != nil {
		return childOut{}, err
	}
	out := childOut{Setup: time.Since(processStart).Seconds()}
	window := time.Duration(o.seconds * float64(time.Second))
	rate := mixedRate
	if o.tiny {
		rate = tinyRate
	}
	n := int(math.Round(rate * o.seconds))
	tasks := taskMix(o.seed, n)
	offs := arrivals(o.seed, n, window)

	jobs := make([]openJob, n)
	for i := range jobs {
		jobs[i].task = tasks[i]
	}
	jobCtx, cancelJobs := context.WithCancel(ctx)
	defer cancelJobs()
	start := time.Now()
	var wg sync.WaitGroup
	// The queue-depth sampler is the backlog check: depth must not trend
	// upward across the arrival window.
	var depths []float64
	sampleDone := make(chan struct{})
	go func() {
		defer close(sampleDone)
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for now := range t.C {
			if now.Sub(start) >= window {
				return
			}
			depths = append(depths, float64(f.srv.QueueDepth()))
		}
	}()
	half := -1 // first job of the traced half
	for i := range jobs {
		due := start.Add(offs[i])
		if o.trace && half < 0 && offs[i] >= window/2 {
			half = i
			f.stamps.on.Store(true)
		}
		time.Sleep(time.Until(due))
		jobs[i].due = due
		wg.Add(1)
		go func(j *openJob) {
			defer wg.Done()
			j.sent = time.Now()
			v, status, err := f.submit(jobCtx, serve.JobRequest{
				Video: j.task.Video, CRF: j.task.CRF, Refs: j.task.Refs, Preset: string(j.task.Preset),
			})
			j.admitted, j.status, j.err = time.Now(), status, err
			if err != nil || status != http.StatusAccepted {
				return
			}
			j.view, j.err = f.srv.WaitJob(jobCtx, v.ID)
			j.done = time.Now()
		}(&jobs[i])
	}
	<-sampleDone
	endDepth := f.srv.QueueDepth()
	drain(&wg, cancelJobs)
	f.close()
	after := obs.Default().Snapshot()
	tot := f.srv.Totals()

	if half < 0 {
		half = n
	}
	measured := jobs
	if o.trace {
		measured = jobs[:half]
	}
	var clientCost float64
	var last time.Time
	for i := range jobs {
		j := &jobs[i]
		out.Attempted++
		switch {
		case j.err != nil:
			out.Failed++
			out.problem("job %d: %v", i, j.err)
			continue
		case j.status != http.StatusAccepted:
			out.Failed++
			out.problem("job %d: POST /jobs status %d", i, j.status)
			continue
		case j.view.State != serve.StateDone:
			out.Failed++
			out.problem("job %s ended %s: %s", j.view.ID, j.view.State, j.view.Error)
			continue
		}
		clientCost += j.view.CostCents
		if i < len(measured) {
			out.Ops++
			out.Lat = append(out.Lat, ms(j.done.Sub(j.due)))
			if j.done.After(last) {
				last = j.done
			}
		}
	}
	out.Wall = last.Sub(start).Seconds()
	out.SimUs = tot.SimSeconds * 1e6 * float64(out.Ops) / float64(max(tot.Completed, 1))
	out.CostUc = tot.CostCents * 1e6 * float64(out.Ops) / float64(max(tot.Completed, 1))
	checkLedger(&out, tot, clientCost)
	growth := slope(depths)
	out.note("serve_mixed: %d jobs at %.0f/s, queue depth at end of arrivals %d, backlog growth %.2f jobs",
		n, rate, endDepth, growth)
	if growth > backlogLimit {
		out.problem("%v: queue depth rose by %.1f jobs over the arrival window (limit %d)", errBacklog, growth, backlogLimit)
	}
	var lag []float64
	for _, j := range measured {
		lag = append(lag, ms(j.sent.Sub(j.due)))
	}
	out.note("serve_mixed generator lag %s", summarize(lag))
	if !o.trace {
		return out, nil
	}

	l := layerSet{}
	spans := spanLog{origin: start}
	traced := jobs[half:]
	var admit, wait, exec, settle, resid, soj, lagT []float64
	smart := 0
	for _, j := range traced {
		if j.view.State != serve.StateDone {
			continue
		}
		if j.view.Mode == "smart" {
			smart++
		}
		assigned, sent, acked, ok := f.stamps.lookup(j.view.ID)
		if !ok {
			continue
		}
		id := j.view.ID
		spans.add(id, "sojourn", "", j.due, j.done)
		for k, name := range []string{"gen.lag", "serve.admit", "queue.wait", "worker.exec", "serve.settle", "serve.notify"} {
			ts := [...]time.Time{j.due, j.sent, j.admitted, assigned, sent, acked, j.done}
			spans.add(id, name, "sojourn", ts[k], ts[k+1])
		}
		parts, r := chain(j.due, j.sent, j.admitted, assigned, sent, acked, j.done)
		lagT = append(lagT, parts[0])
		admit = append(admit, parts[1])
		wait = append(wait, parts[2])
		exec = append(exec, parts[3])
		settle = append(settle, parts[4])
		resid = append(resid, r)
		soj = append(soj, ms(j.done.Sub(j.due)))
	}
	l.tails("serve.admit_ms", admit)
	l.tails("queue.wait_ms", wait)
	l.tails("worker.exec_ms", exec)
	l["serve.settle_ms_p50"] = median(settle)
	l["serve.unattributed_ms_p50"] = median(resid)
	l["gen.lag_ms_p99"] = summarize(lagT).Tail
	l["sched.smart_share"] = ratio(float64(smart), float64(len(traced)))
	l["fleet.empty_poll_ratio"] = f.stamps.emptyRatio()
	l["trace.overhead_share"] = ratio(median(soj), median(out.Lat)) - 1
	l.cacheRatios(after)
	out.note("serve_mixed traced: sojourn %s; untraced %s", summarize(soj), summarize(out.Lat))

	sample := make([]core.Job, 0, 24)
	pick := newStream(o.seed, purposeProbe)
	for len(sample) < cap(sample) {
		t := tasks[pick.intn(len(tasks))]
		opts, err := t.Options()
		if err != nil {
			return out, err
		}
		sample = append(sample, core.Job{
			Workload: core.Workload{Video: t.Video, Frames: 4, Scale: 16},
			Options:  opts, Config: uarch.FeOp(),
		})
	}
	if err := l.probeRuns(ctx, sample); err != nil {
		return out, err
	}
	out.Layers = l
	return out, spans.finish(&out, o)
}

var errBacklog = errors.New("backlog grew during the run")

// backlogLimit is how many jobs the queue may gain across the arrival
// window (least-squares trend of its sampled depth) before the offered
// load counts as over capacity and the run fails.
const backlogLimit = 4

// slope is the least-squares trend of evenly spaced samples, as the
// change it implies from the first sample to the last.
func slope(ys []float64) float64 {
	n := float64(len(ys))
	if n < 2 {
		return 0
	}
	var sx, sy, sxx, sxy float64
	for i, y := range ys {
		x := float64(i) / (n - 1) // window fraction in [0, 1]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (n*sxy - sx*sy) / (n*sxx - sx*sx)
}
