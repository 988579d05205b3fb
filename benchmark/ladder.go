package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/uarch"
)

// Every title is encoded at three rungs, each split into
// four independently placed segments, at frames 8 scale 16.
var (
	ladderRungs    = []serve.Rung{{Name: "crf23", CRF: 23}, {Name: "crf31", CRF: 31}, {Name: "crf39", CRF: 39}}
	ladderSegments = 4
	ladderProto    = core.Workload{Frames: 8, Scale: 16}
)

const ladderClients = 2

// title is one source a client transcodes into the full ladder. Presets
// up to medium and refs up to 4 stay inside the accelerator's option
// surface, so every part may be placed on either backend.
type title struct {
	video  string
	preset codec.Preset
	refs   int
}

// ladderCatalog is the titles clients request: videos across the
// entropy range, each with one preset and refs count. It is the same for
// every seed (the seed orders the requests): a per-seed catalog of eight
// titles moved throughput by ~25% between seeds, from which videos it
// happened to draw.
var ladderCatalog = []title{
	{"desktop", codec.PresetMedium, 4},
	{"presentation", codec.PresetUltrafast, 2},
	{"cricket", codec.PresetFast, 3},
	{"game1", codec.PresetVeryfast, 1},
	{"girl", codec.PresetMedium, 2},
	{"chicken", codec.PresetFast, 1},
	{"holi", codec.PresetVeryfast, 4},
	{"hall", codec.PresetUltrafast, 3},
}

func ladderTitles(tiny bool) []title {
	if tiny {
		return ladderCatalog[:2]
	}
	return ladderCatalog
}

func ladderSpec(titles []title) fleetSpec {
	var videos []string
	for _, t := range titles {
		videos = append(videos, t.video)
	}
	return fleetSpec{
		objective: sched.ObjectiveCost,
		proto:     ladderProto,
		warm:      videos,
		workers: []workerSpec{
			{id: "w-baseline", backend: backend.Software, config: uarch.Baseline()},
			{id: "w-accel", backend: backend.Accel},
		},
	}
}

func ladderSetup(ctx context.Context, o options) (childOut, error) {
	return fleetSetup(ladderSpec(ladderTitles(o.tiny)))(ctx, o)
}

// titleRun is one closed-loop request: submit, wait for the parent, fetch
// every rung's rendition.
type titleRun struct {
	t                          title
	sent, admitted, ready, end time.Time
	fetch                      []float64 // per-rung GET ms
	fetchAt                    []time.Time
	view                       serve.JobView
	hashes                     [][32]byte
	traced                     bool
	err                        error
}

func ladderRun(ctx context.Context, o options) (childOut, error) {
	titles := ladderTitles(o.tiny)
	f, err := startFleet(ctx, ladderSpec(titles), o.seed)
	if err != nil {
		return childOut{}, err
	}
	out := childOut{Setup: time.Since(processStart).Seconds()}
	window := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	half := start.Add(window / 2)
	deadline := start.Add(window)

	jobCtx, cancelJobs := context.WithCancel(ctx)
	defer cancelJobs()
	var mu sync.Mutex
	var runs []*titleRun
	var wg sync.WaitGroup
	// Clients walk one seeded permutation of the catalog round-robin, half
	// a catalog apart, so every seed requests each title equally often.
	perm := newStream(o.seed, purposeTitles).perm(len(titles))
	for c := 0; c < ladderClients; c++ {
		next := c * len(titles) / ladderClients
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := &titleRun{t: titles[perm[next%len(perm)]]}
				next++
				r.traced = o.trace && !time.Now().Before(half)
				if r.traced {
					f.stamps.on.Store(true)
				}
				f.runTitle(jobCtx, r)
				mu.Lock()
				runs = append(runs, r)
				mu.Unlock()
				if r.err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(time.Until(deadline))
	drain(&wg, cancelJobs)
	f.close()
	tot := f.srv.Totals()

	var clientCost float64
	var last time.Time
	for _, r := range runs {
		out.Attempted++
		if r.err != nil {
			out.Failed++
			out.problem("title %s: %v", r.t.video, r.err)
			continue
		}
		clientCost += r.view.CostCents
		if r.traced {
			continue
		}
		out.Ops++
		out.Lat = append(out.Lat, ms(r.end.Sub(r.sent)))
		out.SimUs += r.view.SimSeconds * 1e6
		out.CostUc += r.view.CostCents * 1e6
		if r.end.After(last) {
			last = r.end
		}
	}
	out.Wall = last.Sub(start).Seconds()
	checkLedger(&out, tot, clientCost)
	wrong, err := checkRenditions(ctx, runs)
	if err != nil {
		return out, err
	}
	out.Failed += wrong
	if wrong > 0 {
		out.problem("%d renditions differ from the serial segmented reference", wrong)
	}
	out.note("serve_ladder: %d titles over %d distinct, %d clients", len(runs), len(titles), ladderClients)
	if !o.trace {
		return out, nil
	}

	l := layerSet{}
	spans := spanLog{origin: start}
	var admit, wait, exec, settle, rend, resid, skew, soj []float64
	parts, accel := 0, 0
	for _, r := range runs {
		if !r.traced || r.err != nil {
			continue
		}
		soj = append(soj, ms(r.end.Sub(r.sent)))
		rend = append(rend, r.fetch...)
		id := r.view.ID
		spans.add(id, "title", "", r.sent, r.end)
		spans.add(id, "serve.admit", "title", r.sent, r.admitted)
		spans.add(id, "serve.wait_parent", "title", r.admitted, r.ready)
		for k, at := range r.fetchAt {
			spans.add(id, "serve.rendition "+ladderRungs[k].Name, "title", at, at.Add(time.Duration(r.fetch[k]*1e6)))
		}
		// The critical part is the one whose result settled last; its
		// stamps split the wait for the parent.
		var crit struct{ assigned, sent, acked time.Time }
		var execs []float64
		complete := true
		for _, pid := range r.view.Parts {
			a, s, k, ok := f.stamps.lookup(pid)
			if !ok {
				complete = false
				continue
			}
			execs = append(execs, ms(s.Sub(a)))
			spans.add(id, "queue.wait "+pid, "serve.wait_parent", r.admitted, a)
			spans.add(id, "worker.exec "+pid, "serve.wait_parent", a, s)
			spans.add(id, "serve.settle "+pid, "serve.wait_parent", s, k)
			settle = append(settle, ms(k.Sub(s)))
			if k.After(crit.acked) {
				crit.assigned, crit.sent, crit.acked = a, s, k
			}
			if pv, ok := f.srv.Job(pid); ok {
				parts++
				if pv.Backend == string(backend.Accel) {
					accel++
				}
			}
		}
		if !complete || len(execs) == 0 {
			continue
		}
		sort.Float64s(execs)
		skew = append(skew, ratio(execs[len(execs)-1], median(execs)))
		segs, rsd := chain(r.sent, r.admitted, crit.assigned, crit.sent, crit.acked, r.ready, r.end)
		admit = append(admit, segs[0])
		wait = append(wait, segs[1])
		exec = append(exec, segs[2])
		resid = append(resid, rsd)
	}
	l.tails("serve.admit_ms", admit)
	l.tails("queue.wait_ms", wait)
	l.tails("worker.exec_ms", exec)
	l["serve.settle_ms_p50"] = median(settle)
	l["serve.rendition_ms_p50"] = median(rend)
	l["serve.unattributed_ms_p50"] = median(resid)
	l["ladder.part_skew"] = median(skew)
	l["backend.accel_part_share"] = ratio(float64(accel), float64(parts))
	l["fleet.empty_poll_ratio"] = f.stamps.emptyRatio()
	l["trace.overhead_share"] = ratio(median(soj), median(out.Lat)) - 1
	l.cacheRatios(obs.Default().Snapshot())
	out.note("serve_ladder traced: title %s; untraced %s", summarize(soj), summarize(out.Lat))

	var sample []core.Job
	for _, t := range titles {
		jobs, err := titleJobs(t)
		if err != nil {
			return out, err
		}
		sample = append(sample, jobs[0], jobs[len(jobs)-1])
	}
	if err := l.probeRuns(ctx, sample); err != nil {
		return out, err
	}
	out.Layers = l
	return out, spans.finish(&out, o)
}

// runTitle submits one ladder, waits for it and fetches every rung.
func (f *fleet) runTitle(ctx context.Context, r *titleRun) {
	r.sent = time.Now()
	v, status, err := f.submit(ctx, serve.JobRequest{
		Video: r.t.video, Preset: string(r.t.preset), Refs: r.t.refs,
		Segments: ladderSegments, Ladder: ladderRungs,
	})
	r.admitted = time.Now()
	if err == nil && status != http.StatusAccepted {
		err = fmt.Errorf("POST /jobs status %d", status)
	}
	if err != nil {
		r.err = err
		return
	}
	if r.view, err = f.srv.WaitJob(ctx, v.ID); err != nil {
		r.err = err
		return
	}
	r.ready = time.Now()
	if r.view.State != serve.StateDone {
		r.err = fmt.Errorf("job %s ended %s: %s", v.ID, r.view.State, r.view.Error)
		return
	}
	for _, rg := range ladderRungs {
		t0 := time.Now()
		b, status, err := f.get(ctx, "/jobs/"+v.ID+"/rendition?rung="+rg.Name)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("GET rendition %s: status %d: %s", rg.Name, status, b)
		}
		if err != nil {
			r.err = err
			return
		}
		r.fetch = append(r.fetch, ms(time.Since(t0)))
		r.fetchAt = append(r.fetchAt, t0)
		r.hashes = append(r.hashes, sha256.Sum256(b))
	}
	r.end = time.Now()
}

// titleJobs is the serial reference plan of one title: for each rung in
// ladder order, one core.Run job per segment, keeping the bitstream.
func titleJobs(t title) ([]core.Job, error) {
	w := ladderProto
	w.Video = t.video
	segs, err := core.SegmentsFor(w, ladderSegments)
	if err != nil {
		return nil, err
	}
	var jobs []core.Job
	for _, rg := range ladderRungs {
		opts, err := sched.Task{Video: t.video, CRF: rg.CRF, Refs: t.refs, Preset: t.preset}.Options()
		if err != nil {
			return nil, err
		}
		for _, sg := range segs {
			jobs = append(jobs, core.Job{Workload: w, Options: opts, Config: uarch.Baseline(), Segment: sg, KeepStream: true})
		}
	}
	return jobs, nil
}

// checkRenditions compares every fetched rendition with the serial
// reference of its title: core.Run per segment, then codec.StitchStreams.
// It returns how many fetched renditions differ.
func checkRenditions(ctx context.Context, runs []*titleRun) (int, error) {
	refs := map[title][][32]byte{}
	wrong := 0
	for _, r := range runs {
		if r.err != nil {
			continue
		}
		want, ok := refs[r.t]
		if !ok {
			jobs, err := titleJobs(r.t)
			if err != nil {
				return 0, err
			}
			per := len(jobs) / len(ladderRungs)
			for k := range ladderRungs {
				var streams [][]byte
				for _, j := range jobs[k*per : (k+1)*per] {
					res, err := core.Run(ctx, j)
					if err != nil {
						return 0, err
					}
					streams = append(streams, res.Stream)
				}
				b, err := codec.StitchStreams(streams)
				if err != nil {
					return 0, err
				}
				want = append(want, sha256.Sum256(b))
			}
			refs[r.t] = want
		}
		for k := range want {
			if r.hashes[k] != want[k] {
				wrong++
			}
		}
	}
	return wrong, nil
}

func ladderProbeWorkloads(o options) []core.Workload {
	var ws []core.Workload
	seen := map[string]bool{}
	for _, t := range ladderTitles(o.tiny) {
		if !seen[t.video] {
			seen[t.video] = true
			w := ladderProto
			w.Video = t.video
			ws = append(ws, w)
		}
	}
	return ws
}
