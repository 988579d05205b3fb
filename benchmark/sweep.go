package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/uarch"
)

// sweepGrid is the §III-C1 characterization: videos x crf x refs x uarch
// configurations, every point a full transcode with simulation.
type sweepGrid struct {
	videos        []string
	crfs, refs    []int
	configs       []uarch.Config
	frames, scale int
}

// The three videos span the catalog's entropy range (desktop 0.2,
// cricket 3.4, holi 7.0), so encode cost per point varies by ~10x.
var fullGrid = sweepGrid{
	videos:  []string{"desktop", "cricket", "holi"},
	crfs:    []int{15, 23, 31, 39},
	refs:    []int{1, 2, 4, 8},
	configs: uarch.TableIV(),
	frames:  6, scale: 8,
}

var tinyGrid = sweepGrid{
	videos:  []string{"desktop"},
	crfs:    []int{31, 39},
	refs:    []int{1},
	configs: []uarch.Config{uarch.Baseline(), uarch.FeOp()},
	frames:  2, scale: 16,
}

func gridFor(o options) sweepGrid {
	if o.tiny {
		return tinyGrid
	}
	return fullGrid
}

// sweepDigests pins the simulated statistics and bitstream sizes of every
// point of each grid. A simulator-only speedup must leave them
// bit-identical. The seed only orders the points, so one digest per grid
// holds for every seed.
var sweepDigests = map[string]string{
	"full": "8c66a2f7fb76b16d85cfea3c41088f4cfba35179ec7fcf0721807aebdd49ba76",
	"tiny": "81a3b3c0e547bcf5e0ae302e6630d06a79d98652c63a732f4dc4cc66b0178eef",
}

type sweepPoint struct {
	job core.Job
	pt  core.Point
}

// sweepPlan expands the grid in canonical order (video, config, crf,
// refs), lists the decode-cache entries to warm, and returns the seeded
// order the points are issued in. The grid itself is the paper's and does
// not vary: content differs enough between synthetic-content seeds to move
// throughput by ~15%, which would drown the run-to-run noise this
// workload exists to resolve.
func sweepPlan(g sweepGrid, seed uint64) ([]sweepPoint, []core.WarmTarget, []int) {
	base := codec.Defaults()
	dopt := codec.DecoderOptions{TraceSampleLog2: base.TraceSampleLog2, Tune: base.Tune}
	var pts []sweepPoint
	var warm []core.WarmTarget
	for _, v := range g.videos {
		w := core.Workload{Video: v, Frames: g.frames, Scale: g.scale}
		for _, cfg := range g.configs {
			warm = append(warm, core.WarmTarget{Workload: w, Decoder: dopt, Config: cfg})
			for _, crf := range g.crfs {
				for _, rf := range g.refs {
					opt := base
					opt.RC, opt.CRF, opt.Refs = codec.RCCRF, crf, rf
					pts = append(pts, sweepPoint{
						job: core.Job{Workload: w, Options: opt, Config: cfg},
						pt:  core.Point{Video: v, CRF: crf, Refs: rf},
					})
				}
			}
		}
	}
	return pts, warm, newStream(seed, purposeOrder).perm(len(pts))
}

func sweepDigest(plan []sweepPoint, pts core.Points) string {
	h := sha256.New()
	for i, p := range pts {
		fmt.Fprintf(h, "%s|%d|%d|%s|", p.Video, p.CRF, p.Refs, plan[i].job.Config.Name)
		if p.Report != nil && p.Stats != nil {
			fmt.Fprintf(h, "%+v|%+v\n", *p.Report, *p.Stats)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// warmSweep is the set-up of a cold sweep process: the Plan.Warm phase,
// run through core.Sweep as a plan with no points.
func warmSweep(ctx context.Context, warm []core.WarmTarget) error {
	return core.Sweep(ctx, core.Plan{Warm: warm}).FirstErr()
}

func sweepSetup(ctx context.Context, o options) (childOut, error) {
	_, warm, _ := sweepPlan(gridFor(o), o.seed)
	if err := warmSweep(ctx, warm); err != nil {
		return childOut{}, err
	}
	return childOut{Setup: time.Since(processStart).Seconds()}, nil
}

// sweepRun is one cold sweep process: warm, then every point through
// core.Sweep on the exec pool. Points are issued as single-point plans by
// GOMAXPROCS goroutines, which is how core.Sweep's own pool pulls
// them, so each point's latency is observable from outside.
func sweepRun(ctx context.Context, o options) (childOut, error) {
	g := gridFor(o)
	plan, warm, order := sweepPlan(g, o.seed)
	if err := warmSweep(ctx, warm); err != nil {
		return childOut{}, err
	}
	out := childOut{Setup: time.Since(processStart).Seconds(), Attempted: len(plan)}

	before := obs.Default().Snapshot()
	lat := make([]float64, len(plan))
	starts := make([]time.Time, len(plan))
	pts := make(core.Points, len(plan))
	var next atomic.Int64
	var wg sync.WaitGroup
	workers := runtimeWorkers()
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= len(order) {
					return
				}
				i := order[k]
				t0 := time.Now()
				starts[i] = t0
				res := core.Sweep(ctx, core.Plan{
					N: 1,
					Build: func(int) (core.Job, core.Point, error) {
						job := plan[i].job
						job.StageMetrics = o.trace
						return job, plan[i].pt, nil
					},
					Opts: core.SweepOpts{StageMetrics: o.trace},
				})
				lat[i] = ms(time.Since(t0))
				pts[i] = res[0]
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after := obs.Default().Snapshot()

	for i, p := range pts {
		if p.Err != nil {
			out.Failed++
			out.problem("sweep point %d (%s crf %d refs %d %s): %v", i, p.Video, p.CRF, p.Refs, plan[i].job.Config.Name, p.Err)
			continue
		}
		out.Ops++
		out.SimUs += p.Report.Seconds * 1e6
		spec := backend.ServerSpec{Backend: backend.Software, Config: plan[i].job.Config}.FillDefaults()
		out.CostUc += spec.CostCents(p.Report.Seconds) * 1e6
	}
	out.Wall = wall.Seconds()
	out.Lat = lat
	key := map[bool]string{false: "full", true: "tiny"}[o.tiny]
	got := sweepDigest(plan, pts)
	out.note("sweep digest %s = %s", key, got)
	if want := sweepDigests[key]; got != want {
		out.problem("sweep digest %s: got %s, recorded %s", key, got, want)
	}
	if !o.trace {
		return out, nil
	}

	probe := newStream(o.seed, purposeProbe)
	var sample []core.Job
	for i := 0; i < 8; i++ {
		sample = append(sample, plan[probe.intn(len(plan))].job)
	}
	l := layerSet{}
	if err := l.probeRuns(ctx, sample); err != nil {
		return out, err
	}
	// The traced sweep itself ran with StageMetrics: its stage split and
	// per-point times replace the sample's.
	l.stageShares(before, after, sumMs(lat))
	l.tails("core.run_ms", lat)
	l.cacheRatios(after)
	busy := after.CounterTotal("exec_busy_ns") - before.CounterTotal("exec_busy_ns")
	l["exec.utilization"] = float64(busy) / (float64(wall.Nanoseconds()) * float64(workers))
	out.Layers = l
	spans := spanLog{origin: start}
	for i, t0 := range starts {
		spans.add(fmt.Sprintf("point-%d", i), "core.Sweep", "", t0, t0.Add(time.Duration(lat[i]*1e6)))
	}
	return out, spans.finish(&out, o)
}

// sweepMeasure runs cold sweep processes back to back until the next one
// would overrun --seconds (at least one). A traced run makes one untraced
// and one traced process; their throughput ratio is the tracing overhead.
func sweepMeasure(ctx context.Context, o options) ([]childOut, error) {
	start := time.Now()
	var outs []childOut
	for {
		co := o
		co.trace = o.trace && len(outs) == 1
		out, err := spawn(ctx, co, "run")
		if err != nil {
			return nil, err
		}
		outs = append(outs, out)
		if o.trace {
			if len(outs) == 2 {
				untraced := float64(outs[0].Ops) / outs[0].Wall
				traced := float64(outs[1].Ops) / outs[1].Wall
				outs[1].Layers["trace.overhead_share"] = untraced/traced - 1
				return outs, nil
			}
			continue
		}
		el := time.Since(start).Seconds()
		if el+el/float64(len(outs)) > o.seconds {
			return outs, nil
		}
	}
}

func sweepProbeWorkloads(o options) []core.Workload {
	g := gridFor(o)
	var ws []core.Workload
	for _, v := range g.videos {
		ws = append(ws, core.Workload{Video: v, Frames: g.frames, Scale: g.scale})
	}
	return ws
}
