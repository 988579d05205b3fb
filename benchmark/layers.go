package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/uarch"
)

// layerSet holds a traced run's per-layer metrics by name.
type layerSet map[string]float64

// cacheNames are the seven core caches, as they label obs counters.
var cacheNames = []string{"mezzanine", "decoded", "parsed", "snapshot", "analysis", "ana_parsed", "ana_snapshot"}

// cacheRatios reads each core cache's hit ratio from the obs counters the
// caches keep themselves.
func (l layerSet) cacheRatios(s obs.Snapshot) {
	for _, n := range cacheNames {
		hits := s.Counters[obs.Key("core_cache_hits", "cache", n)]
		misses := s.Counters[obs.Key("core_cache_misses", "cache", n)]
		l["core.cache."+n+".hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	}
}

// stageShares splits encode time across the codec stages, from the exact
// sums of the encode_stage_*_ns histograms that StageMetrics feeds, and
// reports the part of runMs (summed core.Run time) no stage covers.
func (l layerSet) stageShares(before, after obs.Snapshot, runMs float64) {
	var total float64
	stage := make([]float64, codec.NumEncodeStages)
	for s := codec.EncodeStage(0); s < codec.NumEncodeStages; s++ {
		name := "encode_stage_" + s.String() + "_ns"
		stage[s] = float64(after.Histograms[name].Sum - before.Histograms[name].Sum)
		total += stage[s]
	}
	for s := codec.EncodeStage(0); s < codec.NumEncodeStages; s++ {
		l["codec.stage."+s.String()+"_share"] = ratio(stage[s], total)
	}
	l["core.unattributed_share"] = 1 - ratio(total/1e6, runMs)
}

// probeRuns times sampled jobs with warm caches, one at a time: core.Run
// against core.EncodeOnly gives the uarch simulation's share of a run,
// and a second core.Run pass with StageMetrics on gives the codec stage
// split and the run time no stage covers.
func (l layerSet) probeRuns(ctx context.Context, jobs []core.Job) error {
	var enc, run, staged []float64
	for _, j := range jobs {
		if _, err := core.Run(ctx, j); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := core.EncodeOnly(ctx, j); err != nil {
			return err
		}
		t1 := time.Now()
		if _, err := core.Run(ctx, j); err != nil {
			return err
		}
		enc = append(enc, ms(t1.Sub(t0)))
		run = append(run, ms(time.Since(t1)))
	}
	before := obs.Default().Snapshot()
	for _, j := range jobs {
		j.StageMetrics = true
		t := time.Now()
		if _, err := core.Run(ctx, j); err != nil {
			return err
		}
		staged = append(staged, ms(time.Since(t)))
	}
	l.stageShares(before, obs.Default().Snapshot(), sumMs(staged))
	l.tails("core.run_ms", run)
	l["uarch.sim_share"] = 1 - ratio(sumMs(enc), sumMs(run))
	return nil
}

// probeLayers times the cold decode-side layers in a fresh process, per
// workload video: the mezzanine encode, its decode, the trace parse, and a
// replay of the parsed slab on every Table IV machine.
func probeLayers(ctx context.Context, ws []core.Workload) (childOut, error) {
	base := codec.Defaults()
	dopt := codec.DecoderOptions{TraceSampleLog2: base.TraceSampleLog2, Tune: base.Tune}
	var mezz, dec, parse, replay []float64
	var events int
	for _, w := range ws {
		t0 := time.Now()
		if _, err := core.Mezzanine(ctx, w); err != nil {
			return childOut{}, err
		}
		t1 := time.Now()
		_, raw, err := core.DecodedMezzanine(ctx, w, dopt)
		if err != nil {
			return childOut{}, err
		}
		t2 := time.Now()
		buf, err := trace.Parse(raw)
		if err != nil {
			return childOut{}, fmt.Errorf("parse %s decode trace: %w", w.Video, err)
		}
		mezz = append(mezz, ms(t1.Sub(t0)))
		dec = append(dec, ms(t2.Sub(t1)))
		parse = append(parse, ms(time.Since(t2)))
		events += buf.Len()
		for _, cfg := range uarch.TableIV() {
			m := uarch.NewMachine(cfg, trace.NewImage(nil))
			t := time.Now()
			m.ReplayEvents(buf)
			replay = append(replay, float64(time.Since(t).Nanoseconds())/float64(max(buf.Len(), 1)))
		}
	}
	return childOut{Layers: layerSet{
		"core.mezzanine_ms":         median(mezz),
		"core.decode_ms":            median(dec),
		"trace.parse_ms":            median(parse),
		"trace.events":              float64(events),
		"uarch.replay_ns_per_event": median(replay),
	}}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sumMs(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeWorkers is the worker-slot count: one per scheduler thread, which
// main pins to the CPU count.
func runtimeWorkers() int { return runtime.GOMAXPROCS(0) }

func (l layerSet) tails(prefix string, xs []float64) {
	s := summarize(xs)
	l[prefix+"_p50"], l[prefix+"_p99"] = s.P50, s.Tail
}
