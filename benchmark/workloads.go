package main

import (
	"context"

	"repro/internal/core"
	"repro/internal/vbench"
)

// workload is one benchmark workload: what a set-up-only process does,
// what a measured process does, how the parent schedules measured
// processes, and which videos the cold layer probe covers.
type workload struct {
	setupOnly      func(context.Context, options) (childOut, error)
	run            func(context.Context, options) (childOut, error)
	measure        func(context.Context, options) ([]childOut, error)
	probeWorkloads func(options) []core.Workload
}

var workloads = map[string]*workload{
	"sweep": {
		setupOnly:      sweepSetup,
		run:            sweepRun,
		measure:        sweepMeasure,
		probeWorkloads: sweepProbeWorkloads,
	},
	"serve_mixed": {
		setupOnly:      fleetSetup(mixedSpec()),
		run:            mixedRun,
		measure:        measureOnce,
		probeWorkloads: mixedProbeWorkloads,
	},
	"serve_ladder": {
		setupOnly:      ladderSetup,
		run:            ladderRun,
		measure:        measureOnce,
		probeWorkloads: ladderProbeWorkloads,
	},
}

// measureOnce runs the timed phase in one fresh process; a traced run
// traces the second half of it.
func measureOnce(ctx context.Context, o options) ([]childOut, error) {
	out, err := spawn(ctx, o, "run")
	if err != nil {
		return nil, err
	}
	return []childOut{out}, nil
}

func mixedProbeWorkloads(options) []core.Workload {
	var ws []core.Workload
	for _, v := range vbench.Names() {
		ws = append(ws, core.Workload{Video: v, Frames: 4, Scale: 16})
	}
	return ws
}
