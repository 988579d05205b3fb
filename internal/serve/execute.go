package serve

import (
	"context"
	"errors"

	"repro/internal/backend"
	"repro/internal/core"
)

// ErrAccelSurface rejects a job whose options the fixed-function encoder
// cannot run unchanged. Placement never sends such a job to an accelerator,
// so an arrival is a real error worth surfacing.
var ErrAccelSurface = errors.New("serve: options outside the accelerator's surface")

// Execute runs one placed job on a server of the given spec and returns its
// service seconds with the encode result. It is the one executor behind
// both transports: the in-process loopback and the fleet worker.
//
// A software server runs core.Run: the encode drives the uarch simulation
// of spec.Config and the seconds are the simulated ones (res.Report holds
// the full profile). An accelerator checks the job against the
// accelerator's option surface, encodes with no simulation attached (the
// same bits, no profile) and takes its seconds from the accelerator's
// closed-form model over the frames of the job's segment. On either
// backend res.Stream is set only when job.KeepStream is.
func Execute(ctx context.Context, spec backend.ServerSpec, accel backend.AccelModel, job core.Job) (float64, *core.Result, error) {
	if spec.Backend != backend.Accel {
		job.Config = spec.Config
		res, err := core.Run(ctx, job)
		if err != nil {
			return 0, nil, err
		}
		return res.Report.Seconds, res, nil
	}
	if !accel.Accepts(job.Options) {
		return 0, nil, ErrAccelSurface
	}
	width, height, frames, err := core.ProxyDims(job.Workload)
	if err != nil {
		return 0, nil, err
	}
	if !job.Segment.IsZero() {
		frames = job.Segment.Len()
	}
	res, err := core.EncodeOnly(ctx, job)
	if err != nil {
		return 0, nil, err
	}
	if !job.KeepStream {
		res.Stream = nil // core.Run's contract: the stream only on request
	}
	return accel.Seconds(frames, width, height), res, nil
}
