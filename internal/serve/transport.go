package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/queue"
	"repro/internal/sched"
)

// This file is the transport half of the dispatcher split: the dispatcher
// (dispatch.go) owns admission, ordering and placement; a transport owns
// delivery and completion. Two transports exist: the in-process loopback
// below (RunComparison and single-process deployments) and the networked
// pull-based worker fleet (fleet.go). Both run a job through Execute.

// slot is one free execution slot the dispatcher can place onto. Slots are
// snapshots: a fleet slot can vanish between Free and Start (the worker
// crashed or its poll timed out), which Start reports as an error so the
// dispatcher requeues instead of losing the job.
type slot struct {
	id    string // fleet worker id (fleet slots)
	index int    // server index (loopback slots)
	label string // what JobView.Server reports (config name / worker id)
	// spec is the slot's full capability, the placement input: backend
	// kind, uarch config, hourly price, spot flag.
	spec backend.ServerSpec
	// util is the slot's reported utilization percent (fleet heartbeats;
	// loopback slots are dedicated simulated servers and report 0). The
	// dispatcher folds it into placement as a load-spreading tiebreak.
	util float64
}

// outcome is the terminal report of one dispatched attempt.
type outcome struct {
	seconds float64
	report  *perf.Report // full profile when the executor measured one
	config  string       // configuration name the attempt ran on
	// spec is the executing server's capability; the settling attempt's
	// spec prices the job (cost = seconds × price), which is what makes
	// cost accounting exactly-once — requeued attempts carry no outcome.
	spec    backend.ServerSpec
	stream  []byte // encoded bitstream when the record wanted one
	err     error
	requeue bool // the attempt died without a result: re-admit, don't fail
}

// transport abstracts how placed jobs execute.
type transport interface {
	// open starts the transport's background machinery under ctx.
	open(ctx context.Context)
	// size is the current fleet size (servers, or registered live workers).
	size() int
	// freeSlots snapshots the currently idle slots in deterministic order.
	freeSlots() []slot
	// classes snapshots the distinct live capability classes (one spec per
	// label) for deadline-admission checks; empty means no capability is
	// known yet and admission stays optimistic.
	classes() []backend.ServerSpec
	// waitFree blocks until at least one slot is free; false means ctx won.
	waitFree(ctx context.Context) bool
	// start hands one placed job to the identified slot. finish is called
	// exactly once with the outcome — unless start itself returns an error
	// (the slot vanished between freeSlots and start), in which case the
	// job was never delivered and finish is never called.
	start(ctx context.Context, sl slot, tk *queue.Ticket[*record], finish func(outcome)) error
	// close stops the transport; loopback waits for in-flight jobs.
	close()
}

// --- loopback -------------------------------------------------------------------

// loopback is the in-process transport: the fleet is simulated by running
// every placed job through Execute on its own goroutine, one busy flag per
// configured server. The free-slot set is the concurrency bound: a server
// runs one job at a time. It is the transport behind RunComparison and any
// serve instance without Fleet options.
type loopback struct {
	fleet   sched.Fleet
	accel   backend.AccelModel
	proto   core.Workload
	metrics *obs.Registry
	busySrv *obs.Gauge
	// execute runs one job; Execute outside tests.
	execute func(context.Context, backend.ServerSpec, backend.AccelModel, core.Job) (float64, *core.Result, error)

	running sync.WaitGroup // started jobs not yet finished

	mu   sync.Mutex
	cond *sync.Cond
	busy []bool
	free int
}

func newLoopback(cfg Config, reg *obs.Registry) *loopback {
	l := &loopback{
		fleet:   cfg.Servers,
		accel:   backend.DefaultAccel(),
		proto:   cfg.Proto,
		metrics: reg,
		busySrv: reg.Gauge("serve_busy_servers"),
		execute: Execute,
		busy:    make([]bool, len(cfg.Servers)),
		free:    len(cfg.Servers),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func (l *loopback) open(context.Context) {}

func (l *loopback) size() int { return len(l.fleet) }

func (l *loopback) freeSlots() []slot {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []slot
	for i, b := range l.busy {
		if !b {
			out = append(out, slot{index: i, label: l.fleet[i].Label(), spec: l.fleet[i]})
		}
	}
	return out
}

func (l *loopback) classes() []backend.ServerSpec {
	seen := make(map[string]bool)
	var out []backend.ServerSpec
	for _, spec := range l.fleet {
		if !seen[spec.Label()] {
			seen[spec.Label()] = true
			out = append(out, spec)
		}
	}
	return out
}

// waitFree blocks until at least one server is free; false means ctx
// canceled first.
func (l *loopback) waitFree(ctx context.Context) bool {
	if ctx.Done() != nil {
		defer context.AfterFunc(ctx, func() {
			l.mu.Lock()
			l.cond.Broadcast()
			l.mu.Unlock()
		})()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.free == 0 {
		if ctx.Err() != nil {
			return false
		}
		l.cond.Wait()
	}
	return true
}

// start runs the job on its own goroutine. A one-job exec.Pool.Map
// supplies the execution engine's panic containment and telemetry: a
// panicking job settles as failed instead of taking the server down.
func (l *loopback) start(ctx context.Context, sl slot, tk *queue.Ticket[*record], finish func(outcome)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	i := sl.index
	if i < 0 || i >= len(l.fleet) {
		return fmt.Errorf("serve: unknown loopback slot %d", i)
	}
	l.mu.Lock()
	if l.busy[i] {
		l.mu.Unlock()
		return fmt.Errorf("serve: loopback slot %d already busy", i)
	}
	l.busy[i] = true
	l.free--
	l.busySrv.Set(int64(len(l.fleet) - l.free))
	l.mu.Unlock()

	rec := tk.Payload()
	spec := l.fleet[i]
	w := l.proto
	w.Video = rec.task.Video
	job := core.Job{Workload: w, Options: rec.opts, Segment: rec.seg, KeepStream: rec.wantStream}
	l.running.Add(1)
	go func() {
		defer l.running.Done()
		out := outcome{config: spec.Label(), spec: spec}
		errs, _ := exec.Pool{Metrics: l.metrics}.Map(ctx, 1, func(jctx context.Context, _ int) error {
			sec, res, err := l.execute(jctx, spec, l.accel, job)
			if err == nil {
				out.seconds, out.report, out.stream = sec, res.Report, res.Stream
			}
			return err
		})
		out.err = errs[0]
		// Release before finishing: a closed-loop client that saw the job
		// settle must find the fleet capacity already restored.
		l.release(i)
		finish(out)
	}()
	return nil
}

// release returns a server to the free set.
func (l *loopback) release(i int) {
	l.mu.Lock()
	l.busy[i] = false
	l.free++
	l.busySrv.Set(int64(len(l.fleet) - l.free))
	l.cond.Broadcast()
	l.mu.Unlock()
}

// close waits for the jobs already started.
func (l *loopback) close() { l.running.Wait() }
