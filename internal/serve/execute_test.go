package serve

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/queue"
	"repro/internal/sched"
	"repro/internal/uarch"
)

var (
	softwareSpec = backend.ServerSpec{Backend: backend.Software, Config: uarch.Baseline()}.FillDefaults()
	accelSpec    = backend.ServerSpec{Backend: backend.Accel}.FillDefaults()
)

// TestExecuteAccelRejectsOutsideSurface: options the fixed-function
// encoder cannot run unchanged fail on an accelerator and run on software.
func TestExecuteAccelRejectsOutsideSurface(t *testing.T) {
	opts := codec.Defaults()
	opts.Refs = 8 // beyond the accelerator's DPB
	job := core.Job{Workload: core.Workload{Video: "desktop", Frames: 2, Scale: 16}, Options: opts}
	ctx := context.Background()
	if _, _, err := Execute(ctx, accelSpec, backend.DefaultAccel(), job); !errors.Is(err, ErrAccelSurface) {
		t.Fatalf("accel err %v, want ErrAccelSurface", err)
	}
	if _, _, err := Execute(ctx, softwareSpec, backend.DefaultAccel(), job); err != nil {
		t.Fatalf("software rejected options it can run: %v", err)
	}
}

// TestExecuteAccelMatchesSoftware: for options both backends accept, the
// accelerator's stream is byte-equal to the software encode's, and its
// seconds are the closed-form model over the segment's frames.
func TestExecuteAccelMatchesSoftware(t *testing.T) {
	model := backend.DefaultAccel()
	w := core.Workload{Video: "desktop", Frames: 4, Scale: 16}
	width, height, _, err := core.ProxyDims(w)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, seg := range []codec.Segment{{}, {Start: 1, End: 3}} {
		job := core.Job{Workload: w, Options: codec.Defaults(), Segment: seg, KeepStream: true}
		sec, accel, err := Execute(ctx, accelSpec, model, job)
		if err != nil {
			t.Fatal(err)
		}
		frames := w.Frames
		if !seg.IsZero() {
			frames = seg.Len()
		}
		if want := model.Seconds(frames, width, height); sec != want {
			t.Errorf("segment %v: accel seconds %v, want %v", seg, sec, want)
		}
		if accel.Report != nil {
			t.Errorf("segment %v: accel produced a profile", seg)
		}
		softSec, soft, err := Execute(ctx, softwareSpec, model, job)
		if err != nil {
			t.Fatal(err)
		}
		if soft.Report == nil || softSec != soft.Report.Seconds {
			t.Errorf("segment %v: software seconds %v, want the profile's", seg, softSec)
		}
		if len(accel.Stream) == 0 || !bytes.Equal(accel.Stream, soft.Stream) {
			t.Errorf("segment %v: accel stream (%d B) differs from software (%d B)",
				seg, len(accel.Stream), len(soft.Stream))
		}
		job.KeepStream = false
		if _, res, err := Execute(ctx, accelSpec, model, job); err != nil || res.Stream != nil {
			t.Errorf("segment %v: accel kept a stream nobody asked for (err %v)", seg, err)
		}
	}
}

// loopbackJob builds a loopback over fleet and one ticket to start on it.
func loopbackJob(t *testing.T, fleet sched.Fleet, opts codec.Options) (*loopback, *queue.Ticket[*record]) {
	t.Helper()
	reg := obs.NewRegistry()
	l := newLoopback(Config{Servers: fleet, Proto: tinyProto}, reg)
	q := queue.New[*record](queue.Options{Metrics: reg})
	rec := &record{task: sched.Task{Video: "desktop"}, opts: opts}
	tk, err := q.Submit(context.Background(), rec, queue.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return l, tk
}

// startAndWait starts the ticket on the loopback's first slot and returns
// the one outcome it finishes with.
func startAndWait(t *testing.T, l *loopback, tk *queue.Ticket[*record]) outcome {
	t.Helper()
	var calls atomic.Int32
	done := make(chan outcome, 2)
	if err := l.start(context.Background(), l.freeSlots()[0], tk, func(out outcome) {
		calls.Add(1)
		done <- out
	}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	l.close()
	if n := calls.Load(); n != 1 {
		t.Fatalf("finish called %d times, want 1", n)
	}
	if len(l.freeSlots()) != len(l.fleet) {
		t.Fatal("slot not released after the job finished")
	}
	return out
}

// TestLoopbackAccelRejectsOutsideSurface: the loopback runs the same
// executor as fleet workers, so it rejects options the accelerator cannot
// run instead of encoding them anyway.
func TestLoopbackAccelRejectsOutsideSurface(t *testing.T) {
	opts := codec.Defaults()
	opts.Refs = 8
	l, tk := loopbackJob(t, sched.Fleet{accelSpec}, opts)
	out := startAndWait(t, l, tk)
	if !errors.Is(out.err, ErrAccelSurface) || out.spec.Backend != backend.Accel {
		t.Fatalf("outcome %+v, want ErrAccelSurface on the accelerator", out)
	}
}

// TestLoopbackPanicSettlesFailed: a panicking job is contained, finishes
// exactly once with an error, and frees its slot.
func TestLoopbackPanicSettlesFailed(t *testing.T) {
	l, tk := loopbackJob(t, sched.Fleet{softwareSpec}, codec.Defaults())
	l.execute = func(context.Context, backend.ServerSpec, backend.AccelModel, core.Job) (float64, *core.Result, error) {
		panic("boom")
	}
	out := startAndWait(t, l, tk)
	if out.err == nil || !strings.Contains(out.err.Error(), "panicked") {
		t.Fatalf("outcome err %v, want the recovered panic", out.err)
	}
}

// TestLoopbackCloseWaitsForInflight: close returns only once every
// started job has finished.
func TestLoopbackCloseWaitsForInflight(t *testing.T) {
	l, tk := loopbackJob(t, sched.Fleet{softwareSpec}, codec.Defaults())
	release := make(chan struct{})
	l.execute = func(context.Context, backend.ServerSpec, backend.AccelModel, core.Job) (float64, *core.Result, error) {
		<-release
		return 1, &core.Result{}, nil
	}
	var finished atomic.Bool
	if err := l.start(context.Background(), l.freeSlots()[0], tk, func(outcome) { finished.Store(true) }); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		l.close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("close returned while a job was running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("close returned before the job finished")
	}
}

// TestLoopbackStartObservesCancel: a start under a canceled context
// delivers nothing (the dispatcher requeues) and leaves the slot free.
func TestLoopbackStartObservesCancel(t *testing.T) {
	l, tk := loopbackJob(t, sched.Fleet{softwareSpec}, codec.Defaults())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := l.start(ctx, l.freeSlots()[0], tk, func(outcome) { t.Error("finish called for an undelivered job") })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("start err %v, want context.Canceled", err)
	}
	if len(l.freeSlots()) != 1 {
		t.Fatal("canceled start left the slot busy")
	}
}
