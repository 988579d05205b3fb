package codec

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/trace"
)

// finalSink is a trace sink whose collection is observable: the padding
// gives it a heap identity of its own (finalizers are not guaranteed on
// zero-size objects), and its finalizer closes a channel.
type finalSink struct {
	trace.Nop
	_ [64]byte
}

// TestEncodeAllStatsDoNotPinEncoder holds only the *Stats EncodeAll
// returns and checks that the encoder — observed through the trace sink it
// references — becomes unreachable. In a simulated job the sink is a
// uarch.Machine with every cache array, so stats that point into the
// encoder pin megabytes per finished sweep point.
func TestEncodeAllStatsDoNotPinEncoder(t *testing.T) {
	frames := makeClip(t, "bike", 3, 8)
	collected := make(chan struct{})
	stats := func() *Stats {
		sink := &finalSink{}
		runtime.SetFinalizer(sink, func(*finalSink) { close(collected) })
		enc, err := NewEncoder(frames[0].Width, frames[0].Height, 30, Defaults(), sink)
		if err != nil {
			t.Fatal(err)
		}
		_, st, err := enc.EncodeAll(frames)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	deadline := time.Now().Add(10 * time.Second)
	for done := false; !done; {
		runtime.GC()
		select {
		case <-collected:
			done = true
		case <-time.After(10 * time.Millisecond):
			if time.Now().After(deadline) {
				t.Fatal("trace sink never collected: the returned *Stats keeps the encoder reachable")
			}
		}
	}
	if len(stats.Frames) != len(frames) || stats.TotalBits == 0 {
		t.Fatalf("stats lost with the encoder: %d frames, %d bits", len(stats.Frames), stats.TotalBits)
	}
}
