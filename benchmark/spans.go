package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share Trace; Parent names the span that encloses this one.
type span struct {
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the timed phase began
	End    int64  `json:"end_ns"`
}

// spanLog keeps a traced run's spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	spans  []span
}

func (l *spanLog) add(trace, name, parent string, start, end time.Time) {
	l.spans = append(l.spans, span{trace, name, parent,
		start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
}

// write stores the spans as JSON lines under .bench_build/spans in the
// working directory and returns the file's path.
func (l *spanLog) write(workload string, seed uint64) (string, error) {
	dir := filepath.Join(".bench_build", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// finish writes the spans and notes where they went.
func (l *spanLog) finish(out *childOut, o options) error {
	path, err := l.write(o.workload, o.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	out.note("%d spans written to %s", len(l.spans), path)
	return nil
}
