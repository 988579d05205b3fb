package sched

import (
	"math"
	"strconv"
	"testing"

	"repro/internal/perf"
	"repro/internal/uarch"
)

func TestGenerateTasksDeterministic(t *testing.T) {
	a := GenerateTasks(20, 7)
	b := GenerateTasks(20, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("task %d differs between identical seeds", i)
		}
	}
	// Neighbouring seeds must not collide (seeding with seed|1 would make
	// seeds 2k and 2k+1 draw the same list).
	lists := make([][]Task, 17)
	for seed := range lists {
		lists[seed] = GenerateTasks(20, uint64(seed))
	}
	for x := range lists {
		for y := x + 1; y < len(lists); y++ {
			if sameTasks(lists[x], lists[y]) {
				t.Errorf("seeds %d and %d produced identical tasks", x, y)
			}
		}
	}
}

func sameTasks(a, b []Task) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestGenerateTasksInRange(t *testing.T) {
	for _, task := range GenerateTasks(100, 3) {
		if task.CRF < 10 || task.CRF > 44 {
			t.Fatalf("crf %d out of range", task.CRF)
		}
		if task.Refs < 1 || task.Refs > 8 {
			t.Fatalf("refs %d out of range", task.Refs)
		}
		opt, err := task.Options()
		if err != nil {
			t.Fatalf("%+v: %v", task, err)
		}
		if err := opt.Validate(); err != nil {
			t.Fatalf("%+v: %v", task, err)
		}
	}
}

func TestUniformPool(t *testing.T) {
	p := UniformPool(uarch.TableIV()[1:], 3)
	if len(p) != 12 {
		t.Fatalf("pool size %d", len(p))
	}
	counts := map[string]int{}
	for _, c := range p {
		counts[c.Name]++
	}
	for name, n := range counts {
		if n != 3 {
			t.Fatalf("%s appears %d times", name, n)
		}
	}
}

func TestAssignPoolRoutesByBottleneck(t *testing.T) {
	mk := func(fe, bs, mem, core float64) *perf.Report {
		return &perf.Report{Topdown: perf.Topdown{
			FrontEnd: fe, BadSpec: bs, MemBound: mem, CoreBound: core, BackEnd: mem + core,
		}}
	}
	tasks := GenerateTasks(4, 1)
	reports := []*perf.Report{
		mk(40, 2, 5, 3), // front-end bound
		mk(2, 40, 5, 3), // bad speculation
		mk(2, 2, 45, 3), // memory bound
		mk(2, 2, 5, 45), // core bound
	}
	// Pool with two of each relevant config.
	pool := UniformPool(uarch.TableIV()[1:], 2)
	assign, err := AssignPool(tasks, reports, pool)
	if err != nil {
		t.Fatal(err)
	}
	wantName := []string{"fe_op", "bs_op", "be_op1", "be_op2"}
	seen := map[int]bool{}
	for ti, si := range assign {
		if seen[si] {
			t.Fatalf("server %d assigned twice", si)
		}
		seen[si] = true
		if pool[si].Name != wantName[ti] {
			t.Fatalf("task %d routed to %s, want %s", ti, pool[si].Name, wantName[ti])
		}
	}
}

func TestPoolSpeedup(t *testing.T) {
	tasks := GenerateTasks(2, 2)
	pool := Pool{uarch.FeOp(), uarch.BeOp1()}
	baseline := []float64{2, 2}
	seconds := func(ti int, cfg uarch.Config) float64 {
		if cfg.Name == "fe_op" {
			return 1
		}
		return 2
	}
	// task0 -> fe_op (2x), task1 -> be_op1 (1x): mean speedup 50%.
	got := PoolSpeedup(tasks, pool, []int{0, 1}, baseline, seconds)
	if got != 50 {
		t.Fatalf("pool speedup %f", got)
	}
}

func TestAssignPoolOverloadErrors(t *testing.T) {
	tasks := GenerateTasks(3, 5)
	reports := []*perf.Report{{}, {}, {}}
	if _, err := AssignPool(tasks, reports, Pool{uarch.Baseline()}); err == nil {
		t.Fatal("3 tasks on a 1-server pool must return an error")
	}
}

func TestItoaBoundaries(t *testing.T) {
	cases := []int{0, 1, 9, 10, 99999999, 100000000, 123456789, 2147483647, -1, -100000000}
	for _, v := range cases {
		if got, want := itoa(v), strconv.Itoa(v); got != want {
			t.Errorf("itoa(%d) = %q, want %q", v, got, want)
		}
	}
	if got, want := itoa(math.MaxInt64), strconv.Itoa(math.MaxInt64); got != want {
		t.Errorf("itoa(MaxInt64) = %q, want %q", got, want)
	}
	if got, want := itoa(math.MinInt64), strconv.Itoa(math.MinInt64); got != want {
		t.Errorf("itoa(MinInt64) = %q, want %q", got, want)
	}
}
