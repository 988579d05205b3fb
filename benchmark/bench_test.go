package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The workloads run their phases in fresh processes of the running
	// binary; under test that binary is the test binary itself.
	if len(os.Args) > 1 && os.Args[1] == childMarker {
		os.Exit(realMain(os.Args[2:], os.Stdout))
	}
	testChild = true
	os.Exit(m.Run())
}

// TestSeedsDistinct: neighbouring seeds must give unrelated inputs. The
// raw generators this replaces collide: cmd/loadgen's gap hashes seed^i
// (seeds 1-4 give one gap multiset, reordered) and sched.GenerateTasks
// seeds with seed|1 (seeds 2k and 2k+1 give one task list).
func TestSeedsDistinct(t *testing.T) {
	const n = 64
	for a := uint64(1); a <= 16; a++ {
		for b := a + 1; b <= 16; b++ {
			if reflect.DeepEqual(arrivals(a, n, time.Second), arrivals(b, n, time.Second)) {
				t.Errorf("seeds %d and %d give the same arrival schedule", a, b)
			}
			if reflect.DeepEqual(taskMix(a, n), taskMix(b, n)) {
				t.Errorf("seeds %d and %d give the same task list", a, b)
			}
		}
	}
	if !reflect.DeepEqual(arrivals(7, n, time.Second), arrivals(7, n, time.Second)) ||
		!reflect.DeepEqual(taskMix(7, n), taskMix(7, n)) {
		t.Error("one seed gives two different input sets")
	}
}

type declared struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func units(decl []metricDecl) map[string]string {
	m := map[string]string{}
	for _, d := range decl {
		m[d.name] = d.unit
	}
	return m
}

// TestSelfTest runs every workload, untraced and traced, at a tiny size:
// the correctness gates must pass and the result line must carry exactly
// the metrics BENCHMARK.json declares, with their units.
func TestSelfTest(t *testing.T) {
	d := readDeclared(t)
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range d.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range d.PerLayer {
		layer[m.Name] = m.Unit
	}
	if !reflect.DeepEqual(e2e, units(endToEnd)) {
		t.Errorf("end_to_end in BENCHMARK.json %v != reported %v", e2e, units(endToEnd))
	}
	if !reflect.DeepEqual(layer, units(perLayer)) {
		t.Errorf("per_layer in BENCHMARK.json %v != reported %v", layer, units(perLayer))
	}
	for _, w := range d.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, which the benchmark lacks", w.Name)
		}
	}
	// Every workload runs, including serve_mixed, which BENCHMARK.json
	// leaves out of the gated set.
	for _, name := range workloadNames() {
		for _, tr := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace%d", name, tr), func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", name, "--seed", "3", "--seconds", "2",
					"--trace", fmt.Sprint(tr), "--tiny"}
				code := realMain(args, &out)
				t.Log(out.String())
				if code != 0 {
					t.Fatalf("exit code %d", code)
				}
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("correct %v attempted %d failed %d", res.Correct, res.Attempted, res.Failed)
				}
				want := map[bool]map[string]string{false: e2e, true: layer}[tr == 1]
				got := map[string]string{}
				for n, m := range res.Metrics {
					got[n] = m.Unit
					if tr == 0 && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", n, m.Value)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("reported metrics %v, declared %v", got, want)
				}
			})
		}
	}
}
