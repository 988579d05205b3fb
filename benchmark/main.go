package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start for setup_s: package variables
// initialize before main, after only the runtime's own start-up.
var processStart = time.Now()

// runBudget bounds one whole invocation, children included; the contract
// allows 180 s.
const runBudget = 170 * time.Second

// setupRepeats is how many extra fresh processes only set up, so setup_s
// is a median over several cold set-ups rather than one.
const setupRepeats = 4

func main() {
	runtime.GOMAXPROCS(runtime.NumCPU())
	os.Exit(realMain(os.Args[1:], os.Stdout))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	child    string // "", "setup", "run" or "probe"
	tiny     bool   // self-test sizes
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o options
	var tr int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&tr, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&o.child, "child", "", "internal: run one phase in this process")
	fs.BoolVar(&o.tiny, "tiny", false, "self-test sizes")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if workloads[o.workload] == nil {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if tr != 0 && tr != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", tr)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.trace = tr == 1
	return o, nil
}

func realMain(args []string, stdout io.Writer) int {
	o, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	if o.child != "" {
		out, err := runChild(ctx, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s %s: %v\n", o.workload, o.child, err)
			return 1
		}
		b, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}
	return runParent(ctx, o, stdout)
}

// childOut is what one child process hands the parent: raw samples and
// sums, which the parent pools across children.
type childOut struct {
	Setup     float64            `json:"setup_s"`
	Ops       int                `json:"ops"`
	Wall      float64            `json:"wall_s"`
	Lat       []float64          `json:"lat_ms,omitempty"`
	SimUs     float64            `json:"sim_us"`
	CostUc    float64            `json:"cost_ucents"`
	MemMB     float64            `json:"mem_mb"`
	Steal     float64            `json:"steal"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems,omitempty"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
}

func (c *childOut) problem(format string, a ...any) {
	c.Problems = append(c.Problems, fmt.Sprintf(format, a...))
}

func (c *childOut) note(format string, a ...any) {
	c.Notes = append(c.Notes, fmt.Sprintf(format, a...))
}

func runChild(ctx context.Context, o options) (childOut, error) {
	wl := workloads[o.workload]
	var (
		out childOut
		err error
	)
	switch o.child {
	case "setup":
		out, err = wl.setupOnly(ctx, o)
	case "run":
		s0, t0 := cpuTicks()
		out, err = wl.run(ctx, o)
		s1, t1 := cpuTicks()
		out.Steal = ratio(s1-s0, t1-t0)
		out.note("%s %s process: host steal %.1f%% of CPU time", o.workload, o.child, 100*out.Steal)
	case "probe":
		out, err = probeLayers(ctx, wl.probeWorkloads(o))
	default:
		return out, fmt.Errorf("unknown child phase %q", o.child)
	}
	out.MemMB = peakRSSMB()
	return out, err
}

// spawn runs one phase in a fresh process of this binary and returns what
// it reported. A fresh process is what makes every set-up and every sweep
// cold: the core caches are process-wide and never emptied.
func spawn(ctx context.Context, o options, phase string) (childOut, error) {
	exe, err := os.Executable()
	if err != nil {
		return childOut{}, err
	}
	args := []string{
		"--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[o.trace],
		"--child", phase,
	}
	if o.tiny {
		args = append(args, "--tiny")
	}
	if testChild {
		args = append([]string{childMarker}, args...)
	}
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = &buf
	if err := cmd.Run(); err != nil {
		return childOut{}, fmt.Errorf("%s phase: %w", phase, err)
	}
	var out childOut
	if err := json.Unmarshal(lastLine(buf.Bytes()), &out); err != nil {
		return childOut{}, fmt.Errorf("%s phase output: %w", phase, err)
	}
	return out, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// testChild and childMarker let the self-test re-execute the test binary
// as a child: TestMain dispatches argument lists that start with the
// marker to realMain.
var testChild bool

const childMarker = "-benchmark.child"

func runParent(ctx context.Context, o options, stdout io.Writer) int {
	wl := workloads[o.workload]
	fmt.Fprintln(stdout, "fingerprint:", fingerprint())
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %v\n", o.workload, o.seed, o.seconds, o.trace)

	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		out, err := spawn(ctx, o, "setup")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		setups = append(setups, out.Setup)
	}
	outs, err := wl.measure(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	var probe childOut
	if o.trace {
		if probe, err = spawn(ctx, o, "probe"); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}

	var (
		all                 childOut
		lat                 []float64
		wall, simUs, costUc float64
		mem, steal          float64
		layers              = map[string]float64{}
	)
	for _, c := range append(outs, probe) {
		for k, v := range c.Layers {
			layers[k] = v
		}
		all.Problems = append(all.Problems, c.Problems...)
		all.Notes = append(all.Notes, c.Notes...)
	}
	for _, c := range outs {
		setups = append(setups, c.Setup)
		all.Ops += c.Ops
		all.Attempted += c.Attempted
		all.Failed += c.Failed
		wall += c.Wall
		simUs += c.SimUs
		costUc += c.CostUc
		lat = append(lat, c.Lat...)
		mem = max(mem, c.MemMB)
		steal += c.Steal
	}
	if all.Attempted == 0 || all.Ops == 0 || wall <= 0 {
		all.Problems = append(all.Problems, "no operation completed in the timed phase")
	}
	ops := float64(max(all.Ops, 1))
	l := summarize(lat)
	e2e := map[string]float64{
		"setup_s":          median(setups),
		"mem_peak_mb":      mem,
		"throughput_per_s": float64(all.Ops) / max(wall, 1e-9),
		"latency_p50_ms":   l.P50,
	}
	// The tail is reported but not an end-to-end metric: under open-loop
	// load it is set by how the few heaviest jobs cluster in the arrival
	// order, and its run-to-run spread exceeds any usable bound.
	layers["latency.tail_ms"] = l.Tail
	// Simulated time and cost are deterministic on the sweep (its digest
	// pins them), so they are per-layer figures, not end-to-end ones.
	layers["sched.sim_us_per_op"] = simUs / ops
	layers["backend.cost_ucents_per_op"] = costUc / ops
	layers["host.steal_share"] = steal / float64(max(len(outs), 1))
	for _, n := range all.Notes {
		fmt.Fprintln(stdout, n)
	}
	fmt.Fprintf(stdout, "setup samples %v\n", setups)
	fmt.Fprintf(stdout, "latency %s\n", l)
	for _, m := range endToEnd {
		fmt.Fprintf(stdout, "%-22s %14.6g %s\n", m.name, e2e[m.name], m.unit)
	}
	fmt.Fprintf(stdout, "simulated %.6g us and %.6g ucents per operation\n", simUs/ops, costUc/ops)
	report := e2e
	decl := endToEnd
	if o.trace {
		report, decl = layers, perLayer
		for _, m := range perLayer {
			fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, layers[m.name], m.unit)
		}
	}
	seen := map[string]bool{}
	for _, p := range all.Problems {
		if !seen[p] {
			seen[p] = true
			fmt.Fprintln(stdout, "GATE FAILED:", p)
		}
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(all.Problems) == 0, max(all.Attempted, 1), all.Failed, map[string]metric{}}
	for _, m := range decl {
		res.Metrics[m.name] = metric{report[m.name], m.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1
	}
	return 0
}

// metricDecl names one reported metric; the lists mirror BENCHMARK.json
// (the self-test checks they agree).
type metricDecl struct{ name, unit string }

var endToEnd = []metricDecl{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
}

var perLayer = []metricDecl{
	{"latency.tail_ms", "ms"},
	{"core.mezzanine_ms", "ms"},
	{"core.decode_ms", "ms"},
	{"trace.parse_ms", "ms"},
	{"trace.events", "count"},
	{"uarch.replay_ns_per_event", "ns"},
	{"uarch.sim_share", "ratio"},
	{"codec.stage.lookahead_share", "ratio"},
	{"codec.stage.me_share", "ratio"},
	{"codec.stage.transform_share", "ratio"},
	{"codec.stage.entropy_share", "ratio"},
	{"codec.stage.deblock_share", "ratio"},
	{"core.run_ms_p50", "ms"},
	{"core.run_ms_p99", "ms"},
	{"core.unattributed_share", "ratio"},
	{"core.cache.mezzanine.hit_ratio", "ratio"},
	{"core.cache.decoded.hit_ratio", "ratio"},
	{"core.cache.parsed.hit_ratio", "ratio"},
	{"core.cache.snapshot.hit_ratio", "ratio"},
	{"core.cache.analysis.hit_ratio", "ratio"},
	{"core.cache.ana_parsed.hit_ratio", "ratio"},
	{"core.cache.ana_snapshot.hit_ratio", "ratio"},
	{"exec.utilization", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p99", "ms"},
	{"queue.wait_ms_p50", "ms"},
	{"queue.wait_ms_p99", "ms"},
	{"sched.smart_share", "ratio"},
	{"worker.exec_ms_p50", "ms"},
	{"worker.exec_ms_p99", "ms"},
	{"fleet.empty_poll_ratio", "ratio"},
	{"serve.settle_ms_p50", "ms"},
	{"serve.rendition_ms_p50", "ms"},
	{"ladder.part_skew", "ratio"},
	{"backend.accel_part_share", "ratio"},
	{"sched.sim_us_per_op", "us"},
	{"backend.cost_ucents_per_op", "ucents"},
	{"host.steal_share", "ratio"},
	{"gen.lag_ms_p99", "ms"},
	{"serve.unattributed_ms_p50", "ms"},
	{"trace.overhead_share", "ratio"},
}

// fingerprint identifies the machine and build a figure was measured on;
// figures are only comparable between equal fingerprints.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s rev=%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitRev())
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// gitRev reads the checked-out commit from the .git directory of the
// working directory or its parent (the benchmark runs from the repository
// root or from its own directory); "none" outside a git checkout.
func gitRev() string {
	for _, dir := range []string{".git", filepath.Join("..", ".git")} {
		head, err := os.ReadFile(filepath.Join(dir, "HEAD"))
		if err != nil {
			continue
		}
		ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
		if !isRef {
			return ref
		}
		if b, err := os.ReadFile(filepath.Join(dir, ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if b, err := os.ReadFile(filepath.Join(dir, "packed-refs")); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if h, r, ok := strings.Cut(line, " "); ok && r == ref {
					return h
				}
			}
		}
	}
	return "none"
}

// cpuTicks reads the machine-wide stolen and total CPU ticks from
// /proc/stat. Time the hypervisor gives to other guests slows every
// figure; the steal share of a run says how much.
func cpuTicks() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseFloat(f, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// peakRSSMB reads this process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
