// Package uarch implements the trace-driven microarchitecture simulator the
// experiments run on: a Sniper-style interval core model fed by the
// instrumented codec's event stream, with structural caches, iTLB and
// branch predictors underneath. Machine implements trace.Sink; Result
// carries the counters that internal/perf turns into Top-down slot
// fractions and MPKI, the quantities the paper reports.
package uarch

import "repro/internal/uarch/cache"

// CacheParams sizes one level.
type CacheParams struct {
	Size  int
	Line  int
	Assoc int
}

// Config is one microarchitecture configuration (a Table IV row).
type Config struct {
	Name string

	L1D CacheParams
	L1I CacheParams
	L2  CacheParams
	L3  CacheParams
	L4  *CacheParams // nil when absent

	ITLBEntries int
	ROBSize     int
	RSSize      int
	// IssueAtDispatch lets micro-ops issue the cycle they dispatch,
	// shortening the schedule and easing reservation-station pressure.
	IssueAtDispatch bool
	Predictor       string // "pentium_m" or "tage"
	// NextLinePrefetch enables a simple ascending-stream L1d prefetcher.
	// Off in every Table IV configuration; pf_op (an extension beyond the
	// paper) turns it on to show where a prefetch-optimized server would
	// land in the scheduling study.
	NextLinePrefetch bool

	// Fixed pipeline parameters (identical across Table IV rows).
	WidthUops     int     // pipeline width in micro-ops per cycle
	FreqGHz       float64 // core clock
	BranchPenalty int     // mispredict flush cycles

	// Access latencies (cycles) for a hit in each level.
	LatL2, LatL3, LatL4, LatMem int
}

// ConfigKey is a Config in comparable value form, for keying caches of
// machine state. Config holds L4 by pointer, so == on two separately built
// but identical configurations (two BeOp1() calls) compares the pointers
// and fails; the key holds L4 by value instead, a zero Size meaning absent.
type ConfigKey struct {
	cfg Config // L4 always nil
	l4  CacheParams
}

// Key returns the comparable value form of c.
func (c Config) Key() ConfigKey {
	k := ConfigKey{cfg: c}
	if c.L4 != nil {
		k.cfg.L4, k.l4 = nil, *c.L4
	}
	return k
}

// Baseline returns the default configuration, Sniper's Gainestown model as
// published in Table IV: 32K L1s, 256K L2, 8M L3, 128-entry iTLB, 128-entry
// ROB, 36-entry RS, no issue-at-dispatch, Pentium M branch predictor.
func Baseline() Config {
	return Config{
		Name: "baseline",
		L1D:  CacheParams{32 << 10, 64, 8},
		L1I:  CacheParams{32 << 10, 64, 8},
		L2:   CacheParams{256 << 10, 64, 8},
		L3:   CacheParams{8192 << 10, 64, 16},

		ITLBEntries:     128,
		ROBSize:         128,
		RSSize:          36,
		IssueAtDispatch: false,
		Predictor:       "pentium_m",

		WidthUops:     4,
		FreqGHz:       3.5,
		BranchPenalty: 14,
		LatL2:         12,
		LatL3:         38,
		LatL4:         70,
		LatMem:        190,
	}
}

// FeOp is optimized against front-end stalls: doubled L1i and iTLB.
func FeOp() Config {
	c := Baseline()
	c.Name = "fe_op"
	c.L1I.Size = 64 << 10
	c.ITLBEntries = 256
	return c
}

// BeOp1 attacks back-end memory stalls with capacity: doubled L1d and L2,
// halved L3 backed by a new 16M L4.
func BeOp1() Config {
	c := Baseline()
	c.Name = "be_op1"
	c.L1D.Size = 64 << 10
	c.L2.Size = 512 << 10
	c.L3.Size = 4096 << 10
	c.L4 = &CacheParams{16384 << 10, 64, 16}
	return c
}

// BeOp2 attacks back-end core stalls with pipeline resources: doubled ROB
// and RS plus issue-at-dispatch.
func BeOp2() Config {
	c := Baseline()
	c.Name = "be_op2"
	c.ROBSize = 256
	c.RSSize = 72
	c.IssueAtDispatch = true
	return c
}

// BsOp replaces the Pentium M predictor with TAGE to cut bad speculation.
func BsOp() Config {
	c := Baseline()
	c.Name = "bs_op"
	c.Predictor = "tage"
	return c
}

// PfOp is an extension configuration beyond Table IV: the baseline plus a
// next-line L1d stream prefetcher, targeting the streaming portion of the
// memory-bound stalls.
func PfOp() Config {
	c := Baseline()
	c.Name = "pf_op"
	c.NextLinePrefetch = true
	return c
}

// TableIV lists the five configurations in paper order.
func TableIV() []Config {
	return []Config{Baseline(), FeOp(), BeOp1(), BeOp2(), BsOp()}
}

// Extended returns Table IV plus the extension configurations.
func Extended() []Config {
	return append(TableIV(), PfOp())
}

// ByName returns the configuration (Table IV or extension) with the given
// name.
func ByName(name string) (Config, bool) {
	for _, c := range Extended() {
		if c.Name == name {
			return c, true
		}
	}
	return Config{}, false
}

func (p CacheParams) cacheConfig(name string) cache.Config {
	return cache.Config{Name: name, Size: p.Size, LineSize: p.Line, Assoc: p.Assoc}
}
