package cache

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// refCache is the stamp-based true-LRU cache the recency-ordered Cache
// replaced, kept as the differential oracle: each way carries a tag and
// the LRU clock value of its last touch (0 = invalid), a hit restamps the
// way, and a miss fills the way with the smallest stamp — an invalid one
// first, else the least recently used.
type refCache struct {
	setShift, tagShift uint
	setMask            uint64
	assoc              int
	tags, stamps       []uint64
	clock              uint64
	stats              Stats
}

func newRefCache(cfg Config) *refCache {
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	return &refCache{
		setShift: uint(log2(cfg.LineSize)),
		tagShift: uint(log2(sets)),
		setMask:  uint64(sets - 1),
		assoc:    cfg.Assoc,
		tags:     make([]uint64, sets*cfg.Assoc),
		stamps:   make([]uint64, sets*cfg.Assoc),
	}
}

func (r *refCache) Access(addr uint64) bool {
	r.clock++
	r.stats.Accesses++
	line := addr >> r.setShift
	base := int(line&r.setMask) * r.assoc
	tag := line >> r.tagShift
	victim, oldest := base, ^uint64(0)
	for i := base; i < base+r.assoc; i++ {
		if r.stamps[i] != 0 && r.tags[i] == tag {
			r.stamps[i] = r.clock
			return true
		}
		if r.stamps[i] < oldest {
			victim, oldest = i, r.stamps[i]
		}
	}
	r.stats.Misses++
	r.tags[victim], r.stamps[victim] = tag, r.clock
	return false
}

// diffShapes covers every associativity the simulator configures, and the
// TLB's 1-byte-line shape, at sizes small enough that random streams
// conflict and evict constantly.
var diffShapes = []Config{
	{Name: "dm", Size: 1 << 10, LineSize: 64, Assoc: 1},
	{Name: "2way", Size: 1 << 10, LineSize: 64, Assoc: 2},
	{Name: "4way", Size: 2 << 10, LineSize: 64, Assoc: 4},
	{Name: "8way", Size: 4 << 10, LineSize: 64, Assoc: 8},
	{Name: "16way", Size: 8 << 10, LineSize: 64, Assoc: 16},
	{Name: "tlb", Size: 32, LineSize: 1, Assoc: 4},
}

// checkAgainstRef replays addrs into a Cache and the reference, failing on
// the first access whose hit/miss differs and on any Stats mismatch.
func checkAgainstRef(t *testing.T, cfg Config, addrs []uint64) {
	t.Helper()
	c, r := New(cfg), newRefCache(cfg)
	for i, a := range addrs {
		if got, want := c.Access(a), r.Access(a); got != want {
			t.Fatalf("%s: access %d (addr %#x): hit=%v, reference %v", cfg.Name, i, a, got, want)
		}
	}
	if c.Stats() != r.stats {
		t.Fatalf("%s: stats %+v, reference %+v", cfg.Name, c.Stats(), r.stats)
	}
}

// diffStream draws addresses with the locality mix the simulator feeds its
// caches: repeats of the previous line, revisits of a small hot pool, and
// cold addresses across a range a few times the cache's reach.
func diffStream(rng *rand.Rand, cfg Config, n int) []uint64 {
	span := uint64(cfg.Size) * 4
	hot := make([]uint64, cfg.Assoc*3)
	for i := range hot {
		hot[i] = rng.Uint64() % span
	}
	out := make([]uint64, n)
	var prev uint64
	for i := range out {
		switch k := rng.Intn(10); {
		case k < 2:
			out[i] = prev + uint64(rng.Intn(cfg.LineSize))
		case k < 6:
			out[i] = hot[rng.Intn(len(hot))]
		default:
			out[i] = rng.Uint64() % span
		}
		prev = out[i]
	}
	return out
}

func TestCacheMatchesReferenceLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range diffShapes {
		for round := 0; round < 20; round++ {
			checkAgainstRef(t, cfg, diffStream(rng, cfg, 5000))
		}
	}
}

// TestCacheCloneMatchesReference checks that a clone continues exactly
// where its source stopped, and that the source is unaffected by it.
func TestCacheCloneMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, cfg := range diffShapes {
		c, r := New(cfg), newRefCache(cfg)
		for _, a := range diffStream(rng, cfg, 2000) {
			c.Access(a)
			r.Access(a)
		}
		n := c.Clone()
		tail := diffStream(rng, cfg, 2000)
		for i, a := range tail {
			if got, want := n.Access(a), r.Access(a); got != want {
				t.Fatalf("%s: clone access %d: hit=%v, reference %v", cfg.Name, i, got, want)
			}
		}
		if n.Stats() != r.stats {
			t.Fatalf("%s: clone stats %+v, reference %+v", cfg.Name, n.Stats(), r.stats)
		}
		if c.Stats().Accesses != 2000 {
			t.Fatalf("%s: source saw the clone's accesses: %+v", cfg.Name, c.Stats())
		}
	}
}

// FuzzCacheLRU drives every differential shape with an arbitrary address
// stream: each 8 bytes of input is one address, taken modulo a span a few
// times the cache's reach so lines collide, or whole when the span byte
// asks for it so the top of the address space is exercised too.
func FuzzCacheLRU(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(4), uint8(1), []byte("\x00\x00\x00\x00\x00\x00\x00\x00\x40\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(5), uint8(255), []byte("\xff\xff\xff\xff\xff\xff\xff\xff\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Fuzz(func(t *testing.T, shape, spanLog uint8, data []byte) {
		cfg := diffShapes[int(shape)%len(diffShapes)]
		addrs := make([]uint64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			a := binary.LittleEndian.Uint64(data)
			if spanLog < 255 {
				a %= uint64(cfg.Size) << (spanLog % 4)
			}
			addrs = append(addrs, a)
		}
		checkAgainstRef(t, cfg, addrs)
	})
}

func TestSizeBytesCountsTagArray(t *testing.T) {
	small := New(Config{Name: "s", Size: 32 << 10, LineSize: 64, Assoc: 8})
	big := New(Config{Name: "b", Size: 64 << 10, LineSize: 64, Assoc: 8})
	// 8 bytes per way: doubling capacity adds (64K-32K)/64 ways.
	if d := big.SizeBytes() - small.SizeBytes(); d != (32<<10)/64*8 {
		t.Fatalf("size delta %d", d)
	}
	if tlb := NewTLB("itlb", 128, 4, 4096); tlb.SizeBytes() <= 128*8 {
		t.Fatalf("tlb size %d", tlb.SizeBytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, LineSize: 64, Assoc: 2})
	if c.Access(0x1000) {
		t.Fatal("cold access must miss")
	}
	if !c.Access(0x1000) {
		t.Fatal("second access must hit")
	}
	if !c.Access(0x1030) {
		t.Fatal("same line (different offset) must hit")
	}
	s := c.Stats()
	if s.Accesses != 3 || s.Misses != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64B lines, 2 sets -> conflict three lines into one set.
	c := New(Config{Name: "t", Size: 256, LineSize: 64, Assoc: 2})
	// Set index = (addr>>6) & 1. Addresses 0x000, 0x080, 0x100 share set 0.
	c.Access(0x000)
	c.Access(0x080)
	c.Access(0x000) // touch to make 0x080 the LRU victim
	c.Access(0x100) // evicts 0x080
	if !c.Access(0x000) {
		t.Fatal("MRU line was evicted")
	}
	if c.Access(0x080) {
		t.Fatal("LRU line should have been evicted")
	}
}

func TestAssociativityHoldsWays(t *testing.T) {
	c := New(Config{Name: "t", Size: 64 * 8, LineSize: 64, Assoc: 8}) // one set, 8 ways
	for i := uint64(0); i < 8; i++ {
		c.Access(i << 6)
	}
	for i := uint64(0); i < 8; i++ {
		if !c.Access(i << 6) {
			t.Fatalf("way %d evicted within capacity", i)
		}
	}
	c.Access(8 << 6) // ninth line evicts exactly one (the LRU: line 0)
	// Probe MRU-first so the probes themselves do not cascade evictions.
	hits := 0
	for i := int64(7); i >= 0; i-- {
		if c.Access(uint64(i) << 6) {
			hits++
		}
	}
	if hits != 7 {
		t.Fatalf("expected exactly one eviction, got %d hits", hits)
	}
}

func TestResetClears(t *testing.T) {
	c := New(Config{Name: "t", Size: 1024, LineSize: 64, Assoc: 2})
	c.Access(0x40)
	c.Reset()
	if c.Stats().Accesses != 0 {
		t.Fatal("stats not reset")
	}
	if c.Access(0x40) {
		t.Fatal("contents not reset")
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	bad := []Config{
		{Name: "zero", Size: 0, LineSize: 64, Assoc: 2},
		{Name: "nonpow2", Size: 3 * 64 * 2, LineSize: 64, Assoc: 2},
		{Name: "onebyteset", Size: 4, LineSize: 1, Assoc: 4},
	}
	for _, cfg := range bad {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", cfg.Name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("idle miss rate")
	}
	s = Stats{Accesses: 10, Misses: 3}
	if s.MissRate() != 0.3 {
		t.Fatalf("miss rate %f", s.MissRate())
	}
}

func TestStreamLargerThanCacheMissesEverySweep(t *testing.T) {
	c := New(Config{Name: "t", Size: 4096, LineSize: 64, Assoc: 4})
	// Stream 4x the capacity twice: with LRU, the second sweep also misses.
	lines := 4 * 4096 / 64
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i) << 6)
		}
	}
	s := c.Stats()
	if s.Misses != s.Accesses {
		t.Fatalf("cyclic over-capacity stream should always miss: %+v", s)
	}
}

func TestWorkingSetWithinCacheAlwaysHitsAfterWarmup(t *testing.T) {
	f := func(seed uint16) bool {
		c := New(Config{Name: "t", Size: 8192, LineSize: 64, Assoc: 8})
		base := uint64(seed) << 12
		lines := 8192 / 64 / 2 // half capacity
		for i := 0; i < lines; i++ {
			c.Access(base + uint64(i)<<6)
		}
		for i := 0; i < lines; i++ {
			if !c.Access(base + uint64(i)<<6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestTLBPageGranularity(t *testing.T) {
	tlb := NewTLB("itlb", 16, 4, 4096)
	if tlb.Access(0x1000) {
		t.Fatal("cold page must miss")
	}
	if !tlb.Access(0x1FFF) {
		t.Fatal("same page must hit")
	}
	if tlb.Access(0x2000) {
		t.Fatal("next page must miss")
	}
	if tlb.Stats().Misses != 2 {
		t.Fatalf("stats %+v", tlb.Stats())
	}
}

func TestTLBCapacity(t *testing.T) {
	tlb := NewTLB("itlb", 8, 4, 4096)
	for i := uint64(0); i < 8; i++ {
		tlb.Access(i * 4096)
	}
	hits := 0
	for i := uint64(0); i < 8; i++ {
		if tlb.Access(i * 4096) {
			hits++
		}
	}
	if hits != 8 {
		t.Fatalf("8 pages must fit an 8-entry TLB, got %d hits", hits)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := New(Config{Name: "l1", Size: 32 << 10, LineSize: 64, Assoc: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64) & 0xFFFFF)
	}
}
