// Package cache implements the structural memory-side models of the
// simulator: set-associative LRU caches and TLBs. These are real structural
// simulators — the hit/miss behaviour emerges from the address stream the
// instrumented codec produces, not from rates or formulas.
package cache

import (
	"fmt"
	"unsafe"
)

// Config sizes one cache level.
type Config struct {
	Name     string
	Size     int // total bytes
	LineSize int // bytes per line (block)
	Assoc    int // ways per set
}

// Stats aggregates accesses and misses.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Cache is a set-associative cache with true-LRU replacement.
//
// Each set is kept in recency order: way 0 holds the most recently used
// line and way assoc-1 the least. A way is one 8-byte tag word, tag+1,
// with 0 meaning empty. A hit moves its way to the front and a miss shifts
// the set down one way, evicting the last. Keeping the assoc most recently
// used distinct lines is exactly true LRU with invalid-first fill — empty
// ways only ever sit at the tail, so they are evicted before any valid
// line — and needs no LRU clock.
//
// Access is the single hottest function of the simulator and runs once per
// cache-line touch of the entire workload, so its fast path is kept under
// Go's inlining budget: a repeat touch of the previous access's line hits
// without touching the tag array. The set walk is out of line.
type Cache struct {
	cfg      Config
	setShift uint
	setMask  uint64
	tagShift uint
	assoc    int
	ways     []uint64 // sets*assoc tag words, set-major, each set MRU first
	stats    Stats

	// MRU short-circuit: the previous access's line spans
	// [mruBase, mruBase+mruLen). mruLen is 0 until the first access, so the
	// unsigned range check in Access needs no separate valid flag. That line
	// sits at way 0 of its set — nothing has touched the cache since — so
	// the walk would hit it there and move nothing.
	mruBase uint64
	mruLen  uint64
}

// New builds a cache. Size must be a multiple of LineSize*Assoc and the set
// count must be a power of two; New panics otherwise since configurations
// are static data. A single set of 1-byte lines is rejected too: its tags
// span all 2^64 values, so tag+1 would wrap onto the empty word.
func New(cfg Config) *Cache {
	if cfg.LineSize <= 0 || cfg.Assoc <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache %s: bad config %+v", cfg.Name, cfg))
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache %s: set count %d not a power of two", cfg.Name, sets))
	}
	if sets == 1 && cfg.LineSize == 1 {
		panic(fmt.Sprintf("cache %s: one set of 1-byte lines cannot be tagged", cfg.Name))
	}
	return &Cache{
		cfg:      cfg,
		setShift: uint(log2(cfg.LineSize)),
		setMask:  uint64(sets - 1),
		tagShift: uint(log2(sets)),
		assoc:    cfg.Assoc,
		ways:     make([]uint64, sets*cfg.Assoc),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns the access counters.
func (c *Cache) Stats() Stats { return c.stats }

// Access looks up the line containing addr, inserting it on a miss, and
// reports whether it hit. Writes allocate like reads (write-allocate,
// write-back approximation).
func (c *Cache) Access(addr uint64) bool {
	c.stats.Accesses++
	if addr-c.mruBase < c.mruLen {
		return true
	}
	return c.walk(addr)
}

// walk is Access past the MRU short-circuit: find the line in its set,
// moving it to the front on a hit, or shift the set down one way and
// insert it at the front on a miss. It is kept out of line because
// inlining it would push Access over the inlining budget.
//
//go:noinline
func (c *Cache) walk(addr uint64) bool {
	line := addr >> c.setShift
	c.mruBase, c.mruLen = line<<c.setShift, 1<<c.setShift
	base := int(line&c.setMask) * c.assoc
	set := c.ways[base : base+c.assoc]
	word := line>>c.tagShift + 1
	for i, w := range set {
		if w == word {
			copy(set[1:i+1], set[:i])
			set[0] = word
			return true
		}
	}
	c.stats.Misses++
	copy(set[1:], set)
	set[0] = word
	return false
}

// Clone returns an independent deep copy of the cache: contents, recency
// order and statistics. Cloning a warmed cache is how core's decoded-
// machine snapshots hand every sweep job post-decode cache state at memcpy
// speed.
func (c *Cache) Clone() *Cache {
	n := *c
	n.ways = append([]uint64(nil), c.ways...)
	return &n
}

// Reset clears contents and statistics.
func (c *Cache) Reset() {
	clear(c.ways)
	c.stats = Stats{}
	c.mruBase, c.mruLen = 0, 0
}

// SizeBytes reports the cache's resident footprint: the tag array plus the
// struct itself.
func (c *Cache) SizeBytes() int {
	return len(c.ways)*8 + int(unsafe.Sizeof(*c))
}

func log2(n int) int {
	b := 0
	for 1<<b < n {
		b++
	}
	return b
}

// TLB is a fully-structural translation buffer: a set-associative cache of
// page numbers.
type TLB struct {
	inner    *Cache
	pageBits uint
}

// NewTLB builds a TLB with the given entry count, associativity and page
// size (bytes).
func NewTLB(name string, entries, assoc, pageSize int) *TLB {
	return &TLB{
		inner: New(Config{
			Name:     name,
			Size:     entries, // one "byte" per entry with LineSize 1
			LineSize: 1,
			Assoc:    assoc,
		}),
		pageBits: uint(log2(pageSize)),
	}
}

// Access translates addr, reporting whether the page was resident.
func (t *TLB) Access(addr uint64) bool {
	return t.inner.Access(addr >> t.pageBits)
}

// Stats returns hit/miss counters.
func (t *TLB) Stats() Stats { return t.inner.Stats() }

// Reset clears the TLB.
func (t *TLB) Reset() { t.inner.Reset() }

// Clone returns an independent deep copy of the TLB.
func (t *TLB) Clone() *TLB {
	n := *t
	n.inner = t.inner.Clone()
	return &n
}

// SizeBytes reports the TLB's resident footprint.
func (t *TLB) SizeBytes() int {
	return t.inner.SizeBytes() + int(unsafe.Sizeof(*t))
}
