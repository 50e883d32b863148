// Package fixture carries deliberate shard-isolation violations for
// the ownership analyzer — package-level vars written after program
// initialization — plus the clean shapes it must not flag: initializer
// and init() writes, init-only helpers, by-value copies, and struct
// field writes (per-run state). The go tool never builds testdata
// trees.
package fixture

// totalOps is bumped by an exported function: the canonical diagnostic.
var totalOps int

// Record is the runtime writer of totalOps.
func Record() {
	totalOps++ // want "package-level var fixture.totalOps is written by fixture.Record outside its initializer or init\(\)"
}

// seedDefault is assigned only in its initializer, silent.
var seedDefault = uint64(42)

// Seed reads it, silent.
func Seed() uint64 { return seedDefault }

// table is filled in init() through an init-only helper, silent.
var table []int

func init() {
	table = make([]int, 4)
	fill()
	setup := func() { table[0] = 1 }
	setup()
}

func fill() {
	for i := range table {
		table[i] = i
	}
}

// Lookup reads table, silent.
func Lookup(i int) int { return table[i] }

// shared is written by a helper that init and a runtime caller both
// reach: the helper is not init-only, so its write is reported.
var shared int

func bumpShared() {
	shared++ // want "fixture.shared is written by fixture.bumpShared"
}

func init() { bumpShared() }

// Tick is the runtime caller of bumpShared.
func Tick() { bumpShared() }

// registry is populated by a constructor: constructors run once per
// shard, so the write is reported.
var registry = map[string]int{}

// NewThing registers itself.
func NewThing(name string) int {
	registry[name] = len(registry) // want "fixture.registry is written by fixture.NewThing"
	return registry[name]
}

// Forget mutates registry through the delete builtin.
func Forget(name string) {
	delete(registry, name) // want "fixture.registry is written by fixture.Forget"
}

// grid is written through a local alias; the write still attributes
// to the var.
var grid = make([]int, 8)

// Set writes through the alias idiom.
func Set(i, v int) {
	row := grid
	row[i] = v // want "fixture.grid is written by fixture.Set"
}

// Config is the type of a package-level default.
type Config struct {
	Mode int
}

var defaults = Config{Mode: 1}

// WithMode mutates only its local copy of defaults, silent.
func WithMode(m int) Config {
	c := defaults
	c.Mode = m
	return c
}

// Gauge has a pointer-receiver mutator.
type Gauge struct {
	v int64
}

// Inc mutates the gauge: a field write on a caller's value, silent.
func (g *Gauge) Inc() { g.v++ }

// hits is a package-level Gauge; calling its mutator writes the var.
var hits Gauge

// Hit bumps the package-level gauge.
func Hit() {
	hits.Inc() // want "fixture.hits is written by fixture.Hit"
}

// Counter is per-run state: its field writes are not package state.
type Counter struct {
	n int
}

// Bump mutates one counter instance, silent.
func (c *Counter) Bump() { c.n++ }

// hook is a package-level function literal: it runs whenever it is
// called, so its write is a runtime write.
var hook = func() {
	totalOps = 0 // want "fixture.totalOps is written by"
}
