// Package fixture carries deliberate RNG stream-discipline violations
// for the rngflow analyzer: composite-literal construction that
// bypasses seeding, and flow violations (a stream handed to two
// owners, drawn after handoff, double-retained through interface
// dispatch) — plus the sanctioned shapes: retained streams,
// fork-per-owner, reseeding, and a justified suppression. The go tool
// never builds testdata trees.
package fixture

import "kloc/internal/sim"

// Holder retains a stream: a field is a legal owner, silent.
type Holder struct {
	r *sim.RNG
}

// FromLiteral assembles a stream by hand, bypassing the seeding path.
func FromLiteral() *sim.RNG {
	return &sim.RNG{} // want "sim.RNG composite literal bypasses the seeding discipline"
}

// keep stores its argument: the canonical retaining callee.
func keep(h *Holder, r *sim.RNG) {
	h.r = r
}

// DoubleOwner hands one stream to two owners instead of forking.
func DoubleOwner(a, b *Holder) {
	r := sim.NewRNG(1)
	keep(a, r)
	keep(b, r) // want "RNG stream r is handed to a second owner"
}

// UseAfterGive draws from a stream another owner already took.
func UseAfterGive(h *Holder) uint64 {
	r := sim.NewRNG(2)
	h.r = r
	return r.Uint64() // want "RNG stream r is used after fixture.Holder.r took ownership"
}

// ForkedHandoff is the sanctioned pattern: each owner gets a child
// stream, the parent keeps drawing. Silent.
func ForkedHandoff(a, b *Holder) uint64 {
	root := sim.NewRNG(3)
	keep(a, root.Fork())
	keep(b, root.Fork())
	return root.Uint64()
}

// Reseeded hands off, rebinds to a fresh stream, and continues:
// the definition resets ownership. Silent.
func Reseeded(h *Holder) uint64 {
	r := sim.NewRNG(4)
	h.r = r
	r = sim.NewRNG(5)
	return r.Uint64()
}

// Sink dispatches through an interface; the retaining implementation
// makes every dispatch a retain.
type Sink interface {
	Feed(r *sim.RNG)
}

type fieldSink struct {
	r *sim.RNG
}

// Feed stores the stream: the interface summary joins this.
func (s *fieldSink) Feed(r *sim.RNG) { s.r = r }

// FeedTwice hands the same stream through the interface twice.
func FeedTwice(s Sink) {
	r := sim.NewRNG(6)
	s.Feed(r)
	s.Feed(r) // want "RNG stream r is handed to a second owner"
}

// UseSink keeps the dispatch grounded with a concrete impl.
func UseSink() {
	FeedTwice(&fieldSink{})
}

// Registered is a justified double-handoff: the marker suppresses it.
func Registered(a, b *Holder) {
	r := sim.NewRNG(7)
	keep(a, r)
	//klocs:ignore-rngflow the two holders are one consumer's double-buffer
	keep(b, r)
}
