package sim

import "math"

func logf(x float64) float64 { return math.Log(x) }
func expf(x float64) float64 { return math.Exp(x) }

// RNG is a deterministic pseudo-random number generator (splitmix64 /
// xoshiro256** family). We implement it directly rather than using
// math/rand so that the simulation's stream is stable across Go
// releases: the paper's figures are regenerated as golden-shaped
// benchmarks and must not drift when the toolchain upgrades.
type RNG struct {
	// Every draw advances the state, so a stream is single-owner by
	// construction: give each RNG one owner and Fork children for
	// anything that must draw independently. A shared stream shifts
	// draws, which TestGoldenRunDigests, eval identity and the cluster
	// report's identity with BENCH_cluster.json catch.
	s [4]uint64
}

// NewRNG returns a generator seeded from the given seed via splitmix64,
// as recommended by the xoshiro authors.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	// A zero state would make the generator emit zeros forever.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Fork derives an independent generator. Two forks from the same parent
// state produce distinct, deterministic streams; use one per workload
// thread so that thread interleavings do not perturb each other's draws.
func (r *RNG) Fork() *RNG { return NewRNG(r.Uint64()) }

// Zipf draws Zipf-distributed ranks in [0, n) with exponent s > 1 using
// rejection-inversion (Hörmann/Derflinger). Key-value workloads in the
// paper (RocksDB, Redis, Cassandra via YCSB) are driven by skewed key
// popularity, which this models.
type Zipf struct {
	// The stream pointer is fixed at construction; draws advance the
	// RNG's own state, not this field.
	r                *RNG
	n                float64
	s                float64
	oneMinusS        float64
	hIntegralX1      float64
	hIntegralNumElem float64
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s (> 1).
func NewZipf(r *RNG, s float64, n int) *Zipf {
	if n <= 0 || s <= 1 {
		panic("sim: NewZipf requires n > 0 and s > 1")
	}
	z := &Zipf{r: r, n: float64(n), s: s, oneMinusS: 1 - s}
	z.hIntegralX1 = z.hIntegral(1.5) - 1
	z.hIntegralNumElem = z.hIntegral(z.n + 0.5)
	return z
}

func (z *Zipf) hIntegral(x float64) float64 {
	logX := logf(x)
	return helper2(z.oneMinusS*logX) * logX
}

func (z *Zipf) h(x float64) float64 { return expf(-z.s * logf(x)) }

// Next returns the next Zipf-distributed rank in [0, n).
func (z *Zipf) Next() int {
	for {
		u := z.hIntegralNumElem + z.r.Float64()*(z.hIntegralX1-z.hIntegralNumElem)
		x := z.hIntegralInverse(u)
		k := x + 0.5
		if k < 1 {
			k = 1
		} else if k > z.n {
			k = z.n
		}
		kf := float64(int64(k))
		if u >= z.hIntegral(kf+0.5)-z.h(kf) {
			return int(kf) - 1
		}
	}
}

func (z *Zipf) hIntegralInverse(x float64) float64 {
	t := x * z.oneMinusS
	if t < -1 {
		t = -1
	}
	return expf(helper1(t) * x)
}

// helper1 computes log1p(x)/x with series fallback near zero.
func helper1(x float64) float64 {
	if x > -0.5 && x < 0.5 {
		return 1 - x*(0.5-x*(1.0/3.0-0.25*x))
	}
	return logf(1+x) / x
}

// helper2 computes expm1(x)/x with series fallback near zero.
func helper2(x float64) float64 {
	if x > -0.5 && x < 0.5 {
		return 1 + x*0.5*(1+x*(1.0/3.0)*(1+0.25*x))
	}
	return (expf(x) - 1) / x
}
