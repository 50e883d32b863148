package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"kloc/internal/sim"
)

func TestDistributionExact(t *testing.T) {
	var d Distribution
	for i := 1; i <= 100; i++ {
		d.Observe(float64(i))
	}
	if d.Count() != 100 {
		t.Fatalf("count = %d", d.Count())
	}
	if d.Min() != 1 || d.Max() != 100 {
		t.Fatalf("min/max = %v/%v", d.Min(), d.Max())
	}
	if m := d.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v", m)
	}
	if q := d.Quantile(0.5); q < 49 || q > 52 {
		t.Fatalf("median = %v", q)
	}
	if q := d.Quantile(0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := d.Quantile(1); q != 100 {
		t.Fatalf("q1 = %v", q)
	}
}

func TestDistributionEmpty(t *testing.T) {
	var d Distribution
	if d.Mean() != 0 || d.Quantile(0.5) != 0 || d.Count() != 0 {
		t.Fatal("empty distribution not zero")
	}
}

func TestDistributionHistogramMode(t *testing.T) {
	var d Distribution
	n := exactLimit * 2
	for i := 0; i < n; i++ {
		d.Observe(1000) // all samples identical
	}
	if d.Count() != uint64(n) {
		t.Fatalf("count = %d", d.Count())
	}
	if m := d.Mean(); m != 1000 {
		t.Fatalf("mean = %v", m)
	}
	// Histogram quantile is a power-of-two lower bound: 512 <= q <= 1024.
	q := d.Quantile(0.5)
	if q < 512 || q > 1024 {
		t.Fatalf("histogram median = %v", q)
	}
}

// TestDistributionSwitchover pins the behaviour at the exact-samples →
// log-histogram transition: the last exact observation reports true
// order statistics, the first observation past exactLimit converts to
// histogram mode, and afterwards quantiles degrade gracefully to the
// containing log2 bucket's lower bound — within (q/2, q] of the exact
// value — while min/max stay exact forever.
func TestDistributionSwitchover(t *testing.T) {
	var d Distribution
	for i := 1; i <= exactLimit; i++ {
		d.Observe(float64(i))
	}
	if d.buckets != nil {
		t.Fatal("converted to histogram mode at exactLimit, want at exactLimit+1")
	}
	// Exact mode: true order statistics of 1..exactLimit.
	exactQ := map[float64]float64{0: 1, 0.25: 4096, 0.5: 8192, 0.75: 12288, 1: 16384}
	for q, want := range exactQ {
		if got := d.Quantile(q); got != want {
			t.Fatalf("exact Quantile(%v) = %v, want %v", q, got, want)
		}
	}

	d.Observe(3) // crosses the threshold
	if d.buckets == nil || d.samples != nil {
		t.Fatal("did not convert to histogram mode past exactLimit")
	}
	if d.Count() != exactLimit+1 {
		t.Fatalf("count = %d across switchover", d.Count())
	}
	// Histogram mode: each quantile is the containing log2 bucket's
	// lower bound, i.e. within (exact/2, exact] of the true value.
	for q, want := range exactQ {
		got := d.Quantile(q)
		if q == 1 {
			// The top quantile saturates to the exact max.
			if got != d.Max() {
				t.Fatalf("histogram Quantile(1) = %v, want max %v", got, d.Max())
			}
			continue
		}
		// Bucket 0 spans [0, 2), so its lower bound is 0.
		if got > want || (got <= want/2 && got != 0) {
			t.Fatalf("histogram Quantile(%v) = %v, want in (%v, %v] or 0", q, got, want/2, want)
		}
	}
	// Min/max stay exact in histogram mode, including values far
	// outside the observed range and below bucket resolution.
	if d.Min() != 1 || d.Max() != 16384 {
		t.Fatalf("min/max = %v/%v across switchover", d.Min(), d.Max())
	}
	d.Observe(0.25)
	d.Observe(1e9)
	if d.Min() != 0.25 || d.Max() != 1e9 {
		t.Fatalf("min/max = %v/%v after histogram observations", d.Min(), d.Max())
	}
}

// TestDistributionQuantileAccuracyProperty compares histogram-mode
// quantiles against an exact reference over random sample sets that
// cross the switchover: the histogram answer must always be the log2
// lower bound of the exact one.
func TestDistributionQuantileAccuracyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := sim.NewRNG(seed)
		n := exactLimit + 1 + int(r.Uint64()%1000)
		var d Distribution
		ref := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := 1 + r.Float64()*1e6
			ref = append(ref, v)
			d.Observe(v)
		}
		var e Distribution // exact reference, never switched
		e.samples = ref
		e.count = uint64(len(ref))
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
			exact := e.Quantile(q)
			got := d.Quantile(q)
			if got > exact || (got <= exact/2 && got != 0) {
				return false
			}
		}
		return d.Min() == e.minOf() && d.Max() == e.maxOf()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func (d *Distribution) minOf() float64 {
	m := d.samples[0]
	for _, v := range d.samples {
		if v < m {
			m = v
		}
	}
	return m
}

func (d *Distribution) maxOf() float64 {
	m := d.samples[0]
	for _, v := range d.samples {
		if v > m {
			m = v
		}
	}
	return m
}

func TestDistributionMeanProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		r := sim.NewRNG(seed)
		n := int(nRaw)%1000 + 1
		var d Distribution
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Float64() * 1e6
			sum += v
			d.Observe(v)
		}
		return math.Abs(d.Mean()-sum/float64(n)) < 1e-6*sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{{0, 0}, {0.5, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1024, 10}}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLifetimeTracker(t *testing.T) {
	var lt LifetimeTracker
	lt.Died(LifetimeSlab, 100, 150)
	lt.Died(LifetimeCache, 200, 1200)
	lt.Died(LifetimeCache, 300, 1301)
	for _, c := range []struct {
		class  LifetimeClass
		deaths uint64
		mean   sim.Duration
	}{
		{LifetimeSlab, 1, 50},
		{LifetimeCache, 2, 1000}, // 1000.5 truncates, as a Duration does
		{LifetimeApp, 0, 0},      // no deaths: mean 0
	} {
		l := lt.Class(c.class)
		if l.Deaths != c.deaths || l.Mean() != c.mean {
			t.Errorf("class %d: %d deaths, mean %v; want %d, %v", c.class, l.Deaths, l.Mean(), c.deaths, c.mean)
		}
	}
}
