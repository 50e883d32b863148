package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2500, "2.5us"},
		{36 * Millisecond, "36.0ms"},
		{2 * Second, "2.00s"},
		{-2500, "-2.5us"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(100)
	t1 := t0.Add(50)
	if t1 != 150 {
		t.Fatalf("Add: got %d", t1)
	}
	if d := t1.Sub(t0); d != 50 {
		t.Fatalf("Sub: got %d", d)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d identical draws of 1000", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	var zeros int
	for i := 0; i < 100; i++ {
		if r.Uint64() == 0 {
			zeros++
		}
	}
	if zeros > 1 {
		t.Fatalf("zero seed produced %d zero draws", zeros)
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(3)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("invalid permutation at value %d", v)
		}
		seen[v] = true
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(5)
	f1 := parent.Fork()
	f2 := parent.Fork()
	diff := 0
	for i := 0; i < 100; i++ {
		if f1.Uint64() != f2.Uint64() {
			diff++
		}
	}
	if diff < 95 {
		t.Fatalf("forked streams nearly identical: only %d/100 differ", diff)
	}
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(9)
	z := NewZipf(r, 1.2, 1000)
	counts := make([]int, 1000)
	const draws = 100000
	for i := 0; i < draws; i++ {
		k := z.Next()
		if k < 0 || k >= 1000 {
			t.Fatalf("Zipf out of range: %d", k)
		}
		counts[k]++
	}
	// Rank 0 must be the most popular, and the head must dominate.
	for i := 1; i < 1000; i++ {
		if counts[i] > counts[0] {
			t.Fatalf("rank %d (%d) more popular than rank 0 (%d)", i, counts[i], counts[0])
		}
	}
	head := 0
	for i := 0; i < 100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.5 {
		t.Fatalf("top-10%% of keys drew only %.2f of traffic, want skew", frac)
	}
}

func TestZipfStatisticalShape(t *testing.T) {
	// The ratio of probabilities of rank 1 to rank 2 should approach 2^s.
	r := NewRNG(13)
	s := 1.5
	z := NewZipf(r, s, 100)
	var c1, c2 int
	for i := 0; i < 200000; i++ {
		switch z.Next() {
		case 0:
			c1++
		case 1:
			c2++
		}
	}
	got := float64(c1) / float64(c2)
	want := math.Pow(2, s)
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("rank1/rank2 ratio %.3f, want ~%.3f", got, want)
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, Func(func(*Engine) { order = append(order, 3) }))
	e.Schedule(10, Func(func(*Engine) { order = append(order, 1) }))
	e.Schedule(20, Func(func(*Engine) { order = append(order, 2) }))
	e.Schedule(10, Func(func(*Engine) { order = append(order, 11) })) // tie: scheduled later fires later
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("fired %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("clock ended at %v", e.Now())
	}
}

func TestEngineAfterAndReschedule(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick Func
	tick = func(en *Engine) {
		count++
		if count < 5 {
			en.After(10, tick)
		}
	}
	e.After(10, tick)
	e.Run()
	if count != 5 {
		t.Fatalf("ticked %d times", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock at %v, want 50", e.Now())
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, Func(func(*Engine) { fired = true }))
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	// Double cancel and the zero Handle are no-ops.
	e.Cancel(ev)
	e.Cancel(Handle{})
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{5, 15, 25} {
		at := at
		e.Schedule(at, Func(func(en *Engine) { fired = append(fired, en.Now()) }))
	}
	e.RunUntil(20)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock at %v, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending %d, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 3 || e.Now() != 25 {
		t.Fatalf("after Run: fired=%v now=%v", fired, e.Now())
	}
}

func TestEngineHalt(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Schedule(1, Func(func(en *Engine) { count++; en.Halt() }))
	e.Schedule(2, Func(func(en *Engine) { count++ }))
	e.Run()
	if count != 1 {
		t.Fatalf("halt did not stop the run: count=%d", count)
	}
	e.Run() // resumes
	if count != 2 {
		t.Fatalf("resume failed: count=%d", count)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, Func(func(*Engine) {}))
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, Func(func(*Engine) {}))
}

func TestEngineNegativeAfterClamps(t *testing.T) {
	e := NewEngine()
	fired := false
	e.After(-5, Func(func(*Engine) { fired = true }))
	e.Run()
	if !fired {
		t.Fatal("negative After never fired")
	}
}

func TestEngineDeterminismProperty(t *testing.T) {
	// Property: a randomized schedule replayed with the same seed fires
	// in an identical order.
	run := func(seed uint64) []int {
		r := NewRNG(seed)
		e := NewEngine()
		var order []int
		for i := 0; i < 200; i++ {
			i := i
			e.Schedule(Time(r.Intn(50)), Func(func(*Engine) { order = append(order, i) }))
		}
		e.Run()
		return order
	}
	f := func(seed uint64) bool {
		a, b := run(seed), run(seed)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
